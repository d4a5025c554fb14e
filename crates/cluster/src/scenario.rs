//! Scenario descriptions: everything one simulation run needs.

pub use netclone_hosts::RetryPolicy;
use netclone_kvstore::{HotKeyCost, ServiceCostModel};
use netclone_linksim::LinkSpec;
use netclone_workloads::{Jitter, ServiceShape, SyntheticWorkload};

use crate::calib;
use crate::scheme::Scheme;
use crate::topology::Topology;

/// One worker server's shape.
#[derive(Clone, Copy, Debug)]
pub struct ServerSpec {
    /// Worker threads (15 synthetic / 8 KV; heterogeneous setups mix 15
    /// and 8, §5.4).
    pub workers: usize,
}

/// The workload a scenario offers.
#[derive(Clone, Debug)]
pub enum Workload {
    /// Synthetic dummy RPCs (§5.1.2).
    Synthetic(SyntheticWorkload),
    /// KV read mix over a Zipf population (§5.5).
    Kv {
        /// Fraction of GETs (the remainder are SCANs).
        get_frac: f64,
        /// Objects per SCAN (the paper uses 100).
        scan_count: u16,
        /// Key population size (the paper uses 1 M).
        objects: usize,
        /// Zipf skew (the paper uses 0.99).
        zipf_theta: f64,
        /// Service-cost model (Redis or Memcached).
        cost: ServiceCostModel,
    },
}

impl Workload {
    /// The paper's Redis workload at the given GET fraction.
    pub fn redis(get_frac: f64) -> Self {
        Workload::Kv {
            get_frac,
            scan_count: 100,
            objects: 1_000_000,
            zipf_theta: 0.99,
            cost: ServiceCostModel::redis(),
        }
    }

    /// The paper's Memcached workload at the given GET fraction.
    pub fn memcached(get_frac: f64) -> Self {
        Workload::Kv {
            get_frac,
            scan_count: 100,
            objects: 1_000_000,
            zipf_theta: 0.99,
            cost: ServiceCostModel::memcached(),
        }
    }

    /// Mean service time per request, ns (for capacity estimates).
    pub fn mean_service_ns(&self) -> f64 {
        match self {
            Workload::Synthetic(wl) => wl.mean_class_ns(),
            Workload::Kv {
                get_frac,
                scan_count,
                cost,
                ..
            } => cost.mix_mean_ns(*get_frac, *scan_count),
        }
    }

    /// Display label.
    pub fn label(&self) -> String {
        match self {
            Workload::Synthetic(wl) => wl.label(),
            Workload::Kv {
                get_frac,
                scan_count,
                ..
            } => format!(
                "{}%-GET,{}%-SCAN({})",
                (get_frac * 100.0).round() as u32,
                ((1.0 - get_frac) * 100.0).round() as u32,
                scan_count
            ),
        }
    }
}

/// Switch failure injection (Fig. 16).
///
/// The plan gates forwarding for the *whole* fabric: in the paper's
/// single-rack testbed that is exactly the one ToR power-cycling; under a
/// multi-rack [`Topology`] it models a fabric-wide outage (every leaf and
/// the spine stop forwarding, and bring-up clears soft state on all of
/// them). Per-switch failure injection is not modeled yet.
#[derive(Clone, Copy, Debug)]
pub struct SwitchFailurePlan {
    /// When the switch stops forwarding, ns.
    pub fail_at_ns: u64,
    /// When the operator reactivates it, ns (forwarding resumes after the
    /// pipeline bring-up time, with soft state cleared).
    pub reactivate_at_ns: u64,
    /// Pipeline bring-up duration, ns.
    pub bringup_ns: u64,
}

/// Background incast traffic: bulk flows from every other rack converging
/// on one victim rack's downlinks, contending with the RPC traffic for
/// queue space (requires [`Scenario::links`] and a multi-rack topology).
///
/// Background packets are *load*, not workload: they traverse the
/// congestion-aware links (filling queues, taking drops) but never touch
/// a switch engine, server, or client, so they leave every RPC-layer
/// counter untouched except through queueing delay and drops.
#[derive(Clone, Copy, Debug)]
pub struct Background {
    /// Aggregate background packet rate, packets/second across all
    /// source racks.
    pub rps: f64,
    /// On-wire size of one background packet, bytes (bulk flows: jumbo).
    pub wire_bytes: u16,
    /// The rack whose downlinks the flows converge on.
    pub victim_rack: usize,
}

/// A server failure injection (§3.6) — **fail-stop**: the server silently
/// drops everything from `fail_at_ns` until the control plane removes it.
///
/// This is the crash model. For the *gray* failure where a server keeps
/// answering but slower (thermal throttling, a noisy neighbour, a
/// background compaction), use [`SlowdownPlan`]. [`Scenario::validate`]
/// rejects both on the same server at overlapping times (a server cannot
/// be dead and slow at once), and a second stop of the same server at
/// any time (a stopped server never comes back).
#[derive(Clone, Copy, Debug)]
pub struct ServerFailurePlan {
    /// Which server dies.
    pub sid: u16,
    /// When it dies, ns.
    pub fail_at_ns: u64,
    /// When the switch control plane removes it from the tables, ns
    /// (detection delay after the failure).
    pub removed_at_ns: u64,
}

/// A mid-run server **slowdown** — the gray-failure counterpart of the
/// fail-stop [`ServerFailurePlan`]: from `start_ns` to `end_ns` every
/// service time the server *draws* is multiplied by `factor` (in-flight
/// requests keep their completion times). The server keeps accepting,
/// queueing, and answering throughout, so the switch never removes it —
/// exactly the scenario where cloning (racing a second server) should
/// shine and where fail-stop handling does nothing.
///
/// Both edges are fabric-domain-0 control events, so serial and sharded
/// runs stay byte-identical; see "Fault injection & recovery" in
/// `docs/ARCHITECTURE.md`.
#[derive(Clone, Copy, Debug)]
pub struct SlowdownPlan {
    /// Which server degrades.
    pub sid: u16,
    /// When the degradation starts, ns.
    pub start_ns: u64,
    /// When the server recovers to full speed, ns.
    pub end_ns: u64,
    /// Multiplicative service-time factor while degraded (> 1 slows the
    /// server; must be > 0).
    pub factor: f64,
}

/// A mid-run **leaf drain** in a multi-rack fabric: from `drain_at_ns`
/// the victim rack's leaf switch stops forwarding (maintenance drain /
/// unplanned leaf outage — packets to and from that rack are lost), and
/// at `restore_at_ns` it comes back with its soft state cleared, exactly
/// like a post-power-cycle switch (Fig. 16, but scoped to one leaf
/// instead of the whole fabric).
#[derive(Clone, Copy, Debug)]
pub struct DrainPlan {
    /// Which rack's leaf drains (must exist and the topology must have
    /// more than one rack — draining the only leaf is just Fig. 16).
    pub rack: usize,
    /// When forwarding stops, ns.
    pub drain_at_ns: u64,
    /// When forwarding resumes (soft state cleared), ns.
    pub restore_at_ns: u64,
}

/// A mid-run **link flap** in a congestion-aware multi-rack fabric: from
/// `start_ns` to `end_ns` every rack-adjacent link of the victim rack
/// (host access links and leaf↔upper-tier uplinks/downlinks) collapses to
/// `1/factor` of its nominal rate — an auto-negotiation downshift or a
/// flapping optic, the gray failure of the *network* the way
/// [`SlowdownPlan`] is the gray failure of a server. Queued packets keep
/// their departure schedule; packets offered inside the window pay the
/// degraded serialization cost. The multiplier is an integer, so the flap
/// inherits the link model's determinism.
///
/// Requires [`Scenario::links`] and a multi-rack [`Topology`] (stateful
/// links are only materialized per owned rack there).
#[derive(Clone, Copy, Debug)]
pub struct LinkFlapPlan {
    /// The rack whose adjacent links degrade.
    pub rack: usize,
    /// When the rate collapses, ns.
    pub start_ns: u64,
    /// When the nominal rate is restored, ns.
    pub end_ns: u64,
    /// Rate-collapse divisor while flapped (≥ 2; 1 is a healthy link).
    pub factor: u64,
}

/// One timed fault edge pair in a [`FaultTimeline`].
#[derive(Clone, Copy, Debug)]
pub enum Fault {
    /// Gray server: service times multiplied inside the window.
    Slowdown(SlowdownPlan),
    /// Leaf drain: one rack's leaf stops forwarding, then recovers with
    /// soft state cleared.
    Drain(DrainPlan),
    /// Link flap: rack-adjacent links collapse to a fraction of nominal
    /// rate, then recover.
    LinkFlap(LinkFlapPlan),
    /// Fabric-wide switch reboot (the Fig. 16 power-cycle): forwarding
    /// stops at `fail_at_ns`, resumes `bringup_ns` after
    /// `reactivate_at_ns` with soft state cleared and the hard counters
    /// preserved.
    Reboot(SwitchFailurePlan),
    /// Fail-stop server (§3.6): it drops everything from `fail_at_ns`,
    /// and the control plane removes it from the tables at
    /// `removed_at_ns`. It never comes back.
    ServerStop(ServerFailurePlan),
}

/// An ordered, validated set of timed fault edges — the scenario's one
/// fault channel: switch reboots, fail-stop and gray servers, leaf
/// drains and link flaps, any number of each.
///
/// Every edge is delivered as a fabric-domain-0 control event primed at
/// build time in declaration order, so serial and sharded runs stay
/// byte-identical for any timeline (see "Fault injection & recovery" in
/// `docs/ARCHITECTURE.md`). `Default` is empty and primes nothing.
#[derive(Clone, Debug, Default)]
pub struct FaultTimeline {
    /// The fault edges, primed in declaration order.
    pub faults: Vec<Fault>,
}

impl FaultTimeline {
    /// True when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Cascade preset: a maintenance wave draining `racks` one after
    /// another — rack *i* drains at `start_ns + i·stagger_ns` and
    /// restores `hold_ns` later. With `stagger_ns < hold_ns` the windows
    /// overlap (an aggressive rollout); with `stagger_ns ≥ hold_ns` each
    /// rack is back before the next goes down.
    pub fn rolling_drain(racks: &[usize], start_ns: u64, hold_ns: u64, stagger_ns: u64) -> Self {
        let faults = racks
            .iter()
            .enumerate()
            .map(|(i, &rack)| {
                let drain_at_ns = start_ns + i as u64 * stagger_ns;
                Fault::Drain(DrainPlan {
                    rack,
                    drain_at_ns,
                    restore_at_ns: drain_at_ns + hold_ns,
                })
            })
            .collect();
        FaultTimeline { faults }
    }

    /// Cascade preset: a correlated gray failure — every server in
    /// `servers` slows down by `factor` over the *same* window (a shared
    /// power cap, a bad kernel rollout, one overloaded backing store).
    pub fn correlated_gray(servers: &[u16], start_ns: u64, end_ns: u64, factor: f64) -> Self {
        let faults = servers
            .iter()
            .map(|&sid| {
                Fault::Slowdown(SlowdownPlan {
                    sid,
                    start_ns,
                    end_ns,
                    factor,
                })
            })
            .collect();
        FaultTimeline { faults }
    }
}

/// Composable service-model overrides layered over the workload — the
/// adversarial suite's seam. `Default` means "the workload's own model"
/// (synthetic → exponential execution around the class, KV → Gamma(4)
/// over the flat cost model), which keeps every pre-existing scenario
/// seed-pinned.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceModel {
    /// Override the per-server execution-time shape (e.g.
    /// [`ServiceShape::Gamma4`] for a synthetic workload, or
    /// [`ServiceShape::Deterministic`] to expose the class distribution
    /// directly).
    pub shape: Option<ServiceShape>,
    /// Cache-aware hot/cold cost split for KV workloads: keys in the hot
    /// set are cheap hits, the Zipf tail pays the expensive miss path.
    /// Replaces the workload's flat [`ServiceCostModel`] at the servers.
    pub hot_key: Option<HotKeyCost>,
}

/// Everything one simulation run needs.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The scheme under test.
    pub scheme: Scheme,
    /// Number of client hosts (the paper uses 2).
    pub n_clients: usize,
    /// The worker servers.
    pub servers: Vec<ServerSpec>,
    /// The offered workload.
    pub workload: Workload,
    /// Service-time variability (±15, p ∈ {0.01, 0.001}).
    pub jitter: Jitter,
    /// Total offered load, requests/second across all clients.
    pub offered_rps: f64,
    /// Warm-up duration (measurements discarded), ns.
    pub warmup_ns: u64,
    /// Measurement window, ns.
    pub measure_ns: u64,
    /// Uniform packet-loss probability per link traversal.
    pub loss: f64,
    /// Master seed.
    pub seed: u64,
    /// Service-model overrides (shape, hot-key cost); default = the
    /// workload's own model.
    pub service_model: ServiceModel,
    /// Every injected fault (switch reboots, fail-stop and gray servers,
    /// leaf drains, link flaps); default = empty.
    pub faults: FaultTimeline,
    /// Client-side retry-on-timeout recovery ([`RetryPolicy`]): expired
    /// requests are retransmitted with capped exponential backoff under a
    /// per-client budget. `None` (the default) keeps requests outstanding
    /// until answered — the pre-recovery simulator, bit for bit.
    pub retry: Option<RetryPolicy>,
    /// Throughput-timeseries bucket width, ns (Fig. 16 uses 1 s).
    pub timeseries_bucket_ns: u64,
    /// Filter tables on the switch (paper default 2; ablations vary it).
    pub n_filter_tables: usize,
    /// log2 of slots per filter table (paper default 17; the ablation
    /// shrinks it to make hash collisions observable).
    pub filter_slots_log2: u8,
    /// Override the group table (ablations: e.g. unordered C(n,2) pairs).
    pub custom_groups: Option<Vec<(u16, u16)>>,
    /// Cloning condition (paper: both idle; the §3.4 threshold alternative
    /// is available for the ablation).
    pub clone_condition: netclone_core::CloneCondition,
    /// Fabric shape: racks, host placement, inter-rack latency (§3.7).
    /// [`Topology::single_rack`] reproduces the paper's testbed exactly.
    pub topology: Topology,
    /// Congestion-aware links (`netclone-linksim`): bandwidth, bounded
    /// queues, tail-drop, ECN counters. `None` (the default) keeps every
    /// hop a fixed latency — the pre-linksim simulator, bit for bit.
    pub links: Option<LinkSpec>,
    /// Background incast traffic over the links (`None` = quiet fabric;
    /// requires `links` and a multi-rack topology).
    pub background: Option<Background>,
}

impl Scenario {
    /// The paper's default testbed: 2 clients, 6 homogeneous synthetic
    /// workers, Exp(25), high variability.
    pub fn synthetic_default(scheme: Scheme, wl: SyntheticWorkload, offered_rps: f64) -> Self {
        Scenario {
            scheme,
            n_clients: 2,
            servers: vec![
                ServerSpec {
                    workers: calib::SYNTHETIC_WORKERS
                };
                6
            ],
            workload: Workload::Synthetic(wl),
            jitter: Jitter::HIGH,
            offered_rps,
            warmup_ns: 30_000_000,   // 30 ms
            measure_ns: 250_000_000, // 250 ms
            loss: 0.0,
            seed: 42,
            service_model: ServiceModel::default(),
            faults: FaultTimeline::default(),
            retry: None,
            timeseries_bucket_ns: 100_000_000,
            n_filter_tables: 2,
            filter_slots_log2: 17,
            custom_groups: None,
            clone_condition: netclone_core::CloneCondition::BothIdle,
            topology: Topology::single_rack(),
            links: None,
            background: None,
        }
    }

    /// The paper's KV testbed: 2 clients, 6 workers × 8 threads.
    pub fn kv_default(scheme: Scheme, workload: Workload, offered_rps: f64) -> Self {
        Scenario {
            scheme,
            n_clients: 2,
            servers: vec![
                ServerSpec {
                    workers: calib::KV_WORKERS
                };
                6
            ],
            workload,
            jitter: Jitter::HIGH,
            offered_rps,
            warmup_ns: 50_000_000,
            measure_ns: 400_000_000,
            loss: 0.0,
            seed: 42,
            service_model: ServiceModel::default(),
            faults: FaultTimeline::default(),
            retry: None,
            timeseries_bucket_ns: 100_000_000,
            n_filter_tables: 2,
            filter_slots_log2: 17,
            custom_groups: None,
            clone_condition: netclone_core::CloneCondition::BothIdle,
            topology: Topology::single_rack(),
            links: None,
            background: None,
        }
    }

    /// Aggregate worker-thread capacity in requests/second (the knee of
    /// the throughput axis; sweeps size their rates from this). Accounts
    /// for a hot-key service model: the mean blends hit and miss costs
    /// by the Zipf mass on the hot set.
    pub fn capacity_rps(&self) -> f64 {
        let threads: usize = self.servers.iter().map(|s| s.workers).sum();
        let base_mean = match (&self.workload, &self.service_model.hot_key) {
            (
                Workload::Kv {
                    get_frac,
                    scan_count,
                    objects,
                    zipf_theta,
                    ..
                },
                Some(hk),
            ) => hk.zipf_mix_mean_ns(*get_frac, *scan_count, *objects as u64, *zipf_theta),
            _ => self.workload.mean_service_ns(),
        };
        let mean_ns = base_mean * (1.0 + self.jitter.p * (self.jitter.factor as f64 - 1.0));
        threads as f64 / (mean_ns / 1e9)
    }

    /// Checks the server count against the fabric's limits, the topology
    /// and the background traffic against the fleet and the links, and the
    /// fault timeline against the rest of the scenario. Called by the
    /// builder before any event is primed; the error message names the
    /// limit, the mismatch or the conflicting faults.
    pub fn validate(&self) -> Result<(), String> {
        let n_servers = self.servers.len();
        if n_servers < 2 {
            return Err(format!(
                "NetClone requires at least two servers (§5.3.2), got {n_servers}"
            ));
        }
        crate::build::check_server_count(self.scheme, n_servers)?;
        self.topology.validate(n_servers, self.n_clients)?;
        if let Some(b) = &self.background {
            let racks = self.topology.racks;
            if self.links.is_none() {
                return Err("background traffic requires congestion-aware links \
                     (Scenario::links)"
                    .to_string());
            }
            if racks < 2 {
                return Err("background traffic requires a multi-rack topology".to_string());
            }
            if b.victim_rack >= racks {
                return Err(format!(
                    "background victim rack {} but the topology has {racks}",
                    b.victim_rack
                ));
            }
        }
        if let Some(spec) = &self.links {
            self.validate_links(spec)?;
        }
        let faults = &self.faults.faults;
        for fault in faults {
            self.validate_fault(fault)?;
        }
        // Overlapping/duplicate windows on the same target are a
        // contradiction (which edge wins at the overlap is unanswerable),
        // not a cascade — reject them instead of guessing.
        let window = |f: &Fault| match *f {
            Fault::Slowdown(s) => (s.start_ns, s.end_ns),
            Fault::Drain(d) => (d.drain_at_ns, d.restore_at_ns),
            Fault::LinkFlap(lf) => (lf.start_ns, lf.end_ns),
            Fault::Reboot(r) => (r.fail_at_ns, r.reactivate_at_ns + r.bringup_ns),
            Fault::ServerStop(f) => (f.fail_at_ns, f.removed_at_ns),
        };
        for (i, a) in faults.iter().enumerate() {
            for b in &faults[i + 1..] {
                let (a0, a1) = window(a);
                let (b0, b1) = window(b);
                let overlap = !(a1 <= b0 || b1 <= a0);
                let clash = match (a, b) {
                    (Fault::Slowdown(x), Fault::Slowdown(y)) if x.sid == y.sid && overlap => {
                        format!("overlapping slowdown windows on server {}", x.sid)
                    }
                    (Fault::Drain(x), Fault::Drain(y)) if x.rack == y.rack && overlap => {
                        format!("overlapping drain windows on rack {}", x.rack)
                    }
                    (Fault::LinkFlap(x), Fault::LinkFlap(y)) if x.rack == y.rack && overlap => {
                        format!("overlapping link-flap windows on rack {}", x.rack)
                    }
                    (Fault::Reboot(_), Fault::Reboot(_)) if overlap => {
                        "overlapping switch reboot windows".to_string()
                    }
                    (Fault::ServerStop(x), Fault::ServerStop(y)) if x.sid == y.sid => {
                        return Err(format!(
                            "server {} is stopped twice ({a0}..{a1} ns and {b0}..{b1} ns); \
                             a stopped server never comes back — keep one stop",
                            x.sid
                        ));
                    }
                    (Fault::ServerStop(f), Fault::Slowdown(sl))
                    | (Fault::Slowdown(sl), Fault::ServerStop(f))
                        if f.sid == sl.sid && overlap =>
                    {
                        return Err(format!(
                            "server {} has a fail-stop ({}..{} ns) overlapping its \
                             slowdown ({}..{} ns); a server cannot be dead and slow \
                             at once — separate the windows or pick one failure mode",
                            sl.sid, f.fail_at_ns, f.removed_at_ns, sl.start_ns, sl.end_ns
                        ));
                    }
                    _ => continue,
                };
                return Err(format!(
                    "{clash}: {a0}..{a1} ns and {b0}..{b1} ns — \
                     merge them into one window or separate them"
                ));
            }
        }
        Ok(())
    }

    /// Link rates must be finite and positive, and the longest queue wait
    /// a link can schedule — a full queue plus the largest frame, at the
    /// slowest rate, under the largest flap factor — must fit in half the
    /// `u64` picosecond range, so no departure time can wrap.
    fn validate_links(&self, spec: &LinkSpec) -> Result<(), String> {
        for (tier, gbps) in [("edge", spec.edge_gbps), ("fabric", spec.fabric_gbps)] {
            if !(gbps.is_finite() && gbps > 0.0) {
                return Err(format!(
                    "{tier} link rate must be finite and positive, got {gbps} Gbit/s"
                ));
            }
        }
        let flap = self.faults.faults.iter().fold(1, |m, f| match f {
            Fault::LinkFlap(lf) => m.max(lf.factor),
            _ => m,
        });
        let slowest = spec.edge_gbps.min(spec.fabric_gbps);
        let bytes = f64::from(spec.queue_bytes) + f64::from(u16::MAX);
        let wait_ps = bytes * (8_000.0 / slowest) * flap as f64;
        if wait_ps > (u64::MAX / 2) as f64 {
            return Err(format!(
                "links overflow the simulator clock: {bytes} B at {slowest} Gbit/s \
                 with flap factor {flap} wait {wait_ps:.3e} ps, past the {:.3e} ps limit",
                (u64::MAX / 2) as f64
            ));
        }
        Ok(())
    }

    /// Per-fault shape checks (bounds, non-empty windows, required
    /// topology features).
    fn validate_fault(&self, fault: &Fault) -> Result<(), String> {
        match fault {
            Fault::Slowdown(sl) => {
                if sl.factor <= 0.0 || sl.factor.is_nan() {
                    return Err(format!("slowdown factor must be > 0, got {}", sl.factor));
                }
                if sl.start_ns >= sl.end_ns {
                    return Err(format!(
                        "slowdown window is empty: start_ns {} >= end_ns {}",
                        sl.start_ns, sl.end_ns
                    ));
                }
                if sl.sid as usize >= self.servers.len() {
                    return Err(format!(
                        "slowdown targets server {} but the scenario has {}",
                        sl.sid,
                        self.servers.len()
                    ));
                }
            }
            Fault::ServerStop(f) => {
                if f.sid as usize >= self.servers.len() {
                    return Err(format!(
                        "server stop targets server {} but the scenario has {}",
                        f.sid,
                        self.servers.len()
                    ));
                }
                if f.fail_at_ns >= f.removed_at_ns {
                    return Err(format!(
                        "server stop window is empty: fail_at_ns {} >= removed_at_ns {}",
                        f.fail_at_ns, f.removed_at_ns
                    ));
                }
            }
            Fault::Drain(d) => {
                let racks = self.topology.racks;
                if racks < 2 {
                    return Err("leaf drain needs a multi-rack topology (draining the only \
                         leaf is the Fig. 16 switch reboot)"
                        .to_string());
                }
                if d.rack >= racks {
                    return Err(format!(
                        "drain targets rack {} but the topology has {racks}",
                        d.rack
                    ));
                }
                if d.drain_at_ns >= d.restore_at_ns {
                    return Err(format!(
                        "drain window is empty: drain_at_ns {} >= restore_at_ns {}",
                        d.drain_at_ns, d.restore_at_ns
                    ));
                }
            }
            Fault::LinkFlap(lf) => {
                if self.links.is_none() {
                    return Err("link flap needs congestion-aware links (Scenario::links); \
                         without them every hop is a fixed latency with no rate to \
                         collapse"
                        .to_string());
                }
                let racks = self.topology.racks;
                if racks < 2 {
                    return Err("link flap needs a multi-rack topology (stateful \
                         rack-adjacent links exist only there)"
                        .to_string());
                }
                if lf.rack >= racks {
                    return Err(format!(
                        "link flap targets rack {} but the topology has {racks}",
                        lf.rack
                    ));
                }
                if lf.start_ns >= lf.end_ns {
                    return Err(format!(
                        "link-flap window is empty: start_ns {} >= end_ns {}",
                        lf.start_ns, lf.end_ns
                    ));
                }
                if lf.factor < 2 {
                    return Err(format!(
                        "link-flap factor must be ≥ 2 (1 is a healthy link), got {}",
                        lf.factor
                    ));
                }
            }
            Fault::Reboot(r) => {
                if r.fail_at_ns >= r.reactivate_at_ns {
                    return Err(format!(
                        "switch reboot window is empty: fail_at_ns {} >= reactivate_at_ns {}",
                        r.fail_at_ns, r.reactivate_at_ns
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclone_workloads::exp25;

    #[test]
    fn default_testbed_matches_paper() {
        let s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        assert_eq!(s.n_clients, 2);
        assert_eq!(s.servers.len(), 6);
        assert_eq!(s.servers[0].workers, 15);
        assert_eq!(s.jitter, Jitter::HIGH);
    }

    #[test]
    fn capacity_is_in_the_fig7_region() {
        // 6 × 15 threads at Exp(25)+jitter: ≈ 3.1–3.2 MRPS, the Fig. 7
        // saturation region.
        let s = Scenario::synthetic_default(Scheme::Baseline, exp25(), 1e6);
        let cap = s.capacity_rps();
        assert!((2.8e6..3.6e6).contains(&cap), "capacity {cap}");
    }

    #[test]
    fn kv_capacity_is_in_the_fig11_region() {
        let s = Scenario::kv_default(Scheme::Baseline, Workload::redis(0.99), 1e5);
        let cap = s.capacity_rps();
        assert!((4.5e5..7.0e5).contains(&cap), "capacity {cap}");
        let s = Scenario::kv_default(Scheme::Baseline, Workload::redis(0.90), 1e5);
        let cap = s.capacity_rps();
        assert!((1.4e5..2.2e5).contains(&cap), "capacity {cap}");
    }

    #[test]
    fn workload_labels() {
        assert_eq!(Workload::Synthetic(exp25()).label(), "Exp(25)");
        assert_eq!(Workload::redis(0.99).label(), "99%-GET,1%-SCAN(100)");
    }

    fn stop(sid: u16, fail_at_ns: u64, removed_at_ns: u64) -> Fault {
        Fault::ServerStop(ServerFailurePlan {
            sid,
            fail_at_ns,
            removed_at_ns,
        })
    }

    fn slow(sid: u16, start_ns: u64, end_ns: u64, factor: f64) -> Fault {
        Fault::Slowdown(SlowdownPlan {
            sid,
            start_ns,
            end_ns,
            factor,
        })
    }

    #[test]
    fn overlapping_fail_stop_and_slowdown_on_one_server_is_rejected() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        s.faults.faults = vec![
            stop(1, 3_000_000, 5_000_000),
            slow(1, 4_000_000, 8_000_000, 4.0),
        ];
        let err = s.validate().unwrap_err();
        assert!(err.contains("dead and slow"), "unhelpful error: {err}");
        // The rule holds in either declaration order.
        s.faults.faults.reverse();
        let err = s.validate().unwrap_err();
        assert!(err.contains("dead and slow"), "unhelpful error: {err}");
        // Disjoint windows on the same server are fine…
        s.faults.faults = vec![
            stop(1, 3_000_000, 5_000_000),
            slow(1, 5_000_000, 8_000_000, 4.0),
        ];
        assert!(s.validate().is_ok());
        // …and so are overlapping windows on different servers.
        s.faults.faults[1] = slow(2, 2_000_000, 8_000_000, 4.0);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn degenerate_server_stops_are_rejected() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        s.faults.faults = vec![stop(99, 1_000_000, 2_000_000)];
        let err = s.validate().unwrap_err();
        assert!(err.contains("server 99"), "unhelpful error: {err}");
        s.faults.faults = vec![stop(1, 2_000_000, 2_000_000)];
        let err = s.validate().unwrap_err();
        assert!(err.contains("empty"), "unhelpful error: {err}");
        // A stopped server never comes back, so a second stop clashes
        // even when the windows are disjoint.
        s.faults.faults = vec![stop(1, 1_000_000, 2_000_000), stop(1, 3_000_000, 4_000_000)];
        let err = s.validate().unwrap_err();
        assert!(err.contains("stopped twice"), "unhelpful error: {err}");
        s.faults.faults[1] = stop(2, 1_000_000, 2_000_000);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn degenerate_degradation_plans_are_rejected() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        s.faults.faults = vec![slow(0, 2_000_000, 1_000_000, 4.0)];
        assert!(s.validate().unwrap_err().contains("empty"));
        s.faults.faults = vec![slow(0, 1_000_000, 2_000_000, 0.0)];
        assert!(s.validate().unwrap_err().contains("factor"));
        // Draining the only rack is a switch reboot.
        let drain = |rack| {
            Fault::Drain(DrainPlan {
                rack,
                drain_at_ns: 1_000_000,
                restore_at_ns: 2_000_000,
            })
        };
        s.faults.faults = vec![drain(0)];
        assert!(s.validate().unwrap_err().contains("multi-rack"));
        s.topology = Topology::uniform(4);
        assert!(s.validate().is_ok());
        s.faults.faults = vec![drain(4)];
        assert!(s.validate().unwrap_err().contains("rack 4"));
    }

    #[test]
    fn overlapping_slowdown_windows_on_one_server_are_rejected() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        s.faults.faults = vec![
            slow(1, 1_000_000, 5_000_000, 4.0),
            slow(1, 4_000_000, 8_000_000, 2.0),
        ];
        let err = s.validate().unwrap_err();
        assert!(
            err.contains("overlapping slowdown windows on server 1"),
            "unhelpful error: {err}"
        );
        // The same overlap on a different server is a valid correlated
        // gray failure…
        s.faults.faults[1] = slow(2, 4_000_000, 8_000_000, 2.0);
        assert!(s.validate().is_ok());
        // …and back-to-back windows on the same server are a cascade,
        // not a contradiction.
        s.faults.faults[1] = slow(1, 5_000_000, 8_000_000, 2.0);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn duplicate_drain_windows_on_one_rack_are_rejected() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        s.topology = Topology::uniform(4);
        let d = DrainPlan {
            rack: 2,
            drain_at_ns: 1_000_000,
            restore_at_ns: 2_000_000,
        };
        s.faults.faults = vec![Fault::Drain(d), Fault::Drain(d)];
        let err = s.validate().unwrap_err();
        assert!(
            err.contains("overlapping drain windows on rack 2"),
            "unhelpful error: {err}"
        );
        // A rolling drain across *different* racks may overlap freely.
        s.faults = FaultTimeline::rolling_drain(&[0, 1, 2], 1_000_000, 2_000_000, 500_000);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn link_flap_prerequisites_are_enforced() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        let flap = |rack, start_ns, end_ns, factor| {
            Fault::LinkFlap(LinkFlapPlan {
                rack,
                start_ns,
                end_ns,
                factor,
            })
        };
        s.faults.faults = vec![flap(0, 1_000_000, 2_000_000, 10)];
        assert!(s.validate().unwrap_err().contains("links"));
        s.links = Some(netclone_linksim::LinkSpec::flat(10.0, 150_000));
        assert!(s.validate().unwrap_err().contains("multi-rack"));
        s.topology = Topology::uniform(4);
        assert!(s.validate().is_ok());
        s.faults.faults = vec![flap(4, 1_000_000, 2_000_000, 10)];
        assert!(s.validate().unwrap_err().contains("rack 4"));
        s.faults.faults = vec![flap(0, 2_000_000, 1_000_000, 10)];
        assert!(s.validate().unwrap_err().contains("empty"));
        s.faults.faults = vec![flap(0, 1_000_000, 2_000_000, 1)];
        assert!(s.validate().unwrap_err().contains("factor"));
        // Overlapping flaps on one rack contradict; distinct racks don't.
        s.faults.faults = vec![
            flap(0, 1_000_000, 3_000_000, 10),
            flap(0, 2_000_000, 4_000_000, 10),
        ];
        assert!(s
            .validate()
            .unwrap_err()
            .contains("overlapping link-flap windows on rack 0"));
        s.faults.faults = vec![
            flap(0, 1_000_000, 3_000_000, 10),
            flap(1, 2_000_000, 4_000_000, 10),
        ];
        assert!(s.validate().is_ok());
    }

    #[test]
    fn overlapping_switch_reboots_are_rejected() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        let reboot = |fail_at_ns, reactivate_at_ns| {
            Fault::Reboot(SwitchFailurePlan {
                fail_at_ns,
                reactivate_at_ns,
                bringup_ns: 100_000,
            })
        };
        s.faults.faults = vec![reboot(2_000_000, 1_000_000)];
        assert!(s.validate().unwrap_err().contains("empty"));
        // Two cascading reboots are fine; overlapping ones are not.
        s.faults.faults = vec![reboot(1_000_000, 2_000_000), reboot(3_000_000, 4_000_000)];
        assert!(s.validate().is_ok());
        s.faults.faults = vec![reboot(1_000_000, 3_000_000), reboot(2_000_000, 4_000_000)];
        assert!(s
            .validate()
            .unwrap_err()
            .contains("overlapping switch reboot windows"));
        // The bring-up tail counts as part of the outage window.
        s.faults.faults = vec![reboot(1_000_000, 2_000_000), reboot(2_050_000, 4_000_000)];
        assert!(s.validate().unwrap_err().contains("reboot"));
    }

    #[test]
    fn cascade_presets_validate() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        s.topology = Topology::uniform(4);
        s.faults = FaultTimeline::rolling_drain(&[0, 1, 2, 3], 10_000_000, 5_000_000, 2_000_000);
        assert_eq!(s.faults.faults.len(), 4);
        assert!(s.validate().is_ok());
        match s.faults.faults[3] {
            Fault::Drain(d) => {
                assert_eq!(d.drain_at_ns, 16_000_000);
                assert_eq!(d.restore_at_ns, 21_000_000);
            }
            _ => unreachable!(),
        }
        s.faults = FaultTimeline::correlated_gray(&[0, 2, 4], 10_000_000, 20_000_000, 6.0);
        assert!(s.validate().is_ok());
        assert_eq!(s.faults.faults.len(), 3);
    }

    // The builder cannot run any of the next scenarios: `validate` names
    // the problem instead of leaving the builder to panic.
    #[test]
    fn a_placement_missing_a_server_is_rejected() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        s.servers.truncate(4);
        s.topology = Topology::uniform(2).with_server_racks(vec![0, 1, 1]);
        let err = s.validate().unwrap_err();
        assert!(err.contains("covers 3 of 4"), "unhelpful error: {err}");
    }

    #[test]
    fn a_single_server_is_rejected() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        s.servers.truncate(1);
        let err = s.validate().unwrap_err();
        assert!(
            err.contains("at least two servers"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn background_needs_links_several_racks_and_a_victim_among_them() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        s.topology = Topology::uniform(4);
        s.links = Some(LinkSpec::flat(10.0, 150_000));
        s.background = Some(Background {
            rps: 1e5,
            wire_bytes: 1500,
            victim_rack: 3,
        });
        assert_eq!(s.validate(), Ok(()));
        let mut no_links = s.clone();
        no_links.links = None;
        let mut one_rack = s.clone();
        one_rack.topology = Topology::single_rack();
        let mut three_racks = s.clone();
        three_racks.topology = Topology::uniform(3);
        let bad = [
            (no_links, "links"),
            (one_rack, "multi-rack"),
            (three_racks, "victim rack 3"),
        ];
        for (s, want) in bad {
            let err = s.validate().unwrap_err();
            assert!(err.contains(want), "unhelpful error: {err}");
        }
    }

    #[test]
    fn links_that_overflow_the_clock_are_rejected() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        s.topology = Topology::uniform(4);
        s.links = Some(LinkSpec::flat(10.0, 150_000));
        assert_eq!(s.validate(), Ok(()));
        for gbps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            for (tier, edge_gbps, fabric_gbps) in [("edge", gbps, 10.0), ("fabric", 10.0, gbps)] {
                let mut bad = s.clone();
                let flat = LinkSpec::flat(10.0, 150_000);
                bad.links = Some(LinkSpec {
                    edge_gbps,
                    fabric_gbps,
                    ..flat
                });
                let err = bad.validate().unwrap_err();
                assert!(err.contains(&format!("{tier} link rate")), "{gbps}: {err}");
            }
        }
        // An infinite ratio leaves a zero fabric rate; a huge one a rate
        // whose serialization cost saturates the link's integer clock.
        s.links = Some(LinkSpec::oversubscribed(10.0, f64::INFINITY, 45_000));
        assert!(s.validate().unwrap_err().contains("fabric link rate"));
        s.links = Some(LinkSpec::oversubscribed(10.0, 1e30, 45_000));
        assert!(s.validate().unwrap_err().contains("overflow"));
        s.links = Some(LinkSpec::oversubscribed(10.0, 4.0, 45_000));
        assert_eq!(s.validate(), Ok(()));
        // A flap factor multiplies every wait on the flapped rack.
        let flap = |factor| {
            Fault::LinkFlap(LinkFlapPlan {
                rack: 3,
                start_ns: 1_000_000,
                end_ns: 2_000_000,
                factor,
            })
        };
        s.faults.faults = vec![flap(1_000)];
        assert_eq!(s.validate(), Ok(()));
        s.faults.faults = vec![flap(u64::MAX / 1_000)];
        assert!(s.validate().unwrap_err().contains("overflow"));
    }

    #[test]
    fn hot_key_model_shifts_capacity() {
        let mut s = Scenario::kv_default(Scheme::Baseline, Workload::redis(0.99), 1e5);
        let flat = s.capacity_rps();
        s.service_model.hot_key = Some(HotKeyCost::redis_with_backing_store(1_000));
        let hot = s.capacity_rps();
        // Misses are 10× the hit cost, so capacity must drop.
        assert!(hot < flat, "hot-key capacity {hot} !< flat {flat}");
        assert!(hot > 0.0);
    }
}
