//! Scenario descriptions: everything one simulation run needs.

pub use netclone_hosts::RetryPolicy;
use netclone_kvstore::{HotKeyCost, ServiceCostModel};
use netclone_linksim::LinkSpec;
use netclone_workloads::{Jitter, SyntheticWorkload};

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

/// The largest [`FaultKind::Slowdown`] factor `validate` accepts. A
/// million-fold slowdown is a dead server, and a far larger one
/// overflows the clock with the first service it stretches.
pub const MAX_SLOWDOWN_FACTOR: f64 = 1e6;

/// One timed fault in a [`FaultTimeline`]: a window and a target.
#[derive(Clone, Copy, Debug)]
pub struct Fault {
    /// When the fault strikes, ns.
    pub start_ns: u64,
    /// When it ends, ns: the target recovers, a rebooted switch is
    /// reactivated, a stopped server is removed from the tables.
    pub end_ns: u64,
    /// What fails, and how.
    pub kind: FaultKind,
}

/// The target and parameter of a [`Fault`].
#[derive(Clone, Copy, Debug)]
pub enum FaultKind {
    /// Gray server: each service time server `sid` draws in the window
    /// is multiplied by `factor` (in (0, [`MAX_SLOWDOWN_FACTOR`]]). It
    /// keeps answering, so the switch never removes it.
    Slowdown { sid: u16, factor: f64 },
    /// Leaf drain: rack `rack`'s leaf stops forwarding, then comes back
    /// with its soft state cleared (Fig. 16 scoped to one leaf).
    Drain { rack: usize },
    /// Link flap: rack `rack`'s adjacent links run at `1/factor` (≥ 2)
    /// of their rate. Needs [`Scenario::links`] and several racks.
    LinkFlap { rack: usize, factor: u64 },
    /// Fabric-wide switch reboot (Fig. 16): forwarding stops at
    /// `start_ns`, resumes `bringup_ns` after `end_ns` with soft state
    /// cleared and the hard counters kept.
    Reboot { bringup_ns: u64 },
    /// Fail-stop server (§3.6): server `sid` drops everything from
    /// `start_ns` and leaves the tables at `end_ns`, for good.
    ServerStop { sid: u16 },
    /// Fabric-wide packet loss: each link traversal executed in the
    /// window is lost with probability `prob` (in (0, 1)), independently,
    /// iff a hash of the traversal point and the packet's identity falls
    /// below it. It draws from no stream and primes no edge event.
    Loss { prob: f64 },
}

impl Fault {
    /// Packet loss with probability `prob` per traversal over the whole
    /// run, `0..u64::MAX`: every traversal is judged.
    pub fn loss(prob: f64) -> Self {
        Fault {
            start_ns: 0,
            end_ns: u64::MAX,
            kind: FaultKind::Loss { prob },
        }
    }

    /// The window the fault holds its target: `start_ns..end_ns`, which
    /// for a reboot runs on through bring-up. Errs when that end
    /// overflows the clock.
    pub fn outage(&self) -> Result<(u64, u64), String> {
        let bringup_ns = match self.kind {
            FaultKind::Reboot { bringup_ns } => bringup_ns,
            _ => 0,
        };
        let end = self.end_ns.checked_add(bringup_ns).ok_or_else(|| {
            format!(
                "switch reboot bring-up overflows the clock: reactivation at {} ns \
                 + bringup_ns {bringup_ns}",
                self.end_ns
            )
        })?;
        Ok((self.start_ns, end))
    }
}

impl FaultKind {
    /// The kind's name and target in `validate`'s errors; the
    /// fabric-wide kinds have no target.
    fn name(self) -> (&'static str, String) {
        match self {
            FaultKind::Slowdown { sid, .. } => ("slowdown", format!(" on server {sid}")),
            FaultKind::Drain { rack } => ("drain", format!(" on rack {rack}")),
            FaultKind::LinkFlap { rack, .. } => ("link-flap", format!(" on rack {rack}")),
            FaultKind::Reboot { .. } => ("switch reboot", String::new()),
            FaultKind::ServerStop { sid } => ("server stop", format!(" on server {sid}")),
            FaultKind::Loss { .. } => ("loss", String::new()),
        }
    }
}

/// An ordered, validated set of timed faults — the scenario's one fault
/// channel: switch reboots, fail-stop and gray servers, leaf drains, link
/// flaps and packet loss, any number of each.
///
/// Every edge is delivered as a fabric-domain-0 control event primed at
/// build time in declaration order, so serial and sharded runs stay
/// byte-identical for any timeline (see "Fault injection & recovery" in
/// `docs/ARCHITECTURE.md`); a loss window has no edges. `Default` is empty.
#[derive(Clone, Debug, Default)]
pub struct FaultTimeline {
    /// The fault edges, primed in declaration order.
    pub faults: Vec<Fault>,
}

impl FaultTimeline {
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
                let start_ns = start_ns + i as u64 * stagger_ns;
                Fault {
                    start_ns,
                    end_ns: start_ns + hold_ns,
                    kind: FaultKind::Drain { rack },
                }
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
            .map(|&sid| Fault {
                start_ns,
                end_ns,
                kind: FaultKind::Slowdown { sid, factor },
            })
            .collect();
        FaultTimeline { faults }
    }
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
    /// Master seed.
    pub seed: u64,
    /// Cache-aware hot/cold cost split for KV workloads: keys in the hot
    /// set are cheap hits, the Zipf tail pays the expensive miss path.
    /// Replaces the workload's flat [`ServiceCostModel`] at the servers;
    /// `None` (the default) keeps the workload's own model.
    pub hot_key: Option<HotKeyCost>,
    /// Every injected fault (switch reboots, fail-stop and gray servers,
    /// leaf drains, link flaps, packet loss); default = empty.
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
            seed: 42,
            hot_key: None,
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

    /// The paper's KV testbed: 2 clients, 6 workers × 8 threads, and a
    /// longer window; everything else as [`Self::synthetic_default`].
    pub fn kv_default(scheme: Scheme, workload: Workload, offered_rps: f64) -> Self {
        Scenario {
            servers: vec![
                ServerSpec {
                    workers: calib::KV_WORKERS
                };
                6
            ],
            workload,
            warmup_ns: 50_000_000,
            measure_ns: 400_000_000,
            ..Self::synthetic_default(scheme, netclone_workloads::exp25(), offered_rps)
        }
    }

    /// Aggregate worker-thread capacity in requests/second (the knee of
    /// the throughput axis; sweeps size their rates from this). Accounts
    /// for a hot-key service model: the mean blends hit and miss costs
    /// by the Zipf mass on the hot set.
    pub fn capacity_rps(&self) -> f64 {
        let threads: usize = self.servers.iter().map(|s| s.workers).sum();
        let base_mean = match (&self.workload, &self.hot_key) {
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

    /// Checks the offered load, the throughput buckets and the switch
    /// program's configuration, the server count against the fabric's
    /// limits, the topology and the background traffic against the fleet
    /// and the links, and the fault timeline against the rest of the
    /// scenario. Called by the builder before any event is primed; the
    /// error message names the limit, the mismatch or the conflicting faults.
    pub fn validate(&self) -> Result<(), String> {
        let n_servers = self.servers.len();
        if n_servers < 2 {
            return Err(format!(
                "NetClone requires at least two servers (§5.3.2), got {n_servers}"
            ));
        }
        crate::build::check_server_count(self.scheme, n_servers)?;
        if !(self.offered_rps.is_finite() && self.offered_rps > 0.0) {
            return Err(format!(
                "offered_rps must be finite and positive, got {}",
                self.offered_rps
            ));
        }
        if self.timeseries_bucket_ns == 0 {
            return Err("timeseries_bucket_ns must be positive".to_string());
        }
        // Rates are completions over this window: an empty one is NaN.
        if self.measure_ns == 0 {
            return Err("measure_ns must be positive".to_string());
        }
        if self.n_clients == 0 {
            return Err("n_clients must be positive".to_string());
        }
        if let Some(sid) = self.servers.iter().position(|s| s.workers == 0) {
            return Err(format!("server {sid} has 0 workers"));
        }
        if let Some(cfg) = crate::build::netclone_config(self, 1) {
            cfg.validate()
                .map_err(|e| format!("invalid switch program: {e}"))?;
        }
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
        const MERGE: &str = "merge them into one window or separate them";
        use FaultKind::*;
        for (i, a) in faults.iter().enumerate() {
            for b in &faults[i + 1..] {
                let ((a0, a1), (b0, b1)) = (a.outage()?, b.outage()?);
                let overlap = a0 < b1 && b0 < a1;
                let ((name, target), same) = (a.kind.name(), a.kind.name() == b.kind.name());
                let (clash, fix) = match (a.kind, b.kind) {
                    (ServerStop { sid: x }, ServerStop { sid: y }) if x == y => (
                        format!("server {x} is stopped twice"),
                        "a stopped server never comes back — keep one stop",
                    ),
                    (ServerStop { sid: x }, Slowdown { sid: y, .. })
                    | (Slowdown { sid: y, .. }, ServerStop { sid: x })
                        if x == y && overlap =>
                    {
                        (
                            format!("server {x} has a fail-stop overlapping its slowdown"),
                            "a server cannot be dead and slow at once — separate the \
                             windows or pick one failure mode",
                        )
                    }
                    _ if same && overlap => (format!("overlapping {name} windows{target}"), MERGE),
                    _ => continue,
                };
                return Err(format!("{clash} ({a0}..{a1} ns and {b0}..{b1} ns); {fix}"));
            }
        }
        // Each server is stopped at most once (above), so counting stops
        // counts stopped servers: with all of them gone no request can
        // complete, and a client left with no server to address has none
        // to draw.
        let stops = faults
            .iter()
            .filter(|f| matches!(f.kind, ServerStop { .. }))
            .count();
        if stops == n_servers {
            return Err(format!(
                "the fault timeline stops every server ({n_servers} of {n_servers}); \
                 nothing completes after the last stop — leave one running"
            ));
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
        let flap = self.faults.faults.iter().fold(1, |m, f| match f.kind {
            FaultKind::LinkFlap { factor, .. } => m.max(factor),
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

    /// Per-fault shape checks: a non-empty window that fits the clock,
    /// the target's bounds and parameter, required topology features.
    fn validate_fault(&self, fault: &Fault) -> Result<(), String> {
        let (name, _) = fault.kind.name();
        if fault.start_ns >= fault.end_ns {
            return Err(format!(
                "{name} window is empty: start_ns {} >= end_ns {}",
                fault.start_ns, fault.end_ns
            ));
        }
        fault.outage()?;
        let (n_servers, racks) = (self.servers.len(), self.topology.racks);
        match fault.kind {
            FaultKind::Slowdown { factor, .. }
                if !(factor > 0.0 && factor <= MAX_SLOWDOWN_FACTOR) =>
            {
                Err(format!(
                    "slowdown factor must be > 0 and ≤ {MAX_SLOWDOWN_FACTOR:e}, got {factor}"
                ))
            }
            FaultKind::Slowdown { sid, .. } | FaultKind::ServerStop { sid }
                if usize::from(sid) >= n_servers =>
            {
                Err(format!(
                    "{name} targets server {sid} but the scenario has {n_servers}"
                ))
            }
            FaultKind::LinkFlap { .. } if self.links.is_none() => Err(
                "link flap needs congestion-aware links (Scenario::links); without them \
                 every hop is a fixed latency with no rate to collapse"
                    .to_string(),
            ),
            FaultKind::Drain { .. } if racks < 2 => Err("leaf drain needs a multi-rack \
                 topology (draining the only leaf is the Fig. 16 switch reboot)"
                .to_string()),
            FaultKind::LinkFlap { .. } if racks < 2 => Err("link flap needs a multi-rack \
                 topology (stateful rack-adjacent links exist only there)"
                .to_string()),
            FaultKind::Drain { rack } | FaultKind::LinkFlap { rack, .. } if rack >= racks => Err(
                format!("{name} targets rack {rack} but the topology has {racks}"),
            ),
            FaultKind::LinkFlap { factor, .. } if factor < 2 => Err(format!(
                "link-flap factor must be ≥ 2 (1 is a healthy link), got {factor}"
            )),
            FaultKind::Loss { prob } if !(prob > 0.0 && prob < 1.0) => Err(format!(
                "loss prob must be in (0, 1), got {prob} (1 or more completes nothing)"
            )),
            _ => Ok(()),
        }
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

    fn fault(start_ns: u64, end_ns: u64, kind: FaultKind) -> Fault {
        Fault {
            start_ns,
            end_ns,
            kind,
        }
    }

    fn stop(sid: u16, start_ns: u64, end_ns: u64) -> Fault {
        fault(start_ns, end_ns, FaultKind::ServerStop { sid })
    }

    fn slow(sid: u16, start_ns: u64, end_ns: u64, factor: f64) -> Fault {
        fault(start_ns, end_ns, FaultKind::Slowdown { sid, factor })
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
    fn a_timeline_that_stops_every_server_is_rejected() {
        for scheme in [Scheme::Baseline, Scheme::CClone, Scheme::NETCLONE] {
            let mut s = Scenario::synthetic_default(scheme, exp25(), 1e6);
            s.servers.truncate(2);
            s.faults.faults = vec![stop(0, 1_000_000, 2_000_000), stop(1, 5_000_000, 6_000_000)];
            let err = s.validate().unwrap_err();
            assert!(err.contains("stops every server"), "{scheme:?}: {err}");
            // One server left running is a valid drill.
            s.faults.faults.pop();
            assert_eq!(s.validate(), Ok(()), "{scheme:?}");
        }
    }

    #[test]
    fn degenerate_degradation_plans_are_rejected() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        s.faults.faults = vec![slow(0, 2_000_000, 1_000_000, 4.0)];
        assert!(s.validate().unwrap_err().contains("empty"));
        // A factor past the ceiling stretched the first slowed service
        // past the clock, and the run panicked on the overflow.
        let past = 2.0 * MAX_SLOWDOWN_FACTOR;
        for factor in [0.0, f64::NAN, f64::INFINITY, 1e300, past] {
            s.faults.faults = vec![slow(0, 1_000_000, 2_000_000, factor)];
            assert!(s.validate().unwrap_err().contains("factor"), "{factor}");
        }
        s.faults.faults = vec![slow(0, 1_000_000, 2_000_000, MAX_SLOWDOWN_FACTOR)];
        assert_eq!(s.validate(), Ok(()));
        // Draining the only rack is a switch reboot.
        let drain = |rack| fault(1_000_000, 2_000_000, FaultKind::Drain { rack });
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
        let d = fault(1_000_000, 2_000_000, FaultKind::Drain { rack: 2 });
        s.faults.faults = vec![d, d];
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
            fault(start_ns, end_ns, FaultKind::LinkFlap { rack, factor })
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
        let reboot = |start_ns, end_ns| {
            let bringup_ns = 100_000;
            fault(start_ns, end_ns, FaultKind::Reboot { bringup_ns })
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
        // A bring-up past the clock's end panicked the run (one reboot)
        // or `validate` itself (two reboots, in the overlap check).
        let late = Fault {
            kind: FaultKind::Reboot {
                bringup_ns: u64::MAX - 1_000_000,
            },
            ..reboot(1_000_000, 2_000_000)
        };
        for faults in [vec![late], vec![reboot(3_000_000, 4_000_000), late]] {
            s.faults.faults = faults;
            let err = s.validate().unwrap_err();
            assert!(err.contains("overflows the clock"), "{err}");
        }
    }

    #[test]
    fn cascade_presets_validate() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        s.topology = Topology::uniform(4);
        s.faults = FaultTimeline::rolling_drain(&[0, 1, 2, 3], 10_000_000, 5_000_000, 2_000_000);
        assert_eq!(s.faults.faults.len(), 4);
        assert!(s.validate().is_ok());
        match s.faults.faults[3] {
            Fault {
                start_ns,
                end_ns,
                kind: FaultKind::Drain { .. },
            } => {
                assert_eq!(start_ns, 16_000_000);
                assert_eq!(end_ns, 21_000_000);
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

    /// The open-loop generator's rate is per client: zero, negative or
    /// NaN load would die on the arrival process's assert mid-build.
    #[test]
    fn offered_load_must_be_finite_and_positive() {
        for rps in [0.0, -1.0, f64::NAN] {
            let s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), rps);
            let err = s.validate().unwrap_err();
            assert!(err.contains("offered_rps"), "{rps}: {err}");
        }
    }

    /// A zero-length measurement window has no rate to report.
    #[test]
    fn an_empty_measurement_window_is_rejected() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e5);
        s.warmup_ns = 1_000_000;
        s.measure_ns = 0;
        assert_eq!(s.validate().unwrap_err(), "measure_ns must be positive");
    }

    /// Filter shapes the switch program refuses are refused up front, for
    /// the schemes that build one; the plain-L3 schemes have no filters.
    #[test]
    fn filter_shapes_the_switch_program_refuses_are_rejected() {
        for scheme in [Scheme::NETCLONE, Scheme::Baseline] {
            let mut no_tables = Scenario::synthetic_default(scheme, exp25(), 1e6);
            no_tables.n_filter_tables = 0;
            let mut no_slots = Scenario::synthetic_default(scheme, exp25(), 1e6);
            no_slots.filter_slots_log2 = 0;
            // Eight tables would need a 13th stage.
            let mut past_stages = Scenario::synthetic_default(scheme, exp25(), 1e6);
            past_stages.n_filter_tables = 8;
            for (s, want) in [
                (no_tables, "filter table"),
                (no_slots, "filter_slots_log2"),
                (past_stages, "num_filter_tables 8"),
            ] {
                match scheme {
                    Scheme::Baseline => assert_eq!(s.validate(), Ok(())),
                    _ => {
                        let err = s.validate().unwrap_err();
                        assert!(err.contains(want), "unhelpful error: {err}");
                    }
                }
            }
        }
    }

    /// A NaN loss ran as 0 and a loss of 1 or more completed nothing; a
    /// window of loss 0 is no fault at all.
    #[test]
    fn loss_outside_zero_to_one_is_rejected() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        for prob in [f64::NAN, f64::NEG_INFINITY, -0.1, 0.0, 1.0, f64::INFINITY] {
            s.faults.faults = vec![Fault::loss(prob)];
            let err = s.validate().unwrap_err();
            assert!(err.contains("loss prob must be in (0, 1)"), "{prob}: {err}");
        }
        s.faults.faults = vec![Fault::loss(1.0 - f64::EPSILON)];
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn overlapping_loss_windows_are_rejected() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        let loss = |start_ns, end_ns| fault(start_ns, end_ns, FaultKind::Loss { prob: 0.1 });
        s.faults.faults = vec![loss(1_000, 3_000), Fault::loss(0.2)];
        let err = s.validate().unwrap_err();
        assert!(err.contains("overlapping loss windows"), "{err}");
        // Back to back is a change of rate, not a contradiction.
        s.faults.faults = vec![loss(1_000, 3_000), loss(3_000, 4_000)];
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn zero_clients_are_rejected() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        s.n_clients = 0;
        let err = s.validate().unwrap_err();
        assert!(err.contains("n_clients"), "unhelpful error: {err}");
    }

    #[test]
    fn a_server_without_workers_is_rejected() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        s.servers[3].workers = 0;
        let err = s.validate().unwrap_err();
        assert!(
            err.contains("server 3 has 0 workers"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn a_zero_throughput_bucket_is_rejected() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e6);
        s.timeseries_bucket_ns = 0;
        let err = s.validate().unwrap_err();
        assert!(
            err.contains("timeseries_bucket_ns"),
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
            fault(
                1_000_000,
                2_000_000,
                FaultKind::LinkFlap { rack: 3, factor },
            )
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
        s.hot_key = Some(HotKeyCost::redis_with_backing_store(1_000));
        let hot = s.capacity_rps();
        // Misses are 10× the hit cost, so capacity must drop.
        assert!(hot < flat, "hot-key capacity {hot} !< flat {flat}");
        assert!(hot > 0.0);
    }
}
