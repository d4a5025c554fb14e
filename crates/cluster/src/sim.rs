//! The event-driven testbed simulation: the event loop only.
//!
//! Everything about *assembling* a testbed (scheme → switch engines,
//! hosts, workload streams, priming events) lives in
//! [`crate::build::ScenarioBuilder`]; this module executes events and
//! keeps the measurement windows. Every leaf switch is a
//! [`Box<dyn SwitchEngine>`](netclone_core::SwitchEngine) — the same
//! trait object the real-socket soft switch drives — so the simulator has
//! no per-scheme dispatch at all.
//!
//! ## Sharded execution
//!
//! The run state lives in per-rack `Shard`s: each shard owns its leaf
//! engine(s), its racks' clients and servers, a slice of the loss/workload
//! RNG streams and a private [`EventQueue`].
//! [`Sim::run`] drives one shard serially;
//! [`Sim::run_with_shards`] fans the racks out across threads under the
//! conservative lookahead protocol in `crate::shard`. Both produce
//! **bit-identical** results for a seed because every event is keyed
//! `(time, source domain, per-domain seq)` (see
//! [`netclone_des::sync`]) — a total order no interleaving can change.
//! Single-rack runs collapse to one domain whose keys equal the old
//! global `(time, seq)` order, so the pre-sharding seed pins still hold.
//!
//! The upper-tier switches (the leaf/spine spine, or a fat-tree's
//! aggregation and core layers) get neither events nor engines of their
//! own: they are stateless plain L3, so the tier is compiled into one
//! table ([`UpperTier`]) and each shard walks its copy *inline* — per
//! switch crossed a counter, a pass latency and one loss draw (counters
//! are summed across shards at the end). That removes the
//! switches every shard would otherwise have to synchronise on; the
//! cross-shard lookahead is the fewest upper switches a packet between
//! two shards crosses, each a link and a pass, plus the leaf's pass (see
//! `crate::shard`).
//!
//! ## Congestion-aware links
//!
//! With [`Scenario::links`](crate::scenario::Scenario::links) set, every
//! *rack-adjacent* link — host access links and each leaf's
//! uplinks/downlinks — is a `netclone_linksim::Link`: finite bandwidth,
//! a bounded tail-drop FIFO, ECN-mark counters. Interior fabric links
//! (agg↔core) stay latency-only: they are never the oversubscription
//! bottleneck, and keeping stateful links rack-adjacent means every link
//! is mutated only by events of its owning rack's domain, which execute
//! in the same total key order at any shard count — the bit-identity
//! argument of the sharded loop extends to link state for free. A packet
//! crossing the upper tier is parked as an `Ev::DownlinkIn` at the
//! destination leaf's downlink head, where the *destination* rack's
//! domain applies queueing (or tail-drops it). Background incast
//! (`Ev::BgGen`/`Ev::BgDown`) rides the same links without ever
//! touching an engine, server, or client. `links: None` takes none of
//! these paths — the pre-linksim event stream, bit for bit.
//!
//! ## The allocation-free hot path
//!
//! The per-packet path performs no heap allocation in steady state:
//!
//! * switch programs write into the shard's reusable
//!   [`EmissionSink`] (see the contract in `netclone_asic::dataplane`),
//!   which `Shard::on_switch_in` drains in place;
//! * the event queue is `netclone-des`'s timing wheel: slot lists linked
//!   through a node slab, so no `Ev` moves between schedule and pop —
//!   which is why events carry their whole [`AppPacket`] by value: it is
//!   written once, into the node, and a clone or a response is a plain
//!   copy with new metadata;
//! * a switch pass tracks touched resources in a bitmask and match
//!   tables hash with `netclone_proto::IntHasher`, so neither allocates
//!   nor runs SipHash per packet (`tests/alloc_hotpath.rs` counts).
//!
//! Topology: the scenario's [`Topology`](crate::topology::Topology),
//! assembled by [`crate::build::build_fabric`]. The default single rack
//! (the paper's testbed) is one ToR switch with every host attached;
//! multi-rack shapes (§3.7) add per-rack leaves and an aggregation spine,
//! with `Ev::SwitchIn` carrying the *leaf* index and leaf↔spine
//! traversals costing the topology's inter-rack latency each way. The
//! full fabric path — cloning at the client-side ToR only,
//! `SWITCH_ID`-gated pass-through elsewhere — is covered by
//! `tests/multirack.rs` and the topology proptests.
//! Ports: servers at `10+sid`, coordinator at 99, clients at `100+cid`
//! ([`netclone_core::ports`]), uplinks per [`crate::topology`].
//!
//! Event flow for one RPC (NetClone scheme):
//!
//! ```text
//! Gen ─→ SwitchIn(req) ─→ HostIn(server) ─→ ServerDone ─→ SwitchIn(resp) ─→ HostIn(client)
//!            │ (clone)                                         │ (slower resp:
//!            └─→ HostIn(clone) ─→ … ─┘                            filtered at switch)
//! ```
//!
//! Every host sends through one path (`Shard::host_send`: a loss draw,
//! the access link up, `SwitchIn` at its leaf) and receives through one
//! event, `HostIn`, addressed by host id (`Hosts::at_port` maps a
//! leaf's egress port back to it). A fault of the scenario's timeline
//! reaches the loop as `Fault { idx, edge }` control events, and
//! `Shard::on_fault` alone knows what each edge does.

use netclone_asic::{EmissionSink, PortId};
use netclone_core::ports::{client_port, server_port, COORD_PORT};
use netclone_core::SwitchCounters;
use netclone_des::sync::tie_key;
use netclone_des::{EventQueue, SimTime};
use netclone_hosts::{Admission, AppPacket, ClientMode, ClientSim, ServerSim};
use netclone_linksim::{Link, Verdict};
use netclone_policies::LaedgeCoordinator;
use netclone_proto::{Ipv4, MsgType, PacketMeta, RpcOp, ServerId};
use netclone_stats::TimeSeries;
use netclone_workloads::{KvMix, PoissonArrivals, SyntheticWorkload};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

use crate::build::ScenarioBuilder;
use crate::calib;
use crate::metrics::RunResult;
use crate::scenario::{Fault, Scenario};
use crate::shard::ShardCoordinator;
use crate::topology::{flow_hash, Host, HostKind, Hosts, UpperTier, UpperWalk, UPLINK_PORT};

/// Simulation events.
///
/// Packet-bearing variants carry the whole [`AppPacket`] — see the module
/// docs; `ev_fits_in_a_queue_node_budget` pins the size.
/// `SwitchIn` always targets a *leaf*; the upper tier is walked inline.
pub(crate) enum Ev {
    /// Client `cid` generates its next request.
    Gen(usize),
    /// A packet reaches leaf switch `idx` of the fabric.
    SwitchIn(usize, AppPacket),
    /// A packet reaches the NIC of host `host` (an index into [`Hosts`]).
    HostIn(usize, AppPacket),
    /// Server `idx` finishes serving `pkt` (valid only in `epoch`).
    ServerDone {
        idx: usize,
        epoch: u32,
        pkt: AppPacket,
    },
    /// A packet reaches the head of downlink `via` into leaf `leaf`
    /// (congestion-aware links only): the destination rack's domain
    /// offers it to the queue.
    DownlinkIn {
        /// Destination leaf.
        leaf: usize,
        /// Downlink index (== the ECMP uplink index that carried it up).
        via: usize,
        /// The packet.
        pkt: AppPacket,
    },
    /// Source rack `r` generates its next background packet.
    BgGen(usize),
    /// A background packet reaches the head of downlink `via` into leaf
    /// `leaf`; it is absorbed after the queue (background is load, not
    /// workload).
    BgDown {
        /// Destination (victim) leaf.
        leaf: usize,
        /// Downlink index.
        via: usize,
        /// On-wire size, bytes.
        wire: u16,
    },
    /// Measurements start.
    EndWarmup,
    /// Edge `edge` of fault `idx` of the scenario's
    /// [`FaultTimeline`](crate::scenario::FaultTimeline) (see
    /// `Shard::on_fault`).
    Fault { idx: usize, edge: Edge },
    /// Client `cid` runs its retry wheel: expired requests are
    /// retransmitted (or evicted) per the scenario's
    /// [`RetryPolicy`](netclone_hosts::RetryPolicy). Only primed when a
    /// policy is configured.
    ClientTick(usize),
}

/// Which edge of a fault an [`Ev::Fault`] applies.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Edge {
    /// The fault begins.
    Start,
    /// The fault ends: the window closes, a rebooted fabric is
    /// reactivated, a stopped server leaves the tables.
    End,
    /// A reactivated fabric finishes bring-up, `bringup_ns` after `End`.
    BroughtUp,
}

/// The source domain of the control plane (primed events, warm-up end,
/// failure injections). Domain 0 so control events win timestamp ties —
/// and so the single-rack case, where *every* event maps to domain 0,
/// degenerates to one counter identical to the old global sequence.
pub(crate) const CONTROL_SRC: u16 = 0;

/// The link-loss model, materialised only for lossy scenarios: the
/// zero-loss fast path (`scenario.loss == 0.0`, known at build time)
/// holds no RNGs and never draws. One independent stream per rack
/// (`SeedFactory` fan-out, `("loss", rack)`): every traversal of a packet
/// executing in rack *r*'s domain draws from stream *r*, so the draw
/// order is a per-domain property that sharding cannot change. A shard
/// only holds the streams of the racks it owns. Single-rack runs hold
/// exactly the old `("loss", 0)` stream — pinned by
/// `tests/loss_determinism.rs` on both sides.
pub(crate) struct LossModel {
    /// Per-link-traversal loss probability (`scenario.loss`).
    pub prob: f64,
    /// Per-rack loss streams (`None` for racks owned by other shards).
    pub rngs: Vec<Option<StdRng>>,
}

/// The congestion-aware links owned by one shard (see the module docs):
/// host access links by host id (the [`Hosts`] table's order), leaf
/// uplinks/downlinks by `[rack][uplink index]`. Entries of foreign racks
/// are `None`/empty — every link is touched only by its owning rack's
/// event domain.
pub(crate) struct LinkState {
    /// Host `h`'s access links, indexed by [`UP`] (host → leaf) and
    /// [`DOWN`] (leaf → host).
    pub access: Vec<Option<[Link; 2]>>,
    /// Leaf `r` → upper tier via uplink `j`.
    pub up: Vec<Vec<Link>>,
    /// Upper tier → leaf `r` via downlink `j`.
    pub down: Vec<Vec<Link>>,
}

/// Background incast state: per-source-rack Poisson streams converging
/// on the victim rack's downlinks.
pub(crate) struct BgState {
    /// Per-source-rack arrival process (aggregate rate ÷ source racks).
    pub arrivals: PoissonArrivals,
    /// Per-rack arrival streams (`None` = foreign rack or the victim).
    pub rngs: Vec<Option<StdRng>>,
    /// On-wire bytes per background packet.
    pub wire: u16,
    /// The rack whose downlinks the flows converge on.
    pub victim: usize,
    /// Packets generated per source rack (the flow-hash counter: each
    /// background packet is its own flow, spreading across uplinks).
    pub sent: Vec<u64>,
}

/// Mixes a background packet's (source rack, sequence) into its ECMP
/// hash (a splitmix64 round — any deterministic mix works).
#[inline]
fn bg_hash(rack: u64, n: u64) -> u64 {
    let mut z = rack
        .wrapping_mul(0xff51_afd7_ed55_8ccd)
        .wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An emission to a port no host hangs off: a hole in the port plan
/// (`Scenario::validate` keeps the ranges apart), not a packet to drop
/// without a counter. Checked in every build, through this cold call: an
/// inline `assert!` in `Shard::on_switch_in` made a short single-rack run
/// 8 % slower (2-vCPU x86-64 VM).
#[cold]
#[inline(never)]
fn no_host(port: PortId) -> ! {
    let kind = match port {
        COORD_PORT => "coordinator",
        p if p >= client_port(0) => "client",
        p if p >= server_port(0) => "server",
        _ => "host",
    };
    panic!("port {port} has no {kind}")
}

/// The host → leaf direction of an access link ([`LinkState::access`]).
const UP: usize = 0;
/// The leaf → host direction of an access link.
const DOWN: usize = 1;

/// One shard of a testbed simulation: the event loop state for a subset
/// of the racks (all of them, for a serial run).
///
/// Host and engine vectors are indexed by *global* id with `None` holes
/// for entities owned by other shards, so port arithmetic and
/// result-assembly order are identical at any shard count.
pub(crate) struct Shard {
    /// This shard's index: the value [`Shard::shard_of_rack`] gives for
    /// the racks it owns.
    pub(crate) id: usize,
    /// The run's rack → shard table, one copy per shard (see
    /// `build::partition`).
    pub(crate) rack_shard: Vec<usize>,
    pub(crate) scenario: Arc<Scenario>,
    pub(crate) q: EventQueue<Ev>,
    pub(crate) clients: Vec<Option<ClientSim>>,
    pub(crate) servers: Vec<Option<ServerSim>>,
    pub(crate) server_epoch: Vec<u32>,
    /// Owned leaf engines, indexed by rack (`None` = foreign rack).
    pub(crate) engines: Vec<Option<Box<dyn netclone_core::SwitchEngine>>>,
    /// The upper tier — the spine, or a fat-tree's aggs and cores — as
    /// its compiled forwarding table, and this shard's share of its
    /// per-switch counters (merged at the end). No switches when
    /// `racks == 1`.
    pub(crate) tier: UpperTier,
    pub(crate) racks: usize,
    pub(crate) inter_rack_ns: u64,
    /// Seed of the ECMP flow hash.
    pub(crate) ecmp_seed: u64,
    /// One switch pass latency, ns (upper-tier hops and background
    /// packets cross switches without an engine but still pay the pass).
    pub(crate) pass_ns: u64,
    /// Every host and the leaf it hangs off (the fabric's table).
    pub(crate) hosts: Hosts,
    /// Congestion-aware links (`None` = fixed-latency hops).
    pub(crate) links: Option<LinkState>,
    /// Background incast traffic (`None` = quiet fabric).
    pub(crate) bg: Option<BgState>,
    /// Fabric-forwarding flag; a replica on every shard, flipped by
    /// broadcast control events.
    pub(crate) switch_up: bool,
    /// Per-leaf forwarding flags (drain plans). Only the owning shard's
    /// entries are ever consulted — a leaf's packets execute in its own
    /// rack domain — so drain events prime on the owner alone.
    pub(crate) leaf_up: Vec<bool>,
    pub(crate) coordinator: Option<LaedgeCoordinator>,
    pub(crate) arrivals: PoissonArrivals,
    pub(crate) arrival_rngs: Vec<Option<StdRng>>,
    pub(crate) workload_rngs: Vec<Option<StdRng>>,
    pub(crate) loss: Option<LossModel>,
    pub(crate) synthetic: Option<SyntheticWorkload>,
    pub(crate) kvmix: Option<Arc<KvMix>>,
    /// The shard's reusable emission buffer (`on_switch_in` drains it in
    /// place; see the `EmissionSink` contract).
    pub(crate) sink: EmissionSink,
    pub(crate) end_ns: u64,
    pub(crate) measure_start_ns: u64,
    pub(crate) throughput: TimeSeries,
    pub(crate) completed_in_window: u64,
    pub(crate) generated_in_window: u64,
    pub(crate) packets_lost: u64,
    /// Warm-up snapshots of the owned leaves (by rack index) and of the
    /// upper tier's counters.
    pub(crate) switch_counters_at_warmup: Vec<SwitchCounters>,
    pub(crate) upper_counters_at_warmup: Vec<SwitchCounters>,
    pub(crate) server_stats_at_warmup: Vec<netclone_hosts::server::ServerStats>,
    /// Per-source tie-break sequence counters (index = source id).
    /// Control counters (`seq[0]`) evolve identically on every shard;
    /// rack counters are only touched by their owner.
    pub(crate) seq: Vec<u64>,
    /// Source id of the currently-executing event's domain.
    pub(crate) cur_src: u16,
    /// Rack of the currently-executing event (selects the loss stream);
    /// control events never draw.
    pub(crate) cur_rack: usize,
    /// Logical events scheduled by this shard (cross-shard sends counted
    /// at the sender, broadcast control replicas once, on shard 0) — the
    /// shard's share of `RunResult::events`.
    pub(crate) events_scheduled: u64,
    /// Outbound cross-shard messages, per destination shard, posted at
    /// the end of each window.
    pub(crate) outbox: Vec<Vec<CrossMsg>>,
    /// When tracing, the popped `(time, tie)` keys in execution order.
    pub(crate) trace: Option<Vec<(u64, u64)>>,
}

/// A cross-shard event in transit, under the delivery key its sender
/// stamped. Only `SwitchIn`, `DownlinkIn` and `BgDown` ever cross racks.
pub(crate) struct CrossMsg {
    pub at: u64,
    pub tie: u64,
    pub ev: Ev,
}

impl Shard {
    /// Owner shard of a rack.
    #[inline]
    pub(crate) fn shard_of_rack(&self, rack: usize) -> usize {
        self.rack_shard[rack]
    }

    /// Source id of a rack's domain: single-rack runs collapse onto the
    /// control domain (one counter — the old global sequence); multi-rack
    /// runs put racks above the control domain so control events win
    /// ties.
    #[inline]
    fn src_of_rack(&self, rack: usize) -> u16 {
        if self.racks == 1 {
            CONTROL_SRC
        } else {
            (rack + 1) as u16
        }
    }

    #[inline]
    fn set_rack_ctx(&mut self, rack: usize) {
        self.cur_src = self.src_of_rack(rack);
        self.cur_rack = rack;
    }

    #[inline]
    fn set_control_ctx(&mut self) {
        self.cur_src = CONTROL_SRC;
        // Control handlers never traverse links, so they never draw from
        // a loss stream; poison the rack index to catch violations.
        self.cur_rack = usize::MAX;
    }

    /// Schedules `ev` on this shard's queue, keyed by the executing
    /// domain. All targets are local by construction (the only non-local
    /// sends go through [`Self::send_to_rack`]).
    #[inline]
    fn sched(&mut self, at_ns: u64, ev: Ev) {
        let tie = self.next_tie();
        self.events_scheduled += 1;
        self.q.schedule_keyed(SimTime::from_ns(at_ns), tie, ev);
    }

    /// The next tie-break key of the executing domain.
    #[inline]
    fn next_tie(&mut self) -> u64 {
        let s = self.cur_src as usize;
        let tie = tie_key(self.cur_src, self.seq[s]);
        self.seq[s] += 1;
        tie
    }

    #[inline]
    fn lose_packet(&mut self) -> bool {
        match &mut self.loss {
            None => false,
            Some(m) => {
                let rng = m.rngs[self.cur_rack]
                    .as_mut()
                    .expect("loss stream of an owned rack");
                rng.random::<f64>() < m.prob
            }
        }
    }

    fn draw_op(&mut self, cid: usize) -> RpcOp {
        let rng = self.workload_rngs[cid]
            .as_mut()
            .expect("workload stream of an owned client");
        if let Some(wl) = &self.synthetic {
            RpcOp::Echo {
                class_ns: wl.sample_class(rng),
            }
        } else {
            self.kvmix.as_ref().expect("kv workload").sample(rng)
        }
    }

    /// Carries a packet across host `host`'s access link in direction
    /// `dir` ([`UP`] or [`DOWN`]), starting at `egress_ns` (when the
    /// sender's last bit is ready): returns the arrival time at the far
    /// end, or `None` if the bounded queue tail-dropped it. Links disabled
    /// → the historical fixed-latency hop, arithmetic unchanged.
    #[inline]
    fn edge_hop(&mut self, host: usize, dir: usize, egress_ns: u64, wire: u16) -> Option<u64> {
        let Some(ls) = &mut self.links else {
            return Some(egress_ns + calib::LINK_ONE_WAY_NS);
        };
        let links = ls.access[host].as_mut();
        let link = &mut links.expect("access link of an owned host")[dir];
        match link.offer(egress_ns, u32::from(wire)) {
            Verdict::Forward { depart_ns, .. } => Some(depart_ns + calib::LINK_ONE_WAY_NS),
            Verdict::Drop => None,
        }
    }

    /// Sends `pkt` from host `host`, its last bit ready at `egress_ns`:
    /// one loss draw, the access link up (a tail-drop ends it there), then
    /// `SwitchIn` at the host's leaf.
    #[inline]
    fn host_send(&mut self, host: usize, egress_ns: u64, pkt: AppPacket) {
        if self.lose_packet() {
            self.packets_lost += 1;
            return;
        }
        if let Some(at) = self.edge_hop(host, UP, egress_ns, pkt.meta.wire_bytes) {
            self.sched(at, Ev::SwitchIn(self.hosts[host].leaf, pkt));
        }
    }

    pub(crate) fn handle(&mut self, now: u64, ev: Ev) {
        match ev {
            Ev::Gen(cid) => {
                self.set_rack_ctx(self.hosts[self.hosts.client(cid)].leaf);
                self.on_gen(cid, now);
            }
            Ev::SwitchIn(sw, pkt) => {
                self.set_rack_ctx(sw);
                self.on_switch_in(sw, pkt, now);
            }
            Ev::HostIn(host, pkt) => {
                let Host { kind, leaf, .. } = self.hosts[host];
                self.set_rack_ctx(leaf);
                match kind {
                    HostKind::Client(cid) => self.on_client_in(cid.into(), pkt, now),
                    HostKind::Server(sid) => self.on_server_in(sid.into(), pkt, now),
                    HostKind::Coord => self.on_coord_in(pkt, now),
                }
            }
            Ev::ServerDone { idx, epoch, pkt } => {
                self.set_rack_ctx(self.hosts[self.hosts.server(idx)].leaf);
                self.on_server_done(idx, epoch, pkt, now);
            }
            Ev::DownlinkIn { leaf, via, pkt } => {
                self.set_rack_ctx(leaf);
                self.on_downlink_in(leaf, via, pkt, now);
            }
            Ev::BgGen(r) => {
                self.set_rack_ctx(r);
                self.on_bg_gen(r, now);
            }
            Ev::BgDown { leaf, via, wire } => {
                self.set_rack_ctx(leaf);
                self.on_bg_down(leaf, via, wire, now);
            }
            Ev::EndWarmup => {
                self.set_control_ctx();
                self.on_end_warmup(now);
            }
            Ev::Fault { idx, edge } => {
                self.set_control_ctx();
                self.on_fault(idx, edge, now);
            }
            Ev::ClientTick(cid) => {
                self.set_rack_ctx(self.hosts[self.hosts.client(cid)].leaf);
                self.on_client_tick(cid, now);
            }
        }
    }

    /// Applies edge `edge` of fault `idx` of the scenario's timeline.
    /// `build` primed each edge on the shards that hold what it changes:
    /// the owner of the server, leaf or rack, or every shard for the
    /// fabric-wide edges (a reboot, a server's removal from the tables).
    fn on_fault(&mut self, idx: usize, edge: Edge, now: u64) {
        let start = edge == Edge::Start;
        match self.scenario.faults.faults[idx] {
            Fault::Slowdown(plan) => {
                // Gray failure: only future service draws change; the
                // switch keeps the server in its tables and the queue
                // keeps filling — which is the point.
                let factor = if start { plan.factor } else { 1.0 };
                self.servers[usize::from(plan.sid)]
                    .as_mut()
                    .expect("owned server")
                    .set_slow_factor(factor);
            }
            Fault::Drain(plan) if start => self.leaf_up[plan.rack] = false,
            Fault::Drain(plan) => {
                // Fig. 16 bring-up semantics scoped to one leaf: packets
                // flow again, but the leaf's soft state (idle tracking,
                // filters) restarts cold.
                self.leaf_up[plan.rack] = true;
                self.engines[plan.rack]
                    .as_mut()
                    .expect("owned leaf engine")
                    .reset_soft_state();
            }
            Fault::LinkFlap(plan) => {
                self.on_link_flap(plan.rack, if start { plan.factor } else { 1 });
            }
            Fault::Reboot(_) if start => self.switch_up = false,
            Fault::Reboot(plan) if edge == Edge::End => {
                // Broadcast: every shard schedules its own bring-up
                // replica with the *same* key (the control counters march
                // in lockstep), counted once.
                let tie = self.next_tie();
                if self.id == 0 {
                    self.events_scheduled += 1;
                }
                let up = Ev::Fault {
                    idx,
                    edge: Edge::BroughtUp,
                };
                let at = SimTime::from_ns(now + plan.bringup_ns);
                self.q.schedule_keyed(at, tie, up);
            }
            Fault::Reboot(_) => {
                // §3.6: only soft state is lost; the control plane's table
                // entries are reinstalled during bring-up.
                for e in self.engines.iter_mut().flatten() {
                    e.reset_soft_state();
                }
                self.switch_up = true;
            }
            Fault::ServerStop(plan) if start => {
                let sid = usize::from(plan.sid);
                self.servers[sid].as_mut().expect("owned server").kill();
                self.server_epoch[sid] += 1;
            }
            Fault::ServerStop(plan) => self.on_server_remove(plan.sid),
        }
    }

    /// Gray failure of the *network*: every rack-adjacent link of the
    /// victim rack shifts its effective rate (queued packets keep their
    /// schedule). Owner-primed — only the owning shard materializes these
    /// links, and only its domain ever touches them, so the flap composes
    /// with the sharded loop's bit-identity argument unchanged.
    fn on_link_flap(&mut self, rack: usize, factor: u64) {
        let ls = self.links.as_mut().expect("link flap requires links");
        let hosts = self.hosts.iter().zip(&mut ls.access);
        let access = hosts
            .filter(|(h, _)| h.leaf == rack)
            .flat_map(|(_, links)| links.as_mut().expect("access links of an owned rack"));
        for l in ls.up[rack]
            .iter_mut()
            .chain(&mut ls.down[rack])
            .chain(access)
        {
            l.set_degradation(factor);
        }
    }

    /// The client's retry wheel: expired requests retransmit through the
    /// same loss/link pipeline as first transmissions (a retry
    /// storm loads the fabric like real traffic), without touching the
    /// offered-load accounting — retries are recovery, not offered work.
    /// Reschedules itself at the policy cadence until generation ends.
    fn on_client_tick(&mut self, cid: usize, now: u64) {
        let host = self.hosts.client(cid);
        let pkts = self.clients[cid].as_mut().expect("owned client").tick(now);
        for (pkt, tx_done) in pkts {
            self.host_send(host, tx_done, pkt);
        }
        if now < self.end_ns {
            let tick = self
                .scenario
                .retry
                .expect("client tick requires a retry policy")
                .tick_ns();
            self.sched(now + tick, Ev::ClientTick(cid));
        }
    }

    /// §3.6 "Server failures": every engine holding the server in its
    /// tables drops it (engines without server tables decline, which is
    /// fine — their clients handle failure below), and every client stops
    /// addressing it. Each client refreshes its group count from its own
    /// ToR, the engine its requests traverse. A broadcast control event:
    /// each shard walks its own engines and clients.
    fn on_server_remove(&mut self, sid: ServerId) {
        let mut any_deregistered = false;
        for e in self.engines.iter_mut().flatten() {
            any_deregistered |= e.deregister_server(sid).is_ok();
        }
        if any_deregistered {
            for cid in 0..self.clients.len() {
                let leaf = self.hosts[self.hosts.client(cid)].leaf;
                let Some(c) = self.clients[cid].as_mut() else {
                    continue;
                };
                if let ClientMode::NetClone { num_groups, .. } = c.core.mode_mut() {
                    *num_groups = self.engines[leaf]
                        .as_ref()
                        .expect("a client's leaf lives on its shard")
                        .num_groups();
                }
            }
        }
        let dead_ip = Ipv4::server(sid);
        for c in self.clients.iter_mut().flatten() {
            match c.core.mode_mut() {
                ClientMode::DirectRandom { servers } | ClientMode::DirectDuplicate { servers } => {
                    servers.retain(|ip| *ip != dead_ip);
                }
                _ => {}
            }
        }
    }

    fn on_gen(&mut self, cid: usize, now: u64) {
        if now >= self.end_ns {
            return; // generation stops; in-flight work drains
        }
        if now >= self.measure_start_ns && self.measure_start_ns > 0 {
            self.generated_in_window += 1;
        }
        let op = self.draw_op(cid);
        let host = self.hosts.client(cid);
        // The clients move out for the emission so the callback can borrow
        // `self` freely; `mem::take` swaps in an (unallocated) empty Vec.
        let mut clients = std::mem::take(&mut self.clients);
        clients[cid]
            .as_mut()
            .expect("owned client")
            .generate_each(op, now, |meta, tx_done| {
                let pkt = AppPacket {
                    meta,
                    op,
                    born_ns: now,
                };
                self.host_send(host, tx_done, pkt);
            });
        self.clients = clients;
        let rng = self.arrival_rngs[cid]
            .as_mut()
            .expect("arrival stream of an owned client");
        let gap = self.arrivals.next_gap_ns(rng);
        self.sched(now + gap, Ev::Gen(cid));
    }

    fn on_switch_in(&mut self, sw: usize, pkt: AppPacket, now: u64) {
        if !self.switch_up || !self.leaf_up[sw] {
            self.packets_lost += 1;
            return;
        }
        // The sink moves out for the drain so scheduling below can borrow
        // `self` freely; `mem::take` swaps in an (unallocated) empty one.
        let mut sink = std::mem::take(&mut self.sink);
        self.engines[sw]
            .as_mut()
            .expect("owned leaf engine")
            .process(pkt.meta, 0, now, &mut sink);
        for e in sink.drain() {
            if self.lose_packet() {
                self.packets_lost += 1;
                continue;
            }
            let out = AppPacket { meta: e.pkt, ..pkt };
            let mut egress = now + e.latency_ns;
            if e.port == UPLINK_PORT && self.racks > 1 {
                // A leaf→upper traversal: no host NIC on this hop, the
                // fabric link latency applies instead; the upper tier is
                // walked inline (module docs). ECMP picks the physical
                // uplink (a fat-tree has several; leaf/spine has uplink 0).
                let h = flow_hash(e.pkt.src_ip, e.pkt.dst_ip, self.ecmp_seed);
                let walk = self.tier.walk(sw, e.pkt.dst_ip, h);
                if let Some(ls) = &mut self.links {
                    match ls.up[sw][walk.via].offer(egress, u32::from(e.pkt.wire_bytes)) {
                        Verdict::Forward { depart_ns, .. } => egress = depart_ns,
                        Verdict::Drop => continue,
                    }
                }
                self.via_upper(walk, out, egress);
            } else {
                let Some(host) = self.hosts.at_port(e.port) else {
                    no_host(e.port);
                };
                if let Some(at) = self.edge_hop(host, DOWN, egress, e.pkt.wire_bytes) {
                    self.sched(at, Ev::HostIn(host, out));
                }
            }
        }
        self.sink = sink;
    }

    /// Carries one packet along its `walk` through the upper tier, from
    /// its leaf-uplink egress at `egress_ns`, and parks it at the
    /// destination leaf — locally, or through the cross-shard outbox with
    /// a sender-stamped key. Each switch crossed is what a plain-L3 pass
    /// there was: it counts the packet, costs a link propagation plus a
    /// pass, and its egress link draws for loss once; a switch with no
    /// route for the destination drops it instead. Out of line: inlined
    /// (with `send_to_leaf`) it grows `handle` by a tenth and costs the
    /// single-rack loop, which never gets here, 1 % of its time.
    #[inline(never)]
    fn via_upper(&mut self, walk: UpperWalk, pkt: AppPacket, egress_ns: u64) {
        let Some(leaf) = walk.leaf else {
            self.tier.count_dropped(walk.hops()[0]);
            return;
        };
        for &sw in walk.hops() {
            self.tier.count_routed(sw);
            if self.lose_packet() {
                self.packets_lost += 1;
                return;
            }
        }
        let crossed = walk.hops().len() as u64 * (self.inter_rack_ns + self.pass_ns);
        self.send_to_leaf(leaf, walk.via, pkt, egress_ns + crossed);
    }

    /// Parks a packet leaving the upper tier at `down_egress_ns` (the
    /// last upper switch's egress instant) at leaf `leaf`: without links
    /// it arrives `inter_rack_ns` later as a plain `SwitchIn`; with
    /// links it becomes a [`Ev::DownlinkIn`] so the *destination* rack's
    /// domain offers it to downlink `via`'s queue. Cross-shard targets go
    /// through the outbox under a sender-stamped key either way.
    fn send_to_leaf(&mut self, leaf: usize, via: usize, pkt: AppPacket, down_egress_ns: u64) {
        if self.links.is_some() {
            self.send_to_rack(leaf, down_egress_ns, Ev::DownlinkIn { leaf, via, pkt });
        } else {
            let at = down_egress_ns + self.inter_rack_ns;
            self.send_to_rack(leaf, at, Ev::SwitchIn(leaf, pkt));
        }
    }

    /// Schedules `ev`, an event of rack `rack`'s domain, at `at`: on this
    /// shard's queue when it owns the rack, otherwise through the outbox
    /// under a key stamped here, by the sending domain.
    fn send_to_rack(&mut self, rack: usize, at: u64, ev: Ev) {
        let dst = self.shard_of_rack(rack);
        if dst == self.id {
            self.sched(at, ev);
        } else {
            let tie = self.next_tie();
            self.events_scheduled += 1;
            self.outbox[dst].push(CrossMsg { at, tie, ev });
        }
    }

    /// A packet reaches the head of downlink `via` into `leaf`: the
    /// destination rack offers it to the queue; a tail-drop ends it here,
    /// otherwise it reaches the leaf after serialization + propagation.
    fn on_downlink_in(&mut self, leaf: usize, via: usize, pkt: AppPacket, now: u64) {
        let ls = self.links.as_mut().expect("downlink event requires links");
        if let Verdict::Forward { depart_ns, .. } =
            ls.down[leaf][via].offer(now, u32::from(pkt.meta.wire_bytes))
        {
            self.sched(depart_ns + self.inter_rack_ns, Ev::SwitchIn(leaf, pkt));
        }
    }

    /// Source rack `r` emits its next background packet toward the
    /// victim rack and re-arms its Poisson clock. Background packets
    /// bypass the engines entirely: one uplink offer here, one downlink
    /// offer at the victim ([`Self::on_bg_down`]), fixed pass/propagation
    /// delay in between.
    fn on_bg_gen(&mut self, r: usize, now: u64) {
        if now >= self.end_ns {
            return; // background stops with the workload
        }
        let bg = self.bg.as_mut().expect("bg event requires background");
        let n = bg.sent[r];
        bg.sent[r] += 1;
        let (wire, victim) = (bg.wire, bg.victim);
        let walk = self.tier.path(r, Some(victim), bg_hash(r as u64, n));
        let via = walk.via;
        let ls = self.links.as_mut().expect("background requires links");
        if let Verdict::Forward { depart_ns, .. } =
            ls.up[r][via].offer(now + self.pass_ns, u32::from(wire))
        {
            // Each upper switch crossed is a propagation plus a pass.
            let hops = walk.hops().len() as u64;
            let at = depart_ns + hops * (self.inter_rack_ns + self.pass_ns);
            let ev = Ev::BgDown {
                leaf: victim,
                via,
                wire,
            };
            self.send_to_rack(victim, at, ev);
        }
        let bg = self.bg.as_mut().expect("bg event requires background");
        let rng = bg.rngs[r].as_mut().expect("bg stream of an owned rack");
        let gap = bg.arrivals.next_gap_ns(rng);
        self.sched(now + gap, Ev::BgGen(r));
    }

    /// A background packet reaches the victim's downlink: it takes queue
    /// space (delaying and dropping RPC traffic behind it) and vanishes.
    fn on_bg_down(&mut self, leaf: usize, via: usize, wire: u16, now: u64) {
        let ls = self.links.as_mut().expect("background requires links");
        let _ = ls.down[leaf][via].offer(now, u32::from(wire));
    }

    /// A dead server refuses the request like a dropped clone, so it
    /// swallows packets without a check here.
    fn on_server_in(&mut self, idx: usize, pkt: AppPacket, now: u64) {
        let seen_at = now + calib::HOST_RX_STACK_NS;
        // Queued packets live inside the server; dropped clones are gone.
        if let Admission::Start { done_at } = self.servers[idx]
            .as_mut()
            .expect("owned server")
            .on_request(pkt, seen_at)
        {
            let epoch = self.server_epoch[idx];
            self.sched(done_at, Ev::ServerDone { idx, epoch, pkt });
        }
    }

    fn on_server_done(&mut self, idx: usize, epoch: u32, pkt: AppPacket, now: u64) {
        let server = self.servers[idx].as_mut().expect("owned server");
        if epoch != self.server_epoch[idx] || !server.is_alive() {
            return; // the server died while this was in service
        }
        let completion = server.on_service_done(&pkt.meta.nc, now);
        let sid = server.sid();
        let meta =
            PacketMeta::netclone_response(Ipv4::server(sid), pkt.meta.src_ip, completion.resp, 84);
        // The response carries the request's op and birth time.
        self.host_send(self.hosts.server(idx), now, AppPacket { meta, ..pkt });
        if let Some((pkt, next_done)) = completion.next {
            let epoch = self.server_epoch[idx];
            self.sched(next_done, Ev::ServerDone { idx, epoch, pkt });
        }
    }

    fn on_client_in(&mut self, cid: usize, pkt: AppPacket, now: u64) {
        let outcome = self.clients[cid]
            .as_mut()
            .expect("owned client")
            .on_response(&pkt, now);
        if outcome.latency_ns.is_some() && self.measure_start_ns > 0 {
            self.throughput.record(outcome.done_at);
            if outcome.done_at <= self.end_ns {
                self.completed_in_window += 1;
            }
        }
    }

    fn on_coord_in(&mut self, pkt: AppPacket, now: u64) {
        let coord = self.coordinator.as_mut().expect("coordinator scheme");
        let events = match pkt.meta.nc.msg_type {
            MsgType::Req => coord.on_request(pkt, now),
            MsgType::Resp => coord.on_response(pkt, now),
        };
        for e in events {
            self.host_send(self.hosts.coord(), e.send_at, e.pkt);
        }
    }

    /// Installs one round's inbound cross-shard messages, draining
    /// `inbound` (it keeps its capacity for the next round). They were
    /// sent from inside the *previous* window, so the conservative
    /// lookahead puts every one at or after `sent_window_end_ns`, that
    /// window's end — checked in every build: a message due earlier would
    /// land among events this shard has already executed and silently
    /// reorder history. The mailbox's arrival order is irrelevant because
    /// the queue re-sorts by the sender-stamped keys (which are globally
    /// unique — domains are disjoint across shards).
    pub(crate) fn deliver(&mut self, sent_window_end_ns: u64, inbound: &mut Vec<CrossMsg>) {
        for m in inbound.drain(..) {
            assert!(
                m.at >= sent_window_end_ns,
                "lookahead violated: cross-shard message due at {} ns, inside the window \
                 ending at {} ns it was sent from (receiving shard {})",
                m.at,
                sent_window_end_ns,
                self.id
            );
            // The sender already counted this event; schedule without
            // touching `events_scheduled` or the local key counters.
            self.q.schedule_keyed(SimTime::from_ns(m.at), m.tie, m.ev);
        }
    }

    fn on_end_warmup(&mut self, now: u64) {
        self.measure_start_ns = now.max(1);
        for c in self.clients.iter_mut().flatten() {
            c.core.reset_measurements();
        }
        for (r, e) in self.engines.iter().enumerate() {
            if let Some(e) = e {
                self.switch_counters_at_warmup[r] = e.counters();
            }
        }
        self.upper_counters_at_warmup
            .copy_from_slice(self.tier.counters());
        for (i, s) in self.servers.iter().enumerate() {
            if let Some(s) = s {
                self.server_stats_at_warmup[i] = s.stats();
            }
        }
    }
}

/// One testbed simulation — the public entry points. State lives in
/// per-rack `Shard`s driven by `crate::shard::ShardCoordinator`.
pub struct Sim;

impl Sim {
    /// Runs to completion serially and returns the measured results.
    pub fn run(scenario: Scenario) -> RunResult {
        Self::run_with_shards(scenario, 1)
    }

    /// Runs with the event loop partitioned into up to `shards` shards of
    /// whole racks, or of whole pods when the fabric has enough (clamped
    /// to `[1, racks]`; `usize::MAX` = one per rack), synchronized
    /// conservatively on the fabric latency between shards.
    ///
    /// The result is **bit-identical** to [`Sim::run`] for any shard
    /// count — sharding is an execution strategy, not a model change
    /// (asserted by `tests/harness_determinism.rs` and the sharding
    /// proptests).
    pub fn run_with_shards(scenario: Scenario, shards: usize) -> RunResult {
        ShardCoordinator::new(ScenarioBuilder::new(scenario), shards, false)
            .run()
            .0
    }

    /// [`Sim::run_with_shards`], also returning the `(time, tie-key)` of
    /// every executed event, merged across shards in key order — the
    /// hook the sharding-order proptests compare against the serial
    /// execution order.
    #[doc(hidden)]
    pub fn run_traced(scenario: Scenario, shards: usize) -> (RunResult, Vec<(u64, u64)>) {
        let (result, trace) =
            ShardCoordinator::new(ScenarioBuilder::new(scenario), shards, true).run();
        (result, trace.expect("tracing enabled"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclone_policies::PlainL3Switch;
    use netclone_proto::NetCloneHdr;

    /// Runs one packet to `dst` through a single-rack Baseline leaf whose
    /// only route sends `dst` out of `port`.
    fn emit_to_port(dst: Ipv4, port: PortId) {
        let s = Scenario::synthetic_default(
            crate::scheme::Scheme::Baseline,
            netclone_workloads::exp25(),
            1e5,
        );
        assert_eq!(s.n_clients, 2);
        let (mut shards, _) = ScenarioBuilder::new(s).build_shards(1, false);
        let shard = &mut shards[0];
        let mut rogue = PlainL3Switch::new(netclone_asic::AsicSpec::tofino());
        rogue.add_route(dst, port);
        shard.engines[0] = Some(Box::new(rogue));
        let nc = NetCloneHdr::request(0, 0, 0, 0);
        let meta = PacketMeta::netclone_response(Ipv4::server(0), dst, nc, 84);
        let pkt = AppPacket {
            meta,
            op: RpcOp::Echo { class_ns: 0 },
            born_ns: 0,
        };
        shard.handle(0, Ev::SwitchIn(0, pkt));
    }

    /// An egress port no host hangs off is a hole in the port plan
    /// (`Scenario::validate` keeps the ranges apart), not a packet to
    /// drop without a counter.
    #[test]
    #[should_panic(expected = "port 102 has no client")]
    fn emission_to_a_hostless_port_is_caught() {
        emit_to_port(Ipv4::client(2), 102);
    }

    /// So is a port below the server range — here the uplink port of a
    /// leaf that has no upper tier.
    #[test]
    #[should_panic(expected = "port 1 has no host")]
    fn emission_below_the_server_ports_is_caught() {
        emit_to_port(Ipv4::client(0), UPLINK_PORT);
    }

    /// The wheel stores an `Ev` inline in every node, so its size is the
    /// queue's memory cost per event: a new field must not grow it past
    /// the whole `AppPacket` plus a leaf, a downlink and a tag.
    #[test]
    fn ev_fits_in_a_queue_node_budget() {
        assert!(
            std::mem::size_of::<Ev>() <= 88,
            "Ev is {} bytes",
            std::mem::size_of::<Ev>()
        );
    }
}
