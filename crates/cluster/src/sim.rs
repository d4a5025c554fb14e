//! The event-driven testbed simulation: the event loop only.
//!
//! Everything about *assembling* a testbed (scheme → switch engines,
//! hosts, workload streams, priming events) lives in [`crate::build`];
//! this module executes events and keeps the measurement windows. Every
//! leaf switch is a [`Box<dyn SwitchEngine>`](netclone_core::SwitchEngine),
//! the trait object the real-socket soft switch drives: no per-scheme
//! dispatch here.
//!
//! ## Sharded execution
//!
//! The run state lives in `Shard`s of whole racks: a shard holds one
//! `Rack` record per rack it owns (the leaf engine, the rack's
//! background stream and its leaf links), one `ClientHost` and one
//! `ServerHost` per host on those racks, and a private [`EventQueue`].
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
//! switch crossed a counter, a pass latency and one loss verdict (counters
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
//! its leaves programmed by [`crate::build`]. The default single rack
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
//! Every host sends through one path (`Shard::host_send`: a loss verdict,
//! the access link up, `SwitchIn` at its leaf) and receives through one
//! event, `HostIn`, addressed by host id (`Hosts::at_port` maps a
//! leaf's egress port back to it). A fault of the scenario's timeline
//! reaches the loop as `Fault { idx, edge }` control events, and
//! `Shard::on_fault` alone knows what each edge does.
//!
//! Per-entity processes (arrivals, operations, service, background,
//! addressing) draw from their own seeded streams; a per-packet chance
//! (the ECMP path, loss) is a hash of the packet, which no event order
//! can move: a loss window's verdicts are `loss_hash`es.

use netclone_asic::{EmissionSink, PortId};
use netclone_core::ports::{client_port, server_port, COORD_PORT};
use netclone_core::{SwitchCounters, SwitchEngine};
use netclone_des::sync::tie_key;
use netclone_des::{EventQueue, SimTime};
use netclone_hosts::{Admission, AppPacket, ClientMode, ClientSim, ServerSim, ServerStats};
use netclone_linksim::{Link, Verdict};
use netclone_policies::LaedgeCoordinator;
use netclone_proto::{mix64, Ipv4, MsgType, PacketMeta, RpcOp, ServerId, GOLDEN};
use netclone_stats::TimeSeries;
use netclone_workloads::{KvMix, PoissonArrivals, SyntheticWorkload};
use rand::rngs::StdRng;
use std::sync::Arc;

use crate::calib;
use crate::metrics::RunResult;
use crate::scenario::{FaultKind, Scenario};
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
    /// Server `idx` finishes serving a packet (void if it has stopped
    /// since).
    ServerDone(usize, AppPacket),
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

/// One rack's state, held by the shard that owns the rack: its leaf and
/// everything only its event domain touches.
pub(crate) struct Rack {
    /// The leaf switch.
    pub engine: Box<dyn SwitchEngine>,
    /// The leaf's forwarding flag (drain plans).
    pub up: bool,
    /// The leaf's counters at warm-up end.
    pub at_warmup: SwitchCounters,
    /// The rack's background arrival stream, `("bg", rack)` (`None`: a
    /// quiet fabric, or the victim rack).
    pub bg: Option<StdRng>,
    /// Background packets sent (the flow-hash counter: each background
    /// packet is its own flow, spreading across uplinks).
    pub bg_sent: u64,
    /// Leaf → upper tier links by uplink index, and the downlinks back
    /// (empty without congestion-aware links, or with one rack).
    pub uplinks: Vec<Link>,
    pub downlinks: Vec<Link>,
}

/// One client, held by the shard that owns its rack.
pub(crate) struct ClientHost {
    pub sim: ClientSim,
    /// Its arrival stream, `("arrivals", cid)`.
    pub arrivals: StdRng,
    /// Its operation stream, `("workload", cid)`.
    pub ops: StdRng,
}

/// One server, held by the shard that owns its rack.
pub(crate) struct ServerHost {
    pub sim: ServerSim,
    /// Its counters at warm-up end.
    pub at_warmup: ServerStats,
}

/// Background incast: per-source-rack Poisson streams (in each source
/// [`Rack`]) converging on the victim rack's downlinks.
#[derive(Clone, Copy)]
pub(crate) struct BgState {
    /// Per-source-rack arrival process (aggregate rate ÷ source racks).
    pub arrivals: PoissonArrivals,
    /// On-wire bytes per background packet.
    pub wire: u16,
    /// The rack whose downlinks the flows converge on.
    pub victim: usize,
}

/// Mixes a background packet's (source rack, sequence) into its ECMP
/// hash (any deterministic mix works).
#[inline]
fn bg_hash(rack: u64, n: u64) -> u64 {
    let (r, n) = (
        rack.wrapping_mul(0xff51_afd7_ed55_8ccd),
        n.wrapping_mul(GOLDEN),
    );
    mix64(r.wrapping_add(n).wrapping_add(0x2545_f491_4f6c_dd1d))
}

/// The traversal points a loss verdict tells apart, or-ed with an index:
/// host `h`'s access link (host → leaf), leaf `sw`'s egress, upper-tier
/// switch `sw`'s egress.
const ACCESS: u64 = 0;
const LEAF_EGRESS: u64 = 1 << 32;
const UPPER_HOP: u64 = 2 << 32;

/// The loss key of `pkt`'s traversal of `point`: the seed, the point and
/// the packet's identity (addresses, client id and sequence, type, clone
/// status, and the attempt's birth time, so a retransmission is judged
/// afresh), folded one word at a time through splitmix64 steps.
fn loss_hash(seed: u64, point: u64, pkt: &AppPacket) -> u64 {
    let (m, nc) = (&pkt.meta, &pkt.meta.nc);
    let words = [
        point,
        u64::from(m.src_ip.0) << 32 | u64::from(m.dst_ip.0),
        u64::from(nc.client_id) << 32 | u64::from(nc.client_seq),
        (nc.msg_type as u64) << 8 | nc.clo as u64,
        pkt.born_ns,
    ];
    (words.into_iter()).fold(seed, |h, w| mix64((h ^ w).wrapping_add(GOLDEN)))
}

/// Whether a loss key falls below `prob`, read as a uniform in [0, 1).
#[inline]
fn below(hash: u64, prob: f64) -> bool {
    ((hash >> 11) as f64 / (1u64 << 53) as f64) < prob
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

/// The host → leaf direction of an access link ([`Shard::access`]).
const UP: usize = 0;
/// The leaf → host direction of an access link.
const DOWN: usize = 1;

/// One shard of a testbed simulation: the event loop state for a subset
/// of the racks (all of them, for a serial run).
///
/// Racks, clients and servers are records indexed by *global* id, `None`
/// where another shard owns the entity, so port arithmetic and
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
    pub(crate) racks: Vec<Option<Rack>>,
    pub(crate) clients: Vec<Option<ClientHost>>,
    pub(crate) servers: Vec<Option<ServerHost>>,
    /// The upper tier — the spine, or a fat-tree's aggs and cores — as
    /// its compiled forwarding table, and this shard's share of its
    /// per-switch counters (merged at the end). No switches when there is
    /// one rack.
    pub(crate) tier: UpperTier,
    pub(crate) inter_rack_ns: u64,
    /// Seed of the ECMP flow hash.
    pub(crate) ecmp_seed: u64,
    /// One switch pass latency, ns (upper-tier hops and background
    /// packets cross switches without an engine but still pay the pass).
    pub(crate) pass_ns: u64,
    /// Every host and the leaf it hangs off (the fabric's table).
    pub(crate) hosts: Hosts,
    /// Congestion-aware host access links by host id, indexed by [`UP`]
    /// and [`DOWN`] (`None` overall: fixed-latency hops; per host: a
    /// foreign rack's).
    pub(crate) access: Option<Vec<Option<[Link; 2]>>>,
    /// Background incast traffic (`None` = quiet fabric).
    pub(crate) bg: Option<BgState>,
    /// Fabric-forwarding flag; a replica on every shard, flipped by
    /// broadcast control events.
    pub(crate) switch_up: bool,
    pub(crate) coordinator: Option<LaedgeCoordinator>,
    pub(crate) arrivals: PoissonArrivals,
    /// The loss windows `(start_ns, end_ns, prob)` a traversal's event
    /// time is looked up in (empty in a lossless run, which never hashes),
    /// and the seed of the loss verdict.
    pub(crate) loss: Vec<(u64, u64, f64)>,
    pub(crate) loss_seed: u64,
    pub(crate) synthetic: Option<SyntheticWorkload>,
    pub(crate) kvmix: Option<Arc<KvMix>>,
    /// The shard's reusable emission buffer (`on_switch_in` drains it in
    /// place; see the `EmissionSink` contract).
    pub(crate) sink: EmissionSink,
    pub(crate) end_ns: u64,
    pub(crate) measure_start_ns: u64,
    pub(crate) throughput: TimeSeries,
    pub(crate) completed_in_window: u64,
    pub(crate) packets_lost: u64,
    /// The upper tier's counters at warm-up end.
    pub(crate) upper_counters_at_warmup: Vec<SwitchCounters>,
    /// Per-source tie-break sequence counters (index = source id).
    /// Control counters (`seq[0]`) evolve identically on every shard;
    /// rack counters are only touched by their owner.
    pub(crate) seq: Vec<u64>,
    /// Source id of the currently-executing event's domain.
    pub(crate) cur_src: u16,
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
        if self.racks.len() == 1 {
            CONTROL_SRC
        } else {
            (rack + 1) as u16
        }
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

    /// The loss verdict on `pkt`'s traversal of `point` by an event
    /// executing at `now`: inside a loss window, lost iff its loss key
    /// falls below the window's probability. A function of the packet, so
    /// neither event order nor sharding can move it.
    #[inline]
    fn lose_packet(&self, now: u64, point: u64, pkt: &AppPacket) -> bool {
        let mut windows = self.loss.iter();
        let window = windows.find(|w| (w.0..w.1).contains(&now));
        window.is_some_and(|&(.., prob)| below(loss_hash(self.loss_seed, point, pkt), prob))
    }

    /// The record of owned rack `r`.
    #[inline]
    fn rack(&mut self, r: usize) -> &mut Rack {
        self.racks[r].as_mut().expect("owned rack")
    }

    /// Draws a client's next operation from its `ops` stream.
    fn draw_op(&self, ops: &mut StdRng) -> RpcOp {
        if let Some(wl) = &self.synthetic {
            RpcOp::Echo {
                class_ns: wl.sample_class(ops),
            }
        } else {
            self.kvmix.as_ref().expect("kv workload").sample(ops)
        }
    }

    /// Carries a packet across host `host`'s access link in direction
    /// `dir` ([`UP`] or [`DOWN`]), starting at `egress_ns` (when the
    /// sender's last bit is ready): returns the arrival time at the far
    /// end, or `None` if the bounded queue tail-dropped it. Links disabled
    /// → the historical fixed-latency hop, arithmetic unchanged.
    #[inline]
    fn edge_hop(&mut self, host: usize, dir: usize, egress_ns: u64, wire: u16) -> Option<u64> {
        let Some(access) = &mut self.access else {
            return Some(egress_ns + calib::LINK_ONE_WAY_NS);
        };
        let link = &mut access[host].as_mut().expect("access link of an owned host")[dir];
        match link.offer(egress_ns, u32::from(wire)) {
            Verdict::Forward { depart_ns, .. } => Some(depart_ns + calib::LINK_ONE_WAY_NS),
            Verdict::Drop => None,
        }
    }

    /// Sends `pkt` from host `host` in an event at `now`, its last bit
    /// ready at `egress_ns`: a loss verdict, the access link up (a
    /// tail-drop ends it there), then `SwitchIn` at the host's leaf.
    #[inline]
    fn host_send(&mut self, host: usize, now: u64, egress_ns: u64, pkt: AppPacket) {
        if self.lose_packet(now, ACCESS | host as u64, &pkt) {
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
                self.cur_src = self.src_of_rack(self.hosts[self.hosts.client(cid)].leaf);
                self.on_gen(cid, now);
            }
            Ev::SwitchIn(sw, pkt) => {
                self.cur_src = self.src_of_rack(sw);
                self.on_switch_in(sw, pkt, now);
            }
            Ev::HostIn(host, pkt) => {
                let Host { kind, leaf, .. } = self.hosts[host];
                self.cur_src = self.src_of_rack(leaf);
                match kind {
                    HostKind::Client(cid) => self.on_client_in(cid.into(), pkt, now),
                    HostKind::Server(sid) => self.on_server_in(sid.into(), pkt, now),
                    HostKind::Coord => self.on_coord_in(pkt, now),
                }
            }
            Ev::ServerDone(idx, pkt) => {
                self.cur_src = self.src_of_rack(self.hosts[self.hosts.server(idx)].leaf);
                self.on_server_done(idx, pkt, now);
            }
            Ev::DownlinkIn { leaf, via, pkt } => {
                self.cur_src = self.src_of_rack(leaf);
                self.on_downlink_in(leaf, via, pkt, now);
            }
            Ev::BgGen(r) => {
                self.cur_src = self.src_of_rack(r);
                self.on_bg_gen(r, now);
            }
            Ev::BgDown { leaf, via, wire } => {
                self.cur_src = self.src_of_rack(leaf);
                self.on_bg_down(leaf, via, wire, now);
            }
            Ev::EndWarmup => {
                self.cur_src = CONTROL_SRC;
                self.on_end_warmup(now);
            }
            Ev::Fault { idx, edge } => {
                self.cur_src = CONTROL_SRC;
                self.on_fault(idx, edge, now);
            }
            Ev::ClientTick(cid) => {
                self.cur_src = self.src_of_rack(self.hosts[self.hosts.client(cid)].leaf);
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
        match self.scenario.faults.faults[idx].kind {
            FaultKind::Slowdown { sid, factor } => {
                // Gray failure: only future service draws change; the
                // switch keeps the server in its tables and the queue
                // keeps filling — which is the point.
                let factor = if start { factor } else { 1.0 };
                self.server(sid.into()).set_slow_factor(factor);
            }
            FaultKind::Drain { rack } if start => self.rack(rack).up = false,
            FaultKind::Drain { rack } => {
                // Fig. 16 bring-up semantics scoped to one leaf: packets
                // flow again, but the leaf's soft state (idle tracking,
                // filters) restarts cold.
                let rack = self.rack(rack);
                rack.up = true;
                rack.engine.reset_soft_state();
            }
            FaultKind::LinkFlap { rack, factor } => {
                self.on_link_flap(rack, if start { factor } else { 1 });
            }
            FaultKind::Reboot { .. } if start => self.switch_up = false,
            FaultKind::Reboot { bringup_ns } if edge == Edge::End => {
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
                let at = SimTime::from_ns(now + bringup_ns);
                self.q.schedule_keyed(at, tie, up);
            }
            FaultKind::Reboot { .. } => {
                // §3.6: only soft state is lost; the control plane's table
                // entries are reinstalled during bring-up.
                for r in self.racks.iter_mut().flatten() {
                    r.engine.reset_soft_state();
                }
                self.switch_up = true;
            }
            // A stopped server never comes back (`validate` refuses a
            // second stop), so `is_alive` is its whole fault state.
            FaultKind::ServerStop { sid } if start => self.server(sid.into()).kill(),
            FaultKind::ServerStop { sid } => self.on_server_remove(sid),
            FaultKind::Loss { .. } => unreachable!("a loss window primes no edge"),
        }
    }

    /// The simulation of owned server `idx`.
    #[inline]
    fn server(&mut self, idx: usize) -> &mut ServerSim {
        &mut self.servers[idx].as_mut().expect("owned server").sim
    }

    /// Gray failure of the *network*: every rack-adjacent link of the
    /// victim rack shifts its effective rate (queued packets keep their
    /// schedule). Owner-primed — only the owning shard materializes these
    /// links, and only its domain ever touches them, so the flap composes
    /// with the sharded loop's bit-identity argument unchanged.
    fn on_link_flap(&mut self, rack: usize, factor: u64) {
        let access = self.access.as_mut().expect("link flap requires links");
        let access = self
            .hosts
            .iter()
            .zip(access)
            .filter(|(h, _)| h.leaf == rack)
            .flat_map(|(_, links)| links.as_mut().expect("access links of an owned rack"));
        let r = self.racks[rack].as_mut().expect("owned rack");
        for l in r.uplinks.iter_mut().chain(&mut r.downlinks).chain(access) {
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
        let c = self.clients[cid].as_mut().expect("owned client");
        for (pkt, tx_done) in c.sim.tick(now) {
            self.host_send(host, now, tx_done, pkt);
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
        for r in self.racks.iter_mut().flatten() {
            any_deregistered |= r.engine.deregister_server(sid).is_ok();
        }
        let dead_ip = Ipv4::server(sid);
        for (cid, c) in self.clients.iter_mut().enumerate() {
            let Some(c) = c else { continue };
            match c.sim.core.mode_mut() {
                ClientMode::NetClone { num_groups, .. } if any_deregistered => {
                    let leaf = self.hosts[self.hosts.client(cid)].leaf;
                    let tor = self.racks[leaf].as_ref();
                    *num_groups = tor
                        .expect("a client's leaf lives on its shard")
                        .engine
                        .num_groups();
                }
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
        let host = self.hosts.client(cid);
        // The clients move out for the emission so the callback can borrow
        // `self` freely; `mem::take` swaps in an (unallocated) empty Vec.
        let mut clients = std::mem::take(&mut self.clients);
        let c = clients[cid].as_mut().expect("owned client");
        let op = self.draw_op(&mut c.ops);
        c.sim.generate_each(op, now, |meta, tx_done| {
            let pkt = AppPacket {
                meta,
                op,
                born_ns: now,
            };
            self.host_send(host, now, tx_done, pkt);
        });
        let gap = self.arrivals.next_gap_ns(&mut c.arrivals);
        self.clients = clients;
        self.sched(now + gap, Ev::Gen(cid));
    }

    fn on_switch_in(&mut self, sw: usize, pkt: AppPacket, now: u64) {
        let rack = self.racks[sw].as_mut().expect("owned leaf");
        if !self.switch_up || !rack.up {
            self.packets_lost += 1;
            return;
        }
        // The sink moves out for the drain so scheduling below can borrow
        // `self` freely; `mem::take` swaps in an (unallocated) empty one.
        let mut sink = std::mem::take(&mut self.sink);
        rack.engine.process(pkt.meta, 0, now, &mut sink);
        for e in sink.drain() {
            let out = AppPacket { meta: e.pkt, ..pkt };
            if self.lose_packet(now, LEAF_EGRESS | sw as u64, &out) {
                self.packets_lost += 1;
                continue;
            }
            let mut egress = now + e.latency_ns;
            if e.port == UPLINK_PORT && self.racks.len() > 1 {
                // A leaf→upper traversal: no host NIC on this hop, the
                // fabric link latency applies instead; the upper tier is
                // walked inline (module docs). ECMP picks the physical
                // uplink (a fat-tree has several; leaf/spine has uplink 0).
                let h = flow_hash(e.pkt.src_ip, e.pkt.dst_ip, self.ecmp_seed);
                let walk = self.tier.walk(sw, e.pkt.dst_ip, h);
                if self.access.is_some() {
                    let up = &mut self.rack(sw).uplinks[walk.via];
                    match up.offer(egress, u32::from(e.pkt.wire_bytes)) {
                        Verdict::Forward { depart_ns, .. } => egress = depart_ns,
                        Verdict::Drop => continue,
                    }
                }
                self.via_upper(walk, out, now, egress);
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
    /// pass, and its egress link gets a loss verdict; a switch with no
    /// route for the destination drops it instead. Out of line: inlined
    /// (with `send_to_leaf`) it grows `handle` by a tenth and costs the
    /// single-rack loop, which never gets here, 1 % of its time.
    #[inline(never)]
    fn via_upper(&mut self, walk: UpperWalk, pkt: AppPacket, now: u64, egress_ns: u64) {
        let Some(leaf) = walk.leaf else {
            self.tier.count_dropped(walk.hops()[0]);
            return;
        };
        for &sw in walk.hops() {
            self.tier.count_routed(sw);
            if self.lose_packet(now, UPPER_HOP | sw as u64, &pkt) {
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
        if self.access.is_some() {
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
        let down = &mut self.rack(leaf).downlinks[via];
        if let Verdict::Forward { depart_ns, .. } = down.offer(now, u32::from(pkt.meta.wire_bytes))
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
        let bg = self.bg.as_ref().expect("bg event requires background");
        let (wire, victim) = (bg.wire, bg.victim);
        let rack = self.racks[r].as_mut().expect("owned rack");
        let walk = self
            .tier
            .path(r, Some(victim), bg_hash(r as u64, rack.bg_sent));
        rack.bg_sent += 1;
        let sent = rack.uplinks[walk.via].offer(now + self.pass_ns, u32::from(wire));
        let rng = rack.bg.as_mut().expect("bg stream of an owned rack");
        let gap = bg.arrivals.next_gap_ns(rng);
        if let Verdict::Forward { depart_ns, .. } = sent {
            // Each upper switch crossed is a propagation plus a pass.
            let hops = walk.hops().len() as u64;
            let at = depart_ns + hops * (self.inter_rack_ns + self.pass_ns);
            let ev = Ev::BgDown {
                leaf: victim,
                via: walk.via,
                wire,
            };
            self.send_to_rack(victim, at, ev);
        }
        self.sched(now + gap, Ev::BgGen(r));
    }

    /// A background packet reaches the victim's downlink: it takes queue
    /// space (delaying and dropping RPC traffic behind it) and vanishes.
    fn on_bg_down(&mut self, leaf: usize, via: usize, wire: u16, now: u64) {
        let _ = self.rack(leaf).downlinks[via].offer(now, u32::from(wire));
    }

    /// A dead server refuses the request like a dropped clone, so it
    /// swallows packets without a check here.
    fn on_server_in(&mut self, idx: usize, pkt: AppPacket, now: u64) {
        let seen_at = now + calib::HOST_RX_STACK_NS;
        // Queued packets live inside the server; dropped clones are gone.
        if let Admission::Start { done_at } = self.server(idx).on_request(pkt, seen_at) {
            self.sched(done_at, Ev::ServerDone(idx, pkt));
        }
    }

    fn on_server_done(&mut self, idx: usize, pkt: AppPacket, now: u64) {
        let server = self.server(idx);
        if !server.is_alive() {
            return; // the server died while this was in service
        }
        let completion = server.on_service_done(&pkt.meta.nc, now);
        let sid = server.sid();
        let meta =
            PacketMeta::netclone_response(Ipv4::server(sid), pkt.meta.src_ip, completion.resp, 84);
        // The response carries the request's op and birth time.
        self.host_send(self.hosts.server(idx), now, now, AppPacket { meta, ..pkt });
        if let Some((pkt, next_done)) = completion.next {
            self.sched(next_done, Ev::ServerDone(idx, pkt));
        }
    }

    fn on_client_in(&mut self, cid: usize, pkt: AppPacket, now: u64) {
        let c = self.clients[cid].as_mut().expect("owned client");
        let outcome = c.sim.on_response(&pkt, now);
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
            self.host_send(self.hosts.coord(), now, e.send_at, e.pkt);
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
            c.sim.core.reset_measurements();
        }
        for r in self.racks.iter_mut().flatten() {
            r.at_warmup = r.engine.counters();
        }
        self.upper_counters_at_warmup
            .copy_from_slice(self.tier.counters());
        for s in self.servers.iter_mut().flatten() {
            s.at_warmup = s.sim.stats();
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
        ShardCoordinator::new(scenario, shards, false).run().0
    }

    /// [`Sim::run_with_shards`], also returning the `(time, tie-key)` of
    /// every executed event, merged across shards in key order — the
    /// hook the sharding-order proptests compare against the serial
    /// execution order.
    #[doc(hidden)]
    pub fn run_traced(scenario: Scenario, shards: usize) -> (RunResult, Vec<(u64, u64)>) {
        let (result, trace) = ShardCoordinator::new(scenario, shards, true).run();
        (result, trace.expect("tracing enabled"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_shards;
    use netclone_policies::PlainL3Switch;
    use netclone_proto::{CloneStatus, NetCloneHdr};

    /// Runs one packet to `dst` through a single-rack Baseline leaf whose
    /// only route sends `dst` out of `port`.
    fn emit_to_port(dst: Ipv4, port: PortId) {
        let s = Scenario::synthetic_default(
            crate::scheme::Scheme::Baseline,
            netclone_workloads::exp25(),
            1e5,
        );
        assert_eq!(s.n_clients, 2);
        let (mut shards, _) = build_shards(s, 1, false);
        let shard = &mut shards[0];
        let mut rogue = PlainL3Switch::new(netclone_asic::AsicSpec::tofino());
        rogue.register_route(dst, port).unwrap();
        shard.racks[0].as_mut().unwrap().engine = Box::new(rogue);
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

    /// A request of client `cid` to server `sid`, or its response.
    fn keyed(cid: u16, sid: u16, seq: u32, resp: bool, clo: CloneStatus) -> AppPacket {
        let mut nc = NetCloneHdr::request(0, 0, cid, seq);
        nc.clo = clo;
        let (mut src, mut dst) = (Ipv4::client(cid), Ipv4::server(sid));
        if resp {
            nc.msg_type = MsgType::Resp;
            (src, dst) = (dst, src);
        }
        let meta = PacketMeta::netclone_response(src, dst, nc, 84);
        let (op, born_ns) = (RpcOp::Echo { class_ns: 0 }, 1_000 * u64::from(seq));
        AppPacket { meta, op, born_ns }
    }

    /// The same inputs give the same key; changing any one key field, the
    /// point or the seed changes it.
    #[test]
    fn the_loss_key_is_a_function_of_every_identity_field() {
        let (point, pkt) = (LEAF_EGRESS | 3, keyed(1, 2, 42, false, CloneStatus::Clone));
        let h = loss_hash(7, point, &pkt);
        assert_eq!(h, loss_hash(7, point, &pkt));
        let edits: [fn(&mut AppPacket); 7] = [
            |p| p.meta.src_ip = Ipv4::client(2),
            |p| p.meta.dst_ip = Ipv4::server(3),
            |p| p.meta.nc.client_id = 2,
            |p| p.meta.nc.client_seq = 43,
            |p| p.meta.nc.msg_type = MsgType::Resp,
            |p| p.meta.nc.clo = CloneStatus::ClonedOriginal,
            |p| p.born_ns += 1,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut q = pkt;
            edit(&mut q);
            assert_ne!(loss_hash(7, point, &q), h, "edit {i}");
        }
        for other in [ACCESS | 3, UPPER_HOP | 3, LEAF_EGRESS | 4] {
            assert_ne!(loss_hash(7, other, &pkt), h, "point {other:#x}");
        }
        assert_ne!(loss_hash(8, point, &pkt), h, "seed");
    }

    /// Over 204,000 keys shaped like traffic — sequential sequence numbers
    /// of two clients, request and response, original and clone, at each
    /// kind of point — the lost fraction is `p` within 4σ, σ = √(p(1−p)/n):
    /// a fair coin per key lands outside with chance 6·10⁻⁵ per `p`.
    #[test]
    fn the_lost_fraction_is_the_window_probability() {
        let mut hashes = Vec::new();
        for (seq, cid, resp) in (0..8_500)
            .flat_map(|q| [0, 1].map(|c| [(q, c, false), (q, c, true)]))
            .flatten()
        {
            for (sid, clo) in [(0, CloneStatus::ClonedOriginal), (1, CloneStatus::Clone)] {
                let pkt = keyed(cid, sid, seq, resp, clo);
                for point in [ACCESS | u64::from(cid), LEAF_EGRESS, UPPER_HOP | 1] {
                    hashes.push(loss_hash(42, point, &pkt));
                }
            }
        }
        let n = hashes.len() as f64;
        assert_eq!(n, 204_000.0);
        for p in [0.005, 0.01, 0.02] {
            let lost = hashes.iter().filter(|&&h| below(h, p)).count() as f64;
            let sigma = (p * (1.0 - p) / n).sqrt();
            let msg = format!("p = {p}: lost {lost} of {n}");
            assert!((lost / n - p).abs() <= 4.0 * sigma, "{msg}");
        }
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
