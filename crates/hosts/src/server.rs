//! The worker-server model: a DES frontend over the shared [`ServerCore`]
//! protocol state machine, adding the dispatcher + FCFS queue + worker
//! thread *timing* the simulator models. The §3.4 clone-drop rule,
//! response construction with state piggybacking, and all accounting live
//! in [`netclone_hostcore::ServerCore`], shared verbatim with the
//! real-socket server in `netclone-net`.

use std::collections::VecDeque;

use netclone_hostcore::{AdmitDecision, ServerCore};
use netclone_kvstore::{HotKeyCost, ServiceCostModel};
use netclone_proto::{NetCloneHdr, RpcOp, ServerId};
use netclone_workloads::{Jitter, ServiceShape};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use netclone_hostcore::ServerStats;

use crate::packet::AppPacket;

/// Static configuration of one worker server.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Server identity (the `SID` field of its responses).
    pub sid: ServerId,
    /// Worker threads processing requests in parallel (paper: 15 for
    /// synthetic workloads + 1 dispatcher on a 16-thread CPU; 8 for KV).
    pub workers: usize,
    /// Dispatcher cost to receive + enqueue one request, ns.
    pub dispatch_ns: u64,
    /// Dispatcher cost to receive + drop a cloned request, ns (the §5.3.2
    /// "processing cost \[that\] can be harmful … at very high loads").
    pub clone_drop_ns: u64,
    /// Distribution of execution time around a request's class.
    pub shape: ServiceShape,
    /// The §5.1.2 jitter model (×15 with probability p).
    pub jitter: Jitter,
    /// Cost model for KV operations (Echo requests carry their own class).
    pub cost: ServiceCostModel,
    /// Optional cache-aware hit/miss split over `cost`: when set, the
    /// request's class comes from the hot-key model instead of `cost`
    /// (the adversarial Zipf hot-key scenarios).
    pub hot_key: Option<HotKeyCost>,
    /// RNG seed (derive via `SeedFactory`).
    pub seed: u64,
}

impl ServerConfig {
    /// The paper's synthetic-workload server: 15 workers, exponential
    /// service shape, high-variability jitter.
    pub fn synthetic(sid: ServerId, seed: u64) -> Self {
        ServerConfig {
            sid,
            workers: 15,
            dispatch_ns: 300,
            clone_drop_ns: 200,
            shape: ServiceShape::Exponential,
            jitter: Jitter::HIGH,
            cost: ServiceCostModel::redis(), // unused by Echo classes
            hot_key: None,
            seed,
        }
    }

    /// The paper's KV server: 8 worker threads (§5.5), Gamma(4) service
    /// dispersion over the store's cost model.
    pub fn kv(sid: ServerId, cost: ServiceCostModel, seed: u64) -> Self {
        ServerConfig {
            sid,
            workers: 8,
            dispatch_ns: 300,
            clone_drop_ns: 200,
            shape: ServiceShape::Gamma4,
            jitter: Jitter::HIGH,
            cost,
            hot_key: None,
            seed,
        }
    }
}

/// What happened to an arriving request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Admission {
    /// A worker picked it up immediately; service completes at `done_at`.
    Start {
        /// Absolute completion time, ns.
        done_at: u64,
    },
    /// Enqueued behind other requests (FCFS).
    Queued,
    /// A `CLO=2` clone arriving at a non-empty queue: dropped (§3.4).
    CloneDropped,
}

/// What a completed service hands back.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion {
    /// The response header to send, piggybacking the queue length at send
    /// time (§3.4/§5.6.1), built by the shared [`ServerCore`].
    pub resp: NetCloneHdr,
    /// The next queued request this worker immediately starts, with its
    /// completion time.
    pub next: Option<(AppPacket, u64)>,
}

/// One simulated worker server.
pub struct ServerSim {
    cfg: ServerConfig,
    core: ServerCore,
    rng: StdRng,
    queue: VecDeque<AppPacket>,
    busy_workers: usize,
    dispatcher_free_at: u64,
    alive: bool,
    /// Multiplicative service-time degradation (1.0 = healthy). Unlike
    /// `kill()` (fail-stop, §3.6) the server keeps answering — just
    /// slower — which is exactly the gray failure cloning should mask.
    slow_factor: f64,
}

impl ServerSim {
    /// Builds a server from its configuration.
    pub fn new(cfg: ServerConfig) -> Self {
        ServerSim {
            core: ServerCore::new(cfg.sid),
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            queue: VecDeque::new(),
            busy_workers: 0,
            dispatcher_free_at: 0,
            alive: true,
            slow_factor: 1.0,
        }
    }

    /// The server's identity.
    pub fn sid(&self) -> ServerId {
        self.core.sid()
    }

    /// Current queue length (excludes in-service requests — this is the
    /// quantity the paper's servers report and check).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Workers currently serving requests.
    pub fn busy_workers(&self) -> usize {
        self.busy_workers
    }

    /// Statistics so far.
    pub fn stats(&self) -> ServerStats {
        self.core.stats()
    }

    /// Marks the server failed: it silently drops everything (§3.6).
    pub fn kill(&mut self) {
        self.alive = false;
        self.queue.clear();
        self.busy_workers = 0;
    }

    /// True when the server is up.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Sets the multiplicative service-time degradation (1.0 = healthy).
    /// Affects only services *drawn* from now on — in-flight requests
    /// keep their completion times, like a real frequency drop.
    pub fn set_slow_factor(&mut self, factor: f64) {
        debug_assert!(factor > 0.0, "slow factor must be positive");
        self.slow_factor = factor;
    }

    /// Draws the execution time for one request (class → shape → jitter →
    /// degradation). The slowdown multiplies *after* the stochastic
    /// stages, so the RNG draw sequence is identical whether or not a
    /// slowdown is active — healthy runs stay seed-pinned.
    fn draw_service_ns(&mut self, op: &RpcOp) -> u64 {
        let class = match &self.cfg.hot_key {
            Some(hk) => hk.class_ns(op),
            None => self.cfg.cost.class_ns(op),
        };
        let base = self.cfg.shape.sample(&mut self.rng, class);
        let jittered = self.cfg.jitter.apply(&mut self.rng, base);
        if self.slow_factor != 1.0 {
            (jittered as f64 * self.slow_factor).round() as u64
        } else {
            jittered
        }
    }

    /// Handles one arriving request packet at time `now`.
    pub fn on_request(&mut self, pkt: AppPacket, now: u64) -> Admission {
        if !self.alive {
            return Admission::CloneDropped; // silently lost; caller ignores
        }
        // The single dispatcher thread serialises receive+enqueue work.
        let t0 = now.max(self.dispatcher_free_at);
        // §3.4: cloned requests (CLO=2) are dropped on a non-empty queue;
        // the shared core applies the rule and keeps the counter.
        if self.core.admit(pkt.meta.nc.clo, self.queue.len()) == AdmitDecision::DropClone {
            self.dispatcher_free_at = t0 + self.cfg.clone_drop_ns;
            return Admission::CloneDropped;
        }
        let ready = t0 + self.cfg.dispatch_ns;
        self.dispatcher_free_at = ready;
        if self.busy_workers < self.cfg.workers && self.queue.is_empty() {
            self.busy_workers += 1;
            let service = self.draw_service_ns(&pkt.op);
            Admission::Start {
                done_at: ready + service,
            }
        } else {
            self.queue.push_back(pkt);
            self.core.note_queue_depth(self.queue.len());
            Admission::Queued
        }
    }

    /// Completes one service of `req` at time `now`: pulls the next queued
    /// request (if any) onto the freed worker, then builds the response.
    ///
    /// The worker loop is *dequeue next, then send the response* — so the
    /// "current queue length when sending a response" (§5.6.1) is the
    /// post-dequeue length. This makes the idle signal optimistic about
    /// imminent drain, which is what lets cloning persist into high loads
    /// (§5.6.1: "queues do not always build up even under very high
    /// loads") and produces the §5.3.2 herding effects the paper observes.
    pub fn on_service_done(&mut self, req: &NetCloneHdr, now: u64) -> Completion {
        debug_assert!(self.busy_workers > 0, "completion without a busy worker");
        self.busy_workers = self.busy_workers.saturating_sub(1);
        let next = self.queue.pop_front().map(|pkt| {
            self.busy_workers += 1;
            let service = self.draw_service_ns(&pkt.op);
            (pkt, now + service)
        });
        let resp = self.core.response(req, self.queue.len());
        Completion { resp, next }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclone_proto::{CloneStatus, Ipv4, PacketMeta};

    fn pkt(clo: CloneStatus) -> AppPacket {
        let mut meta =
            PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(0, 0, 0, 0), 84);
        meta.nc.clo = clo;
        AppPacket {
            meta,
            op: RpcOp::Echo { class_ns: 25_000 },
            born_ns: 0,
        }
    }

    fn det_server(workers: usize) -> ServerSim {
        let mut cfg = ServerConfig::synthetic(0, 1);
        cfg.workers = workers;
        cfg.shape = ServiceShape::Deterministic;
        cfg.jitter = Jitter::NONE;
        cfg.dispatch_ns = 100;
        ServerSim::new(cfg)
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = det_server(2);
        match s.on_request(pkt(CloneStatus::NotCloned), 1_000) {
            Admission::Start { done_at } => assert_eq!(done_at, 1_000 + 100 + 25_000),
            other => panic!("expected Start, got {other:?}"),
        }
        assert_eq!(s.busy_workers(), 1);
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn requests_queue_when_workers_are_busy() {
        let mut s = det_server(1);
        assert!(matches!(
            s.on_request(pkt(CloneStatus::NotCloned), 0),
            Admission::Start { .. }
        ));
        assert_eq!(
            s.on_request(pkt(CloneStatus::NotCloned), 10),
            Admission::Queued
        );
        assert_eq!(s.queue_len(), 1);
        assert_eq!(s.stats().peak_queue, 1);
    }

    #[test]
    fn clone_dropped_iff_queue_nonempty() {
        let mut s = det_server(1);
        // Queue empty, worker free: the clone is served.
        assert!(matches!(
            s.on_request(pkt(CloneStatus::Clone), 0),
            Admission::Start { .. }
        ));
        // Queue empty, worker busy: the clone queues (only *non-empty
        // queues* drop clones, §3.4).
        assert_eq!(s.on_request(pkt(CloneStatus::Clone), 10), Admission::Queued);
        // Queue non-empty: the clone is dropped.
        assert_eq!(
            s.on_request(pkt(CloneStatus::Clone), 20),
            Admission::CloneDropped
        );
        assert_eq!(s.stats().clones_dropped, 1);
        // …while an original (CLO=1) is processed normally.
        assert_eq!(
            s.on_request(pkt(CloneStatus::ClonedOriginal), 30),
            Admission::Queued
        );
    }

    #[test]
    fn completion_reports_queue_state_and_chains_next() {
        let mut s = det_server(1);
        let first = pkt(CloneStatus::NotCloned);
        let done_at = match s.on_request(first, 0) {
            Admission::Start { done_at } => done_at,
            other => panic!("{other:?}"),
        };
        s.on_request(pkt(CloneStatus::NotCloned), 10);
        s.on_request(pkt(CloneStatus::NotCloned), 20);
        assert_eq!(s.queue_len(), 2);
        let c = s.on_service_done(&first.meta.nc, done_at);
        // State sampled after the worker dequeues its next request:
        // 2 were queued, 1 remains.
        assert_eq!(c.resp.state.queue_len(), 1);
        assert!(c.resp.is_response());
        assert_eq!(c.resp.sid, 0);
        let (next_pkt, next_done) = c.next.expect("worker must chain");
        assert_eq!(next_pkt.meta.nc.clo, CloneStatus::NotCloned);
        assert_eq!(next_done, done_at + 25_000);
        assert_eq!(s.queue_len(), 1);
        assert_eq!(s.busy_workers(), 1);
    }

    #[test]
    fn idle_reports_track_empty_queue_fraction() {
        let mut s = det_server(2);
        let first = pkt(CloneStatus::NotCloned);
        let d1 = match s.on_request(first, 0) {
            Admission::Start { done_at } => done_at,
            _ => unreachable!(),
        };
        let c = s.on_service_done(&first.meta.nc, d1);
        assert!(c.resp.state.is_idle());
        let st = s.stats();
        assert_eq!(st.idle_reports, 1);
        assert_eq!(st.responses, 1);
        assert_eq!(st.served, 1);
    }

    #[test]
    fn dispatcher_serialises_arrivals() {
        let mut s = det_server(4);
        // Two arrivals at the same instant: the second starts 100 ns later
        // (dispatcher cost), so completions differ.
        let a = match s.on_request(pkt(CloneStatus::NotCloned), 0) {
            Admission::Start { done_at } => done_at,
            _ => unreachable!(),
        };
        let b = match s.on_request(pkt(CloneStatus::NotCloned), 0) {
            Admission::Start { done_at } => done_at,
            _ => unreachable!(),
        };
        assert_eq!(b, a + 100);
    }

    #[test]
    fn killed_server_swallows_requests() {
        let mut s = det_server(1);
        s.kill();
        assert!(!s.is_alive());
        assert_eq!(
            s.on_request(pkt(CloneStatus::NotCloned), 0),
            Admission::CloneDropped
        );
    }

    #[test]
    fn slow_factor_scales_new_services_only() {
        let mut s = det_server(2);
        match s.on_request(pkt(CloneStatus::NotCloned), 0) {
            Admission::Start { done_at } => assert_eq!(done_at, 100 + 25_000),
            other => panic!("{other:?}"),
        }
        s.set_slow_factor(4.0);
        // A new arrival pays 4× service; dispatcher cost is unaffected.
        match s.on_request(pkt(CloneStatus::NotCloned), 1_000_000) {
            Admission::Start { done_at } => assert_eq!(done_at, 1_000_000 + 100 + 100_000),
            other => panic!("{other:?}"),
        }
        s.set_slow_factor(1.0);
    }

    #[test]
    fn hot_key_split_prices_hits_and_misses_differently() {
        use netclone_kvstore::HotKeyCost;
        use netclone_proto::KvKey;
        let mut cfg = ServerConfig::kv(0, ServiceCostModel::redis(), 1);
        cfg.shape = ServiceShape::Deterministic;
        cfg.jitter = Jitter::NONE;
        cfg.dispatch_ns = 0;
        cfg.hot_key = Some(HotKeyCost::redis_with_backing_store(100));
        let mut s = ServerSim::new(cfg);
        let hk = cfg.hot_key.unwrap();
        let mk = |idx: u64| {
            let meta =
                PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(0, 0, 0, 0), 84);
            AppPacket {
                meta,
                op: RpcOp::Get {
                    key: KvKey::from_index(idx),
                },
                born_ns: 0,
            }
        };
        match s.on_request(mk(0), 0) {
            Admission::Start { done_at } => assert_eq!(done_at, hk.hit.get_ns()),
            other => panic!("{other:?}"),
        }
        match s.on_request(mk(5_000), 10_000_000) {
            Admission::Start { done_at } => {
                assert_eq!(done_at, 10_000_000 + hk.miss.get_ns());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn jitter_inflates_some_services() {
        let mut cfg = ServerConfig::synthetic(0, 7);
        cfg.workers = 1_000_000; // never queue
        cfg.shape = ServiceShape::Deterministic;
        cfg.jitter = Jitter { p: 0.5, factor: 15 };
        let mut s = ServerSim::new(cfg);
        let mut slow = 0;
        for i in 0..1_000 {
            match s.on_request(pkt(CloneStatus::NotCloned), i * 1_000_000) {
                Admission::Start { done_at } => {
                    let service = done_at - i * 1_000_000 - cfg.dispatch_ns;
                    if service == 375_000 {
                        slow += 1;
                    } else {
                        assert_eq!(service, 25_000);
                    }
                }
                other => panic!("{other:?}"),
            }
        }
        assert!((300..700).contains(&slow), "jitter hits {slow}/1000");
    }
}
