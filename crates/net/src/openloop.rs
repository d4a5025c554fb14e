//! Open-loop load generation over real sockets — the §4.2 client ("the
//! inter-arrival time between two consecutive requests is exponentially
//! distributed"), sharded across worker threads.
//!
//! Each worker owns its **own** [`ClientCore`] — the core is sans-io and
//! owns its seq space — with a disjoint `cid` partition and a per-worker
//! RNG stream derived from the seed, so workers share no lock. A worker
//! is one thread running both roles: it paces exponential-gap sends
//! (batched through [`SendBatch`], `sendmmsg` on Linux) and busy-polls
//! its own socket for responses (batched through [`RecvBatch`], borrowed
//! decode), so the per-packet path takes no lock, performs no
//! allocation, and issues a fraction of a syscall per packet.
//! All accounting — completed, redundant, clone-win, lost — is still the
//! core's, identical to the DES client and to the blocking
//! [`crate::UdpClient`], which moves its datagrams through the same two
//! batches; the run merges per-worker [`ClientStats`] and latency
//! histograms into one [`OpenLoopReport`] that keeps the per-worker
//! breakdown.
//!
//! Workers run under `supervise`: a panic re-enters the loop with the
//! worker's core, shim, RNG, pacing clock and batches, so the report
//! counts every request a crashed worker generated.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::AtomicU32;
use std::time::{Duration, Instant};

use netclone_hostcore::{ClientCore, ClientMode, ClientStats, RetryPolicy};
use netclone_proto::{mix64, Ipv4, RpcOp, GOLDEN};
use netclone_stats::LatencyHistogram;
use netclone_workloads::PoissonArrivals;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batch::{RecvBatch, SendBatch};
use crate::codec::{decode_packet_borrowed, encode_packet_into};
use crate::shim::{FaultDirection, FaultPlan, FaultShim};
use crate::supervise;

/// Parameters of one open-loop run.
#[derive(Clone, Debug)]
pub struct OpenLoopSpec {
    /// Target request rate, requests/second, **aggregate** across workers
    /// (each worker paces at `rate_rps / workers`).
    pub rate_rps: f64,
    /// Generation window.
    pub duration: Duration,
    /// The operation to issue (fixed class / key pattern).
    pub op: RpcOp,
    /// Extra time to wait for in-flight responses after generation stops
    /// (workers exit early once nothing is outstanding).
    pub drain: Duration,
    /// Per-request timeout: requests unanswered this long are evicted from
    /// the outstanding map and reported as `lost`.
    pub request_timeout: Duration,
    /// Number of installed groups on the switch.
    pub num_groups: u16,
    /// Number of filter tables (for the random IDX).
    pub num_filter_tables: u8,
    /// RNG seed. Worker 0 uses it verbatim; worker `w` derives its own
    /// stream with a splitmix64 step over `seed ^ w`.
    pub seed: u64,
    /// Worker threads — must match the worker count the client was bound
    /// with ([`OpenLoopClient::bind_workers`]).
    pub workers: usize,
    /// Client-side recovery: retransmit timed-out requests with capped
    /// exponential backoff under a per-worker retry budget. `None` keeps
    /// the evict-as-lost behaviour (`request_timeout` alone).
    pub retry: Option<RetryPolicy>,
    /// Deterministic fault injection between codec and socket
    /// ([`FaultShim`]); `None` (or an empty plan) leaves the hot path
    /// untouched.
    pub faults: Option<FaultPlan>,
    /// Test/CI knob: worker `w` panics once its elapsed time passes the
    /// given mark — once, so the supervised restart finishes the run.
    /// `None` in every production use.
    pub crash_worker: Option<(usize, Duration)>,
}

/// One worker's share of an open-loop run.
#[derive(Debug)]
pub struct WorkerReport {
    /// The worker's client identity (`base_cid + worker index`).
    pub cid: u16,
    /// The worker's core counters (a restart keeps the core, so a crash
    /// loses none).
    pub stats: ClientStats,
    /// Latency histogram (ns) of the worker's completed requests.
    pub latencies: LatencyHistogram,
    /// Times the supervisor restarted this worker after a panic.
    pub restarts: u32,
    /// The last failure the supervisor observed (a panic message or an
    /// I/O error), if any — the run still completes and reports.
    pub error: Option<String>,
}

/// Results of one open-loop run: merged totals plus the per-worker
/// breakdown they were folded from.
#[derive(Debug)]
pub struct OpenLoopReport {
    /// Every worker's core counters, merged: `generated` requests sent,
    /// `completed + lost` of them resolved (`lost`: evicted after
    /// `request_timeout`, or still outstanding when the run ended).
    pub stats: ClientStats,
    /// Worker restarts across the run (0 in a healthy run).
    pub restarts: u32,
    /// Latency histogram (ns) of completed requests, all workers merged.
    pub latencies: LatencyHistogram,
    /// Per-worker reports, in worker order (worker 0 first).
    pub per_worker: Vec<WorkerReport>,
}

impl OpenLoopReport {
    /// Completion fraction.
    pub fn completion_rate(&self) -> f64 {
        if self.stats.generated == 0 {
            0.0
        } else {
            self.stats.completed as f64 / self.stats.generated as f64
        }
    }

    /// Workers that reported a failure (panic or I/O error), in worker
    /// order.
    pub fn worker_errors(&self) -> Vec<(u16, &str)> {
        self.per_worker
            .iter()
            .filter_map(|w| w.error.as_deref().map(|e| (w.cid, e)))
            .collect()
    }

    fn merge(per_worker: Vec<WorkerReport>) -> OpenLoopReport {
        let mut report = OpenLoopReport {
            stats: ClientStats::default(),
            restarts: 0,
            latencies: LatencyHistogram::new(),
            per_worker: Vec::new(),
        };
        for w in &per_worker {
            report.stats.merge(&w.stats);
            report.latencies.merge(&w.latencies);
            report.restarts += w.restarts;
        }
        report.per_worker = per_worker;
        report
    }
}

/// One worker's identity + socket, fixed at bind time so every endpoint
/// can be registered with the switch before traffic flows.
struct Endpoint {
    cid: u16,
    vip: Ipv4,
    socket: UdpSocket,
}

/// An open-loop client bound to one socket per worker (register every
/// [`Self::endpoints`] entry with the switch before running).
pub struct OpenLoopClient {
    endpoints: Vec<Endpoint>,
    switch_addr: SocketAddr,
}

impl OpenLoopClient {
    /// Binds a single-worker client on `127.0.0.1`.
    pub fn bind(cid: u16, switch_addr: SocketAddr) -> std::io::Result<Self> {
        Self::bind_workers(cid, 1, switch_addr)
    }

    /// Binds `workers` worker sockets on `127.0.0.1`, with client ids
    /// `base_cid .. base_cid + workers`; ids past `u16::MAX` are refused.
    pub fn bind_workers(
        base_cid: u16,
        workers: usize,
        switch_addr: SocketAddr,
    ) -> std::io::Result<Self> {
        if workers == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "open-loop client needs at least one worker",
            ));
        }
        let last = u16::try_from(workers - 1).ok();
        let Some(last) = last.and_then(|n| base_cid.checked_add(n)) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{workers} client ids from {base_cid} overflow the id space"),
            ));
        };
        let mut endpoints = Vec::with_capacity(workers);
        for cid in base_cid..=last {
            endpoints.push(Endpoint {
                cid,
                vip: Ipv4::client(cid),
                socket: UdpSocket::bind("127.0.0.1:0")?,
            });
        }
        Ok(OpenLoopClient {
            endpoints,
            switch_addr,
        })
    }

    /// Worker count this client was bound with.
    pub fn workers(&self) -> usize {
        self.endpoints.len()
    }

    /// Worker 0's socket address.
    pub fn addr(&self) -> std::io::Result<SocketAddr> {
        self.endpoints[0].socket.local_addr()
    }

    /// Worker 0's virtual address.
    pub fn vip(&self) -> Ipv4 {
        self.endpoints[0].vip
    }

    /// Every worker's `(cid, virtual address, socket address)`, in worker
    /// order — register each with the switch before running.
    pub fn endpoints(&self) -> std::io::Result<Vec<(u16, Ipv4, SocketAddr)>> {
        self.endpoints
            .iter()
            .map(|e| Ok((e.cid, e.vip, e.socket.local_addr()?)))
            .collect()
    }

    /// Runs worker 0 on this thread and the rest on their own threads
    /// until the window plus drain elapse (or everything outstanding is
    /// resolved); returns the merged report with per-worker breakdown.
    pub fn run(self, spec: OpenLoopSpec) -> std::io::Result<OpenLoopReport> {
        if spec.workers != self.endpoints.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "spec.workers = {} but the client was bound with {} workers",
                    spec.workers,
                    self.endpoints.len()
                ),
            ));
        }
        for ep in &self.endpoints {
            ep.socket.connect(self.switch_addr)?;
            ep.socket.set_nonblocking(true)?;
        }
        let epoch = Instant::now();
        let mut endpoints = self.endpoints;
        let rest = endpoints.split_off(1);
        let ep0 = endpoints.pop().expect("bind_workers guarantees >= 1");

        let mut threads = Vec::with_capacity(rest.len());
        for (i, ep) in rest.into_iter().enumerate() {
            let spec = spec.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("openloop{}", ep.cid))
                    .spawn(move || run_worker(&ep, &spec, i + 1, epoch))?,
            );
        }
        let mut reports = Vec::with_capacity(spec.workers);
        reports.push(run_worker(&ep0, &spec, 0, epoch));
        for t in threads {
            // A worker's panics are caught inside `run_worker`; one that
            // escapes it is a bug, and it propagates.
            reports.push(t.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        Ok(OpenLoopReport::merge(reports))
    }
}

/// Worker 0 inherits the spec seed verbatim; the rest get decorrelated
/// streams via a splitmix64 step. [`FaultShim::for_worker`] derives its
/// per-worker streams the same way.
pub(crate) fn worker_seed(seed: u64, windex: usize) -> u64 {
    if windex == 0 {
        seed
    } else {
        mix64((seed ^ (windex as u64).wrapping_mul(GOLDEN)).wrapping_add(GOLDEN))
    }
}

/// Runs one worker under `supervise` and reports what its core counted,
/// a crash included. Whatever is still unanswered when the run ends will
/// never be: the eviction sweep plus the final drain report it as lost.
fn run_worker(ep: &Endpoint, spec: &OpenLoopSpec, windex: usize, epoch: Instant) -> WorkerReport {
    let seed = worker_seed(spec.seed, windex);
    let core = ClientCore::new(
        ep.cid,
        ClientMode::NetClone {
            num_groups: spec.num_groups,
            num_filter_tables: spec.num_filter_tables,
        },
        seed,
    );
    let mut worker = Worker {
        sock: &ep.socket,
        spec,
        epoch,
        core: match spec.retry {
            Some(policy) => core.with_retry(policy),
            None => core.with_timeout(spec.request_timeout.as_nanos() as u64),
        },
        shim: spec
            .faults
            .as_ref()
            .filter(|p| !p.is_empty())
            .map(|p| FaultShim::for_worker(p, windex)),
        arrivals: PoissonArrivals::new(spec.rate_rps / spec.workers as f64),
        rng: StdRng::seed_from_u64(seed),
        send: SendBatch::new(),
        recv: RecvBatch::new(),
        next_at: Duration::ZERO,
        last_sweep: Duration::ZERO,
        crash_at: spec
            .crash_worker
            .filter(|&(w, _)| w == windex)
            .map(|(_, at)| at),
    };
    let restarts = AtomicU32::new(0);
    let (result, panic) = supervise(&restarts, || worker.run());
    worker.core.drain_outstanding();
    let error = match (result, panic) {
        (Err(e), _) => Some(format!("worker {windex} I/O error: {e}")),
        (Ok(()), Some(msg)) => Some(format!("worker {windex} crashed ({msg}); restarted")),
        (Ok(()), None) => None,
    };
    WorkerReport {
        cid: ep.cid,
        stats: worker.core.stats(),
        latencies: worker.core.latencies().clone(),
        restarts: restarts.into_inner(),
        error,
    }
}

/// One worker's state: paced batched sends interleaved with non-blocking
/// batched receives on a single thread, no shared state. It lives outside
/// the loop a panic unwinds, so a restarted loop resumes with the same
/// core, shim, RNG, pacing clock and batches.
struct Worker<'a> {
    sock: &'a UdpSocket,
    spec: &'a OpenLoopSpec,
    epoch: Instant,
    core: ClientCore,
    shim: Option<FaultShim>,
    arrivals: PoissonArrivals,
    rng: StdRng,
    send: SendBatch,
    recv: RecvBatch,
    /// When the next request is due, on the epoch's clock.
    next_at: Duration,
    last_sweep: Duration,
    /// The injected crash point; cleared as it fires, so it fires once.
    crash_at: Option<Duration>,
}

impl Worker<'_> {
    fn run(&mut self) -> std::io::Result<()> {
        /// How often the timeout sweep (`on_tick`) runs. Sweeping on every
        /// packet would make the receive path O(outstanding) under load; a
        /// fixed cadence keeps the map bounded at O(rate × timeout) entries
        /// while amortising the scan.
        const SWEEP_EVERY: Duration = Duration::from_millis(20);
        /// Spin this many empty iterations before starting to yield: on a
        /// loaded box the next packet is usually microseconds away.
        const SPIN_BEFORE_YIELD: u32 = 64;

        let op = self.spec.op;
        let gen_end = self.spec.duration;
        let end = self.spec.duration + self.spec.drain;
        let mut idle = 0u32;

        loop {
            let now = self.epoch.elapsed();
            if now >= end {
                return Ok(());
            }
            if self.crash_at.is_some_and(|at| now >= at) {
                self.crash_at = None;
                panic!("injected worker crash");
            }
            let mut progressed = false;

            // Send side: batch up everything due, then flush in one syscall.
            if now < gen_end && now >= self.next_at {
                loop {
                    let t = self.epoch.elapsed();
                    if t < self.next_at || t >= gen_end {
                        break;
                    }
                    self.core.generate(op, t.as_nanos() as u64);
                    let meta = self.core.poll().expect("NetClone mode emits one packet");
                    encode_packet_into(&meta, &op, &[], self.send.slot());
                    self.transmit(t)?;
                    self.next_at += Duration::from_nanos(self.arrivals.next_gap_ns(&mut self.rng));
                }
                self.send.flush(self.sock)?;
                progressed = true;
            }

            // Parked datagrams whose hold expired: outbound ones go to the
            // socket, inbound ones to the core.
            if let Some(shim) = self.shim.as_mut() {
                while let Some((dir, p)) = shim.due(now) {
                    if dir == FaultDirection::Tx {
                        self.send.slot().clone_from(&p);
                        self.send.commit_copies(1, self.sock)?;
                    } else {
                        deliver(&mut self.core, &p, now.as_nanos() as u64);
                    }
                    progressed = true;
                }
                self.send.flush(self.sock)?;
            }

            // Receive side: drain whatever is queued, decode borrowed.
            if self.recv.recv_nonblocking(self.sock)? > 0 {
                let now = self.epoch.elapsed();
                for dg in self.recv.iter() {
                    let copies = self
                        .shim
                        .as_mut()
                        .map_or(1, |s| s.pass(FaultDirection::Rx, now, dg).copies());
                    for _ in 0..copies {
                        deliver(&mut self.core, dg, now.as_nanos() as u64);
                    }
                }
                progressed = true;
            }

            let now = self.epoch.elapsed();
            if now.saturating_sub(self.last_sweep) >= SWEEP_EVERY {
                self.last_sweep = now;
                self.core.on_tick(now.as_nanos() as u64);
                // The sweep may have scheduled retransmissions (when the
                // core runs a retry policy): drain them through the same
                // batched, shimmed send path as first transmissions.
                let mut retried = false;
                while let Some(meta) = self.core.poll() {
                    let op = self
                        .core
                        .pending_op(meta.nc.client_seq)
                        .expect("a retransmitted request is still outstanding");
                    encode_packet_into(&meta, &op, &[], self.send.slot());
                    self.transmit(now)?;
                    retried = true;
                }
                if retried {
                    self.send.flush(self.sock)?;
                }
            }

            // Once generation is over, leave as soon as nothing can complete.
            if now >= gen_end && self.core.outstanding() == 0 {
                return Ok(());
            }

            // Idle policy: spin briefly (the common sub-µs case), then yield
            // so sibling threads run on small boxes, then sleep in short
            // bounded steps when the next send is comfortably far away.
            if progressed {
                idle = 0;
            } else {
                idle += 1;
                if idle <= SPIN_BEFORE_YIELD {
                    std::hint::spin_loop();
                } else {
                    let next_evt = if now < gen_end {
                        self.next_at.min(end)
                    } else {
                        end
                    };
                    if next_evt > now + Duration::from_millis(1) {
                        std::thread::sleep(Duration::from_micros(200));
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Stages the datagram encoded in the send slot as many times as the
    /// shim lets it through at `now`, flushing a batch that fills.
    fn transmit(&mut self, now: Duration) -> std::io::Result<()> {
        let copies = self.shim.as_mut().map_or(1, |s| {
            s.pass(FaultDirection::Tx, now, self.send.slot()).copies()
        });
        self.send.commit_copies(copies, self.sock)
    }
}

/// Hands one response datagram to the core.
fn deliver(core: &mut ClientCore, dg: &[u8], now_ns: u64) {
    if let Ok((meta, _op, _value)) = decode_packet_borrowed(dg) {
        core.on_packet(&meta.nc, now_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_zero_keeps_the_spec_seed() {
        assert_eq!(worker_seed(42, 0), 42);
        assert_ne!(worker_seed(42, 1), 42);
        // Distinct workers get distinct streams.
        let seeds: std::collections::HashSet<u64> = (0..8).map(|w| worker_seed(7, w)).collect();
        assert_eq!(seeds.len(), 8);
    }

    #[test]
    fn bind_workers_partitions_cids() {
        let sw: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let c = OpenLoopClient::bind_workers(10, 4, sw).unwrap();
        let eps = c.endpoints().unwrap();
        assert_eq!(eps.len(), 4);
        for (w, (cid, vip, _)) in eps.iter().enumerate() {
            assert_eq!(*cid, 10 + w as u16);
            assert_eq!(*vip, Ipv4::client(*cid));
        }
        assert!(OpenLoopClient::bind_workers(0, 0, sw).is_err());
        // The last worker's cid must fit in a u16: no wrap, no truncation.
        assert!(OpenLoopClient::bind_workers(u16::MAX, 1, sw).is_ok());
        for (base, workers) in [(u16::MAX, 2), (0, 65_537), (1, 1 << 32)] {
            let err = OpenLoopClient::bind_workers(base, workers, sw).err();
            let err = err.expect("cid overflow refused");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains("overflow the id space"), "{err}");
        }
    }

    #[test]
    fn run_rejects_mismatched_worker_count() {
        let sw: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let c = OpenLoopClient::bind_workers(0, 2, sw).unwrap();
        let spec = OpenLoopSpec {
            rate_rps: 100.0,
            duration: Duration::from_millis(1),
            op: RpcOp::Echo { class_ns: 1_000 },
            drain: Duration::ZERO,
            request_timeout: Duration::from_millis(10),
            num_groups: 1,
            num_filter_tables: 2,
            seed: 1,
            workers: 3,
            retry: None,
            faults: None,
            crash_worker: None,
        };
        assert!(c.run(spec).is_err());
    }
}
