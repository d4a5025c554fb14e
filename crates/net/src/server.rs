//! The real-socket worker server, sharded: N receive threads share one
//! UDP socket (kernel-fanned), and each owns its **own**
//! [`ServerCore`] — no dispatcher, no channel, no lock on the per-packet
//! path. Stats are merged on read via [`ServerStats::merge`].
//!
//! Requests are pulled in batches ([`RecvBatch`], `recvmmsg` on Linux):
//! for each request in a batch, the requests still queued *behind* it are
//! the FCFS "queue" the §3.4 clone-drop rule consults and the value
//! piggybacked on its response — the batch is the queue made visible. The
//! protocol logic itself — drop rule, response construction, accounting —
//! is [`netclone_hostcore::ServerCore`], shared verbatim with the
//! simulated server in `netclone-hosts`.
//!
//! A core is single-owner (`!Sync`): the worker thread drives it and,
//! after every admission drop or response, publishes its [`ServerStats`]
//! to a per-worker block of atomics that the handle reads. Workers run
//! under `supervise`: a panic is counted ([`ServerHandle::restarts`])
//! and the loop re-entered with the same core, shim and buffers, so no
//! counter is lost across a crash. An optional [`FaultShim`] per worker
//! perturbs datagrams between codec and socket in both directions,
//! deterministically from a seed; a response it duplicates is staged
//! twice, the second copy the first's bytes copied into the next slot.
//!
//! Each worker thread puts itself under `SCHED_BATCH` before its loop, so
//! the switch's `sendmmsg` that wakes it runs to the end and the worker
//! drains the whole batch in one `recvmmsg`. Its responses go the other
//! way the same: each is staged in a [`SendBatch`], flushed once per
//! receive batch (or when the batch fills), so a batch's replies to the
//! switch leave as one segmented send. A synthetic echo that names a
//! service time flushes what is staged before it spins, so no response
//! waits out another request's modelled service.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netclone_hostcore::{AdmitDecision, ServerCore, ServerStats};
use netclone_proto::{Ipv4, PacketMeta, ServerId};

use crate::batch::{run_as_batch, set_timeout, RecvBatch, SendBatch};
use crate::codec::{decode_packet_borrowed, encode_packet_into};
use crate::shim::{FaultDirection, FaultPlan, FaultShim};
use crate::supervise;
use crate::work::WorkExecutor;

/// Configuration of a real-socket server.
#[derive(Clone)]
pub struct UdpServerConfig {
    /// Server identity.
    pub sid: ServerId,
    /// Virtual address (registered with the soft switch).
    pub vip: Ipv4,
    /// Worker threads (each owns its own core; 0 is treated as 1).
    pub workers: usize,
    /// What a worker does with a request.
    pub executor: WorkExecutor,
    /// Where to send responses (the soft switch).
    pub switch_addr: SocketAddr,
    /// Deterministic fault injection between codec and socket
    /// ([`FaultShim`]); `None` (or an empty plan) leaves the hot path
    /// untouched.
    pub faults: Option<FaultPlan>,
    /// Test/CI knob: worker `w` panics once its core has served at least
    /// `k` requests — once per server (a shared latch), so the supervised
    /// restart finishes the run. `None` in every production use.
    pub crash_worker: Option<(usize, u64)>,
}

impl UdpServerConfig {
    /// A plain config with no fault injection.
    pub fn new(
        sid: ServerId,
        vip: Ipv4,
        workers: usize,
        executor: WorkExecutor,
        switch_addr: SocketAddr,
    ) -> Self {
        UdpServerConfig {
            sid,
            vip,
            workers,
            executor,
            switch_addr,
            faults: None,
            crash_worker: None,
        }
    }
}

/// One worker's [`ServerStats`] as it last published them. The worker is
/// the only writer, so a publish is five relaxed stores, and the handle
/// may read from any thread. Cache-line aligned so that workers
/// publishing side by side never write the same line.
#[derive(Default)]
#[repr(align(64))]
struct PublishedStats {
    served: AtomicU64,
    clones_dropped: AtomicU64,
    idle_reports: AtomicU64,
    responses: AtomicU64,
    peak_queue: AtomicUsize,
}

impl PublishedStats {
    fn publish(&self, s: ServerStats) {
        self.served.store(s.served, Ordering::Relaxed);
        self.clones_dropped
            .store(s.clones_dropped, Ordering::Relaxed);
        self.idle_reports.store(s.idle_reports, Ordering::Relaxed);
        self.responses.store(s.responses, Ordering::Relaxed);
        self.peak_queue.store(s.peak_queue, Ordering::Relaxed);
    }

    fn read(&self) -> ServerStats {
        ServerStats {
            served: self.served.load(Ordering::Relaxed),
            clones_dropped: self.clones_dropped.load(Ordering::Relaxed),
            idle_reports: self.idle_reports.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            peak_queue: self.peak_queue.load(Ordering::Relaxed),
        }
    }
}

/// A running server: per-worker cores behind one socket. Each worker
/// publishes its core's counters to its own block, merged when read, so
/// nothing on the per-packet path contends.
pub struct ServerHandle {
    addr: SocketAddr,
    published: Arc<[PublishedStats]>,
    stop: Arc<AtomicBool>,
    restarts: Arc<AtomicU32>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds a server on `127.0.0.1` and starts its worker threads.
    pub fn spawn(cfg: UdpServerConfig) -> std::io::Result<ServerHandle> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        set_timeout(&socket, Duration::from_millis(20))?;
        // All traffic flows through the switch, so a connected socket is
        // both a filter and what lets batched sends skip per-msg addresses.
        socket.connect(cfg.switch_addr)?;
        let addr = socket.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let restarts = Arc::new(AtomicU32::new(0));
        let crashed = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let n = cfg.workers.max(1);

        let published: Arc<[PublishedStats]> = (0..n).map(|_| PublishedStats::default()).collect();
        let mut workers = Vec::with_capacity(n);
        for w in 0..n {
            let cfg = cfg.clone();
            let sock = socket.try_clone()?;
            let published = Arc::clone(&published);
            let stop = Arc::clone(&stop);
            let restarts = Arc::clone(&restarts);
            let crashed = Arc::clone(&crashed);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("server{}-worker{}", cfg.sid, w))
                    .spawn(move || {
                        // A refusal leaves the default policy: slower, not wrong.
                        let _ = run_as_batch();
                        let mut worker = Worker {
                            sock: &sock,
                            cfg: &cfg,
                            windex: w,
                            epoch,
                            stop: &stop,
                            crashed: &crashed,
                            core: ServerCore::new(cfg.sid),
                            published: &published[w],
                            shim: cfg
                                .faults
                                .as_ref()
                                .filter(|p| !p.is_empty())
                                .map(|p| FaultShim::for_worker(p, w)),
                            send: SendBatch::new(),
                        };
                        let mut recv = RecvBatch::new();
                        supervise(&restarts, || worker.run(&mut recv));
                    })?,
            );
        }

        Ok(ServerHandle {
            addr,
            published,
            stop,
            restarts,
            workers,
        })
    }

    /// The server's socket address (register this with the switch).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Statistics so far, merged across workers (same counters as the
    /// simulated server).
    pub fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for p in self.published.iter() {
            total.merge(&p.read());
        }
        total
    }

    /// Per-worker statistics, in worker order.
    pub fn worker_stats(&self) -> Vec<ServerStats> {
        self.published.iter().map(PublishedStats::read).collect()
    }

    /// Worker restarts after panics so far (0 on a healthy server).
    pub fn restarts(&self) -> u32 {
        self.restarts.load(Ordering::SeqCst)
    }

    /// Stops all threads and joins them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for w in self.workers.drain(..) {
            // The supervisor catches worker panics; a join failure here
            // would mean the supervisor itself died, which is a bug — but
            // it must not wedge shutdown, so the join result is dropped.
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One worker's state. It lives outside the loop a panic unwinds, so a
/// restarted loop keeps the core's counters, the shim's stream and parked
/// datagrams, and the staged responses, which the restarted loop flushes
/// first: a crash loses only the rest of the receive batch in flight.
struct Worker<'a> {
    sock: &'a UdpSocket,
    cfg: &'a UdpServerConfig,
    windex: usize,
    epoch: Instant,
    stop: &'a AtomicBool,
    /// Latched by the injected crash, so it fires once per server.
    crashed: &'a AtomicBool,
    core: ServerCore,
    published: &'a PublishedStats,
    shim: Option<FaultShim>,
    /// Staged responses: the per-packet path allocates nothing (the
    /// synthetic executor returns no value bytes; KV values are the
    /// store's to own), and growth past a slot's prealloc is counted.
    send: SendBatch,
}

impl Worker<'_> {
    fn run(&mut self, recv: &mut RecvBatch) {
        while !self.stop.load(Ordering::SeqCst) {
            // Release parked datagrams first: outbound responses are staged,
            // inbound requests are served like fresh arrivals (an
            // already-empty queue behind them).
            if self.shim.is_some() {
                let now = self.epoch.elapsed();
                while let Some((dir, p)) = self.shim.as_mut().and_then(|s| s.due(now)) {
                    if dir == FaultDirection::Tx {
                        self.send.slot().clone_from(&p);
                        let _ = self.send.commit_copies(1, self.sock);
                    } else {
                        self.serve(&p, 0);
                    }
                }
            }
            // The previous receive batch's responses, and any just
            // released, leave before the worker blocks for more.
            self.flush();
            let Ok(n) = recv.recv_timeout_then_drain(self.sock) else {
                break;
            };
            for i in 0..n {
                if let Some((w, k)) = self.cfg.crash_worker {
                    if w == self.windex
                        && self.core.stats().served >= k
                        && !self.crashed.swap(true, Ordering::SeqCst)
                    {
                        panic!("injected server worker crash");
                    }
                }
                let dg = recv.datagram(i);
                let copies = self.shim.as_mut().map_or(1, |s| {
                    s.pass(FaultDirection::Rx, self.epoch.elapsed(), dg)
                        .copies()
                });
                // §3.4 admission: the requests still waiting behind this
                // one in the batch are the FCFS queue the clone-drop rule
                // sees. (An injected duplicate re-presents the request; the
                // drop rule and the client-side filter absorb it, as they
                // would a network-duplicated datagram.)
                for _ in 0..copies {
                    self.serve(dg, n - 1 - i);
                }
            }
        }
        self.flush();
    }

    /// Decodes, admits, executes, and answers one request datagram,
    /// passing the response through the shim. Execution ends early once
    /// `stop` is set (see [`WorkExecutor::execute_until`]).
    fn serve(&mut self, dg: &[u8], backlog: usize) {
        let Ok((meta, op, _value)) = decode_packet_borrowed(dg) else {
            return;
        };
        if !meta.nc.is_request() {
            return;
        }
        if self.core.admit(meta.nc.clo, backlog) == AdmitDecision::DropClone {
            self.publish();
            return;
        }
        self.core.note_queue_depth(backlog);
        if self.cfg.executor.spins(&op) {
            self.flush();
        }
        let value = self.cfg.executor.execute_until(&op, self.stop);
        // Piggyback the queue state observed at response-send time, and
        // publish the count before the response can reach anyone.
        let nc = self.core.response(&meta.nc, backlog);
        self.publish();
        let resp = PacketMeta::netclone_response(self.cfg.vip, meta.src_ip, nc, 0);
        encode_packet_into(&resp, &op, &value, self.send.slot());
        let copies = self.shim.as_mut().map_or(1, |s| {
            s.pass(FaultDirection::Tx, self.epoch.elapsed(), self.send.slot())
                .copies()
        });
        let _ = self.send.commit_copies(copies, self.sock);
    }

    /// Sends the staged responses. A datagram the kernel refuses here or
    /// in a flush of a full batch is lost like any dropped packet; the
    /// client's retry covers it.
    fn flush(&mut self) {
        let _ = self.send.flush(self.sock);
    }

    fn publish(&self) {
        self.published.publish(self.core.stats());
    }
}
