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
//! **supervised**: a panicking worker is caught, counted
//! ([`ServerHandle::restarts`]), and its loop re-entered with the same
//! core, which lives outside the caught closure, so no counters are lost
//! across a crash. An optional [`FaultShim`] per worker perturbs datagrams
//! between codec and socket in both directions, deterministically from a
//! seed.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netclone_hostcore::{AdmitDecision, ServerCore, ServerStats};
use netclone_proto::{Ipv4, PacketMeta, ServerId};

use crate::batch::{RecvBatch, MAX_DATAGRAM};
use crate::codec::{decode_packet_borrowed, encode_packet_into};
use crate::shim::{FaultAction, FaultPlan, FaultShim};
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
        socket.set_read_timeout(Some(Duration::from_millis(20)))?;
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
                        supervise_worker(
                            sock,
                            cfg,
                            &published[w],
                            w,
                            epoch,
                            stop,
                            restarts,
                            crashed,
                        )
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

/// Runs one worker's loop, re-entering it after a panic until told to
/// stop. The worker's core lives here, outside the caught closure, so a
/// crash loses no counters — only the in-flight batch.
#[allow(clippy::too_many_arguments)]
fn supervise_worker(
    sock: UdpSocket,
    cfg: UdpServerConfig,
    published: &PublishedStats,
    windex: usize,
    epoch: Instant,
    stop: Arc<AtomicBool>,
    restarts: Arc<AtomicU32>,
    crashed: Arc<AtomicBool>,
) {
    let core = ServerCore::new(cfg.sid);
    let worker = Worker {
        core: &core,
        published,
    };
    while !stop.load(Ordering::SeqCst) {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker_loop(&sock, &cfg, worker, windex, epoch, &stop, &crashed)
        }));
        match attempt {
            Ok(()) => break,
            Err(_) => {
                restarts.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

/// A worker's core and the block it publishes the core's counters to.
#[derive(Clone, Copy)]
struct Worker<'a> {
    core: &'a ServerCore,
    published: &'a PublishedStats,
}

impl Worker<'_> {
    fn publish(self) {
        self.published.publish(self.core.stats());
    }
}

fn worker_loop(
    sock: &UdpSocket,
    cfg: &UdpServerConfig,
    worker: Worker<'_>,
    windex: usize,
    epoch: Instant,
    stop: &AtomicBool,
    crashed: &AtomicBool,
) {
    let mut recv = RecvBatch::new();
    let mut shim = cfg
        .faults
        .as_ref()
        .filter(|p| !p.is_empty())
        .map(|p| FaultShim::for_worker(p, windex));
    // One reusable response buffer: the per-packet path allocates nothing
    // (the synthetic executor returns no value bytes; KV values are the
    // store's to own). Growth past the prealloc is a counted event.
    let mut out = Vec::with_capacity(MAX_DATAGRAM);
    let mut out_cap = out.capacity();
    while !stop.load(Ordering::SeqCst) {
        // Release delayed datagrams first: outbound responses go to the
        // socket, inbound requests are served like fresh arrivals (an
        // already-empty queue behind them).
        if shim.is_some() {
            let now = epoch.elapsed();
            while let Some(p) = shim.as_mut().and_then(|s| s.due_tx(now)) {
                let _ = sock.send(&p);
            }
            while let Some(p) = shim.as_mut().and_then(|s| s.due_rx(now)) {
                serve_one(
                    sock,
                    cfg,
                    worker,
                    &mut shim,
                    epoch,
                    stop,
                    &p,
                    0,
                    &mut out,
                    &mut out_cap,
                );
            }
        }
        let n = match recv.recv_timeout_then_drain(sock) {
            Ok(n) => n,
            Err(_) => break,
        };
        for i in 0..n {
            if let Some((w, k)) = cfg.crash_worker {
                if w == windex
                    && worker.core.stats().served >= k
                    && !crashed.swap(true, Ordering::SeqCst)
                {
                    panic!("injected server worker crash");
                }
            }
            let dg = recv.datagram(i);
            let action = shim
                .as_mut()
                .map_or(FaultAction::Deliver, |s| s.on_rx(epoch.elapsed(), dg));
            if matches!(action, FaultAction::Drop | FaultAction::Delay) {
                continue;
            }
            // §3.4 admission: the requests still waiting behind this one
            // in the batch are the FCFS queue the clone-drop rule sees.
            // (An injected duplicate re-presents the request; the drop
            // rule and the client-side filter absorb it, as they would a
            // network-duplicated datagram.)
            let backlog = n - 1 - i;
            let times = if action == FaultAction::Duplicate {
                2
            } else {
                1
            };
            for _ in 0..times {
                let dg = recv.datagram(i);
                serve_one(
                    sock,
                    cfg,
                    worker,
                    &mut shim,
                    epoch,
                    stop,
                    dg,
                    backlog,
                    &mut out,
                    &mut out_cap,
                );
            }
        }
    }
}

/// Decodes, admits, executes, and answers one request datagram, passing
/// the response through the shim's Tx side. Execution ends early once
/// `stop` is set (see [`WorkExecutor::execute_until`]).
#[allow(clippy::too_many_arguments)]
fn serve_one(
    sock: &UdpSocket,
    cfg: &UdpServerConfig,
    worker: Worker<'_>,
    shim: &mut Option<FaultShim>,
    epoch: Instant,
    stop: &AtomicBool,
    dg: &[u8],
    backlog: usize,
    out: &mut Vec<u8>,
    out_cap: &mut usize,
) {
    let Ok((meta, op, _value)) = decode_packet_borrowed(dg) else {
        return;
    };
    if !meta.nc.is_request() {
        return;
    }
    let core = worker.core;
    if core.admit(meta.nc.clo, backlog) == AdmitDecision::DropClone {
        worker.publish();
        return;
    }
    core.note_queue_depth(backlog);
    let value = cfg.executor.execute_until(&op, stop);
    // Piggyback the queue state observed at response-send time, and
    // publish the count before the response can reach anyone.
    let nc = core.response(&meta.nc, backlog);
    worker.publish();
    let resp = PacketMeta::netclone_response(cfg.vip, meta.src_ip, nc, 0);
    encode_packet_into(&resp, &op, &value, out);
    crate::batch::note_growth(out_cap, out.capacity());
    let action = shim
        .as_mut()
        .map_or(FaultAction::Deliver, |s| s.on_tx(epoch.elapsed(), out));
    match action {
        FaultAction::Drop | FaultAction::Delay => {}
        FaultAction::Deliver => {
            let _ = sock.send(out);
        }
        FaultAction::Duplicate => {
            let _ = sock.send(out);
            let _ = sock.send(out);
        }
    }
}
