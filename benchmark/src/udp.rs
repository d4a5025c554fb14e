//! The real-socket workloads: one load-generating thread on one connected
//! UDP socket against `netclone::net::Testbed` (one soft switch, two
//! single-worker servers). The testbed's three threads are the system
//! under test; the generator is the benchmark's own, built on the public
//! `ClientCore`, codec and batch types so every call into a layer can
//! carry a span.
//!
//! Both workloads are closed loops, all four threads share one CPU, and
//! the generator sleeps in `recv` whenever it has nothing to send. That is
//! what this machine (two virtual CPUs of a shared host) can measure
//! steadily, and it took three tries to find:
//!
//! * generator on one CPU, testbed on the other: every request crosses
//!   between them four times, and what a crossing costs depends on where
//!   the hypervisor runs the two virtual CPUs relative to each other. The
//!   same build measured 7.5 and 25 us of testbed CPU per `udp_kv_closed`
//!   request, and a p99 of 150 and 640 us, ten minutes apart;
//! * all on one CPU with a polling generator (an open loop has to poll,
//!   or sleep on a timer): the scheduler decides when the poller makes
//!   way for a freshly woken switch thread, and a 15,000 rps open loop of
//!   echoes read a p50 of 18, 28 or 47 us depending on that mood (spread
//!   over ten seeds 27-80 %); under `SCHED_IDLE` the poller did worse;
//! * all on one CPU, nobody polls: at any moment the threads that can run
//!   are the ones with a datagram to handle, a request is a fixed
//!   sequence of system calls and context switches, and the only thing
//!   the host still varies is the clock, which `clock` takes out. Ten
//!   seeds then spread 1-5 % on every figure.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use netclone::core::{NetCloneConfig, SwitchCounters};
use netclone::hostcore::{ClientCore, ClientMode, RetryPolicy, RxEvent, ServerStats};
use netclone::net::{
    decode_packet_borrowed, encode_packet_into, path_counters, FaultPlan, OpenLoopSpec,
    PathCounters, RecvBatch, SendBatch, Testbed, WorkExecutor,
};
use netclone::proto::{Ipv4, RpcOp};
use netclone::stats::LatencyHistogram;
use netclone::workloads::{KvMix, ZipfSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::clock;
use crate::procfs::{self, ThreadTimes};
use crate::trace::{Name, Tracer, NO_REQ};

/// The generator's recovery policy, the repo's own (`ClientCore` with a
/// `RetryPolicy`): a request unanswered after 200 ms is sent again, the
/// wait doubling to 800 ms, eight times over before it is given up on and
/// counted as failed. UDP loses datagrams now and then (a few requests
/// in eleven million here, when a server thread kept off its CPU lets
/// clones pile up in its socket until the receive buffer overflows; see
/// the README), and an RPC client's answer to that is to retransmit, not
/// to fail. The first deadline is far above any latency of
/// interest and above the machine's common stalls, so a retransmission is
/// rare, and a recovered request still carries its whole latency from its
/// first send into every figure.
pub const RETRY: RetryPolicy = RetryPolicy {
    timeout_ns: 200_000_000,
    backoff_cap_ns: 800_000_000,
    max_retries: 8,
    budget: u64::MAX,
};
/// Time-out the repo's own drivers run under in the traced pass.
pub const TIMEOUT: Duration = Duration::from_secs(3);

/// How long after its first send a request is given up on under `policy`.
pub fn give_up_ns(policy: &RetryPolicy) -> u64 {
    let mut wait = policy.timeout_ns;
    let mut total = wait;
    for _ in 0..policy.max_retries {
        wait = wait.saturating_mul(2).min(policy.backoff_cap_ns);
        total += wait;
    }
    total
}
/// A completion later than this is not goodput.
pub const LATENCY_LIMIT_NS: u64 = 1_000_000;
/// Time slices the window is cut into. Every end-to-end figure is taken
/// per slice first and then across slices (see `est`),
/// so that a slow phase of the machine spoils some slices, not the run.
pub const SLICES: usize = 50;
/// How long the generator sleeps in `recv` at most, and so how often it
/// looks for requests to retransmit.
const SWEEP: Duration = Duration::from_millis(20);
/// Client id the generator registers under; the testbed hands out ids
/// from 0 to the repo's own drivers in the traced pass.
const GEN_CID: u16 = 200;

/// KV population and value size of `udp_kv_closed`.
pub const KV_OBJECTS: usize = 100_000;
pub const KV_VALUE_LEN: usize = 64;
pub const KV_SCAN_COUNT: u16 = 100;

/// What the requests are.
#[derive(Clone, Copy, Debug)]
pub enum Ops {
    /// `Echo { class_ns: 0 }`: the smallest packet, no application work.
    Echo0,
    /// 94 % GET, 1 % SCAN(100), 5 % PUT over Zipf(0.99) keys.
    KvMix,
}

#[derive(Clone, Copy, Debug)]
pub struct UdpSpec {
    /// Requests kept in flight: the next one is sent when a reply frees a
    /// place (a closed loop), and latency runs from the send.
    pub outstanding: usize,
    pub ops: Ops,
    /// Requests issued before the window opens, so buffers have grown,
    /// the switch's state tables are warm and the threads have met.
    pub warmup_reqs: u64,
}

/// The seeded input stream: request `i` is the same op on every run of
/// a seed, whatever the timing.
pub struct Inputs {
    op_rng: StdRng,
    mix: Option<KvMix>,
}

impl Inputs {
    pub fn new(spec: &UdpSpec, seed: u64) -> Self {
        Inputs {
            op_rng: StdRng::seed_from_u64(seed),
            mix: match spec.ops {
                Ops::Echo0 => None,
                Ops::KvMix => Some(KvMix::with_puts(
                    0.94,
                    0.01,
                    KV_SCAN_COUNT,
                    KV_VALUE_LEN as u16,
                    ZipfSampler::new(KV_OBJECTS, 0.99),
                )),
            },
        }
    }

    #[inline]
    pub fn next_op(&mut self) -> RpcOp {
        match &self.mix {
            None => RpcOp::Echo { class_ns: 0 },
            Some(mix) => mix.sample(&mut self.op_rng),
        }
    }
}

/// Checks a response's value bytes against the op that asked for it.
pub fn content_ok(op: &RpcOp, value: &[u8]) -> bool {
    match op {
        RpcOp::Echo { .. } => value.is_empty(),
        RpcOp::Get { key } => {
            value.len() == KV_VALUE_LEN
                && (value[..8] == key.index().to_be_bytes() || value.iter().all(|&b| b == 0xAB))
        }
        RpcOp::Scan { count, .. } => value.len() == *count as usize * KV_VALUE_LEN,
        RpcOp::Put { .. } => value == b"STORED",
    }
}

/// One set-up: store, testbed, the generator's registered socket.
pub struct Bed {
    pub tb: Testbed,
    sock: UdpSocket,
    num_groups: u16,
    pub spawn_ms: f64,
}

impl Bed {
    /// `faults` makes the servers lose datagrams (the unit tests' way of
    /// exercising recovery); every workload passes `None`.
    pub fn spawn(spec: &UdpSpec, faults: Option<FaultPlan>) -> std::io::Result<Bed> {
        let t0 = Instant::now();
        let exec = match spec.ops {
            Ops::Echo0 => WorkExecutor::Synthetic,
            Ops::KvMix => WorkExecutor::kv(KV_OBJECTS, KV_VALUE_LEN),
        };
        let tb = Testbed::spawn_faulty(NetCloneConfig::default(), 2, 1, exec, faults, None)?;
        let spawn_ms = t0.elapsed().as_secs_f64() * 1e3;
        let handle = tb.switch_handle();
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        handle
            .register_client(GEN_CID, Ipv4::client(GEN_CID), sock.local_addr()?)
            .map_err(std::io::Error::other)?;
        sock.connect(tb.switch_addr())?;
        // Blocking, so an idle generator sleeps; the time-out bounds the
        // sleep to one retransmission sweep.
        sock.set_read_timeout(Some(SWEEP))?;
        // One CPU for all four threads (module docs).
        if let Some(&cpu) = procfs::allowed_cpus().first() {
            procfs::pin_thread(0, cpu);
            procfs::pin_threads_matching(|n| is_switch(n) || is_server(n), cpu);
        }
        Ok(Bed {
            num_groups: handle.num_groups(),
            tb,
            sock,
            spawn_ms,
        })
    }
}

/// What one window measured. Latencies are nanoseconds in `u32`,
/// saturating at 4.3 s (only a request on its last retransmissions gets
/// there).
#[derive(Default)]
pub struct Window {
    pub secs: f64,
    pub attempted: u64,
    pub completed: u64,
    pub within_limit: u64,
    pub timed_out: u64,
    /// Retransmissions sent (each a datagram the first send did not get
    /// an answer to in time).
    pub retransmits: u64,
    pub bad_content: u64,
    pub redundant: u64,
    pub clone_wins: u64,
    /// Latency per time slice (slice of the request's birth).
    pub slices: Vec<Vec<u32>>,
    /// Per slice, by completion time: completions, and testbed (switch +
    /// servers) on-CPU ns.
    pub slice_cpu: Vec<(u64, u64)>,
    /// Per slice: what to multiply a duration measured in it by to get
    /// what it would have been at the reference clock (`clock`).
    pub slice_scale: Vec<f64>,
    /// Completion minus first send, kept by the generator itself rather
    /// than by `ClientCore`. Traced pass only.
    pub inflight: Vec<u32>,
    pub outstanding_start: usize,
    pub outstanding_end: usize,
    pub send_calls: u64,
    pub send_dgrams: u64,
    pub recv_calls: u64,
    pub recv_empty: u64,
    pub recv_dgrams: u64,
    /// Wall time inside `SendBatch::flush`, and inside the receive calls
    /// that returned something, sleep included (traced pass only; the
    /// untraced pass skips the clock reads).
    pub send_ns: u64,
    pub recv_ns: u64,
    pub bytes_tx: u64,
    pub bytes_rx: u64,
    pub switch_cpu: ThreadTimes,
    pub server_cpu: ThreadTimes,
    pub client_cpu: ThreadTimes,
    pub steal_frac: f64,
    pub switch: SwitchCounters,
    pub servers: ServerStats,
    pub path: PathCounters,
}

impl Window {
    pub fn failed(&self) -> u64 {
        self.timed_out + self.bad_content
    }
}

fn is_switch(name: &str) -> bool {
    name == "soft-switch"
}
fn is_server(name: &str) -> bool {
    name.starts_with("server") && name.contains("-worker")
}
fn own_thread_times() -> ThreadTimes {
    // The generator runs on the process's main thread, whose comm is the
    // binary name; everything that is not testbed is the generator.
    procfs::threads_matching(|n| !is_switch(n) && !is_server(n))
}

fn server_stats(bed: &Bed) -> ServerStats {
    let mut s = ServerStats::default();
    for h in bed.tb.servers() {
        s.merge(&h.stats());
    }
    s
}

fn server_stats_since(now: &ServerStats, base: &ServerStats) -> ServerStats {
    ServerStats {
        served: now.served - base.served,
        clones_dropped: now.clones_dropped - base.clones_dropped,
        idle_reports: now.idle_reports - base.idle_reports,
        responses: now.responses - base.responses,
        peak_queue: now.peak_queue,
    }
}

/// The load generator: state that lives across warm-up and windows.
pub struct Gen {
    bed: Bed,
    spec: UdpSpec,
    core: ClientCore,
    inputs: Inputs,
    send: SendBatch,
    recv: RecvBatch,
    pub epoch: Instant,
    last_sweep_ns: u64,
    /// Actual first-send time of request `seq`, in a ring indexed by
    /// `seq % RING` (read by the traced pass only).
    sent_ns: Vec<u64>,
    generated: u64,
}

/// Ring size of the send-time table. A slot is reused after `RING`
/// further requests: three seconds' worth at 87 k requests/s, and only a
/// request on its third retransmission is older than that.
const RING: usize = 1 << 18;

struct Acct<'w> {
    w: &'w mut Window,
    first_seq: u32,
    start_ns: u64,
    len_ns: u64,
}

impl Gen {
    pub fn new(bed: Bed, spec: UdpSpec, seed: u64) -> Self {
        let core = ClientCore::new(
            GEN_CID,
            ClientMode::NetClone {
                num_groups: bed.num_groups,
                num_filter_tables: 2,
            },
            seed,
        )
        .with_retry(RETRY);
        Gen {
            bed,
            spec,
            core,
            inputs: Inputs::new(&spec, seed),
            send: SendBatch::new(),
            recv: RecvBatch::new(),
            epoch: Instant::now(),
            last_sweep_ns: 0,
            sent_ns: vec![0; RING],
            generated: 0,
        }
    }

    /// Roughly how many requests a window of `secs` issues, with
    /// head-room: sizes the sample buffers and the tracer up front (they
    /// still grow if a later commit makes the system much faster).
    pub fn expected_requests(spec: &UdpSpec, secs: f64) -> usize {
        // A lone request comes back in some 15 us; eight share the CPU.
        let per_sec = 60_000.0 + spec.outstanding as f64 * 10_000.0;
        (per_sec * secs) as usize + 4096
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Issues one request at `now`, staged into the send batch.
    #[inline]
    fn issue(&mut self, now: u64, tr: &mut Tracer, acct: &mut Option<Acct>) {
        let t0 = tr.now();
        let op = self.inputs.next_op();
        let t1 = tr.now();
        let seq = self.core.generate(op, now);
        let meta = self.core.poll().expect("NetClone mode emits one packet");
        let t2 = tr.now();
        encode_packet_into(&meta, &op, &[], self.send.slot());
        let len = self.send.slot().len();
        self.send.commit();
        let t3 = tr.now();
        if tr.enabled() {
            tr.record(Name::WorkloadsSample, seq, t0, t1);
            tr.record(Name::HostcoreClientTx, seq, t1, t2);
            tr.record(Name::ProtoEncode, seq, t2, t3);
        }
        self.sent_ns[seq as usize % RING] = now;
        self.generated += 1;
        if let Some(a) = acct {
            a.w.attempted += 1;
            a.w.bytes_tx += len as u64;
        }
    }

    /// One pass of the loop: fill the places that are free, take in what
    /// has come (sleeping for it if `block`), and every `SWEEP` look for
    /// requests to send again. Returns whether anything moved.
    fn step(
        &mut self,
        generating: bool,
        block: bool,
        tr: &mut Tracer,
        acct: &mut Option<Acct>,
    ) -> bool {
        let mut progressed = false;
        if generating {
            while self.core.outstanding() < self.spec.outstanding && !self.send.is_full() {
                let t = self.now_ns();
                self.issue(t, tr, acct);
            }
        }
        if !self.send.is_empty() {
            let n = self.send.len() as u64;
            let t0 = tr.now();
            // A full socket buffer is not an error worth dying for: the
            // datagrams are dropped and time out like any lost packet.
            let _ = self.send.flush(&self.bed.sock);
            if let Some(a) = acct {
                a.w.send_calls += 1;
                a.w.send_dgrams += n;
                if tr.enabled() {
                    let t1 = tr.now();
                    a.w.send_ns += t1 - t0;
                    tr.record(Name::NetSend, NO_REQ, t0, t1);
                }
            }
            progressed = true;
        }

        let t0 = tr.now();
        let got = if block {
            self.recv.recv_timeout_then_drain(&self.bed.sock)
        } else {
            self.recv.recv_nonblocking(&self.bed.sock)
        }
        .unwrap_or(0);
        if let Some(a) = acct {
            a.w.recv_calls += 1;
            if got == 0 {
                a.w.recv_empty += 1;
            }
            if tr.enabled() && got > 0 {
                let t1 = tr.now();
                a.w.recv_ns += t1 - t0;
                tr.record(Name::NetRecv, NO_REQ, t0, t1);
            }
        }
        if got > 0 {
            progressed = true;
            let now = self.now_ns();
            for i in 0..got {
                let dg = self.recv.datagram(i);
                let t0 = tr.now();
                let Ok((meta, op, value)) = decode_packet_borrowed(dg) else {
                    if let Some(a) = acct {
                        a.w.bad_content += 1;
                    }
                    continue;
                };
                let t1 = tr.now();
                let seq = meta.nc.client_seq;
                // The op this request was issued with, before on_packet
                // forgets it: the reply must echo it and answer it.
                let asked = self.core.pending_op(seq);
                let ev = self.core.on_packet(&meta.nc, now);
                let t2 = tr.now();
                let Some(a) = acct else { continue };
                a.w.recv_dgrams += 1;
                a.w.bytes_rx += dg.len() as u64;
                match ev {
                    RxEvent::Completed {
                        latency_ns,
                        from_clone,
                    } if seq >= a.first_seq => {
                        a.w.completed += 1;
                        if from_clone {
                            a.w.clone_wins += 1;
                        }
                        if asked != Some(op) || !content_ok(&op, value) {
                            a.w.bad_content += 1;
                        } else if latency_ns <= LATENCY_LIMIT_NS {
                            a.w.within_limit += 1;
                        }
                        let born = now - latency_ns;
                        let slice = ((born.saturating_sub(a.start_ns)) as u128 * SLICES as u128
                            / a.len_ns as u128) as usize;
                        a.w.slices[slice.min(SLICES - 1)]
                            .push(latency_ns.min(u32::MAX as u64) as u32);
                        if tr.enabled() {
                            let sent = self.sent_ns[seq as usize % RING];
                            a.w.inflight
                                .push(now.saturating_sub(sent).min(u32::MAX as u64) as u32);
                            let t3 = tr.now();
                            tr.record(Name::ProtoDecode, seq, t0, t1);
                            tr.record(Name::HostcoreClientRx, seq, t1, t2);
                            tr.record(Name::StatsRecord, seq, t2, t3);
                            tr.record(Name::Request, seq, born, now);
                        }
                    }
                    RxEvent::Completed { .. } => {} // a warm-up straggler
                    RxEvent::Redundant => a.w.redundant += 1,
                    RxEvent::Ignored => {}
                }
            }
        }

        let now = self.now_ns();
        if now - self.last_sweep_ns >= SWEEP.as_nanos() as u64 {
            self.last_sweep_ns = now;
            let evicted = self.core.on_tick(now);
            if let Some(a) = acct.as_mut() {
                a.w.timed_out += evicted;
            }
            // What the sweep decided to send again: same sequence number,
            // same op, fresh addressing.
            while let Some(meta) = self.core.poll() {
                let Some(op) = self.core.pending_op(meta.nc.client_seq) else {
                    continue;
                };
                if self.send.is_full() {
                    let _ = self.send.flush(&self.bed.sock);
                }
                encode_packet_into(&meta, &op, &[], self.send.slot());
                self.send.commit();
                if let Some(a) = acct.as_mut() {
                    a.w.retransmits += 1;
                }
            }
        }
        progressed
    }

    fn pump(
        &mut self,
        generating: bool,
        tr: &mut Tracer,
        acct: &mut Option<Acct>,
        mut done: impl FnMut(&Self) -> bool,
    ) {
        // A pass that moved something is followed by one that only looks;
        // a pass that found nothing to do is followed by one that sleeps
        // until a datagram arrives. Sleeping at once after every send
        // looks tidier and measured a third slower on `udp_kv_closed`: a
        // generator that sleeps is woken by the first reply and preempts
        // the switch in the middle of its batch, to send one request and
        // sleep again; one that was merely preempted gets the CPU back
        // when the testbed has finished, and finds several replies.
        let mut block = false;
        while !done(self) {
            block = !self.step(generating, block, tr, acct);
        }
    }

    /// Warm-up traffic: part of set-up, nothing recorded. Returns once
    /// every warm-up request is answered (or given up on), so the window
    /// opens with nothing in flight.
    pub fn warm_up(&mut self) {
        let target = self.generated + self.spec.warmup_reqs;
        let mut off = Tracer::new(self.epoch, 0);
        self.pump(true, &mut off, &mut None, |g| g.generated >= target);
        self.pump(false, &mut off, &mut None, |g| g.core.outstanding() == 0);
    }

    /// Hands the testbed back (for the repo's own drivers, or shutdown).
    pub fn into_bed(self) -> Bed {
        self.bed
    }

    pub fn spawn_ms(&self) -> f64 {
        self.bed.spawn_ms
    }

    /// Measures one window of `secs`, then waits (as long as the retry
    /// policy does) for what is still in flight, so every request issued
    /// in the window is either completed or counted as failed.
    pub fn window(&mut self, secs: f64, tr: &mut Tracer) -> Window {
        let mut w = Window {
            secs,
            slices: (0..SLICES).map(|_| Vec::new()).collect(),
            ..Window::default()
        };
        let expect = Self::expected_requests(&self.spec, secs);
        for s in &mut w.slices {
            s.reserve(expect / SLICES + 1024);
        }
        if tr.enabled() {
            w.inflight.reserve(expect);
        }
        w.outstanding_start = self.core.outstanding();
        let first_seq = self.generated as u32;
        let len_ns = (secs * 1e9) as u64;

        let jiffies0 = procfs::cpu_jiffies();
        let (sw0, sv0, cl0) = (
            procfs::threads_matching(is_switch),
            procfs::threads_matching(is_server),
            own_thread_times(),
        );
        let counters0 = self.bed.tb.switch_handle().counters();
        let servers0 = server_stats(&self.bed);
        let path0 = path_counters();

        let start_ns = self.now_ns();
        let end_ns = start_ns + len_ns;
        {
            let mut acct = Some(Acct {
                w: &mut w,
                first_seq,
                start_ns,
                len_ns,
            });
            let (mut cpu_prev, mut done_prev) = (sw0.run_ns + sv0.run_ns, 0u64);
            // A clock reading at every slice edge (50 us in which replies
            // wait, once per slice): a slice's durations are scaled by
            // the mean of the readings at its two ends.
            let mut clock_prev = clock::ns_per_iter();
            for slice in 1..=SLICES as u64 {
                let slice_end = start_ns + len_ns * slice / SLICES as u64;
                self.pump(true, tr, &mut acct, |g| g.now_ns() >= slice_end);
                let cpu = procfs::threads_matching(|n| is_switch(n) || is_server(n)).run_ns;
                let clock_now = clock::ns_per_iter();
                let a = acct.as_mut().expect("set above");
                a.w.slice_cpu
                    .push((a.w.completed - done_prev, cpu.saturating_sub(cpu_prev)));
                a.w.slice_scale
                    .push(clock::scale((clock_prev + clock_now) / 2.0));
                (cpu_prev, done_prev, clock_prev) = (cpu, a.w.completed, clock_now);
            }
            let a = acct.as_mut().expect("set above");
            a.w.outstanding_end = self.core.outstanding();
            // CPU and counters cover the window proper, not the drain.
            a.w.switch_cpu = procfs::threads_matching(is_switch).since(&sw0);
            a.w.server_cpu = procfs::threads_matching(is_server).since(&sv0);
            a.w.client_cpu = own_thread_times().since(&cl0);
            a.w.steal_frac = procfs::steal_frac(jiffies0, procfs::cpu_jiffies());
            a.w.switch = self.bed.tb.switch_handle().counters().since(&counters0);
            a.w.servers = server_stats_since(&server_stats(&self.bed), &servers0);
            let p = path_counters();
            a.w.path = PathCounters {
                buffer_grow_allocs: p.buffer_grow_allocs - path0.buffer_grow_allocs,
                timeout_syscalls: p.timeout_syscalls - path0.timeout_syscalls,
            };
            let drain_end = end_ns + give_up_ns(&RETRY) + 50_000_000;
            self.pump(false, tr, &mut acct, |g| {
                g.core.outstanding() == 0 || g.now_ns() >= drain_end
            });
        }
        // Whatever survived the drain will never be answered.
        w.timed_out += self.core.drain_outstanding();
        w
    }
}

/// `net.openloop_p50_us`: the repo's own open-loop driver on the same
/// testbed, at `rate_rps`.
pub fn repo_openloop_p50_us(bed: &mut Bed, rate_rps: f64, op: RpcOp, secs: f64, seed: u64) -> f64 {
    let num_groups = bed.num_groups;
    let Ok(client) = bed.tb.open_loop_client(1) else {
        return 0.0;
    };
    let report = client.run(OpenLoopSpec {
        rate_rps,
        duration: Duration::from_secs_f64(secs),
        op,
        drain: Duration::from_millis(150),
        request_timeout: TIMEOUT,
        num_groups,
        num_filter_tables: 2,
        seed,
        workers: 1,
        retry: None,
        faults: None,
        crash_worker: None,
    });
    report.map_or(0.0, |r| {
        crate::est::interp_quantile(&r.latencies, 0.5) / 1e3
    })
}

/// `net.udpclient_call_p50_us`: the repo's blocking client, one caller.
pub fn repo_udpclient_p50_us(bed: &mut Bed, op: RpcOp, secs: f64, seed: u64) -> f64 {
    let Ok(mut client) = bed.tb.client(seed) else {
        return 0.0;
    };
    let mut h = LatencyHistogram::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < secs {
        if let Ok(reply) = client.call(op, TIMEOUT) {
            h.record(reply.latency.as_nanos() as u64);
        }
    }
    crate::est::interp_quantile(&h, 0.5) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclone::proto::KvKey;

    const KV: UdpSpec = UdpSpec {
        outstanding: 8,
        ops: Ops::KvMix,
        warmup_reqs: 0,
    };

    #[test]
    fn same_seed_same_ops() {
        let (mut a, mut b) = (Inputs::new(&KV, 7), Inputs::new(&KV, 7));
        let mut other = Inputs::new(&KV, 8);
        let mut differs = false;
        for _ in 0..10_000 {
            let op = a.next_op();
            assert_eq!(op, b.next_op());
            differs |= op != other.next_op();
        }
        assert!(differs, "seed 8 replayed seed 7");
    }

    #[test]
    fn retry_policy_gives_up_after_its_summed_waits() {
        // 0.2 + 0.4 + 7 x 0.8 s.
        assert_eq!(give_up_ns(&RETRY), 6_200_000_000);
        assert_eq!(
            give_up_ns(&RetryPolicy::new(1_000)),
            1_000 + 2_000 + 4_000 + 8_000
        );
    }

    #[test]
    fn lost_datagrams_are_retransmitted_not_failed() {
        use netclone::net::{FaultDirection, FaultWindow};
        let spec = UdpSpec {
            outstanding: 8,
            ops: Ops::Echo0,
            warmup_reqs: 0,
        };
        // Both servers lose 2 % of their replies for the whole run.
        let lossy = FaultPlan {
            seed: 1,
            windows: vec![FaultWindow {
                from: Duration::ZERO,
                until: Duration::from_secs(3600),
                direction: FaultDirection::Tx,
                drop_prob: 0.02,
                dup_prob: 0.0,
                delay: Duration::ZERO,
            }],
        };
        let mut gen = Gen::new(Bed::spawn(&spec, Some(lossy)).unwrap(), spec, 5);
        let w = gen.window(0.5, &mut Tracer::new(gen.epoch, 0));
        gen.into_bed().tb.shutdown();
        assert!(w.retransmits > 0, "nothing was lost, so nothing was tested");
        assert_eq!((w.failed(), w.completed), (0, w.attempted));
    }

    #[test]
    fn kv_mix_has_all_three_ops() {
        let mut g = Inputs::new(&KV, 1);
        let (mut gets, mut scans, mut puts) = (0, 0, 0);
        for _ in 0..20_000 {
            match g.next_op() {
                RpcOp::Get { .. } => gets += 1,
                RpcOp::Scan { count, .. } => {
                    assert_eq!(count, KV_SCAN_COUNT);
                    scans += 1;
                }
                RpcOp::Put { .. } => puts += 1,
                RpcOp::Echo { .. } => panic!("echo in a KV mix"),
            }
        }
        assert!(gets > 18_000 && scans > 100 && puts > 700);
    }

    #[test]
    fn content_check_accepts_what_the_store_serves_and_nothing_else() {
        let key = KvKey::from_index(42);
        let mut v = vec![0u8; 64];
        v[..8].copy_from_slice(&42u64.to_be_bytes());
        assert!(content_ok(&RpcOp::Get { key }, &v));
        assert!(content_ok(&RpcOp::Get { key }, &[0xAB; 64]));
        v[7] = 43;
        assert!(!content_ok(&RpcOp::Get { key }, &v));
        assert!(!content_ok(&RpcOp::Get { key }, b"MISS"));
        assert!(content_ok(&RpcOp::Scan { key, count: 100 }, &[0; 6400]));
        assert!(!content_ok(&RpcOp::Scan { key, count: 100 }, &[0; 6336]));
        assert!(content_ok(&RpcOp::Put { key, value_len: 64 }, b"STORED"));
        assert!(!content_ok(&RpcOp::Put { key, value_len: 64 }, b"MISS"));
        assert!(content_ok(&RpcOp::Echo { class_ns: 0 }, &[]));
        assert!(!content_ok(&RpcOp::Echo { class_ns: 0 }, &[1]));
    }
}
