//! One workload, one process: set-up, the timed part, the output checks,
//! and (traced pass) the per-layer breakdown.

use std::path::Path;
use std::time::Instant;

use netclone::cluster::{RunResult, Scenario, Scheme};
use netclone::proto::RpcOp;
use netclone::workloads::{exp25, PoissonArrivals};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::clock;
use crate::des::{self, Kind};
use crate::est::{interp_quantile, per_slice, quantile_sorted, quiet_high, quiet_low};
use crate::json::Value;
use crate::procfs;
use crate::replay;
use crate::trace::{Name, Tracer, NO_REQ};
use crate::udp::{self, Bed, Gen, Inputs, Ops, UdpSpec, Window};

/// Set-ups per untraced run; `setup_s` is their quiet figure, like every
/// other timed figure. A DES set-up takes a tenth of a second, a UDP one
/// a quarter plus a testbed teardown.
const DES_SETUPS: usize = 9;
const UDP_SETUPS: usize = 5;
/// Spans kept per traced run (about 45 MB of JSONL); later ones are
/// counted as dropped. Half a million spans are some fifty thousand
/// requests, plenty for per-span means.
const MAX_SPANS: usize = 500_000;
/// A run is flagged invalid above this share of stolen CPU time.
const MAX_STEAL: f64 = 0.02;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// When the process started (`main`'s first statement).
    pub start: Instant,
    pub out_dir: std::path::PathBuf,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold (empty = correct).
    pub errors: Vec<String>,
    /// Reasons the numbers should not be trusted (noise, not bugs).
    pub invalid: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub info: Vec<(String, Value)>,
}

impl Outcome {
    fn put(&mut self, name: &'static str, v: f64) {
        debug_assert!(crate::spec::unit_of(name).is_some(), "{name} not in spec");
        self.metrics.push((name, v));
    }
    fn note(&mut self, key: &str, v: Value) {
        self.info.push((key.to_string(), v));
    }
    /// Per-layer metrics under `prefixes` that this workload has no work
    /// for (no links on `des_rack`, no sockets on `des_*`) read 0.
    fn not_applicable(&mut self, prefixes: &[&str]) {
        for m in &crate::spec::PER_LAYER {
            let listed = prefixes.iter().any(|p| m.name.starts_with(p));
            if listed && !self.metrics.iter().any(|(n, _)| *n == m.name) {
                self.put(m.name, 0.0);
            }
        }
    }
}

pub fn run(workload: &str, args: &Args) -> Option<Outcome> {
    let pingpong = UdpSpec {
        outstanding: 1,
        ops: Ops::Echo0,
        warmup_reqs: 10_000,
    };
    let closed = UdpSpec {
        outstanding: 8,
        ops: Ops::KvMix,
        warmup_reqs: 15_000,
    };
    Some(match workload {
        "des_rack" => run_des(Kind::Rack, workload, args),
        "des_fattree" => run_des(Kind::Fattree, workload, args),
        "des_fattree_s2" => run_des(Kind::FattreeS2, workload, args),
        "des_chaos" => run_des(Kind::Chaos, workload, args),
        "udp_echo0_pingpong" => run_udp(pingpong, workload, args),
        "udp_kv_closed" => run_udp(closed, workload, args),
        _ => return None,
    })
}

/// One CPU for the whole run, so that the clock readings are of the CPU
/// the measured code runs on (the CPUs differ, see `clock`).
fn pin_to_first_cpu() {
    if let Some(&cpu) = procfs::allowed_cpus().first() {
        procfs::pin_thread(0, cpu);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn write_trace(tr: &Tracer, workload: &str, out_dir: &Path, out: &mut Outcome) {
    let path = out_dir.join(format!("trace-{workload}.jsonl"));
    if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| tr.write_jsonl(&path)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    eprintln!(
        "-- spans ({} recorded, {} dropped) -> {}",
        tr.len(),
        tr.dropped,
        path.display()
    );
    eprintln!(
        "{:<20} {:>10} {:>14} {:>14} {:>10}",
        "span", "count", "total ms", "self ms", "self ns/op"
    );
    for (name, count, total, self_ns) in tr.table() {
        eprintln!(
            "{:<20} {:>10} {:>14.3} {:>14.3} {:>10.0}",
            name,
            count,
            total as f64 / 1e6,
            self_ns as f64 / 1e6,
            self_ns as f64 / count as f64
        );
    }
    out.note("spans", Value::Num(tr.len() as f64));
    out.note("spans_dropped", Value::Num(tr.dropped as f64));
}

// ------------------------------------------------------------------ DES

/// The clock reading that goes with a simulator sample (`clock`): the
/// calling thread's CPU for a serial run (`run_des` pins it), and for a
/// sharded run the slowest of the CPUs, since the shards advance in lock
/// step and wait for whichever is behind.
fn des_clock(kind: Kind) -> f64 {
    if kind.shards() == 1 {
        clock::ns_per_iter()
    } else {
        clock::ns_per_iter_on(&procfs::allowed_cpus())
            .into_iter()
            .fold(f64::NAN, f64::max)
    }
}

/// Runs `f` between two clock readings and returns its result with the
/// scale for durations measured inside it.
fn with_clock<T>(kind: Kind, f: impl FnOnce() -> T) -> (T, f64) {
    let before = des_clock(kind);
    let out = f();
    (out, clock::scale((before + des_clock(kind)) / 2.0))
}

/// One complete DES set-up, timed: build the scenario and run it untimed
/// at a tenth of the window (pages touched, allocator warmed, code
/// resident). The sharded workload also proves here that sharding is
/// still only an execution strategy: same digest as the serial run.
fn des_setup(kind: Kind, seed: u64, out: &mut Outcome) -> f64 {
    let (secs, scale) = with_clock(kind, || {
        let t = Instant::now();
        let r = kind.run(kind.scenario(seed, 0.1));
        if let Err(e) = des::check(&r) {
            out.errors.push(format!("set-up run: {e}"));
        }
        if kind.shards() > 1 {
            let serial = Kind::Fattree.run(Kind::Fattree.scenario(seed, 0.1));
            if des::digest(&serial) != des::digest(&r) {
                out.errors
                    .push("set-up run: sharded digest differs from serial".into());
            }
        }
        t.elapsed().as_secs_f64()
    });
    secs * scale
}

struct Timed {
    result: RunResult,
    /// Per repeat, at the reference clock: wall and process CPU seconds.
    walls: Vec<f64>,
    cpus: Vec<f64>,
    /// Per repeat: the clock scale that was applied.
    scales: Vec<f64>,
    steal: f64,
}

fn des_check(kind: Kind, r: &RunResult, out: &mut Outcome) {
    let rate = if kind == Kind::Rack {
        des::check_carries_offered(r)
    } else {
        Ok(())
    };
    out.errors
        .extend([des::check(r), rate].into_iter().filter_map(Result::err));
}

/// Repeats the full-window run until `seconds` have passed (at least
/// `min_reps` times), checking every repeat.
fn des_timed(kind: Kind, seed: u64, seconds: f64, min_reps: usize, out: &mut Outcome) -> Timed {
    let jiffies0 = procfs::cpu_jiffies();
    let begin = Instant::now();
    let (mut walls, mut cpus, mut scales) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(u64, RunResult)> = None;
    while walls.len() < min_reps || begin.elapsed().as_secs_f64() < seconds {
        let s = kind.scenario(seed, 1.0);
        let ((r, wall, cpu), scale) = with_clock(kind, || {
            let cpu0 = procfs::process_cpu_ns();
            let t = Instant::now();
            let r = kind.run(s);
            let wall = t.elapsed().as_secs_f64();
            (r, wall, (procfs::process_cpu_ns() - cpu0) as f64 / 1e9)
        });
        walls.push(wall * scale);
        cpus.push(cpu * scale);
        scales.push(scale);
        des_check(kind, &r, out);
        let d = des::digest(&r);
        match &first {
            None => first = Some((d, r)),
            Some((d0, _)) if *d0 != d => {
                out.errors.push(format!(
                    "repeat {} digests {d:016x}, the first {d0:016x}",
                    walls.len()
                ));
            }
            Some(_) => {}
        }
    }
    let (digest, result) = first.expect("at least one repeat");
    out.note("digest", Value::Str(format!("{digest:016x}")));
    Timed {
        result,
        walls,
        cpus,
        scales,
        steal: procfs::steal_frac(jiffies0, procfs::cpu_jiffies()),
    }
}

fn run_des(kind: Kind, workload: &str, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.start, usize::from(args.trace));
    if kind.shards() == 1 {
        // The sharded run needs both CPUs and is left to the scheduler.
        pin_to_first_cpu();
    }

    let before_setup = args.start.elapsed().as_secs_f64();
    let mut setups: Vec<f64> = (0..if args.trace { 1 } else { DES_SETUPS })
        .map(|_| des_setup(kind, args.seed, &mut out))
        .collect();
    let setup_s = before_setup + quiet_low(&mut setups);

    if !args.trace {
        let t = des_timed(kind, args.seed, args.seconds, 3, &mut out);
        let r = &t.result;
        // The repeats do identical work, so what one took beyond the
        // run's quiet figure was the machine, not the program.
        let wall = quiet_low(&mut t.walls.clone());
        out.attempted = r.generated;
        out.failed = r.client_lost;
        out.put("setup_s", setup_s);
        out.put("goodput_rps", r.completed as f64 / wall);
        out.put(
            "cpu_us_per_req",
            quiet_low(&mut t.cpus.clone()) * 1e6 / r.completed as f64,
        );
        out.put("lat_p50_us", interp_quantile(&r.latency, 0.50) / 1e3);
        out.put("lat_p99_us", interp_quantile(&r.latency, 0.99) / 1e3);
        out.note("repeats", Value::Num(t.walls.len() as f64));
        out.note(
            "sim_wall_all_s",
            Value::Arr(t.walls.iter().map(|w| Value::Num(*w)).collect()),
        );
        out.note("sim_wall_s", Value::Num(wall));
        out.note(
            "clock_scale_all",
            Value::Arr(t.scales.iter().map(|x| Value::Num(*x)).collect()),
        );
        out.note("events", Value::Num(r.events as f64));
        out.note("steal_frac", Value::Num(t.steal));
        if t.steal > MAX_STEAL {
            out.invalid.push(format!(
                "steal {:.1} % of the timed window",
                t.steal * 100.0
            ));
        }
        return out;
    }

    // Traced pass: one untraced repeat as the reference, one with spans.
    let reference = des_timed(kind, args.seed, 0.0, 1, &mut out);
    let scenario = kind.scenario(args.seed, 1.0);
    let ((r, wall, cpu_s), scale) = with_clock(kind, || {
        let cpu0 = procfs::process_cpu_ns();
        let t1 = tr.now();
        let r = kind.run(scenario.clone());
        let t2 = tr.now();
        tr.record(Name::ClusterRun, NO_REQ, t1, t2);
        let cpu_s = (procfs::process_cpu_ns() - cpu0) as f64 / 1e9;
        (r, (t2 - t1) as f64 / 1e9, cpu_s)
    });
    des_check(kind, &r, &mut out);
    out.attempted = r.generated;
    out.failed = r.client_lost;

    let serial_wall = if kind.shards() > 1 {
        let t = Instant::now();
        let serial = Kind::Fattree.run(Kind::Fattree.scenario(args.seed, 1.0));
        if des::digest(&serial) != des::digest(&r) {
            out.errors.push("sharded digest differs from serial".into());
        }
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };

    let ops: Vec<RpcOp> = vec![RpcOp::Echo { class_ns: 25_000 }; replay::CALLS];
    let layers = Layers::measure(&scenario, &ops, args.seed, || {
        // What cluster::sim draws per request: an arrival gap and a class.
        let arrivals = PoissonArrivals::new(scenario.offered_rps);
        let mut rng = StdRng::seed_from_u64(args.seed);
        let wl = exp25();
        move || {
            std::hint::black_box(arrivals.next_gap_ns(&mut rng));
            std::hint::black_box(wl.sample_class(&mut rng));
        }
    });
    layers.emit(&mut out);

    // Counters are windowed, `events` is whole-run: scale the former up.
    let whole = (scenario.warmup_ns + scenario.measure_ns) as f64 / scenario.measure_ns as f64;
    let sw = &r.switch;
    let links = r.link_totals.map_or((0, 0, 0), |t| {
        let sum =
            |f: fn(&netclone::linksim::LinkCounters) -> u64| f(&t.edge) + f(&t.up) + f(&t.down);
        (
            sum(|c| c.offered),
            sum(|c| c.dropped),
            sum(|c| c.ecn_marked),
        )
    });
    let emissions =
        sw.requests + sw.cloned + sw.responses - sw.responses_filtered + sw.routed_plain;
    let explained_ns = r.events as f64 * layers.queue_op
        + whole
            * (sw.cloned as f64 * layers.core.req_clone
                + (sw.requests - sw.cloned) as f64 * layers.core.req_noclone
                + (sw.responses - sw.responses_filtered) as f64 * layers.core.resp_pass
                + sw.responses_filtered as f64 * layers.core.resp_filtered
                // Plain-L3 hops have no replayed figure of their own; the
                // pass-through response path is the nearest (table
                // look-up, one emission).
                + sw.routed_plain as f64 * layers.core.resp_pass
                + r.generated as f64 * (layers.hosts_client + layers.sample)
                + r.server_responses as f64 * layers.hosts_server
                + links.0 as f64 * layers.link_offer
                + emissions as f64 * layers.route);

    out.put("core.clone_rate", sw.clone_rate());
    out.put("core.filter_rate", sw.filter_rate());
    out.put("core.filter_overwrites", sw.filter_overwrites as f64);
    out.put("hostcore.clone_win_frac", r.clone_win_ratio());
    out.put(
        "hostcore.redundant_frac",
        ratio(r.client_redundant, r.completed),
    );
    out.put("hostcore.retry_frac", ratio(r.client_retried, r.generated));
    out.put(
        "hosts.server_clone_drop_frac",
        ratio(r.server_clone_drops, sw.requests + sw.cloned),
    );
    out.put("hosts.empty_queue_frac", r.empty_queue_fraction());
    out.put("linksim.offers_per_req", ratio(links.0, r.completed));
    out.put("linksim.drop_frac", ratio(links.1, links.0));
    out.put("linksim.ecn_frac", ratio(links.2, links.0));
    out.put("cluster.ns_per_event", wall * 1e9 / r.events as f64);
    out.put("cluster.events_per_sec", r.events as f64 / wall);
    out.put(
        "cluster.events_per_req",
        r.events as f64 / (r.completed as f64 * whole),
    );
    out.put("cluster.cpu_s", cpu_s);
    out.put(
        "cluster.shard_speedup",
        if serial_wall > 0.0 {
            serial_wall / wall
        } else {
            0.0
        },
    );
    out.put("cluster.explained_share", explained_ns / (wall * 1e9));
    out.not_applicable(&["proto.bytes_per_req", "net."]);
    out.put("proc.peak_rss_mb", procfs::peak_rss_mb());
    out.put(
        "trace.overhead_frac",
        wall * scale / reference.walls[0] - 1.0,
    );
    out.note("steal_frac", Value::Num(reference.steal));
    write_trace(&tr, workload, &args.out_dir, &mut out);
    out
}

// ------------------------------------------------------- layer replay

/// The replayed ns/op figures shared by both frontends.
struct Layers {
    queue_op: f64,
    queue_op_deep: f64,
    barrier: f64,
    core: replay::CoreNs,
    hostcore: replay::HostcoreNs,
    hosts_client: f64,
    hosts_server: f64,
    link_offer: f64,
    route: f64,
    build_ms: f64,
    sample: f64,
    record: f64,
    encode: f64,
    decode: f64,
    kv: replay::KvNs,
}

impl Layers {
    fn measure<F: FnMut()>(
        scenario: &Scenario,
        ops: &[RpcOp],
        seed: u64,
        sampler: impl FnOnce() -> F,
    ) -> Layers {
        let t = Instant::now();
        let (hosts_client, hosts_server) = replay::hosts_ns(seed);
        let (route, build_ms) = replay::cluster_route_build(scenario, seed);
        let (encode, decode) = replay::codec_ns(ops);
        let l = Layers {
            queue_op: replay::queue_op_ns(256, seed),
            queue_op_deep: replay::queue_op_ns(65_536, seed),
            barrier: replay::barrier_ns(),
            core: replay::core_ns(seed),
            hostcore: replay::hostcore_ns(ops, seed),
            hosts_client,
            hosts_server,
            link_offer: replay::link_offer_ns(scenario),
            route,
            build_ms,
            sample: replay::sample_ns(sampler()),
            record: replay::record_ns(seed),
            encode,
            decode,
            kv: replay::kv_ns(ops, seed),
        };
        eprintln!("-- layer replay took {:.1} s", t.elapsed().as_secs_f64());
        l
    }

    fn emit(&self, out: &mut Outcome) {
        out.put("des.queue_op_ns", self.queue_op);
        out.put("des.queue_op_deep_ns", self.queue_op_deep);
        out.put("des.barrier_ns", self.barrier);
        out.put("core.process_req_clone_ns", self.core.req_clone);
        out.put("core.process_req_noclone_ns", self.core.req_noclone);
        out.put("core.process_resp_pass_ns", self.core.resp_pass);
        out.put("core.process_resp_filtered_ns", self.core.resp_filtered);
        out.put("hostcore.client_tx_ns", self.hostcore.client_tx);
        out.put("hostcore.client_rx_ns", self.hostcore.client_rx);
        out.put("hostcore.server_ns", self.hostcore.server);
        out.put("hostcore.client_tick_ns", self.hostcore.client_tick);
        out.put("hosts.client_ns", self.hosts_client);
        out.put("hosts.server_ns", self.hosts_server);
        out.put("linksim.offer_ns", self.link_offer);
        out.put("cluster.route_ns", self.route);
        out.put("cluster.build_ms", self.build_ms);
        out.put("workloads.sample_ns", self.sample);
        out.put("stats.record_ns", self.record);
        out.put("proto.encode_ns", self.encode);
        out.put("proto.decode_ns", self.decode);
        out.put("kvstore.get_ns", self.kv.get);
        out.put("kvstore.scan_ns", self.kv.scan);
        out.put("kvstore.put_ns", self.kv.put);
        out.put("kvstore.exec_locked_ns", self.kv.exec_locked);
    }
}

// ------------------------------------------------------------------ UDP

fn udp_checks(w: &Window, out: &mut Outcome) {
    if w.bad_content > 0 {
        out.errors.push(format!(
            "{} replies failed the content check",
            w.bad_content
        ));
    }
    if w.completed + w.timed_out != w.attempted {
        out.errors.push(format!(
            "requests leaked: attempted {} != completed {} + timed out {}",
            w.attempted, w.completed, w.timed_out
        ));
    }
    if w.steal_frac > MAX_STEAL {
        out.invalid
            .push(format!("steal {:.1} % of the window", w.steal_frac * 100.0));
    }
    let grew = w.outstanding_end.saturating_sub(w.outstanding_start) as f64;
    if grew > 0.01 * w.attempted as f64 {
        out.invalid.push(format!(
            "backlog grew from {} to {} outstanding",
            w.outstanding_start, w.outstanding_end
        ));
    }
}

/// The end-to-end figures of one window: each taken per slice, then the
/// quiet slice's (see `est`). The per-slice values go into the record.
struct UdpE2e {
    goodput_rps: f64,
    cpu_us_per_req: f64,
    p50_us: f64,
    p99_us: f64,
    per_slice: [(&'static str, Vec<f64>); 4],
}

impl UdpE2e {
    /// Durations are rescaled slice by slice to the reference clock
    /// (`clock`), and with them throughput: a closed loop runs at the
    /// system's pace.
    fn of(w: &mut Window) -> UdpE2e {
        let slice_secs = w.secs / udp::SLICES as f64;
        let mut rates: Vec<f64> = w
            .slices
            .iter()
            .zip(&w.slice_scale)
            .map(|(s, scale)| {
                let on_time = s.iter().filter(|&&l| u64::from(l) <= udp::LATENCY_LIMIT_NS);
                on_time.count() as f64 / slice_secs / scale
            })
            .collect();
        let mut cpu: Vec<f64> = w
            .slice_cpu
            .iter()
            .zip(&w.slice_scale)
            .filter(|((done, _), _)| *done > 0)
            .map(|((done, ns), scale)| *ns as f64 / 1e3 / *done as f64 * scale)
            .collect();
        let mut p50 = per_slice(&mut w.slices, &w.slice_scale, 0.50);
        let mut p99 = per_slice(&mut w.slices, &w.slice_scale, 0.99);
        let per_slice_now = [
            ("slice_goodput_rps", rates.clone()),
            ("slice_cpu_us_per_req", cpu.clone()),
            ("slice_p50_ns", p50.clone()),
            ("slice_p99_ns", p99.clone()),
        ];
        UdpE2e {
            goodput_rps: quiet_high(&mut rates),
            cpu_us_per_req: quiet_low(&mut cpu),
            p50_us: quiet_low(&mut p50) / 1e3,
            p99_us: quiet_low(&mut p99) / 1e3,
            per_slice: per_slice_now,
        }
    }
}

fn run_udp(spec: UdpSpec, workload: &str, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    pin_to_first_cpu();
    let before_setup = args.start.elapsed().as_secs_f64();
    let mut setups = Vec::new();
    let mut kept: Option<Gen> = None;
    // Every set-up is complete — store, testbed, registration, warm-up
    // traffic — and the last one is what the window then runs on.
    for _ in 0..if args.trace { 1 } else { UDP_SETUPS } {
        if let Some(previous) = kept.take() {
            previous.into_bed().tb.shutdown();
        }
        let clock_before = clock::ns_per_iter();
        let t = Instant::now();
        let bed = match Bed::spawn(&spec, None) {
            Ok(b) => b,
            Err(e) => {
                out.errors.push(format!("testbed: {e}"));
                return out;
            }
        };
        let mut gen = Gen::new(bed, spec, args.seed);
        gen.warm_up();
        let secs = t.elapsed().as_secs_f64();
        setups.push(secs * clock::scale((clock_before + clock::ns_per_iter()) / 2.0));
        kept = Some(gen);
    }
    let setup_s = before_setup + quiet_low(&mut setups);
    let mut gen = kept.expect("at least one set-up");
    let spawn_ms = gen.spawn_ms();

    if !args.trace {
        let mut off = Tracer::new(gen.epoch, 0);
        let mut w = gen.window(args.seconds, &mut off);
        udp_checks(&w, &mut out);
        out.attempted = w.attempted;
        out.failed = w.failed();
        let e2e = UdpE2e::of(&mut w);
        out.put("setup_s", setup_s);
        out.put("goodput_rps", e2e.goodput_rps);
        out.put("cpu_us_per_req", e2e.cpu_us_per_req);
        out.put("lat_p50_us", e2e.p50_us);
        out.put("lat_p99_us", e2e.p99_us);
        let mut all: Vec<u32> = w.slices.concat();
        all.sort_unstable();
        let cpu = w.switch_cpu.run_ns + w.server_cpu.run_ns;
        out.note(
            "whole_window_goodput_rps",
            Value::Num(w.within_limit as f64 / w.secs),
        );
        out.note(
            "whole_window_cpu_us_per_req",
            Value::Num(cpu as f64 / 1e3 / w.completed.max(1) as f64),
        );
        out.note(
            "whole_window_p50_us",
            Value::Num(quantile_sorted(&all, 0.5) / 1e3),
        );
        out.note(
            "whole_window_p99_us",
            Value::Num(quantile_sorted(&all, 0.99) / 1e3),
        );
        out.note(
            "whole_window_p999_us",
            Value::Num(quantile_sorted(&all, 0.999) / 1e3),
        );
        out.note("completed", Value::Num(w.completed as f64));
        out.note("retransmits", Value::Num(w.retransmits as f64));
        let nums = |v: &[f64]| Value::Arr(v.iter().map(|x| Value::Num(*x)).collect());
        out.note("slice_clock_scale", nums(&w.slice_scale));
        for (name, values) in &e2e.per_slice {
            out.note(name, nums(values));
        }
        out.note("steal_frac", Value::Num(w.steal_frac));
        gen.into_bed().tb.shutdown();
        return out;
    }

    // Traced pass: an untraced reference window, then the same with
    // spans on, on the same bed; the repo's own drivers get 15 % of the
    // time each, so the whole pass stays inside `--seconds`.
    let a = args.seconds * 0.2;
    let b = args.seconds * 0.3;
    let mut off = Tracer::new(gen.epoch, 0);
    let mut reference = gen.window(a, &mut off);
    let mut tr = Tracer::new(
        gen.epoch,
        (Gen::expected_requests(&spec, b) * 9).min(MAX_SPANS),
    );
    let mut w = gen.window(b, &mut tr);
    let mut bed = gen.into_bed();
    udp_checks(&w, &mut out);
    out.attempted = w.attempted;
    out.failed = w.failed();

    let done = w.completed.max(1) as f64;
    let p50_ref_us = UdpE2e::of(&mut reference).p50_us;
    let p50_us = UdpE2e::of(&mut w).p50_us;
    let mut all: Vec<u32> = w.slices.concat();
    all.sort_unstable();
    w.inflight.sort_unstable();

    // The repo's own drivers, as layers of their own.
    // The repo's open-loop driver gets a rate well inside what the testbed
    // carries, so that its p50 is a latency and not a queue length.
    let rate = 15_000.0;
    let op = Inputs::new(&spec, args.seed).next_op();
    let driver_secs = args.seconds * 0.15;
    let openloop_p50 = udp::repo_openloop_p50_us(&mut bed, rate, op, driver_secs, args.seed);
    let udpclient_p50 = udp::repo_udpclient_p50_us(&mut bed, op, driver_secs, args.seed);
    bed.tb.shutdown();

    let mut inputs = Inputs::new(&spec, args.seed);
    let ops: Vec<RpcOp> = (0..replay::CALLS).map(|_| inputs.next_op()).collect();
    let scenario = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1.0);
    let layers = Layers::measure(&scenario, &ops, args.seed, || {
        let mut inputs = Inputs::new(&spec, args.seed);
        move || {
            std::hint::black_box(inputs.next_op());
        }
    });
    layers.emit(&mut out);

    let sw = &w.switch;
    let sv = &w.servers;
    let exec_ns = match spec.ops {
        Ops::Echo0 => 0.0,
        Ops::KvMix => layers.kv.exec_locked,
    };
    let explained_ns = sw.requests as f64 * (layers.decode + layers.core.req_noclone)
        + sw.cloned as f64 * (layers.core.req_clone - layers.core.req_noclone)
        + (sw.requests + sw.cloned) as f64 * layers.encode
        + sw.responses as f64 * layers.decode
        + (sw.responses - sw.responses_filtered) as f64 * (layers.core.resp_pass + layers.encode)
        + sw.responses_filtered as f64 * layers.core.resp_filtered
        + sv.clones_dropped as f64 * layers.decode
        + sv.served as f64 * (layers.decode + layers.hostcore.server + exec_ns + layers.encode);
    let cpu_ns = (w.switch_cpu.run_ns + w.server_cpu.run_ns) as f64;
    let wait_frac = |t: &procfs::ThreadTimes| ratio(t.wait_ns, t.wait_ns + t.run_ns);

    out.put("core.clone_rate", sw.clone_rate());
    out.put("core.filter_rate", sw.filter_rate());
    out.put("core.filter_overwrites", sw.filter_overwrites as f64);
    out.put("hostcore.clone_win_frac", ratio(w.clone_wins, w.completed));
    out.put("hostcore.redundant_frac", ratio(w.redundant, w.completed));
    out.put("hostcore.retry_frac", ratio(w.retransmits, w.attempted));
    out.not_applicable(&["hosts.", "linksim.", "cluster."]);
    out.put(
        "proto.bytes_per_req",
        (w.bytes_tx + w.bytes_rx) as f64 / done,
    );
    out.put(
        "net.switch_cpu_us_per_req",
        w.switch_cpu.run_ns as f64 / 1e3 / done,
    );
    out.put(
        "net.server_cpu_us_per_req",
        w.server_cpu.run_ns as f64 / 1e3 / done,
    );
    out.put(
        "net.client_cpu_us_per_req",
        w.client_cpu.run_ns as f64 / 1e3 / done,
    );
    out.put("net.switch_runq_wait_frac", wait_frac(&w.switch_cpu));
    out.put("net.server_runq_wait_frac", wait_frac(&w.server_cpu));
    out.put(
        "net.switch_wakeups_per_req",
        w.switch_cpu.slices as f64 / done,
    );
    out.put("net.send_ns_per_dgram", ratio(w.send_ns, w.send_dgrams));
    out.put("net.recv_ns_per_dgram", ratio(w.recv_ns, w.recv_dgrams));
    out.put("net.send_batch_mean", ratio(w.send_dgrams, w.send_calls));
    out.put(
        "net.recv_batch_mean",
        ratio(w.recv_dgrams, w.recv_calls - w.recv_empty),
    );
    out.put("net.recv_empty_frac", ratio(w.recv_empty, w.recv_calls));
    out.put(
        "net.inflight_p50_us",
        quantile_sorted(&w.inflight, 0.5) / 1e3,
    );
    out.put("net.rpc_p99_us", quantile_sorted(&all, 0.99) / 1e3);
    out.put("net.rpc_p999_us", quantile_sorted(&all, 0.999) / 1e3);
    out.put(
        "net.server_clone_drop_frac",
        ratio(sv.clones_dropped, sw.requests + sw.cloned),
    );
    out.put("net.alloc_grow", w.path.buffer_grow_allocs as f64);
    out.put("net.timeout_syscalls", w.path.timeout_syscalls as f64);
    out.put("net.spawn_ms", spawn_ms);
    out.put("net.openloop_p50_us", openloop_p50);
    out.put("net.udpclient_call_p50_us", udpclient_p50);
    out.put(
        "net.explained_share",
        if cpu_ns > 0.0 {
            explained_ns / cpu_ns
        } else {
            0.0
        },
    );
    out.put("proc.peak_rss_mb", procfs::peak_rss_mb());
    out.put(
        "trace.overhead_frac",
        if p50_ref_us > 0.0 {
            p50_us / p50_ref_us - 1.0
        } else {
            0.0
        },
    );
    out.note("steal_frac", Value::Num(w.steal_frac));
    out.note("lat_p50_us_traced", Value::Num(p50_us));
    out.note("lat_p50_us_reference", Value::Num(p50_ref_us));
    write_trace(&tr, workload, &args.out_dir, &mut out);
    out
}
