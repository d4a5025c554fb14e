//! The DES against queueing theory: a number derived outside the
//! simulator.
//!
//! Baseline on the paper's one-rack testbed is a textbook system. Each
//! client is a Poisson source, each request goes to one of the six
//! servers uniformly at random, and each server is 15 workers serving
//! Exp(25 µs) first come, first served. So a server is an M/M/15 queue
//! at a sixth of the offered load, and a request's latency is its
//! sojourn there (Erlang C waiting plus its service) plus a fixed path,
//! summed from `calib`. The test runs the DES at three loads and checks
//! its p50 and p99 against that closed form, by distribution rather than
//! by sample, as Ditto validates a clone.
//!
//! The closed form leaves three costs out, all from `calib`: the queueing
//! at each client's sender thread (`CLIENT_TX_NS` a packet), at each
//! client's receiver thread (`CLIENT_RX_NS`) and at each server's
//! dispatcher (`DISPATCH_NS`). The path counts their service, not their
//! waits. Each is a single deterministic server fed close to Poisson
//! arrivals, so its mean wait is Pollaczek–Khinchine's `ρ·s / (2(1 − ρ))`
//! at utilisation ρ; the three sum to 316, 443 and 496 ns at the three
//! loads (`omitted_wait_ns`). Small and nearly independent of the sojourn,
//! they shift a quantile by about their mean, so the check allows that
//! sum on the slow side only.
//!
//! The tolerance has two terms besides that allowance:
//!
//! * one histogram bucket: the histogram reports the upper edge of the
//!   bucket holding a run's sample quantile, so the sample lies within
//!   one bucket below the reported value (`bucket_ns`);
//! * a binomial order-statistic interval for the sample count. The
//!   samples are whole runs, `RUNS` independent seeds from 42 on: each
//!   run's sample quantile lies above the true quantile with probability
//!   one half, so the true quantile lies between the `K`-th smallest and
//!   the `K`-th largest run's value except with probability
//!   `2 P(Bin(RUNS, 1/2) < K)`, 0.63 % for 12 runs and K = 2
//!   (`binomial_half_below`).
//!
//! The requests of one run are not the independent samples: latencies
//! at one server are correlated over the queue's relaxation time, and
//! more so the closer the load is to capacity. Over 24 seeds of a 60 ms
//! window, the spread of a run's p50 and p99 was 1.0–1.3 times the
//! binomial figure for its request count at ρ = 0.70, 2.2 times at
//! ρ = 0.85 and 5–6 times at ρ = 0.90, so an interval computed from the
//! request count would refuse a correct model at the higher loads.
//!
//! A disagreement outside the tolerance is a finding to explain (a model
//! bug, or a cost the closed form leaves out), not a tolerance to widen.

use netclone::cluster::calib::{
    CLIENT_RX_NS, CLIENT_TX_NS, DISPATCH_NS, HOST_RX_STACK_NS, LINK_ONE_WAY_NS, SYNTHETIC_WORKERS,
};
use netclone::cluster::{Scenario, Scheme, Sim};
use netclone::workloads::{exp25, Jitter};

const CLIENTS: usize = 4;
const SERVERS: usize = 6;
const MEAN_SERVICE_NS: f64 = 25_000.0;
const WARMUP_NS: u64 = 5_000_000;
const MEASURE_NS: u64 = 40_000_000;
/// Independent runs per load, seeds 42 on.
const RUNS: usize = 12;
/// The order statistic each side of the closed form must clear.
const K: usize = 2;

/// The fixed path of one request: the client's send, four host↔switch
/// links, two switch passes, the server's receive stack and dispatcher,
/// and the client's receive.
fn path_ns() -> u64 {
    let pass = netclone::asic::AsicSpec::tofino().pass_latency_ns;
    CLIENT_TX_NS + 4 * LINK_ONE_WAY_NS + 2 * pass + HOST_RX_STACK_NS + DISPATCH_NS + CLIENT_RX_NS
}

/// Erlang C: the probability that an arrival waits at an M/M/c queue
/// offered `a = λ/μ` Erlangs, through the Erlang B recursion.
fn erlang_c(c: usize, a: f64) -> f64 {
    let b = (1..=c).fold(1.0, |b, k| a * b / (k as f64 + a * b));
    let rho = a / c as f64;
    b / (1.0 - rho * (1.0 - b))
}

/// The M/M/c FCFS sojourn time: `P(T > t)`, where T is the Erlang C wait
/// (0 with probability 1 − C, else Exp(cμ − λ)) plus an Exp(μ) service.
struct Sojourn {
    c_wait: f64,
    mu: f64,
    theta: f64,
}

impl Sojourn {
    fn mmc(c: usize, lambda: f64, mu: f64) -> Self {
        let theta = c as f64 * mu - lambda;
        assert!(theta > 0.0 && (theta - mu).abs() > 1e-3 * mu);
        Sojourn {
            c_wait: erlang_c(c, lambda / mu),
            mu,
            theta,
        }
    }

    fn survival(&self, t: f64) -> f64 {
        let (mu, th) = (self.mu, self.theta);
        let both = (th * (-mu * t).exp() - mu * (-th * t).exp()) / (th - mu);
        (1.0 - self.c_wait) * (-mu * t).exp() + self.c_wait * both
    }

    /// The `q`-quantile, ns, by bisection.
    fn quantile(&self, q: f64) -> f64 {
        let (mut lo, mut hi) = (0.0, 1.0);
        while self.survival(hi) > 1.0 - q {
            hi *= 2.0;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.survival(mid) > 1.0 - q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Mean wait of a deterministic single server of service `s_ns` at
/// `rate` arrivals per ns (Pollaczek–Khinchine, Poisson arrivals).
fn pk_wait_ns(rate: f64, s_ns: u64) -> f64 {
    let s = s_ns as f64;
    let rho = rate * s;
    assert!(rho < 1.0, "a queue the closed form omits is saturated");
    rho * s / (2.0 * (1.0 - rho))
}

/// The mean of the waits the closed form omits at `offered` requests/s:
/// a client's sender and receiver each see a quarter of the load, a
/// server's dispatcher a sixth.
fn omitted_wait_ns(offered: f64) -> f64 {
    let per_client = offered / CLIENTS as f64 / 1e9;
    let per_server = offered / SERVERS as f64 / 1e9;
    pk_wait_ns(per_client, CLIENT_TX_NS)
        + pk_wait_ns(per_client, CLIENT_RX_NS)
        + pk_wait_ns(per_server, DISPATCH_NS)
}

/// Width of the histogram bucket holding `v`: 64 linear sub-buckets per
/// power-of-two octave above 128 ns.
fn bucket_ns(v: u64) -> u64 {
    if v < 128 {
        1
    } else {
        1 << (63 - v.leading_zeros() - 6)
    }
}

/// `P(Bin(n, 1/2) < k)`.
fn binomial_half_below(n: usize, k: usize) -> f64 {
    let mut choose = 1.0;
    let mut sum = 0.0;
    for i in 0..k {
        sum += choose;
        choose *= (n - i) as f64 / (i + 1) as f64;
    }
    sum / 2f64.powi(n as i32)
}

/// Baseline at `rho` of the workers' capacity, seed `seed`.
fn scenario(rho: f64, seed: u64) -> Scenario {
    let mut s = Scenario::synthetic_default(Scheme::Baseline, exp25(), 0.0);
    s.n_clients = CLIENTS;
    s.jitter = Jitter::NONE;
    s.seed = seed;
    s.warmup_ns = WARMUP_NS;
    s.measure_ns = MEASURE_NS;
    s.offered_rps = rho * s.capacity_rps();
    s
}

/// Runs `RUNS` seeds of Baseline at `rho` and checks each run's
/// achieved/offered, then its p50 and p99 against the closed form.
fn check(rho: f64) {
    let offered = scenario(rho, 42).offered_rps;
    let runs: Vec<_> = (0..RUNS as u64)
        .map(|i| {
            let s = scenario(rho, 42 + i);
            assert_eq!(s.servers.len(), SERVERS);
            let r = Sim::run(s);
            let achieved = r.achieved_rps / offered;
            assert!(
                achieved >= 0.99,
                "rho {rho}, run {i}: achieved/offered {achieved:.4}"
            );
            r.latency
        })
        .collect();

    let lambda = offered / SERVERS as f64 / 1e9;
    let sojourn = Sojourn::mmc(SYNTHETIC_WORKERS, lambda, 1.0 / MEAN_SERVICE_NS);
    let path = path_ns() as f64;
    let omitted = omitted_wait_ns(offered);
    for q in [0.50, 0.99] {
        let closed = path + sojourn.quantile(q);
        // Each run's sample quantile lies in its reported bucket.
        let hi: Vec<u64> = runs.iter().map(|h| h.quantile(q)).collect();
        let lo: Vec<u64> = hi.iter().map(|&v| v + 1 - bucket_ns(v)).collect();
        let above = hi.iter().filter(|&&v| v as f64 >= closed).count();
        let below = lo.iter().filter(|&&v| v as f64 <= closed + omitted).count();
        assert!(
            above >= K && below >= K,
            "rho {rho} p{}: closed form {closed:.0} ns (+{omitted:.0} ns omitted), runs {hi:?} \
             ns, {above} at or above, {below} at or below",
            q * 100.0
        );
    }
}

#[test]
fn the_fixed_path_sums_to_calib() {
    assert_eq!(path_ns(), 7_520);
}

#[test]
fn the_closed_forms_match_known_values() {
    // One server: the M/M/1 wait probability is ρ.
    assert!((erlang_c(1, 0.7) - 0.7).abs() < 1e-12);
    // Two servers at a = 1: C = 1/3.
    assert!((erlang_c(2, 1.0) - 1.0 / 3.0).abs() < 1e-12);
    // M/M/1: the sojourn is Exp(μ − λ), median ln 2 / (μ − λ).
    let mm1 = Sojourn::mmc(1, 0.5, 1.0);
    assert!((mm1.quantile(0.5) - 2.0 * 2f64.ln()).abs() < 1e-9);
    // P(Bin(12, 1/2) < 2) = 13 / 4096.
    assert!((binomial_half_below(RUNS, K) - 13.0 / 4096.0).abs() < 1e-15);
}

#[test]
fn baseline_matches_mmc_erlang_c_plus_the_fixed_path() {
    for rho in [0.70, 0.85, 0.90] {
        check(rho);
    }
}
