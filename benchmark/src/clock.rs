//! The speed of the CPU clock, measured beside every timed sample.
//!
//! The sandbox's CPUs change clock speed on their own: each virtual CPU,
//! independently of the other, runs about a quarter faster for 2 to 10 s
//! at a time, a few times a minute (the host boosts a core while its
//! neighbours idle). `des_fattree` repeats took 210 ms in such a stretch
//! and 265 ms outside it, `udp_kv_closed` carried 90k or 70k rps, and a run
//! reported one state or the other depending on how much of it a stretch
//! happened to fill: spreads of 17-21 % across ten seeds, from the machine
//! alone. A chain of dependent multiply-adds does nothing but wait for the
//! clock — no memory, no branches, nothing a neighbour can contend for —
//! and its speed followed those stretches exactly (ratio 1.27 against the
//! simulator's 1.25). So every timed sample is taken together with a
//! reading of that chain on the same CPU, and durations are rescaled to a
//! reference clock ([`REF_NS_PER_ITER`]): what the sample would have taken
//! had the clock stood still. With it the same repeats spread 4-5 %.
//!
//! What this does not remove is contention for memory and caches, which
//! slows only code that misses; the quiet-part estimators in `est` deal
//! with that.

use std::hint::black_box;

use crate::procfs;

/// Iterations per reading: some 25 us, long against the two clock reads
/// around it and short enough that a reading fits between two requests.
const ITERS: u64 = 20_000;
/// The reference clock: a multiply (3 cycles) feeding an add (1 cycle) at
/// 3.2 GHz. Only a scale: it sets what "1 us" means in the reported
/// figures, not how two commits compare.
pub const REF_NS_PER_ITER: f64 = 1.25;

#[inline(never)]
fn chain(iters: u64) -> u64 {
    let mut a = 1u64;
    for i in 0..iters {
        // black_box keeps each step a real dependency of the next.
        a = black_box(a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    a
}

/// One reading on the calling thread's CPU: nanoseconds of *this thread's*
/// CPU time per chain step, so being descheduled in the middle does not
/// count. The smaller of two back-to-back runs: an interrupt only adds.
pub fn ns_per_iter() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t0 = procfs::thread_cpu_ns();
        black_box(chain(ITERS));
        let dt = procfs::thread_cpu_ns().saturating_sub(t0);
        best = best.min(dt as f64 / ITERS as f64);
    }
    best
}

/// What to multiply a duration by, given the chain reading taken with it.
/// 1.0 when the reading is unusable (no CPU clock on this platform).
pub fn scale(ns_per_iter: f64) -> f64 {
    if ns_per_iter.is_finite() && ns_per_iter > 0.0 {
        REF_NS_PER_ITER / ns_per_iter
    } else {
        1.0
    }
}

/// A reading on each of `cpus`, taken at the same time by one short-lived
/// pinned thread per CPU.
pub fn ns_per_iter_on(cpus: &[usize]) -> Vec<f64> {
    std::thread::scope(|s| {
        let readers: Vec<_> = cpus
            .iter()
            .map(|&cpu| {
                s.spawn(move || {
                    procfs::pin_thread(0, cpu);
                    ns_per_iter()
                })
            })
            .collect();
        readers
            .into_iter()
            .map(|r| r.join().unwrap_or(f64::NAN))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_is_a_plausible_clock() {
        // Between 10 GHz and 100 MHz at four cycles a step.
        let r = ns_per_iter();
        assert!((0.4..40.0).contains(&r), "{r} ns per step");
        assert!((scale(r) * r - REF_NS_PER_ITER).abs() < 1e-9);
        assert_eq!(scale(f64::NAN), 1.0);
        assert_eq!(scale(0.0), 1.0);
    }
}
