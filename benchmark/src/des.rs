//! The simulator workloads: four fixed scenarios, each run to completion
//! through the public `Sim` entry points and timed from outside.

use netclone::cluster::experiments::{chaos, fattree, Scale};
use netclone::cluster::harness::RunCtx;
use netclone::cluster::{FaultTimeline, RetryPolicy, RunResult, Scenario, Scheme, Sim};
use netclone::workloads::exp25;

/// Which scenario, and how it is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One rack, no links: event queue, switch program, host cores.
    Rack,
    /// k=4 fat-tree with congested links, serial.
    Fattree,
    /// The same model through the 2-shard conservative loop.
    FattreeS2,
    /// 4-rack rolling drain against retrying clients.
    Chaos,
}

const WARMUP_NS: u64 = 10_000_000;
/// Simulated measurement window. Sized so one run takes a fifth to a half
/// of a second of host time: a 15 s benchmark run then holds thirty to
/// seventy repeats, enough for the quiet-part estimator (`est::quiet_low`)
/// to find the machine undisturbed.
const MEASURE_NS: u64 = 100_000_000;

/// The chaos clients' recovery policy: the experiment's own 1 ms timeout
/// doubling to an 8 ms cap, but with enough attempts that no request is
/// ever given up on while a third of the fleet is drained. The suite's
/// preset (3 retries) loses ~0.05 % of requests by design; a benchmark
/// workload must not fail operations, and the retry path is exercised
/// just the same.
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 16,
        ..chaos::retry_policy()
    }
}

impl Kind {
    pub fn shards(self) -> usize {
        if self == Kind::FattreeS2 {
            2
        } else {
            1
        }
    }

    /// The scenario at `scale` of the full window (1.0 = timed run, 0.1 =
    /// the untimed set-up run). The seed feeds `Scenario.seed` and, on
    /// the fat-tree, the ECMP hash.
    pub fn scenario(self, seed: u64, scale: f64) -> Scenario {
        let ctx = RunCtx::new(Scale::Smoke);
        let measure_ns = (MEASURE_NS as f64 * scale) as u64;
        let mut s = match self {
            Kind::Rack => {
                let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 0.0);
                s.offered_rps = s.capacity_rps() * 0.6;
                s
            }
            Kind::Fattree | Kind::FattreeS2 => {
                let mut s = fattree::scenario(4, 3.0, Scheme::NETCLONE, &ctx);
                s.topology = s.topology.with_ecmp_seed(seed);
                s
            }
            Kind::Chaos => {
                let mut s = chaos::scenario("rolling-drain", Scheme::NETCLONE, &ctx);
                s.offered_rps = s.capacity_rps() * 0.6;
                s.faults = FaultTimeline::rolling_drain(
                    &[2, 3],
                    WARMUP_NS + measure_ns / 4,
                    measure_ns / 4,
                    measure_ns / 6,
                );
                s.retry = Some(chaos_retry());
                s
            }
        };
        s.seed = seed;
        s.warmup_ns = WARMUP_NS;
        s.measure_ns = measure_ns;
        s
    }

    pub fn run(self, s: Scenario) -> RunResult {
        match self.shards() {
            1 => Sim::run(s),
            n => Sim::run_with_shards(s, n),
        }
    }
}

/// FNV-1a over the `Debug` rendering of the whole result: every field the
/// simulator produces, none of which depends on wall time.
pub fn digest(r: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{r:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The output checks every DES run must pass, whatever its window.
pub fn check(r: &RunResult) -> Result<(), String> {
    let l = r.lifetime;
    if l.generated != l.completed + l.lost + r.client_outstanding {
        return Err(format!(
            "conservation broken: generated {} != completed {} + lost {} + outstanding {}",
            l.generated, l.completed, l.lost, r.client_outstanding
        ));
    }
    if r.completed == 0 {
        return Err("nothing completed".into());
    }
    Ok(())
}

/// `des_rack` runs well below capacity with nothing in the way, so over
/// a full window it must carry what it is offered, to within 2 %.
pub fn check_carries_offered(r: &RunResult) -> Result<(), String> {
    let off = (r.achieved_rps / r.offered_rps - 1.0).abs();
    if off > 0.02 {
        return Err(format!(
            "achieved {:.0} rps is {:.1} % off the offered {:.0}",
            r.achieved_rps,
            off * 100.0,
            r.offered_rps
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_reaches_the_scenario_and_the_ecmp_hash() {
        let a = Kind::Fattree.scenario(7, 0.1);
        let b = Kind::Fattree.scenario(8, 0.1);
        assert_eq!((a.seed, b.seed), (7, 8));
        assert_ne!(a.topology.ecmp_seed, b.topology.ecmp_seed);
        assert_eq!(a.measure_ns, MEASURE_NS / 10);
        assert!(a.links.is_some());
        assert!(Kind::Rack.scenario(7, 1.0).links.is_none());
    }

    #[test]
    fn sharded_run_digests_equal_serial_and_conserves_requests() {
        let serial = Kind::Fattree.run(Kind::Fattree.scenario(7, 0.02));
        let sharded = Kind::FattreeS2.run(Kind::FattreeS2.scenario(7, 0.02));
        assert_eq!(digest(&serial), digest(&sharded));
        check(&serial).unwrap();
    }

    #[test]
    fn chaos_has_a_fault_timeline_and_a_patient_retry_policy() {
        let s = Kind::Chaos.scenario(7, 1.0);
        assert_eq!(s.faults.faults.len(), 2);
        assert_eq!(s.retry.unwrap().max_retries, 16);
        assert_eq!(s.retry.unwrap().timeout_ns, 1_000_000);
    }
}
