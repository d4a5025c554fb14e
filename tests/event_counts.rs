//! The event-count gate: six fixed serial scenarios — leaf/spine at 1, 4
//! and 8 racks, the congested k = 4 fat-tree, and the single-rack
//! slowdown and 4-rack drain from the adversarial suite — each pinned to
//! the number of events it processes and the requests it completes.
//!
//! The event count is seed-deterministic and machine-independent, so it
//! is the one throughput-adjacent number a plain test can hold: a
//! mismatch means the hot path's event structure drifted (an extra event
//! per packet, a lost coalescing, a changed schedule), never noise.
//! Wall time and events/sec are `benchmark/`'s job (`cluster.*` rows).
//! If a change is intentional, re-record the constants and say so in the
//! commit.

use netclone::cluster::experiments::{adversarial, fattree, Scale};
use netclone::cluster::{FaultKind, RunCtx, Scenario, Scheme, Sim, Topology};
use netclone::workloads::exp25;

const WARMUP_NS: u64 = 10_000_000;
const MEASURE_NS: u64 = 25_000_000;

/// The pinned-seed testbed shape at 60% of capacity, spread over `racks`
/// racks.
fn leaf_spine(racks: usize) -> Scenario {
    let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 0.0);
    s.warmup_ns = WARMUP_NS;
    s.measure_ns = MEASURE_NS;
    s.offered_rps = s.capacity_rps() * 0.6;
    s.seed = 7;
    if racks > 1 {
        s.topology = Topology::uniform(racks);
    }
    s
}

/// The `fattree` experiment's 3:1 cell (k = 4, 8 racks, background
/// incast, bounded queues): the per-packet link path plus ECMP routing.
fn fattree_k4() -> Scenario {
    let mut s = fattree::scenario(4, 3.0, Scheme::NETCLONE, &RunCtx::new(Scale::Smoke));
    s.warmup_ns = WARMUP_NS;
    s.measure_ns = MEASURE_NS;
    s
}

/// An adversarial kind at 60% of capacity, its degradation window
/// re-anchored to the middle half of the measurement window: the
/// control-event edges and the leaf drop gate on the hot path.
fn degraded(kind: &str) -> Scenario {
    let mut s = adversarial::scenario(kind, Scheme::NETCLONE, &RunCtx::new(Scale::Smoke));
    s.warmup_ns = WARMUP_NS;
    s.measure_ns = MEASURE_NS;
    s.offered_rps = s.capacity_rps() * 0.6;
    s.seed = 7;
    let (start, end) = (WARMUP_NS + MEASURE_NS / 4, WARMUP_NS + 3 * MEASURE_NS / 4);
    for fault in &mut s.faults.faults {
        assert!(
            matches!(
                fault.kind,
                FaultKind::Slowdown { .. } | FaultKind::Drain { .. }
            ),
            "adversarial kinds inject a slowdown or a drain"
        );
        (fault.start_ns, fault.end_ns) = (start, end);
    }
    s
}

#[test]
fn event_counts_hold_per_shape() {
    let cases = [
        ("single_rack", leaf_spine(1), 501_264, 47_225),
        ("four_rack", leaf_spine(4), 636_425, 47_218),
        ("eight_rack", leaf_spine(8), 671_266, 47_225),
        ("fattree_k4", fattree_k4(), 774_349, 44_707),
        ("adv_slowdown", degraded("slowdown"), 486_693, 46_339),
        ("adv_drain", degraded("drain"), 611_886, 45_534),
    ];
    let mut drifted = Vec::new();
    for (shape, scenario, events, completed) in cases {
        let r = Sim::run(scenario);
        if (r.events, r.completed) != (events, completed) {
            drifted.push(format!(
                "{shape}: events {} (pinned {events}), completed {} (pinned {completed})",
                r.events, r.completed
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "event structure drifted:\n{}",
        drifted.join("\n")
    );
}
