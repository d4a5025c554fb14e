//! The adversarial suite as a test asset: seed-pinned shootout state,
//! shard-count byte-equality for every adversarial scenario, and the
//! headline policy ordering under mid-run degradation.
//!
//! The pins freeze the *exact* simulator state (request counts, clone
//! wins, tail percentiles) of one representative cell per adversarial
//! kind. Any change to RNG draw order, event ordering, or the service
//! pipeline shows up here first — by design. If a change is intentional,
//! re-record the constants and say so in the commit.

use netclone::cluster::experiments::adversarial;
use netclone::cluster::experiments::Scale;
use netclone::cluster::{RunCtx, Scenario, Scheme, Sim};

/// One representative cell: the kind's smoke-scale scenario at half its
/// own capacity, under the given scheme.
fn cell(kind: &str, scheme: Scheme) -> Scenario {
    let ctx = RunCtx::new(Scale::Smoke);
    let mut s = adversarial::scenario(kind, scheme, &ctx);
    s.offered_rps = s.capacity_rps() * 0.5;
    s
}

/// Expected NetClone state of one kind at seed 42, half capacity, smoke
/// scale — recorded from the run that introduced the suite.
struct Pin {
    kind: &'static str,
    generated: u64,
    completed: u64,
    clone_wins: u64,
    packets_lost: u64,
    p50: f64,
    p99: f64,
    p999: f64,
}

const PINS: [Pin; 5] = [
    Pin {
        kind: "bimodal",
        generated: 16_501,
        completed: 16_487,
        clone_wins: 5_195,
        packets_lost: 0,
        p50: 23.039,
        p99: 450.559,
        p999: 1_114.111,
    },
    Pin {
        kind: "heavytail",
        generated: 42_991,
        completed: 42_988,
        clone_wins: 12_505,
        packets_lost: 0,
        p50: 13.951,
        p99: 155.647,
        p999: 917.503,
    },
    Pin {
        kind: "zipf-hotkey",
        generated: 1_563,
        completed: 1_564,
        clone_wins: 634,
        packets_lost: 0,
        p50: 73.727,
        p99: 1_245.183,
        p999: 3_670.015,
    },
    Pin {
        kind: "slowdown",
        generated: 31_587,
        completed: 31_350,
        clone_wins: 7_954,
        packets_lost: 0,
        p50: 23.295,
        p99: 5_046.271,
        p999: 5_308.415,
    },
    Pin {
        kind: "drain",
        generated: 31_587,
        completed: 30_884,
        clone_wins: 10_077,
        packets_lost: 4_939,
        p50: 24.063,
        p99: 120.831,
        p999: 573.439,
    },
];

#[test]
fn adversarial_cells_reproduce_the_pinned_seed_state() {
    for p in PINS {
        let kind = p.kind;
        let r = Sim::run(cell(kind, Scheme::NETCLONE));
        let (r50, r99, r999) = r.percentiles_us();
        assert_eq!(r.generated, p.generated, "{kind}: generated drifted");
        assert_eq!(r.completed, p.completed, "{kind}: completed drifted");
        assert_eq!(
            r.client_clone_wins, p.clone_wins,
            "{kind}: clone wins drifted"
        );
        assert_eq!(r.packets_lost, p.packets_lost, "{kind}: losses drifted");
        assert_eq!(
            (r50, r99, r999),
            (p.p50, p.p99, p.p999),
            "{kind}: tail drifted"
        );
    }
}

#[test]
fn every_adversarial_scenario_is_sharding_invariant() {
    // The acceptance bar of the suite: for each adversarial kind —
    // including the degradation injections, which prime on one owner
    // shard — shards=1 and shards=4 yield byte-identical results.
    for kind in adversarial::KINDS {
        let serial = format!(
            "{:?}",
            Sim::run_with_shards(cell(kind, Scheme::NETCLONE), 1)
        );
        let sharded = format!(
            "{:?}",
            Sim::run_with_shards(cell(kind, Scheme::NETCLONE), 4)
        );
        assert_eq!(serial, sharded, "{kind}: shards=1 vs shards=4 diverged");
    }
}

#[test]
fn netclone_beats_plain_duplication_under_slowdown() {
    // The shootout's headline at the cell level: when one server turns
    // gray mid-run, the idle-gated clone beats duplicating everything —
    // C-Clone's doubled load saturates the remaining healthy capacity.
    // Measured at the sweep's peak fraction (0.7), where the asymmetry
    // bites: C-Clone's effective load is 1.4× capacity.
    let at_peak = |scheme| {
        let mut s = cell("slowdown", scheme);
        s.offered_rps = s.capacity_rps() * 0.7;
        Sim::run(s)
    };
    let nc = at_peak(Scheme::NETCLONE);
    let dup = at_peak(Scheme::CClone);
    assert!(
        nc.p99_us() < dup.p99_us(),
        "slowdown p99: NetClone {} >= C-Clone {}",
        nc.p99_us(),
        dup.p99_us()
    );
}

#[test]
fn degradation_actually_degrades() {
    // Guard against the injections silently becoming no-ops: each
    // degraded kind must be measurably worse than its healthy twin.
    let healthy = {
        let mut s = cell("slowdown", Scheme::NETCLONE);
        s.faults.faults.clear();
        Sim::run(s)
    };
    let slow = Sim::run(cell("slowdown", Scheme::NETCLONE));
    assert!(
        slow.p99_us() > healthy.p99_us() * 2.0,
        "slowdown too mild: {} vs healthy {}",
        slow.p99_us(),
        healthy.p99_us()
    );

    let undrained = {
        let mut s = cell("drain", Scheme::NETCLONE);
        s.faults.faults.clear();
        Sim::run(s)
    };
    let drained = Sim::run(cell("drain", Scheme::NETCLONE));
    assert_eq!(undrained.packets_lost, 0);
    assert!(drained.packets_lost > 0, "the drain dropped nothing");
    assert!(drained.completed < undrained.completed);
}
