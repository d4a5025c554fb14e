//! The parallel `Runner` must be invisible in the results: running an
//! experiment on one thread or on many must produce byte-identical
//! `Report` artifacts (every `Sim::run` owns its seeded RNG, and the
//! harness reassembles cells in submission order).

use netclone::cluster::experiments::Scale;
use netclone::cluster::harness::{find, RunCtx};
use netclone::cluster::{
    Fault, Scenario, Scheme, ServerFailurePlan, Sim, SwitchFailurePlan, Topology,
};
use netclone::core::SwitchCounters;
use netclone::workloads::exp25;

fn reports_match(id: &str) {
    let exp = find(id).expect("registry id");
    let serial = (exp.run)(&RunCtx::new(Scale::Smoke));
    let parallel = (exp.run)(&RunCtx::new(Scale::Smoke).with_jobs(8));
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "{id}: parallel JSON diverged from serial"
    );
    assert_eq!(
        serial.to_csv(),
        parallel.to_csv(),
        "{id}: parallel CSV diverged from serial"
    );
    assert_eq!(serial.to_markdown(), parallel.to_markdown());
}

#[test]
fn fig15_parallel_equals_serial() {
    // A sweep figure: 3 schemes × smoke sweep points through run_sweeps.
    reports_match("fig15");
}

#[test]
fn fig13_parallel_equals_serial() {
    // A two-section report with repeat cells (distinct seeds) via ctx.map.
    reports_match("fig13");
}

#[test]
fn ablations_parallel_equals_serial() {
    // Three independent sub-studies, including the custom-group scenario.
    reports_match("ablations");
}

#[test]
fn multirack_parallel_equals_serial() {
    // Multi-rack cells run per-switch engine fabrics; the fan-out must
    // stay invisible exactly like the single-rack experiments.
    reports_match("multirack");
}

/// `Topology::single_rack()` (the default) must reproduce the
/// pre-topology simulator bit for bit. These numbers were captured from
/// the seed-state single-switch event loop before the fabric refactor;
/// any drift here means the single-rack fast path changed behaviour.
#[test]
fn single_rack_topology_reproduces_seed_state_run() {
    let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 0.0);
    s.warmup_ns = 4_000_000;
    s.measure_ns = 20_000_000;
    s.offered_rps = s.capacity_rps() * 0.6;
    s.seed = 7;
    assert_eq!(s.topology, Topology::single_rack());

    let r = Sim::run(s);
    assert_eq!(r.generated, 37568);
    assert_eq!(r.completed, 37568);
    assert_eq!(r.client_redundant, 0);
    assert_eq!(r.client_clone_wins, 8761);
    assert_eq!(
        r.switch,
        SwitchCounters {
            requests: 37570,
            cloned: 23744,
            clone_skipped_busy: 13826,
            clone_skipped_uncloneable: 0,
            clone_forced_multipacket: 0,
            recirculated: 23744,
            responses: 55690,
            responses_filtered: 18072,
            filter_overwrites: 797,
            routed_plain: 0,
            dropped_unroutable: 0,
            jsq_fallbacks: 0,
        }
    );
    assert_eq!(
        r.per_switch,
        vec![r.switch],
        "one switch, equal to the merge"
    );
    assert_eq!(r.server_clone_drops, 5712);
    assert_eq!(r.server_idle_reports, 42664);
    assert_eq!(r.server_responses, 55689);
    assert_eq!(r.packets_lost, 0);
    assert_eq!(
        r.per_server_served,
        vec![9369, 9159, 9450, 9189, 9238, 9284]
    );
    assert_eq!(r.latency.p50_p99_p999(), (23039, 124927, 638975));
}

/// A 4-rack seed-7 scenario for the sharding cases: enough clients that
/// every rack generates traffic and the spine carries real load.
fn four_rack_scenario() -> Scenario {
    let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 0.0);
    s.warmup_ns = 2_000_000;
    s.measure_ns = 10_000_000;
    s.n_clients = 4;
    s.offered_rps = s.capacity_rps() * 0.6;
    s.seed = 7;
    s.topology = Topology::uniform(4);
    s
}

/// Every field of a [`netclone::cluster::RunResult`], byte for byte —
/// the histogram, the per-switch counter vector, the throughput series,
/// the event count, everything `Debug` reaches.
fn result_bytes(r: &netclone::cluster::RunResult) -> String {
    format!("{r:?}")
}

/// The tentpole guarantee: sharding is an execution strategy, not a
/// model change. For any shard count the merged `RunResult` — including
/// `per_switch` counters and the total event count — must be
/// byte-identical to the serial run.
#[test]
fn sharded_run_equals_serial_byte_for_byte() {
    let serial = result_bytes(&Sim::run(four_rack_scenario()));
    for shards in [2, 3, 4, 16] {
        let sharded = result_bytes(&Sim::run_with_shards(four_rack_scenario(), shards));
        assert_eq!(serial, sharded, "shards={shards} diverged from serial");
    }
}

/// Sharding must also be invisible under failure injections: the
/// fabric-wide control events (switch failure, reactivation, server
/// removal) are broadcast to every shard under one shared key.
#[test]
fn sharded_run_equals_serial_under_failures() {
    let mut s = four_rack_scenario();
    s.faults.faults = vec![
        Fault::Reboot(SwitchFailurePlan {
            fail_at_ns: 4_000_000,
            reactivate_at_ns: 5_000_000,
            bringup_ns: 1_000_000,
        }),
        Fault::ServerStop(ServerFailurePlan {
            sid: 1,
            fail_at_ns: 3_000_000,
            removed_at_ns: 3_500_000,
        }),
    ];
    let serial = result_bytes(&Sim::run(s.clone()));
    let sharded = result_bytes(&Sim::run_with_shards(s, 4));
    assert_eq!(serial, sharded);
}

/// The coordinator scheme concentrates all control traffic on rack 0's
/// shard while the clients answer from every other shard — the most
/// cross-shard-chatty scheme in the registry.
#[test]
fn sharded_run_equals_serial_with_coordinator() {
    let mut s = four_rack_scenario();
    s.scheme = Scheme::Laedge;
    let serial = result_bytes(&Sim::run(s.clone()));
    let sharded = result_bytes(&Sim::run_with_shards(s, 4));
    assert_eq!(serial, sharded);
}

/// Experiment-level parallelism (`--jobs`) and run-level sharding
/// (`--shards`) compose: a report produced with both turned up is
/// byte-identical to the serial-serial one.
#[test]
fn multirack_report_with_jobs_and_shards_equals_serial() {
    let exp = find("multirack").expect("registry id");
    let serial = (exp.run)(&RunCtx::new(Scale::Smoke));
    let both = (exp.run)(&RunCtx::new(Scale::Smoke).with_jobs(8).with_shards(0));
    assert_eq!(
        serial.to_json(),
        both.to_json(),
        "jobs×shards diverged from serial"
    );
}
