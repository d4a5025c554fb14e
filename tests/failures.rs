//! Failure-handling integration tests (§3.6): server death + control-plane
//! removal, switch power cycles, and packet loss.

use netclone::cluster::{Fault, FaultKind, Scenario, Scheme, Sim};
use netclone::workloads::exp25;
use netclone_cluster::Topology;

/// The testbed at 30% load with server 2 failing at 20 ms and removed
/// by the control plane at 30 ms.
fn server_failure_scenario() -> Scenario {
    let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 0.0);
    s.offered_rps = s.capacity_rps() * 0.3;
    s.warmup_ns = 5_000_000;
    s.measure_ns = 80_000_000;
    s.faults.faults.push(Fault {
        start_ns: 20_000_000,
        end_ns: 30_000_000,
        kind: FaultKind::ServerStop { sid: 2 },
    });
    s
}

#[test]
fn server_failure_degrades_then_recovers() {
    let r = Sim::run(server_failure_scenario());
    // Requests routed to the dead server during the 10 ms detection window
    // are lost; everything after removal completes.
    assert!(r.completed > 0);
    let lost = r.generated - r.completed;
    assert!(lost > 0, "some in-flight requests must die with the server");
    assert!(
        (lost as f64) < r.generated as f64 * 0.15,
        "losses must be bounded by the detection window: {lost}/{}",
        r.generated
    );
    // The dead server served nothing after its removal.
    assert_eq!(r.per_server_served.len(), 6);
}

#[test]
fn netclone_masks_some_failures_through_cloning() {
    // With cloning, a request whose original went to the dying server can
    // still complete via its clone. Compare losses against the baseline in
    // the identical failure scenario: NetClone should lose no more, and
    // generally fewer.
    let mut base_lost = 0;
    let mut nc_lost = 0;
    for (scheme, lost) in [
        (Scheme::Baseline, &mut base_lost),
        (Scheme::NETCLONE, &mut nc_lost),
    ] {
        let mut s = Scenario::synthetic_default(scheme, exp25(), 0.0);
        s.offered_rps = s.capacity_rps() * 0.25;
        s.warmup_ns = 5_000_000;
        s.measure_ns = 60_000_000;
        s.faults.faults.push(Fault {
            start_ns: 20_000_000,
            end_ns: 40_000_000,
            kind: FaultKind::ServerStop { sid: 0 },
        });
        let r = Sim::run(s);
        *lost = r.generated - r.completed;
    }
    assert!(
        nc_lost < base_lost,
        "cloning should mask some failure-window losses: NetClone {nc_lost} vs Baseline {base_lost}"
    );
}

/// Under Baseline the plain-L3 leaf answers `Unsupported` to the server
/// removal, so the clients must stop addressing the dead server
/// themselves: the sooner the removal, the fewer requests go unanswered.
#[test]
fn plain_l3_clients_stop_addressing_a_removed_server() {
    let outstanding = |removed_at_ns| {
        let mut s = Scenario::synthetic_default(Scheme::Baseline, exp25(), 0.0);
        s.offered_rps = s.capacity_rps() * 0.25;
        s.warmup_ns = 5_000_000;
        s.measure_ns = 60_000_000;
        s.faults.faults.push(Fault {
            start_ns: 10_000_000,
            end_ns: removed_at_ns,
            kind: FaultKind::ServerStop { sid: 0 },
        });
        Sim::run(s).client_outstanding
    };
    let (early, late) = (outstanding(20_000_000), outstanding(50_000_000));
    assert!(
        early * 2 < late,
        "an earlier removal must leave far fewer requests unanswered: {early} vs {late}"
    );
}

/// Stopping both of two servers used to pass validation, and the first
/// request after the second removal found no server to address.
#[test]
#[should_panic(expected = "stops every server")]
fn a_timeline_that_stops_every_server_is_refused_before_the_run() {
    let mut s = Scenario::synthetic_default(Scheme::CClone, exp25(), 0.0);
    s.servers.truncate(2);
    s.offered_rps = s.capacity_rps() * 0.3;
    s.warmup_ns = 1_000_000;
    s.measure_ns = 20_000_000;
    for sid in 0..2 {
        s.faults.faults.push(Fault {
            start_ns: 2_000_000,
            end_ns: 4_000_000 + u64::from(sid) * 1_000_000,
            kind: FaultKind::ServerStop { sid },
        });
    }
    Sim::run(s);
}

#[test]
fn switch_power_cycle_loses_only_soft_state() {
    let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 0.0);
    s.offered_rps = s.capacity_rps() * 0.3;
    s.warmup_ns = 0;
    s.measure_ns = 100_000_000;
    s.timeseries_bucket_ns = 10_000_000;
    s.faults.faults.push(Fault {
        start_ns: 30_000_000,
        end_ns: 40_000_000,
        kind: FaultKind::Reboot {
            bringup_ns: 10_000_000,
        },
    });
    let r = Sim::run(s);
    let rates = r.throughput_series.rates_per_sec();
    // Hole during [30ms, 50ms): bucket 3 keeps only in-flight stragglers,
    // bucket 4 is empty.
    assert!(rates[1] > 0.0, "healthy before the failure");
    assert!(
        rates[3] < rates[1] * 0.2,
        "only stragglers complete after the stop"
    );
    assert_eq!(rates[4], 0.0, "nothing completes while the switch is down");
    // Recovery buckets [60ms, 100ms) — excluding the post-run drain
    // buckets at the tail of the series.
    let recovered = rates[6..10].iter().sum::<f64>() / 4.0;
    assert!(
        recovered > rates[1] * 0.8,
        "throughput must fully recover after bring-up: {recovered} vs {}",
        rates[1]
    );
    assert!(r.packets_lost > 0, "in-flight packets die with the switch");
}

#[test]
fn random_packet_loss_does_not_wedge_anything() {
    // §3.6 "Dropped messages": response loss must not permanently occupy
    // filter slots (overwrites reclaim them), and the run must stay
    // healthy.
    let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 0.0);
    s.offered_rps = s.capacity_rps() * 0.3;
    s.warmup_ns = 5_000_000;
    s.measure_ns = 60_000_000;
    // 1% per link traversal — brutal for a data center.
    s.faults.faults.push(Fault::loss(0.01));
    let r = Sim::run(s);
    assert!(r.packets_lost > 0);
    let completion_rate = r.completed as f64 / r.generated as f64;
    assert!(
        completion_rate > 0.90,
        "most requests complete despite loss (cloning helps): {completion_rate}"
    );
    // Filter slots were reclaimed by overwrites rather than wedging.
    assert!(r.switch.responses_filtered > 0);
}

#[test]
fn cloning_masks_request_loss_better_than_baseline() {
    let mut rates = Vec::new();
    for scheme in [Scheme::Baseline, Scheme::NETCLONE] {
        let mut s = Scenario::synthetic_default(scheme, exp25(), 0.0);
        s.offered_rps = s.capacity_rps() * 0.2;
        s.warmup_ns = 5_000_000;
        s.measure_ns = 60_000_000;
        s.faults.faults.push(Fault::loss(0.02));
        let r = Sim::run(s);
        rates.push(r.completed as f64 / r.generated as f64);
    }
    assert!(
        rates[1] > rates[0],
        "two copies in flight must survive loss more often: baseline {:.3} vs netclone {:.3}",
        rates[0],
        rates[1]
    );
}

/// A 4-rack scenario under simultaneous adversity: a spine power cycle
/// AND a leaf drain, over lossy links. Used by the composition and
/// sharding tests below.
fn compound_failure_scenario() -> Scenario {
    let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 0.0);
    s.topology = Topology::uniform(4);
    s.offered_rps = s.capacity_rps() * 0.3;
    s.warmup_ns = 5_000_000;
    s.measure_ns = 60_000_000;
    s.faults.faults = vec![
        Fault {
            start_ns: 20_000_000,
            end_ns: 25_000_000,
            kind: FaultKind::Reboot {
                bringup_ns: 5_000_000,
            },
        },
        Fault {
            start_ns: 40_000_000,
            end_ns: 50_000_000,
            kind: FaultKind::Drain { rack: 3 },
        },
    ];
    s
}

#[test]
fn switch_failure_and_drain_are_sharding_invariant() {
    // Fail-stop switch events broadcast to every shard; drain events prime
    // on the drained rack's owner alone. Either way, shards=1 and shards=4
    // must execute the identical event sequence, byte for byte.
    let serial = format!("{:?}", Sim::run_with_shards(compound_failure_scenario(), 1));
    let sharded = format!("{:?}", Sim::run_with_shards(compound_failure_scenario(), 4));
    assert_eq!(serial, sharded);
}

/// Pinned seed state of the two fail-stop runs: the priming order of the
/// kill, removal, reboot and drain edges decides every control key, so
/// any reordering moves these counts.
#[test]
fn failure_runs_reproduce_the_pinned_seed_state() {
    let cases = [
        (
            "server_failure",
            server_failure_scenario(),
            (705_435, 75_758, 75_723, 0),
        ),
        (
            "compound_failure",
            compound_failure_scenario(),
            (606_523, 56_670, 47_045, 12_788),
        ),
    ];
    for (name, scenario, pinned) in cases {
        let r = Sim::run(scenario);
        assert_eq!(
            (r.events, r.generated, r.completed, r.packets_lost),
            pinned,
            "{name}: (events, generated, completed, packets_lost) drifted"
        );
    }
}

#[test]
fn drained_leaf_recovers_after_restore() {
    let mut s = compound_failure_scenario();
    s.faults.faults.remove(0); // isolate the drain
    let r = Sim::run(s);
    assert!(r.completed > 0);
    assert!(
        r.packets_lost > 0,
        "traffic through the drained leaf must be dropped"
    );
    // The drained rack holds server 3 only; it serves before and after the
    // window, so it still completes a healthy share of requests.
    assert_eq!(r.per_server_served.len(), 6);
    assert!(
        r.per_server_served[3] > 0,
        "the drained rack's server must serve again after restore"
    );
}

#[test]
fn lossy_links_compose_with_failures() {
    // §3.6 composition: random loss + spine power cycle + leaf drain in one
    // run. Nothing wedges, and the run still completes most requests.
    let mut s = compound_failure_scenario();
    s.faults.faults.push(Fault::loss(0.005));
    let r = Sim::run(s);
    assert!(r.packets_lost > 0);
    let completion_rate = r.completed as f64 / r.generated as f64;
    assert!(
        completion_rate > 0.5,
        "compound adversity must not collapse the run: {completion_rate}"
    );
}

#[test]
fn slowdown_is_gray_not_fail_stop() {
    // A slowed server keeps answering (no losses beyond zero), unlike the
    // fail-stop plan above — the two injections are distinct mechanisms.
    let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 0.0);
    s.offered_rps = s.capacity_rps() * 0.3;
    s.warmup_ns = 5_000_000;
    s.measure_ns = 60_000_000;
    let healthy = Sim::run(s.clone());
    s.faults.faults.push(Fault {
        start_ns: 20_000_000,
        end_ns: 40_000_000,
        kind: FaultKind::Slowdown {
            sid: 0,
            factor: 4.0,
        },
    });
    let slow = Sim::run(s);
    // Gray failure loses nothing: the only incompletes are the same
    // end-of-run stragglers a healthy open-loop run leaves in flight
    // (plus the queue the slow server is still draining).
    assert_eq!(slow.packets_lost, 0, "the server is slow, not dead");
    let slow_strays = slow.generated - slow.completed;
    let healthy_strays = healthy.generated - healthy.completed;
    assert!(
        slow_strays < healthy_strays + 200,
        "slowdown must not lose requests: {slow_strays} vs healthy {healthy_strays}"
    );
    assert!(
        slow.p99_us() > healthy.p99_us(),
        "the slowdown must show up in the tail: {} vs {}",
        slow.p99_us(),
        healthy.p99_us()
    );
}
