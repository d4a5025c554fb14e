//! Property tests for sharded execution: for *any* topology (1–8 racks
//! of leaf/spine or a k = 4/6 fat-tree, arbitrary host placement) and
//! *any* shard count, the sharded run must
//! execute exactly the serial event sequence — same `(time, key)` trace,
//! same merged `RunResult`, byte for byte.
//!
//! The trace check is stronger than result equality alone: it pins the
//! *order* events fired in, which is what the conservative window
//! protocol must preserve. A serial trace is in execution order; the
//! sharded trace is the key-sorted merge of the per-shard orders (with
//! broadcast control replicas collapsed) — equality proves both that the
//! serial order is the `(time, domain, seq)` total order and that
//! sharding executed precisely that set.

use netclone_cluster::scenario::Background;
use netclone_cluster::{
    DrainPlan, Fault, FaultTimeline, LinkFlapPlan, RetryPolicy, Scenario, Scheme,
    ServerFailurePlan, Sim, SlowdownPlan, SwitchFailurePlan, Topology,
};
use netclone_workloads::exp25;
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Shape {
    racks: usize,
    server_racks: Vec<usize>,
    client_racks: Vec<usize>,
}

fn shapes() -> impl Strategy<Value = Shape> {
    // Rack indices are drawn from the widest range and folded into the
    // drawn rack count, so every placement — all-in-one-rack, fully
    // spread, client-only racks — is reachable (the same strategy as the
    // fabric proptests).
    (
        1usize..9,
        proptest::collection::vec(0usize..8, 2..=12),
        proptest::collection::vec(0usize..8, 1..=4),
    )
        .prop_map(|(racks, server_racks, client_racks)| Shape {
            racks,
            server_racks: server_racks.into_iter().map(|r| r % racks).collect(),
            client_racks: client_racks.into_iter().map(|r| r % racks).collect(),
        })
}

/// A k = 4 or 6 fat-tree with hosts on arbitrary racks: two to eight
/// shards then cut it into whole pods (up to k shards) or single racks.
fn fat_trees() -> impl Strategy<Value = (usize, Shape)> {
    (
        prop_oneof![Just(4usize), Just(6)],
        proptest::collection::vec(0usize..18, 2..=12),
        proptest::collection::vec(0usize..18, 1..=4),
    )
        .prop_map(|(k, server_racks, client_racks)| {
            let racks = k * k / 2;
            let shape = Shape {
                racks,
                server_racks: server_racks.into_iter().map(|r| r % racks).collect(),
                client_racks: client_racks.into_iter().map(|r| r % racks).collect(),
            };
            (k, shape)
        })
}

fn scenario_for(shape: &Shape, seed: u64, loss: bool) -> Scenario {
    let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 0.0);
    s.servers.truncate(2);
    while s.servers.len() < shape.server_racks.len() {
        s.servers.push(s.servers[0]);
    }
    s.n_clients = shape.client_racks.len();
    s.topology = Topology::uniform(shape.racks)
        .with_server_racks(shape.server_racks.clone())
        .with_client_racks(shape.client_racks.clone());
    // Short but non-trivial: a few thousand events through warm-up and
    // measurement, cross-rack whenever the placement forces it.
    s.warmup_ns = 300_000;
    s.measure_ns = 1_500_000;
    s.offered_rps = s.capacity_rps() * 0.5;
    s.seed = seed;
    s.loss = if loss { 0.01 } else { 0.0 };
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Execution order and results are shard-count-invariant.
    #[test]
    fn execution_order_is_shard_count_invariant(
        shape in shapes(),
        shards in 2usize..=8,
        seed in 0u64..1_000,
        loss in any::<bool>(),
    ) {
        let (serial, serial_trace) =
            Sim::run_traced(scenario_for(&shape, seed, loss), 1);
        let (sharded, sharded_trace) =
            Sim::run_traced(scenario_for(&shape, seed, loss), shards);
        prop_assert_eq!(
            serial_trace,
            sharded_trace,
            "event execution order diverged (racks={}, shards={})",
            shape.racks,
            shards
        );
        prop_assert_eq!(format!("{serial:?}"), format!("{sharded:?}"));
    }

    /// The same on fat-trees, where a shard owns whole pods whenever
    /// there are enough and the lookahead then spans three upper
    /// switches: with and without links (some with background incast
    /// on a drawn victim rack), with and without loss.
    #[test]
    fn fat_tree_execution_order_is_shard_count_invariant(
        (k, shape) in fat_trees(),
        shards in 2usize..=8,
        seed in 0u64..1_000,
        loss in any::<bool>(),
        links in proptest::option::of(proptest::option::of(0usize..18)),
    ) {
        let build = || {
            let mut s = scenario_for(&shape, seed, loss);
            s.topology = Topology::fat_tree(k)
                .with_server_racks(shape.server_racks.clone())
                .with_client_racks(shape.client_racks.clone());
            if let Some(incast) = links {
                s.links = Some(netclone_linksim::LinkSpec::flat(10.0, 150_000));
                s.background = incast.map(|victim| Background {
                    rps: 200_000.0,
                    wire_bytes: 1_500,
                    victim_rack: victim % shape.racks,
                });
            }
            s
        };
        let (serial, serial_trace) = Sim::run_traced(build(), 1);
        let (sharded, sharded_trace) = Sim::run_traced(build(), shards);
        prop_assert_eq!(
            serial_trace,
            sharded_trace,
            "fat-tree execution order diverged (k={}, shards={})",
            k,
            shards
        );
        prop_assert_eq!(format!("{serial:?}"), format!("{sharded:?}"));
    }

    /// Composed [`FaultTimeline`]s (any mix of slowdown, server stop,
    /// drain, link flap, and switch reboot) with or without a client
    /// [`RetryPolicy`] are still shard-count invariant — every fault edge
    /// and retry tick is a fabric-domain-0 control event — and the
    /// clients' whole-run conservation identity `generated == completed +
    /// lost + outstanding` holds at run end, retries and evictions
    /// included. Draws that `validate()` rejects (a stop overlapping a
    /// slowdown of the same server) are skipped.
    #[test]
    fn fault_timelines_conserve_and_are_shard_count_invariant(
        shape in shapes(),
        shards in 2usize..=8,
        seed in 0u64..1_000,
        loss in any::<bool>(),
        retry in proptest::option::of((60_000u64..300_000, 0u32..4, 0u64..64)),
        slow in proptest::option::of((0usize..16, 200_000u64..900_000, 100_000u64..800_000, 15u32..80)),
        stop in proptest::option::of((0usize..16, 200_000u64..900_000, 1u64..600_000)),
        drain in proptest::option::of((0usize..8, 200_000u64..900_000, 100_000u64..800_000)),
        flap in proptest::option::of((0usize..8, 200_000u64..900_000, 100_000u64..800_000, 2u64..64)),
        reboot in proptest::option::of((200_000u64..900_000, 100_000u64..600_000, 0u64..200_000)),
    ) {
        let build = || {
            let mut s = scenario_for(&shape, seed, loss);
            let mut faults = Vec::new();
            if let Some((sid, start, dur, f10)) = slow {
                faults.push(Fault::Slowdown(SlowdownPlan {
                    sid: (sid % s.servers.len()) as u16,
                    start_ns: start,
                    end_ns: start + dur,
                    factor: f64::from(f10) / 10.0,
                }));
            }
            if let Some((sid, fail, detect)) = stop {
                faults.push(Fault::ServerStop(ServerFailurePlan {
                    sid: (sid % s.servers.len()) as u16,
                    fail_at_ns: fail,
                    removed_at_ns: fail + detect,
                }));
            }
            // Drains and flaps need a fabric: fold the drawn rack into
            // the shape when multi-rack, skip the injection otherwise.
            if shape.racks >= 2 {
                if let Some((rack, start, dur)) = drain {
                    faults.push(Fault::Drain(DrainPlan {
                        rack: rack % shape.racks,
                        drain_at_ns: start,
                        restore_at_ns: start + dur,
                    }));
                }
                if let Some((rack, start, dur, factor)) = flap {
                    s.links = Some(netclone_linksim::LinkSpec::flat(10.0, 150_000));
                    faults.push(Fault::LinkFlap(LinkFlapPlan {
                        rack: rack % shape.racks,
                        start_ns: start,
                        end_ns: start + dur,
                        factor,
                    }));
                }
            }
            if let Some((fail, dur, bringup)) = reboot {
                faults.push(Fault::Reboot(SwitchFailurePlan {
                    fail_at_ns: fail,
                    reactivate_at_ns: fail + dur,
                    bringup_ns: bringup,
                }));
            }
            s.faults = FaultTimeline { faults };
            if let Some((timeout, tries, budget)) = retry {
                let mut p = RetryPolicy::new(timeout);
                p.max_retries = tries;
                // Budget 0 means "effectively unlimited" here, so both
                // the eviction-by-budget and the plain retry paths are
                // drawn.
                p.budget = if budget == 0 { u64::MAX } else { budget };
                s.retry = Some(p);
            }
            s
        };
        prop_assume!(build().validate().is_ok());
        let (serial, serial_trace) = Sim::run_traced(build(), 1);
        let (sharded, sharded_trace) = Sim::run_traced(build(), shards);
        prop_assert_eq!(
            serial_trace,
            sharded_trace,
            "fault-timeline execution order diverged (racks={}, shards={})",
            shape.racks,
            shards
        );
        prop_assert_eq!(format!("{serial:?}"), format!("{sharded:?}"));
        for r in [&serial, &sharded] {
            prop_assert_eq!(
                r.lifetime.generated,
                r.lifetime.completed + r.lifetime.lost + r.client_outstanding,
                "conservation violated: generated {} != completed {} + lost {} + outstanding {}",
                r.lifetime.generated,
                r.lifetime.completed,
                r.lifetime.lost,
                r.client_outstanding
            );
        }
    }
}
