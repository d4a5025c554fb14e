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
use netclone_cluster::scenario::MAX_SLOWDOWN_FACTOR;
use netclone_cluster::{
    Fault, FaultKind, FaultTimeline, RetryPolicy, Scenario, Scheme, Sim, Topology,
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
    if loss {
        s.faults.faults.push(Fault::loss(0.01));
    }
    s
}

/// A time anywhere on the clock, drawn inside the 2 ms test horizon
/// four times in six so that most windows open inside the run.
fn any_time() -> impl Strategy<Value = u64> {
    let horizon = || 0u64..2_000_000;
    prop_oneof![
        horizon(),
        horizon(),
        horizon(),
        horizon(),
        any::<u64>(),
        (u64::MAX - 2_000_000)..=u64::MAX,
    ]
}

/// Every [`FaultKind`] with each field over its whole range: targets
/// past the fleet or the fabric, factors from zero and NaN to ±∞,
/// bring-ups up to `u64::MAX`, and loss probabilities over every `f64`
/// bit pattern. In-range targets are drawn three times in four, and
/// in-range probabilities half the time.
fn any_fault() -> impl Strategy<Value = Fault> {
    let sid = || prop_oneof![0u16..4, 0u16..4, 0u16..4, any::<u16>()];
    let rack = || prop_oneof![0usize..4, 0usize..4, 0usize..4, any::<usize>()];
    let factor = prop_oneof![
        Just(0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(1e-300),
        Just(1e300),
        Just(MAX_SLOWDOWN_FACTOR),
        0.1f64..20.0,
    ];
    let flap = prop_oneof![2u64..64, 2u64..64, 0u64..2, any::<u64>()];
    let bringup = prop_oneof![
        0u64..1_000_000,
        0u64..1_000_000,
        any::<u64>(),
        Just(u64::MAX)
    ];
    let edge_prob = prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.0),
        Just(1.0),
        Just(f64::MIN_POSITIVE),
        any::<f64>(),
        any::<u64>().prop_map(f64::from_bits),
    ];
    let prob = prop_oneof![edge_prob, 0.0f64..1.0];
    let kind = prop_oneof![
        (sid(), factor).prop_map(|(sid, factor)| FaultKind::Slowdown { sid, factor }),
        rack().prop_map(|rack| FaultKind::Drain { rack }),
        (rack(), flap).prop_map(|(rack, factor)| FaultKind::LinkFlap { rack, factor }),
        bringup.prop_map(|bringup_ns| FaultKind::Reboot { bringup_ns }),
        sid().prop_map(|sid| FaultKind::ServerStop { sid }),
        prob.prop_map(|prob| FaultKind::Loss { prob }),
    ];
    (any_time(), any_time(), kind).prop_map(|(a, b, kind)| Fault {
        start_ns: a.min(b),
        end_ns: a.max(b),
        kind,
    })
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
    /// drain, link flap, switch reboot, whole-run loss) with or without a
    /// client [`RetryPolicy`] are still shard-count invariant — every fault edge
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
            let mut faults = std::mem::take(&mut s.faults.faults);
            if let Some((sid, start, dur, f10)) = slow {
                faults.push(Fault {
                    start_ns: start,
                    end_ns: start + dur,
                    kind: FaultKind::Slowdown {
                        sid: (sid % s.servers.len()) as u16,
                        factor: f64::from(f10) / 10.0,
                    },
                });
            }
            if let Some((sid, fail, detect)) = stop {
                faults.push(Fault {
                    start_ns: fail,
                    end_ns: fail + detect,
                    kind: FaultKind::ServerStop {
                        sid: (sid % s.servers.len()) as u16,
                    },
                });
            }
            // Drains and flaps need a fabric: fold the drawn rack into
            // the shape when multi-rack, skip the injection otherwise.
            if shape.racks >= 2 {
                if let Some((rack, start, dur)) = drain {
                    faults.push(Fault {
                        start_ns: start,
                        end_ns: start + dur,
                        kind: FaultKind::Drain {
                            rack: rack % shape.racks,
                        },
                    });
                }
                if let Some((rack, start, dur, factor)) = flap {
                    s.links = Some(netclone_linksim::LinkSpec::flat(10.0, 150_000));
                    faults.push(Fault {
                        start_ns: start,
                        end_ns: start + dur,
                        kind: FaultKind::LinkFlap {
                            rack: rack % shape.racks,
                            factor,
                        },
                    });
                }
            }
            if let Some((fail, dur, bringup)) = reboot {
                faults.push(Fault {
                    start_ns: fail,
                    end_ns: fail + dur,
                    kind: FaultKind::Reboot { bringup_ns: bringup },
                });
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any fault timeline — every kind, every field over its whole range —
    /// is refused by `validate` or runs to the end at one shard and at
    /// two: nothing `validate` lets through may panic the run.
    #[test]
    fn any_fault_timeline_is_refused_or_runs(
        racks in 1usize..=4,
        links in any::<bool>(),
        faults in proptest::collection::vec(any_fault(), 1..=3),
    ) {
        let mut s = scenario_for(
            &Shape {
                racks,
                server_racks: (0..4).map(|i| i % racks).collect(),
                client_racks: vec![0, racks - 1],
            },
            7,
            false,
        );
        s.links = links.then(|| netclone_linksim::LinkSpec::flat(10.0, 150_000));
        s.faults = FaultTimeline { faults };
        if s.validate().is_ok() {
            for shards in [1, 2] {
                let r = Sim::run_with_shards(s.clone(), shards);
                prop_assert_eq!(
                    r.lifetime.generated,
                    r.lifetime.completed + r.lifetime.lost + r.client_outstanding
                );
            }
        }
    }
}
