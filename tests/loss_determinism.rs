//! Seed-state pinning for the packet-loss path.
//!
//! Loss is a `FaultKind::Loss` window on the fault timeline. Inside one,
//! each traversal — a host's access link, a leaf's egress, an upper-tier
//! hop — is lost iff a hash of the loss seed, the traversal point and the
//! packet's identity falls below the window's probability. The verdict
//! reads no RNG stream, so the pins below fix the hash and the points
//! where it is taken, not a draw order:
//!
//! * the zero-loss pin lives in `tests/harness_determinism.rs`
//!   (`single_rack_topology_reproduces_seed_state_run`) — a lossless run
//!   never hashes, and loss touches none of the per-entity streams;
//! * the lossy pins below fix every verdict of a run over the whole
//!   window ([`Fault::loss`]): a moved point, a key field dropped from
//!   the hash or a changed mixer moves them. The loss rate itself is
//!   checked by the verdict's unit tests in `crates/cluster/src/sim.rs`.

use netclone::cluster::experiments::{fattree, Scale};
use netclone::cluster::harness::RunCtx;
use netclone::cluster::{Fault, Scenario, Scheme, Sim};
use netclone::workloads::exp25;

fn lossy_scenario() -> Scenario {
    let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 0.0);
    s.warmup_ns = 4_000_000;
    s.measure_ns = 20_000_000;
    s.offered_rps = s.capacity_rps() * 0.6;
    s.seed = 7;
    s.faults.faults.push(Fault::loss(0.01));
    s
}

#[test]
fn lossy_run_reproduces_pinned_loss_stream() {
    let r = Sim::run(lossy_scenario());
    assert_eq!(r.packets_lost, 2302, "loss verdicts shifted");
    assert_eq!(r.generated, 37568);
    assert_eq!(r.completed, 36441);
    assert_eq!(r.client_clone_wins, 8968);
    assert_eq!(r.latency.p50_p99_p999(), (22527, 125951, 598015));
}

/// Lossy runs shard too: a verdict is a function of the packet and the
/// point it crosses, which no shard count can perturb. Seed-7, 1% loss,
/// 4 racks.
#[test]
fn lossy_sharded_run_equals_serial() {
    let mut s = lossy_scenario();
    s.n_clients = 4;
    s.offered_rps = s.capacity_rps() * 0.6;
    s.topology = netclone::cluster::Topology::uniform(4);
    let serial = Sim::run(s.clone());
    let sharded = Sim::run_with_shards(s, 4);
    assert_eq!(
        format!("{serial:?}"),
        format!("{sharded:?}"),
        "lossy sharded run diverged from serial"
    );
    assert!(serial.packets_lost > 0, "the loss path was not exercised");
}

/// The multi-rack lossy scenario of the pins below: 4 racks, 4 clients,
/// 30 % load, everything else as [`lossy_scenario`].
fn lossy_multirack(scheme: Scheme) -> Scenario {
    let mut s = lossy_scenario();
    s.scheme = scheme;
    s.n_clients = 4;
    s.offered_rps = s.capacity_rps() * 0.3;
    s.topology = netclone::cluster::Topology::uniform(4);
    s
}

/// The sharded-equals-serial check above compares two sides that change
/// together; these pins fix the verdicts through the upper tier — one per
/// upper hop, keyed by that switch — for the switch-side scheme, the
/// client-side one, and the coordinator's route through the spine.
#[test]
fn lossy_leaf_spine_runs_reproduce_pinned_upper_tier_draws() {
    let r = Sim::run(lossy_multirack(Scheme::NETCLONE));
    assert_eq!(r.packets_lost, 2584, "loss verdicts shifted");
    assert_eq!(r.generated, 18923);
    assert_eq!(r.completed, 18507);
    assert_eq!(r.client_clone_wins, 8615);
    assert_eq!(r.events, 263459);
    assert_eq!(r.latency.p50_p99_p999(), (21247, 87039, 169983));
    assert_eq!(r.per_switch[4].routed_plain, 54334, "spine window");

    let r = Sim::run(lossy_multirack(Scheme::CClone));
    assert_eq!(r.packets_lost, 3070, "loss verdicts shifted");
    assert_eq!(r.completed, 18848);
    assert_eq!(r.events, 307999);
    assert_eq!(r.per_switch[4].routed_plain, 54760, "spine window");

    // `completed` stays unpinned: LÆDGE leaks coordinator slots under
    // loss (ROADMAP item 4a), and repairing that must not touch this pin.
    let r = Sim::run(lossy_multirack(Scheme::Laedge));
    assert_eq!(r.packets_lost, 902, "loss verdicts shifted");
    assert_eq!(r.events, 94537);
    assert_eq!(r.per_switch[4].routed_plain, 14784, "spine window");
}

/// The same for the three-tier walk (agg → core → agg, three verdicts) with
/// congestion-aware links and background incast: the congested k=4
/// fat-tree cell of the `fattree` experiment, made lossy.
#[test]
fn lossy_fat_tree_run_reproduces_pinned_upper_tier_draws() {
    let ctx = RunCtx::new(Scale::Smoke);
    let mut s = fattree::scenario(4, 3.0, Scheme::NETCLONE, &ctx);
    s.warmup_ns = 4_000_000;
    s.measure_ns = 20_000_000;
    s.faults.faults.push(Fault::loss(0.01));
    let r = Sim::run(s);
    assert_eq!(r.packets_lost, 6138, "loss verdicts shifted");
    assert_eq!(r.generated, 35533);
    assert_eq!(r.completed, 32474);
    assert_eq!(r.client_clone_wins, 5737);
    assert_eq!(r.events, 517541);
    assert_eq!(r.latency.p50_p99_p999(), (121855, 364543, 1687551));
    // Switch order: 8 leaves, 8 aggregation switches, 4 cores.
    let cores: Vec<u64> = r.per_switch[16..].iter().map(|c| c.routed_plain).collect();
    assert_eq!(cores, [20292, 20199, 19886, 20112], "core windows");
}

#[test]
fn zero_loss_runs_are_reproducible() {
    let mut s = lossy_scenario();
    s.faults.faults.clear();
    let a = Sim::run(s.clone());
    let b = Sim::run(s);
    assert_eq!(a.generated, b.generated);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.packets_lost, 0);
    assert_eq!(a.latency.p50_p99_p999(), b.latency.p50_p99_p999());
}
