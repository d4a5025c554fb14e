//! RNG-stream pinning for the packet-loss path.
//!
//! Loss is a `FaultKind::Loss` window on the fault timeline, and `Sim`
//! only materialises the per-rack loss streams when the timeline holds
//! one; the zero-loss fast path must not draw from (or even construct)
//! the loss stream. These pins guarantee the optimisation cannot
//! silently shift any seeded stream:
//!
//! * the zero-loss pin lives in `tests/harness_determinism.rs`
//!   (`single_rack_topology_reproduces_seed_state_run`) — if skipping the
//!   loss RNG perturbed the other streams, that test would fail;
//! * the lossy pin below was captured *before* the zero-loss fast path
//!   existed, so the lossy stream provably draws at the exact same
//!   points as the original always-constructed implementation. A window
//!   over the whole run, [`Fault::loss`], draws at every traversal.

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
    assert_eq!(r.packets_lost, 2269, "loss stream shifted");
    assert_eq!(r.generated, 37568);
    assert_eq!(r.completed, 36503);
    assert_eq!(r.client_clone_wins, 9019);
    assert_eq!(r.latency.p50_p99_p999(), (22783, 123903, 573439));
}

/// Lossy runs shard too: each rack draws from its own seeded loss
/// stream *in its own event order*, so the draw sequence is a per-rack
/// property no shard count can perturb. Seed-7, 1% loss, 4 racks.
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
/// together; these pins fix the *order* of loss draws through the upper
/// tier — one draw per upper hop, in hop order, from the executing rack's
/// stream — for the switch-side scheme, the client-side one, and the
/// coordinator's route through the spine. Recorded with the spine as a
/// `PlainL3Switch` engine pass, before the tier was compiled to a table.
#[test]
fn lossy_leaf_spine_runs_reproduce_pinned_upper_tier_draws() {
    let r = Sim::run(lossy_multirack(Scheme::NETCLONE));
    assert_eq!(r.packets_lost, 2713, "loss stream shifted");
    assert_eq!(r.generated, 18923);
    assert_eq!(r.completed, 18455);
    assert_eq!(r.client_clone_wins, 8522);
    assert_eq!(r.events, 263029);
    assert_eq!(r.latency.p50_p99_p999(), (21247, 87039, 165887));
    assert_eq!(r.per_switch[4].routed_plain, 54280, "spine window");

    let r = Sim::run(lossy_multirack(Scheme::CClone));
    assert_eq!(r.packets_lost, 3187, "loss stream shifted");
    assert_eq!(r.completed, 18851);
    assert_eq!(r.events, 307330);
    assert_eq!(r.per_switch[4].routed_plain, 54655, "spine window");

    // `completed` stays unpinned: LÆDGE leaks coordinator slots under
    // loss (ROADMAP item 4a), and repairing that must not touch this pin.
    let r = Sim::run(lossy_multirack(Scheme::Laedge));
    assert_eq!(r.packets_lost, 974, "loss stream shifted");
    assert_eq!(r.events, 96405);
    assert_eq!(r.per_switch[4].routed_plain, 14733, "spine window");
}

/// The same for the three-tier walk (agg → core → agg, three draws) with
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
    assert_eq!(r.packets_lost, 6234, "loss stream shifted");
    assert_eq!(r.generated, 35533);
    assert_eq!(r.completed, 32479);
    assert_eq!(r.client_clone_wins, 5828);
    assert_eq!(r.events, 517626);
    assert_eq!(r.latency.p50_p99_p999(), (120831, 364543, 1589247));
    // Switch order: 8 leaves, 8 aggregation switches, 4 cores.
    let cores: Vec<u64> = r.per_switch[16..].iter().map(|c| c.routed_plain).collect();
    assert_eq!(cores, [20207, 20030, 19979, 20308], "core windows");
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
