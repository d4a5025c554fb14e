//! Seed-pinned shape of the fat-tree oversubscription experiment
//! (`fattree`), at Smoke scale (k = 4, 8 racks, seed 7):
//!
//! * p99 inflates monotonically as the fabric thins from 1:1 to 4:1
//!   under background incast — for both schemes;
//! * NetClone's clone-win ratio degrades monotonically over the same
//!   sweep: congestion delays the idle reports the cloning decision
//!   feeds on, so clones land on busy servers and lose;
//! * drops concentrate on the victim rack's downlinks and grow with the
//!   ratio;
//! * the whole congested, multi-rack, background-traffic configuration
//!   is bit-identical under sharded execution.

use netclone_cluster::experiments::{fattree, Scale};
use netclone_cluster::harness::RunCtx;
use netclone_cluster::sweep::Panel;
use netclone_cluster::{RunResult, Sim};

fn smoke_ctx() -> RunCtx {
    RunCtx::new(Scale::Smoke).with_jobs(netclone_cluster::harness::default_jobs())
}

/// The run of `scheme` at oversubscription ratio `oversub`.
fn cell<'a>(panels: &'a [Panel], oversub: f64, scheme: &str) -> &'a RunResult {
    panels
        .iter()
        .find(|p| p.name == format!("{oversub}:1"))
        .and_then(|p| p.peak(scheme))
        .expect("cell")
}

#[test]
fn p99_inflates_and_clone_win_degrades_with_oversubscription() {
    let ctx = smoke_ctx();
    assert_eq!(fattree::radix_for(&ctx), 4);
    let r = fattree::run(&ctx);
    for scheme in ["Baseline", "NetClone"] {
        let p99s: Vec<f64> = fattree::OVERSUB
            .iter()
            .map(|&o| cell(&r, o, scheme).p99_us())
            .collect();
        eprintln!("{scheme} p99 over {:?}: {p99s:?}", fattree::OVERSUB);
        for w in p99s.windows(2) {
            assert!(
                w[1] > w[0],
                "{scheme} p99 must inflate with oversubscription: {p99s:?}"
            );
        }
    }
    let wins: Vec<f64> = fattree::OVERSUB
        .iter()
        .map(|&o| cell(&r, o, "NetClone").clone_win_ratio())
        .collect();
    eprintln!("NetClone clone-win over {:?}: {wins:?}", fattree::OVERSUB);
    assert!(wins[0] > 0.05, "cloning must matter at 1:1: {wins:?}");
    for w in wins.windows(2) {
        assert!(
            w[1] < w[0],
            "clone-win ratio must degrade with oversubscription: {wins:?}"
        );
    }
}

#[test]
fn drops_concentrate_on_victim_downlinks_and_grow() {
    let r = fattree::run(&smoke_ctx());
    let mut prev = 0u64;
    for &o in &fattree::OVERSUB {
        let run = cell(&r, o, "NetClone");
        let totals = run.link_totals.expect("links enabled");
        assert!(
            totals.down.dropped >= prev,
            "down drops must not shrink as the fabric thins"
        );
        prev = totals.down.dropped;
        // Every dropping link is a victim-rack (leaf 0) downlink.
        for l in &run.link_stats {
            if l.dropped > 0 {
                assert!(
                    l.link.starts_with("leaf0.down"),
                    "unexpected congested link {}",
                    l.link
                );
            }
        }
    }
    // The thinnest fabric must actually drop.
    assert!(prev > 0, "4:1 under incast must tail-drop");
}

#[test]
fn congested_fattree_is_bit_identical_under_sharding() {
    // One congested cell (3:1, NetClone, background incast), shortened:
    // the full warm-up is irrelevant to equivalence.
    let ctx = smoke_ctx();
    let mut s = fattree::scenario(4, 3.0, netclone_cluster::Scheme::NETCLONE, &ctx);
    s.warmup_ns = 500_000;
    s.measure_ns = 3_000_000;
    let serial = Sim::run_with_shards(s.clone(), 1);
    let sharded = Sim::run_with_shards(s, 4);
    assert_eq!(format!("{serial:?}"), format!("{sharded:?}"));
}
