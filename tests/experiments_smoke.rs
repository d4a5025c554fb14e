//! Smoke runs of the experiment harness itself: every figure/table driver
//! executes at `Scale::Smoke` and produces sane, renderable output.

use netclone::cluster::experiments::{ablations, fig13, fig16, resources, table1, Scale};
use netclone::cluster::harness::RunCtx;

fn smoke() -> RunCtx {
    RunCtx::new(Scale::Smoke)
}

#[test]
fn table1_and_resources_render() {
    let t1 = table1::report().to_markdown();
    assert!(t1.contains("NetClone") && t1.contains("Cloning point"));
    let res = resources::report().to_markdown();
    assert!(res.contains("18.04%") && res.contains("stages"));
}

#[test]
fn fig13_smoke_has_declining_empty_queue_signal() {
    let f = fig13::run(&smoke());
    assert!(f.empty_queue.len() >= 3);
    let first = f.empty_queue.first().unwrap().1;
    let last = f.empty_queue.last().unwrap().1;
    assert!(
        first > last,
        "empty-queue fraction must decline with load: {first} -> {last}"
    );
    assert!(f.baseline_p99_us.count() >= 3);
    assert!(f.netclone_p99_us.mean() > 0.0);
    assert!(
        f.netclone_p99_us.mean() < f.baseline_p99_us.mean() * 1.5,
        "NetClone should be competitive at 90% load"
    );
    let rendered = f.into_report().to_markdown();
    assert!(rendered.contains("empty"));
}

#[test]
fn fig16_smoke_timeline_has_the_failure_hole() {
    let f = fig16::run(&smoke());
    assert!(f.mean_mrps_between(1.0, 4.5) > 0.3);
    assert!(f.mean_mrps_between(6.0, 9.0) < 0.05);
    assert!(f.mean_mrps_between(12.0, 24.0) > 0.3);
    assert!(f.into_report().to_markdown().contains("fig16"));
}

#[test]
fn filter_table_ablation_shows_collision_relief() {
    let a = ablations::filter_tables(&smoke());
    assert_eq!(a.rows.len(), 3);
    // More tables → no more leaked redundancy than fewer tables.
    let leak1 = a.rows[0].1;
    let leak4 = a.rows[2].1;
    assert!(
        leak4 <= leak1 + 0.5,
        "more filter tables must not leak more: 1 table {leak1}, 4 tables {leak4}"
    );
}

#[test]
fn group_ordering_ablation_shows_the_skew() {
    let g = ablations::group_ordering(&smoke());
    assert!(
        g.unordered_imbalance > g.ordered_imbalance * 1.15,
        "naive C(n,2) groups must skew load: ordered {:.2} vs unordered {:.2}",
        g.ordered_imbalance,
        g.unordered_imbalance
    );
}

#[test]
fn repro_refuses_an_unaddressable_fattree_radix_before_running() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "smoke", "--fattree-k", "8", "fattree"])
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("89 server ports"), "{stderr}");
    assert!(!stderr.contains("== running"), "{stderr}");
}
