//! The adversarial scenario suite: heavy tails, hot keys, and mid-run
//! degradation, as a seed-pinned policy shootout.
//!
//! The paper's sweeps (Figs. 7–16) are uniform and failure-free, but
//! NetClone's value proposition is tail latency *under adversity*. This
//! experiment runs NetClone against LÆDGE and plain duplication
//! (C-Clone) across four adversarial shapes:
//!
//! * **bimodal** — the paper's 90/10 25 µs/250 µs mix, the mild case;
//! * **heavytail** — bounded-Pareto classes (α = 1.3, 5 µs–2.5 ms): the
//!   p999 class sits two orders of magnitude past the median, so one
//!   unlucky draw dominates a request's fate and racing two servers
//!   ([`Scheme::CClone`] always, NetClone when both targets look idle)
//!   is the only lever;
//! * **zipf-hotkey** — a KV GET mix over a Zipf-0.99 population with a
//!   cache-aware hit/miss cost split ([`HotKeyCost`]): hot keys are
//!   cheap hits, the Zipf tail pays a 10× miss path — service bimodality
//!   induced by *key popularity*, the Ditto-style fidelity shape;
//! * **slowdown** — a gray failure: mid-window, one server's service
//!   times inflate 4× ([`FaultKind::Slowdown`]) and recover later. The switch
//!   never removes the server (it still answers), so fail-stop handling
//!   does nothing and only cloning can route a request's *second* copy
//!   around the slow machine;
//! * **drain** — a 4-rack leaf/spine fabric where a server-bearing leaf
//!   stops forwarding mid-window and returns with cold soft state
//!   ([`FaultKind::Drain`]) — the multi-rack degradation case.
//!
//! Both degradations are [`Scenario::faults`] entries. Every fault edge is
//! a fabric-domain-0 control event, so serial
//! and sharded runs are byte-identical (CI diffs `--shards 1` vs
//! `--shards 4` on this experiment's JSON).

use netclone_kvstore::{HotKeyCost, ServiceCostModel};
use netclone_stats::Report;
use netclone_workloads::{bimodal_25_250, exp25, heavy_tail_25};

use crate::harness::{Experiment, RunCtx};
use crate::scenario::{Fault, FaultKind, Scenario, Workload};
use crate::scheme::Scheme;
use crate::sweep::{capacity_fractions, per_scheme, run_sweeps, sweep_table, Panel};
use crate::topology::Topology;

const TITLE: &str = "Adversarial shootout: heavy tails, hot keys, mid-run degradation";

/// The adversarial scenario kinds, in report order.
pub const KINDS: [&str; 5] = ["bimodal", "heavytail", "zipf-hotkey", "slowdown", "drain"];

/// Schemes under test: the in-network policy, the coordinator policy,
/// and unconditional client duplication.
pub const SCHEMES: [Scheme; 3] = [Scheme::NETCLONE, Scheme::Laedge, Scheme::CClone];

/// Load fractions swept (of each template's own capacity; duplication
/// doubles its effective load, so the sweep tops out below saturation
/// for the single-copy schemes and *above* it for C-Clone — that
/// asymmetry is the point of the comparison).
pub const LOAD_RANGE: (f64, f64) = (0.3, 0.7);

/// The hot-key split of the zipf-hotkey scenario: top 1 000 ranks of a
/// 10 000-key population resident, misses 10× the Redis hit cost.
pub fn hot_key_model() -> HotKeyCost {
    HotKeyCost::redis_with_backing_store(1_000)
}

/// The scenario template of one adversarial kind (offered load filled in
/// by the sweep). Degradation windows sit at the middle half of the
/// measurement window, so they scale with `--scale`.
pub fn scenario(kind: &str, scheme: Scheme, ctx: &RunCtx) -> Scenario {
    let mut s = match kind {
        "bimodal" => Scenario::synthetic_default(scheme, bimodal_25_250(), 1.0),
        "heavytail" => Scenario::synthetic_default(scheme, heavy_tail_25(), 1.0),
        "zipf-hotkey" => {
            let mut s = Scenario::kv_default(
                scheme,
                Workload::Kv {
                    get_frac: 0.99,
                    scan_count: 100,
                    objects: 10_000,
                    zipf_theta: 0.99,
                    cost: ServiceCostModel::redis(),
                },
                1.0,
            );
            s.hot_key = Some(hot_key_model());
            s
        }
        "slowdown" => Scenario::synthetic_default(scheme, exp25(), 1.0),
        "drain" => {
            let mut s = Scenario::synthetic_default(scheme, exp25(), 1.0);
            s.topology = Topology::uniform(4);
            s
        }
        other => panic!("unknown adversarial kind {other:?}"),
    };
    s.warmup_ns = ctx.scale.warmup_ns();
    s.measure_ns = ctx.scale.measure_ns();
    let degradation = match kind {
        "slowdown" => FaultKind::Slowdown {
            sid: 0,
            factor: 4.0,
        },
        // Rack 3 holds server 3 and no client (round-robin placement:
        // clients 0–1 → racks 0–1) and is not the coordinator's rack
        // (rack 0), so every scheme keeps its control path.
        "drain" => FaultKind::Drain { rack: 3 },
        _ => return s,
    };
    s.faults.faults.push(Fault {
        start_ns: s.warmup_ns + s.measure_ns / 4,
        end_ns: s.warmup_ns + 3 * s.measure_ns / 4,
        kind: degradation,
    });
    s
}

/// Runs the shootout on the given context: one panel per kind, one
/// series per scheme.
pub fn run(ctx: &RunCtx) -> Vec<Panel> {
    shootout(ctx, "adversarial", &KINDS, scenario)
}

/// Sweeps [`SCHEMES`] over [`LOAD_RANGE`] of each kind's own capacity,
/// one panel per kind — the shape this suite and `chaos` share. Rates
/// come from each kind's own template (the heavy-tail and hot-key models
/// shift the mean service time), measured once per kind so every scheme
/// sweeps the identical offered loads.
pub(crate) fn shootout(
    ctx: &RunCtx,
    label: &str,
    kinds: &[&str],
    scenario: fn(&str, Scheme, &RunCtx) -> Scenario,
) -> Vec<Panel> {
    let mut specs = Vec::new();
    for &kind in kinds {
        let template = scenario(kind, Scheme::Baseline, ctx);
        let (lo, hi) = LOAD_RANGE;
        let rates = capacity_fractions(&template, lo, hi, ctx.scale.sweep_points());
        specs.extend(per_scheme(kind, &template, &SCHEMES, &rates));
    }
    run_sweeps(ctx, label, specs)
}

/// Renders the shootout as one table: kind × scheme × load rows with
/// the tail percentiles and the clone-win diagnostic.
pub fn report(panels: &[Panel]) -> Report {
    Report::new("adversarial", TITLE).with_table(sweep_table(
        panels,
        "scenario",
        &[
            ("p999 (us)", |r| format!("{:.1}", r.percentiles_us().2)),
            ("clone-win ratio", |r| format!("{:.3}", r.clone_win_ratio())),
        ],
    ))
}

/// The adversarial shootout in the experiment registry.
pub const EXPERIMENT: Experiment = Experiment {
    id: "adversarial",
    title: TITLE,
    tags: &["table", "sweep", "adversarial", "degradation", "laedge"],
    topology: "mixed",
    run: |ctx| report(&run(ctx)),
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn smoke_run_covers_every_cell_and_netclone_wins_under_slowdown() {
        let ctx = RunCtx::new(Scale::Smoke).with_jobs(crate::harness::default_jobs());
        let panels = run(&ctx);
        let names: Vec<&str> = panels.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, KINDS);
        for p in &panels {
            assert_eq!(
                p.runs().count(),
                SCHEMES.len() * Scale::Smoke.sweep_points()
            );
            for r in p.runs() {
                assert!(r.completed > 0, "{} {}", p.name, r.scheme);
            }
        }
        // The acceptance shape: under the gray-failure slowdown, cloning
        // with the idle signal beats unconditional duplication on p99 at
        // the peak load point (C-Clone's doubled load saturates first).
        let slowdown = &panels[3];
        let nc = slowdown.peak("NetClone").expect("series").p99_us();
        let dup = slowdown.peak("C-Clone").expect("series").p99_us();
        assert!(nc < dup, "slowdown p99: NetClone {nc} >= C-Clone {dup}");
        // The drain cells actually exercised the drain: packets were
        // lost while the leaf was down.
        assert!(
            panels[4].runs().all(|r| r.packets_lost > 0),
            "drain cells lost no packets"
        );
        assert!(report(&panels).to_markdown().contains("adversarial"));
    }
}
