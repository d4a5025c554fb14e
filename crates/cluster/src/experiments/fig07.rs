//! Figure 7: "Experimental results for synthetic workloads."
//!
//! Four panels — Exp(25), Bimodal(90%-25,10%-250), Exp(50),
//! Bimodal(90%-50,10%-500) — each plotting 99th-percentile latency versus
//! achieved throughput for Baseline, C-Clone, and NetClone on 6 worker
//! servers.
//!
//! Expected shape (paper §5.2): C-Clone's throughput is limited by static
//! cloning; NetClone keeps the baseline's maximum throughput but with
//! lower tail latency at low/mid loads (≈1.48×/1.27× average improvement
//! for the 25 μs workloads); for the 50 μs workloads the high-load
//! improvement becomes negligible.

use netclone_workloads::{bimodal_25_250, bimodal_50_500, exp25, exp50, SyntheticWorkload};

use crate::harness::{Experiment, RunCtx};
use crate::scenario::Scenario;
use crate::scheme::Scheme;
use crate::sweep::{capacity_fractions, per_scheme, run_sweeps, Figure};

const TITLE: &str =
    "Synthetic workloads: p99 latency vs throughput (Baseline / C-Clone / NetClone, 6 workers)";

/// The figure's workloads, in panel order.
pub fn workloads() -> Vec<SyntheticWorkload> {
    vec![exp25(), bimodal_25_250(), exp50(), bimodal_50_500()]
}

/// Runs the figure on the given context.
pub fn run(ctx: &RunCtx) -> Figure {
    let schemes = [Scheme::Baseline, Scheme::CClone, Scheme::NETCLONE];
    let mut specs = Vec::new();
    for wl in workloads() {
        let mut template = Scenario::synthetic_default(Scheme::Baseline, wl, 1.0);
        template.warmup_ns = ctx.scale.warmup_ns();
        template.measure_ns = ctx.scale.measure_ns();
        let rates = capacity_fractions(&template, 0.08, 0.95, ctx.scale.sweep_points());
        specs.extend(per_scheme(&wl.label(), &template, &schemes, &rates));
    }
    Figure {
        id: "fig07",
        title: TITLE,
        panels: run_sweeps(ctx, "fig07", specs),
    }
}

/// Figure 7 in the experiment registry.
pub const EXPERIMENT: Experiment = Experiment {
    id: "fig07",
    title: TITLE,
    tags: &["figure", "sweep", "synthetic"],
    topology: "single-rack",
    run: |ctx| run(ctx).into_report(),
};
