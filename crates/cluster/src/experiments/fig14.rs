//! Figure 14: "Experimental results with a low service-time variability
//! (p = 0.001)."
//!
//! Same protocol as Fig. 7(a)/(b) but with the low-variability jitter.
//! Expected shape: "NetClone can decrease tail latency even if the
//! service-time variability is low … performance improvement slightly
//! decreases."

use netclone_workloads::{bimodal_25_250, exp25, Jitter};

use crate::harness::{Experiment, RunCtx};
use crate::scenario::Scenario;
use crate::scheme::Scheme;
use crate::sweep::{capacity_fractions, per_scheme, run_sweeps, Figure};

const TITLE: &str = "Low service-time variability (p = 0.001)";

/// Runs the figure on the given context.
pub fn run(ctx: &RunCtx) -> Figure {
    let schemes = [Scheme::Baseline, Scheme::CClone, Scheme::NETCLONE];
    let mut specs = Vec::new();
    for wl in [exp25(), bimodal_25_250()] {
        let mut template = Scenario::synthetic_default(Scheme::Baseline, wl, 1.0);
        template.jitter = Jitter::LOW;
        template.warmup_ns = ctx.scale.warmup_ns();
        template.measure_ns = ctx.scale.measure_ns();
        let rates = capacity_fractions(&template, 0.08, 0.95, ctx.scale.sweep_points());
        specs.extend(per_scheme(&wl.label(), &template, &schemes, &rates));
    }
    Figure {
        id: "fig14",
        title: TITLE,
        panels: run_sweeps(ctx, "fig14", specs),
    }
}

/// Figure 14 in the experiment registry.
pub const EXPERIMENT: Experiment = Experiment {
    id: "fig14",
    title: TITLE,
    tags: &["figure", "sweep", "low-variability"],
    topology: "single-rack",
    run: |ctx| run(ctx).into_report(),
};
