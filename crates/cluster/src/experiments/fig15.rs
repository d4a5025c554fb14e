//! Figure 15: "Impact of redundant response filtering."
//!
//! Baseline vs NetClone-without-filtering vs NetClone on Exp(25).
//! Expected shape (§5.6.3): at low load the unfiltered redundancy barely
//! matters; as load grows the extra responses overwhelm the client
//! receivers and the unfiltered variant becomes *worse than the baseline*.

use netclone_workloads::exp25;

use crate::harness::{Experiment, RunCtx};
use crate::scenario::Scenario;
use crate::scheme::Scheme;
use crate::sweep::{capacity_fractions, per_scheme, run_sweeps, Figure};

const TITLE: &str = "Impact of redundant response filtering (Exp(25))";

/// Runs the figure on the given context.
pub fn run(ctx: &RunCtx) -> Figure {
    let schemes = [
        Scheme::Baseline,
        Scheme::NETCLONE_NOFILTER,
        Scheme::NETCLONE,
    ];
    let mut template = Scenario::synthetic_default(Scheme::Baseline, exp25(), 1.0);
    template.warmup_ns = ctx.scale.warmup_ns();
    template.measure_ns = ctx.scale.measure_ns();
    let rates = capacity_fractions(&template, 0.1, 0.98, ctx.scale.sweep_points());
    let specs = per_scheme("Exp(25)", &template, &schemes, &rates);
    Figure {
        id: "fig15",
        title: TITLE,
        panels: run_sweeps(ctx, "fig15", specs),
    }
}

/// Figure 15 in the experiment registry.
pub const EXPERIMENT: Experiment = Experiment {
    id: "fig15",
    title: TITLE,
    tags: &["figure", "sweep", "filtering"],
    topology: "single-rack",
    run: |ctx| run(ctx).into_report(),
};
