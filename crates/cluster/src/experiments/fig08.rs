//! Figure 8: "Comparison with the existing solutions."
//!
//! C-Clone vs LÆDGE vs NetClone on **five** worker servers (one host is
//! dedicated to the LÆDGE coordinator, §5.3.1), for Exp(25) and
//! Bimodal(90%-25,10%-250).
//!
//! Expected shape: "NetClone provides high throughput, while LÆDGE and
//! C-Clone exhibit low throughput … LÆDGE performs even worse than
//! C-Clone since it relies on a CPU-based coordinator."

use netclone_workloads::{bimodal_25_250, exp25};

use crate::calib;
use crate::harness::{Experiment, RunCtx};
use crate::scenario::{Scenario, ServerSpec};
use crate::scheme::Scheme;
use crate::sweep::{capacity_fractions, per_scheme, run_sweeps, Figure};

const TITLE: &str =
    "Scalability comparison: C-Clone / LAEDGE / NetClone (5 workers, one host as coordinator)";

/// Runs the figure on the given context.
pub fn run(ctx: &RunCtx) -> Figure {
    let schemes = [Scheme::CClone, Scheme::Laedge, Scheme::NETCLONE];
    let mut specs = Vec::new();
    for wl in [exp25(), bimodal_25_250()] {
        let mut template = Scenario::synthetic_default(Scheme::CClone, wl, 1.0);
        template.servers = vec![
            ServerSpec {
                workers: calib::SYNTHETIC_WORKERS
            };
            5
        ];
        template.warmup_ns = ctx.scale.warmup_ns();
        template.measure_ns = ctx.scale.measure_ns();
        let rates = capacity_fractions(&template, 0.05, 0.9, ctx.scale.sweep_points());
        specs.extend(per_scheme(&wl.label(), &template, &schemes, &rates));
    }
    Figure {
        id: "fig08",
        title: TITLE,
        panels: run_sweeps(ctx, "fig08", specs),
    }
}

/// Figure 8 in the experiment registry.
pub const EXPERIMENT: Experiment = Experiment {
    id: "fig08",
    title: TITLE,
    tags: &["figure", "sweep", "comparison", "laedge"],
    topology: "single-rack",
    run: |ctx| run(ctx).into_report(),
};
