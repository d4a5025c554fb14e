//! Figure 10: "Performance with RackSched under homogeneous and
//! heterogeneous workloads."
//!
//! Baseline vs NetClone vs NetClone w/ RackSched, for Exp(25) and
//! Bimodal(90%-25,10%-250), with homogeneous servers (6 × 15 worker
//! threads) and heterogeneous ones (3 × 15 + 3 × 8 threads, §5.4).
//!
//! Expected shape: "NetClone with RackSched achieves the best
//! performance … performs better with heterogeneous workloads"; in
//! homogeneous settings it can trail plain NetClone at very high loads
//! (more tracked-vs-actual state mismatches).

use netclone_workloads::{bimodal_25_250, exp25};

use crate::calib;
use crate::harness::{Experiment, RunCtx};
use crate::scenario::{Scenario, ServerSpec};
use crate::scheme::Scheme;
use crate::sweep::{capacity_fractions, per_scheme, run_sweeps, Figure};

const TITLE: &str = "NetClone + RackSched under homogeneous/heterogeneous workers";

fn hetero_servers() -> Vec<ServerSpec> {
    let mut v = vec![
        ServerSpec {
            workers: calib::SYNTHETIC_WORKERS
        };
        3
    ];
    v.extend(vec![
        ServerSpec {
            workers: calib::KV_WORKERS
        };
        3
    ]);
    v
}

/// Runs the figure on the given context.
pub fn run(ctx: &RunCtx) -> Figure {
    let schemes = [Scheme::Baseline, Scheme::NETCLONE, Scheme::NETCLONE_RS];
    let mut specs = Vec::new();
    for wl in [exp25(), bimodal_25_250()] {
        for hetero in [false, true] {
            let mut template = Scenario::synthetic_default(Scheme::Baseline, wl, 1.0);
            if hetero {
                template.servers = hetero_servers();
            }
            template.warmup_ns = ctx.scale.warmup_ns();
            template.measure_ns = ctx.scale.measure_ns();
            let rates = capacity_fractions(&template, 0.1, 0.95, ctx.scale.sweep_points());
            let panel = format!(
                "{}-{}",
                if wl.label().starts_with("Exp") {
                    "Exp"
                } else {
                    "Bimodal"
                },
                if hetero {
                    "Heterogeneous"
                } else {
                    "Homogeneous"
                }
            );
            specs.extend(per_scheme(&panel, &template, &schemes, &rates));
        }
    }
    Figure {
        id: "fig10",
        title: TITLE,
        panels: run_sweeps(ctx, "fig10", specs),
    }
}

/// Figure 10 in the experiment registry.
pub const EXPERIMENT: Experiment = Experiment {
    id: "fig10",
    title: TITLE,
    tags: &["figure", "sweep", "racksched"],
    topology: "single-rack",
    run: |ctx| run(ctx).into_report(),
};
