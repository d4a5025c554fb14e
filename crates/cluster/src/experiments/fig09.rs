//! Figure 9: "Impact of the number of servers."
//!
//! Baseline vs NetClone at 2, 4, and 6 worker servers under Exp(25).
//!
//! Expected shape (§5.3.2): NetClone keeps lower tail latency at every
//! scale; with 2 or 4 servers it may do *worse* than the baseline at very
//! high loads (clone-drop processing cost + herding on a small idle pool),
//! and the effect fades at 6 servers.

use netclone_workloads::exp25;

use crate::calib;
use crate::harness::{Experiment, RunCtx};
use crate::scenario::{Scenario, ServerSpec};
use crate::scheme::Scheme;
use crate::sweep::{capacity_fractions, run_sweeps, Figure, SweepSpec};

const TITLE: &str = "Impact of the number of servers (Exp(25); 2/4/6 workers)";

/// Runs the figure on the given context.
pub fn run(ctx: &RunCtx) -> Figure {
    let mut specs = Vec::new();
    for n_servers in [2usize, 4, 6] {
        let mut template = Scenario::synthetic_default(Scheme::Baseline, exp25(), 1.0);
        template.servers = vec![
            ServerSpec {
                workers: calib::SYNTHETIC_WORKERS
            };
            n_servers
        ];
        template.warmup_ns = ctx.scale.warmup_ns();
        template.measure_ns = ctx.scale.measure_ns();
        // "very high loads" included: run past the knee.
        let rates = capacity_fractions(&template, 0.1, 1.0, ctx.scale.sweep_points());
        for scheme in [Scheme::Baseline, Scheme::NETCLONE] {
            let mut t = template.clone();
            t.scheme = scheme;
            specs.push(SweepSpec {
                panel: format!("{n_servers} servers"),
                scheme: match (scheme, n_servers) {
                    (Scheme::Baseline, 2) => "Baseline(2)",
                    (Scheme::Baseline, 4) => "Baseline(4)",
                    (Scheme::Baseline, _) => "Baseline(6)",
                    (_, 2) => "NetClone(2)",
                    (_, 4) => "NetClone(4)",
                    (_, _) => "NetClone(6)",
                },
                template: t,
                rates: rates.clone(),
            });
        }
    }
    Figure {
        id: "fig09",
        title: TITLE,
        panels: run_sweeps(ctx, "fig09", specs),
    }
}

/// Figure 9 in the experiment registry.
pub const EXPERIMENT: Experiment = Experiment {
    id: "fig09",
    title: TITLE,
    tags: &["figure", "sweep", "scalability"],
    topology: "single-rack",
    run: |ctx| run(ctx).into_report(),
};
