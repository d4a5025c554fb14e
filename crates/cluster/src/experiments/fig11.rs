//! Figure 11: "Experimental results for Redis."
//!
//! Baseline vs C-Clone vs NetClone over the Redis-style store: 1 M objects
//! (16 B keys / 64 B values), Zipf-0.99 reads, 8 worker threads, GET/SCAN
//! mixes of 99 %/1 % and 90 %/10 % (§5.5).
//!
//! Expected shape: the tail-latency gap is biggest at low loads (up to
//! 22.59× for 99/1) and shrinks with load; C-Clone matches NetClone's
//! latency but at half the throughput.

use crate::harness::{Experiment, RunCtx};
use crate::scenario::{Scenario, Workload};
use crate::scheme::Scheme;
use crate::sweep::{capacity_fractions, per_scheme, run_sweeps, Figure};

pub(crate) const TITLE_REDIS: &str = "Redis workload: p99 vs throughput (GET/SCAN mixes)";
pub(crate) const TITLE_MEMCACHED: &str = "Memcached workload: p99 vs throughput (GET/SCAN mixes)";

/// Runs the figure on the given context; `memcached` switches the cost
/// model (shared implementation with Fig. 12).
pub fn run_kv(ctx: &RunCtx, memcached: bool) -> Figure {
    let schemes = [Scheme::Baseline, Scheme::CClone, Scheme::NETCLONE];
    let id = if memcached { "fig12" } else { "fig11" };
    let mut specs = Vec::new();
    for get_frac in [0.99, 0.90] {
        let workload = if memcached {
            Workload::memcached(get_frac)
        } else {
            Workload::redis(get_frac)
        };
        let mut template = Scenario::kv_default(Scheme::Baseline, workload, 1.0);
        template.warmup_ns = ctx.scale.warmup_ns();
        template.measure_ns = ctx.scale.measure_ns().saturating_mul(2); // rarer SCANs need samples
        let rates = capacity_fractions(&template, 0.08, 0.92, ctx.scale.sweep_points());
        let panel = format!(
            "{}%-GET,{}%-SCAN",
            (get_frac * 100.0).round() as u32,
            ((1.0 - get_frac) * 100.0).round() as u32
        );
        specs.extend(per_scheme(&panel, &template, &schemes, &rates));
    }
    Figure {
        id,
        title: if memcached {
            TITLE_MEMCACHED
        } else {
            TITLE_REDIS
        },
        panels: run_sweeps(ctx, id, specs),
    }
}

/// Runs Figure 11 (Redis) on the given context.
pub fn run(ctx: &RunCtx) -> Figure {
    run_kv(ctx, false)
}

/// Figure 11 in the experiment registry.
pub const EXPERIMENT: Experiment = Experiment {
    id: "fig11",
    title: TITLE_REDIS,
    tags: &["figure", "sweep", "kv", "redis"],
    topology: "single-rack",
    run: |ctx| run(ctx).into_report(),
};
