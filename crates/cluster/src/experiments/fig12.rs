//! Figure 12: "Experimental results for Memcached."
//!
//! Identical protocol to Fig. 11 with the Memcached cost model (§5.5):
//! slightly cheaper per-op costs, same GET/SCAN mixes. Expected shape
//! matches Fig. 11 ("similar trends"); the paper reports a largest
//! improvement of 22.0× and a smallest of 1.06× for 99/1.

use crate::experiments::fig11;
use crate::harness::{Experiment, RunCtx};
use crate::sweep::Figure;

/// Runs the figure on the given context.
pub fn run(ctx: &RunCtx) -> Figure {
    fig11::run_kv(ctx, true)
}

/// Figure 12 in the experiment registry.
pub const EXPERIMENT: Experiment = Experiment {
    id: "fig12",
    title: fig11::TITLE_MEMCACHED,
    tags: &["figure", "sweep", "kv", "memcached"],
    topology: "single-rack",
    run: |ctx| run(ctx).into_report(),
};
