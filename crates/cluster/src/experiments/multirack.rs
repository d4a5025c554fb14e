//! Multi-rack scale-out (§3.7): the two-tier leaf/spine fabric.
//!
//! The paper deploys NetClone on one rack and sketches the multi-rack
//! story in §3.7: clone only at the client-side ToR, gate everything else
//! with `SWITCH_ID`, route plainly across the aggregation layer. This
//! experiment measures what that deployment actually costs: the same
//! fleet spread over 1, 2, and 4 racks (servers and clients round-robin),
//! swept over offered load for each scheme. Two effects compose:
//!
//! * every cross-rack RPC pays two extra switch passes plus two
//!   inter-rack link traversals each way, lifting the latency floor;
//! * each client-side ToR only learns server states from the responses
//!   *it* terminates, so its idle-tracking confidence degrades as the
//!   fleet spreads — visible in the clone-win ratio.

use netclone_stats::Report;
use netclone_workloads::exp25;

use crate::harness::{Experiment, RunCtx};
use crate::scenario::Scenario;
use crate::scheme::Scheme;
use crate::sweep::{capacity_fractions, per_scheme, run_sweeps, sweep_table, Panel};
use crate::topology::Topology;

const TITLE: &str = "Multi-rack scale-out: leaf/spine fabric (§3.7)";

/// Rack counts under test (1 = the paper's single-rack testbed).
pub const RACK_COUNTS: [usize; 3] = [1, 2, 4];

/// Schemes under test.
pub const SCHEMES: [Scheme; 2] = [Scheme::Baseline, Scheme::NETCLONE];

/// Runs the sweep on the given context: one panel per rack count, one
/// series per scheme.
pub fn run(ctx: &RunCtx) -> Vec<Panel> {
    let mut template = Scenario::synthetic_default(Scheme::Baseline, exp25(), 1.0);
    template.warmup_ns = ctx.scale.warmup_ns();
    template.measure_ns = ctx.scale.measure_ns();
    let rates = capacity_fractions(&template, 0.3, 0.9, ctx.scale.sweep_points());
    let mut specs = Vec::new();
    for racks in RACK_COUNTS {
        template.topology = Topology::uniform(racks);
        specs.extend(per_scheme(&racks.to_string(), &template, &SCHEMES, &rates));
    }
    run_sweeps(ctx, "multirack", specs)
}

/// Renders the sweep as one table: racks × scheme × load rows with the
/// paper's headline metrics plus the cloning diagnostics.
pub fn report(panels: &[Panel]) -> Report {
    Report::new("multirack", TITLE).with_table(sweep_table(
        panels,
        "racks",
        &[
            ("clone rate", |r| format!("{:.3}", r.switch.clone_rate())),
            ("clone-win ratio", |r| format!("{:.3}", r.clone_win_ratio())),
        ],
    ))
}

/// The multi-rack sweep in the experiment registry.
pub const EXPERIMENT: Experiment = Experiment {
    id: "multirack",
    title: TITLE,
    tags: &["table", "sweep", "topology", "multirack"],
    topology: "leaf/spine",
    run: |ctx| report(&run(ctx)),
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn smoke_run_covers_every_cell() {
        let ctx = RunCtx::new(Scale::Smoke).with_jobs(crate::harness::default_jobs());
        let panels = run(&ctx);
        assert_eq!(panels.len(), RACK_COUNTS.len());
        for (p, racks) in panels.iter().zip(RACK_COUNTS) {
            assert_eq!(p.name, racks.to_string());
            assert_eq!(
                p.runs().count(),
                SCHEMES.len() * Scale::Smoke.sweep_points()
            );
            for r in p.runs() {
                assert!(r.completed > 0, "{racks}r {}", r.scheme);
                let switches = if racks == 1 { 1 } else { racks + 1 };
                assert_eq!(r.per_switch.len(), switches);
            }
            // NetClone still clones — and still beats the baseline tail
            // at the peak load point — in every multi-rack shape.
            let cloned: u64 = p.points("NetClone").iter().map(|r| r.switch.cloned).sum();
            assert!(cloned > 0, "no clones at {racks} racks");
            let nc = p.peak("NetClone").expect("NetClone series").p99_us();
            let base = p.peak("Baseline").expect("Baseline series").p99_us();
            assert!(nc < base, "{racks} racks: p99 {nc} >= baseline {base}");
        }
        assert!(report(&panels).to_markdown().contains("multirack"));
    }
}
