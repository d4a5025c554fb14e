//! Figure 13: "Confidence of the empty queue for state signaling."
//!
//! (a) The fraction of responses reporting an empty queue as offered load
//! sweeps 10–100 % — it declines with load but never reaches zero, which
//! is both why NetClone trails C-Clone at low load and why cloning still
//! happens at high load (§5.6.1).
//!
//! (b) Ten repeated runs at 90 % load: mean ± σ of the p99 for Baseline vs
//! NetClone — NetClone can occasionally lose a run but wins on average.

use netclone_stats::{Report, Summary, Table};
use netclone_workloads::exp25;

use crate::harness::{Experiment, RunCtx};
use crate::scenario::Scenario;
use crate::scheme::Scheme;

const TITLE: &str = "Confidence of the empty-queue signal";

/// Results of both subfigures.
pub struct Fig13 {
    /// (offered %, empty-queue fraction %) — subfigure (a).
    pub empty_queue: Vec<(f64, f64)>,
    /// p99 summary over repeats at 90 % load — subfigure (b).
    pub baseline_p99_us: Summary,
    /// NetClone's p99 summary at 90 % load.
    pub netclone_p99_us: Summary,
}

impl Fig13 {
    /// Renders subfigure (a) as a table.
    pub fn table_a(&self) -> Table {
        let mut t = Table::new(["offered load (%)", "portion of empty queues (%)"]);
        for &(load, frac) in &self.empty_queue {
            t.row([format!("{load:.0}"), format!("{frac:.1}")]);
        }
        t
    }

    /// Renders subfigure (b) as a table.
    pub fn table_b(&self) -> Table {
        let mut t = Table::new(["scheme", "mean p99 (us)", "std dev (us)", "runs"]);
        for (name, s) in [
            ("Baseline", &self.baseline_p99_us),
            ("NetClone", &self.netclone_p99_us),
        ] {
            t.row([
                name.to_string(),
                format!("{:.1}", s.mean()),
                format!("{:.1}", s.std_dev()),
                s.count().to_string(),
            ]);
        }
        t
    }

    /// Converts both subfigures into the unified report artifact.
    pub fn into_report(self) -> Report {
        let runs = self.baseline_p99_us.count();
        Report::new("fig13", TITLE)
            .with_section("(a) empty queues vs load", "fig13a", self.table_a())
            .with_section(
                format!("(b) p99 at 90% load, {runs} runs"),
                "fig13b",
                self.table_b(),
            )
    }
}

/// Runs the experiment on the given context.
pub fn run(ctx: &RunCtx) -> Fig13 {
    let mut template = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1.0);
    template.warmup_ns = ctx.scale.warmup_ns();
    template.measure_ns = ctx.scale.measure_ns();
    let cap = template.capacity_rps();

    // (a): empty-queue fraction vs load, 10%..100%.
    let loads: Vec<f64> = match ctx.scale {
        crate::experiments::Scale::Smoke => vec![10.0, 50.0, 90.0],
        _ => (1..=10).map(|i| i as f64 * 10.0).collect(),
    };
    let empty_queue = ctx.map("fig13a", loads, |pct| {
        let mut s = template.clone();
        s.offered_rps = cap * pct / 100.0;
        let run = ctx.run_sim(s);
        (pct, run.empty_queue_fraction() * 100.0)
    });

    // (b): repeated runs at 90% load with different seeds.
    let mut cells = Vec::new();
    for rep in 0..ctx.scale.repeats() {
        for scheme in [Scheme::Baseline, Scheme::NETCLONE] {
            cells.push((rep, scheme));
        }
    }
    let p99s = ctx.map("fig13b", cells, |(rep, scheme)| {
        let mut s = template.clone();
        s.scheme = scheme;
        s.offered_rps = cap * 0.9;
        s.seed = 1000 + rep as u64;
        (scheme, ctx.run_sim(s).p99_us())
    });
    let mut baseline = Summary::new();
    let mut netclone = Summary::new();
    for (scheme, p99) in p99s {
        if scheme == Scheme::Baseline {
            baseline.add(p99);
        } else {
            netclone.add(p99);
        }
    }
    Fig13 {
        empty_queue,
        baseline_p99_us: baseline,
        netclone_p99_us: netclone,
    }
}

/// Figure 13 in the experiment registry.
pub const EXPERIMENT: Experiment = Experiment {
    id: "fig13",
    title: TITLE,
    tags: &["figure", "state-signal"],
    topology: "single-rack",
    run: |ctx| run(ctx).into_report(),
};
