//! Ablations of NetClone's design choices (this reproduction's additions;
//! DESIGN.md §3 lists them):
//!
//! * **Filter-table count** (§3.5 "we arrange multiple filter tables"):
//!   1 vs 2 vs 4 tables — fewer tables mean more (IDX, slot) collisions,
//!   visible as redundant responses leaking to clients.
//! * **Group ordering** (§3.3 "multiplying by two is to sustain the
//!   randomness"): ordered n·(n−1) pairs vs naive C(n,2) — the naive table
//!   skews non-cloned load onto low-numbered servers.
//! * **Cloning threshold** (§3.4's rejected alternative): clone below a
//!   queue-length threshold instead of only-when-idle. Looser thresholds
//!   clone more under load and pay for it in clone drops and tail — the
//!   "complex performance profiling" problem the paper avoids.

use netclone_stats::{Report, Table};
use netclone_workloads::exp25;

use crate::harness::{Experiment, RunCtx};
use crate::scenario::Scenario;
use crate::scheme::Scheme;

const TITLE: &str = "Design-choice ablations (filter tables, group ordering, clone threshold)";

/// Result of the filter-table-count ablation.
pub struct FilterAblation {
    /// (tables, redundant responses per 1k completions, filtered fraction).
    pub rows: Vec<(usize, f64, f64)>,
}

impl FilterAblation {
    /// Renders the rows.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new([
            "filter tables",
            "redundant responses / 1k completions",
            "filter rate",
        ]);
        for &(n, leak, rate) in &self.rows {
            t.row([n.to_string(), format!("{leak:.2}"), format!("{rate:.3}")]);
        }
        t
    }
}

/// Runs the filter-table-count ablation at mid load (cloning frequent,
/// responses dense enough for collisions).
///
/// At the paper's 2^17 slots per table, collisions are essentially
/// unobservable at testbed rates (which is the point of the sizing); the
/// ablation shrinks the tables to 2^7 slots so the *relief* extra tables
/// provide is measurable.
pub fn filter_tables(ctx: &RunCtx) -> FilterAblation {
    let rows = ctx.map("ablation:filter", vec![1usize, 2, 4], |n_tables| {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1.0);
        s.warmup_ns = ctx.scale.warmup_ns();
        s.measure_ns = ctx.scale.measure_ns();
        s.offered_rps = s.capacity_rps() * 0.5;
        s.n_filter_tables = n_tables;
        s.filter_slots_log2 = 7;
        let run = ctx.run_sim(s);
        let leak = if run.completed == 0 {
            0.0
        } else {
            run.client_redundant as f64 * 1_000.0 / run.completed as f64
        };
        (n_tables, leak, run.switch.filter_rate())
    });
    FilterAblation { rows }
}

/// Result of the group-ordering ablation.
pub struct GroupAblation {
    /// Max/min per-server served ratio with ordered n(n−1) groups.
    pub ordered_imbalance: f64,
    /// The same ratio with naive unordered C(n,2) groups.
    pub unordered_imbalance: f64,
}

impl GroupAblation {
    /// Renders the comparison.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(["group table", "max/min per-server load"]);
        t.row([
            "ordered n(n-1) (paper)".to_string(),
            format!("{:.2}", self.ordered_imbalance),
        ]);
        t.row([
            "naive C(n,2)".to_string(),
            format!("{:.2}", self.unordered_imbalance),
        ]);
        t
    }
}

fn imbalance(served: &[u64]) -> f64 {
    let max = served.iter().copied().max().unwrap_or(0) as f64;
    let min = served.iter().copied().min().unwrap_or(0).max(1) as f64;
    max / min
}

/// Runs the group-ordering ablation at high load (where non-cloned
/// forwarding to "server 1" dominates).
pub fn group_ordering(ctx: &RunCtx) -> GroupAblation {
    let mut template = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1.0);
    template.warmup_ns = ctx.scale.warmup_ns();
    template.measure_ns = ctx.scale.measure_ns();
    template.offered_rps = template.capacity_rps() * 0.85;

    // Naive: only (a, b) with a < b — every non-cloned request lands on
    // the lower-numbered candidate.
    let n = template.servers.len() as u16;
    let mut naive = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            naive.push((a, b));
        }
    }
    let mut naive_scenario = template.clone();
    naive_scenario.custom_groups = Some(naive);

    let imbalances = ctx.map(
        "ablation:groups",
        vec![template, naive_scenario],
        |scenario| imbalance(&ctx.run_sim(scenario).per_server_served),
    );
    GroupAblation {
        ordered_imbalance: imbalances[0],
        unordered_imbalance: imbalances[1],
    }
}

/// Result of the cloning-threshold ablation.
pub struct ThresholdAblation {
    /// (threshold, clone rate, clone drops per 1k requests, p99 μs) at
    /// high load.
    pub rows: Vec<(u16, f64, f64, f64)>,
}

impl ThresholdAblation {
    /// Renders the rows.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new([
            "clone if queue <",
            "clone rate",
            "clone drops / 1k reqs",
            "p99 (us)",
        ]);
        for &(thr, rate, drops, p99) in &self.rows {
            t.row([
                thr.to_string(),
                format!("{rate:.3}"),
                format!("{drops:.1}"),
                format!("{p99:.1}"),
            ]);
        }
        t
    }
}

/// Runs the cloning-threshold ablation at high load, where the condition
/// matters most.
pub fn clone_threshold(ctx: &RunCtx) -> ThresholdAblation {
    let rows = ctx.map("ablation:threshold", vec![1u16, 2, 4], |thr| {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1.0);
        s.warmup_ns = ctx.scale.warmup_ns();
        s.measure_ns = ctx.scale.measure_ns();
        s.offered_rps = s.capacity_rps() * 0.8;
        s.clone_condition = netclone_core::CloneCondition::QueueBelow(thr);
        let run = ctx.run_sim(s);
        let drops = if run.switch.requests == 0 {
            0.0
        } else {
            run.server_clone_drops as f64 * 1_000.0 / run.switch.requests as f64
        };
        (thr, run.switch.clone_rate(), drops, run.p99_us())
    });
    ThresholdAblation { rows }
}

/// Runs all three ablations into the unified report artifact.
pub fn run(ctx: &RunCtx) -> Report {
    Report::new("ablations", TITLE)
        .with_section(
            "Filter-table count (§3.5)",
            "ablation_filter_tables",
            filter_tables(ctx).to_table(),
        )
        .with_section(
            "Group ordering (§3.3)",
            "ablation_group_ordering",
            group_ordering(ctx).to_table(),
        )
        .with_section(
            "Cloning threshold (§3.4 alternative)",
            "ablation_clone_threshold",
            clone_threshold(ctx).to_table(),
        )
}

/// The ablation suite in the experiment registry.
pub const EXPERIMENT: Experiment = Experiment {
    id: "ablations",
    title: TITLE,
    tags: &["ablation", "design"],
    topology: "single-rack",
    run,
};
