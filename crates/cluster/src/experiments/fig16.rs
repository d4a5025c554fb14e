//! Figure 16: "Performance under switch failures."
//!
//! A 25-second NetClone run; the switch is stopped at 5 s and reactivated
//! at 7 s; with the modelled ~3 s pipeline bring-up, throughput recovers
//! around 10 s ("the downtime … depends on the switch architecture").
//! Recovery is complete because only soft state is lost (§3.6).

use netclone_stats::{Report, Table};
use netclone_workloads::exp25;

use crate::experiments::scale::Scale;
use crate::harness::{Experiment, RunCtx};
use crate::scenario::{Fault, Scenario, SwitchFailurePlan};
use crate::scheme::Scheme;

const TITLE: &str = "Switch failure timeline (stop 5s, reactivate 7s, up ~10s)";

/// The timeline result.
pub struct Fig16 {
    /// (second, throughput MRPS) — one row per bucket.
    pub timeline: Vec<(f64, f64)>,
    /// When the switch was stopped, s.
    pub fail_at_s: f64,
    /// When it was reactivated, s.
    pub reactivate_at_s: f64,
    /// When forwarding actually resumed, s.
    pub up_at_s: f64,
}

impl Fig16 {
    /// Renders the timeline.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(["time (s)", "throughput (MRPS)"]);
        for &(s, mrps) in &self.timeline {
            t.row([format!("{s:.1}"), format!("{mrps:.3}")]);
        }
        t
    }

    /// Converts the timeline into the unified report artifact, with the
    /// stop/reactivate/bring-up marks as section notes.
    pub fn into_report(self) -> Report {
        let note = format!(
            "stop @ {:.1}s, reactivate @ {:.1}s, forwarding up @ {:.1}s",
            self.fail_at_s, self.reactivate_at_s, self.up_at_s
        );
        let table = self.to_table();
        Report::new("fig16", TITLE)
            .with_table(table)
            .with_note(note)
    }

    /// Mean throughput over buckets whose centre falls in `[from_s, to_s)`.
    pub fn mean_mrps_between(&self, from_s: f64, to_s: f64) -> f64 {
        let pts: Vec<f64> = self
            .timeline
            .iter()
            .filter(|(s, _)| *s >= from_s && *s < to_s)
            .map(|&(_, m)| m)
            .collect();
        if pts.is_empty() {
            0.0
        } else {
            pts.iter().sum::<f64>() / pts.len() as f64
        }
    }
}

/// Runs the timeline (one simulation — the context only contributes its
/// scale). At `Scale::Full` this is the paper's exact 25 s / 5 s / 7 s
/// layout at 0.8 MRPS; smaller scales compress time by 10× (Smoke: 50×)
/// while preserving the stop/reactivate/bring-up proportions.
pub fn run(ctx: &RunCtx) -> Fig16 {
    let compress = match ctx.scale {
        Scale::Smoke => 50,
        Scale::Standard => 10,
        Scale::Full => 1,
    };
    let sec = 1_000_000_000u64 / compress;
    let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 800_000.0);
    s.warmup_ns = 0;
    s.measure_ns = 25 * sec;
    s.timeseries_bucket_ns = sec / 2;
    s.faults.faults.push(Fault::Reboot(SwitchFailurePlan {
        fail_at_ns: 5 * sec,
        reactivate_at_ns: 7 * sec,
        bringup_ns: 3 * sec,
    }));
    let run = ctx.run_sim(s);
    // rates_per_sec is per *sim* second — already the paper's y-axis; only
    // the time axis needs decompressing back to paper seconds.
    let rates = run.throughput_series.rates_per_sec();
    let bucket_s = (sec / 2) as f64 / 1e9;
    let timeline = rates
        .iter()
        .enumerate()
        .map(|(i, &r)| (i as f64 * bucket_s * compress as f64, r / 1e6))
        .collect();
    Fig16 {
        timeline,
        fail_at_s: 5.0,
        reactivate_at_s: 7.0,
        up_at_s: 10.0,
    }
}

/// Figure 16 in the experiment registry.
pub const EXPERIMENT: Experiment = Experiment {
    id: "fig16",
    title: TITLE,
    tags: &["figure", "timeline", "failure"],
    topology: "single-rack",
    run: |ctx| run(ctx).into_report(),
};
