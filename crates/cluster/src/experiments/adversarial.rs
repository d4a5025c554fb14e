//! The adversarial scenario suite: heavy tails, hot keys, and mid-run
//! degradation, as a seed-pinned policy shootout.
//!
//! The paper's sweeps (Figs. 7–16) are uniform and failure-free, but
//! NetClone's value proposition is tail latency *under adversity*. This
//! experiment runs NetClone against LÆDGE and plain duplication
//! (C-Clone) across four adversarial shapes:
//!
//! * **bimodal** — the paper's 90/10 25 µs/250 µs mix, the mild case;
//! * **heavytail** — bounded-Pareto classes (α = 1.3, 5 µs–2.5 ms): the
//!   p999 class sits two orders of magnitude past the median, so one
//!   unlucky draw dominates a request's fate and racing two servers
//!   ([`Scheme::CClone`] always, NetClone when both targets look idle)
//!   is the only lever;
//! * **zipf-hotkey** — a KV GET mix over a Zipf-0.99 population with a
//!   cache-aware hit/miss cost split ([`HotKeyCost`]): hot keys are
//!   cheap hits, the Zipf tail pays a 10× miss path — service bimodality
//!   induced by *key popularity*, the Ditto-style fidelity shape;
//! * **slowdown** — a gray failure: mid-window, one server's service
//!   times inflate 4× ([`SlowdownPlan`]) and recover later. The switch
//!   never removes the server (it still answers), so fail-stop handling
//!   does nothing and only cloning can route a request's *second* copy
//!   around the slow machine;
//! * **drain** — a 4-rack leaf/spine fabric where a server-bearing leaf
//!   stops forwarding mid-window and returns with cold soft state
//!   ([`DrainPlan`]) — the multi-rack degradation case.
//!
//! Both degradations are [`Scenario::faults`] entries. Every fault edge is
//! a fabric-domain-0 control event, so serial
//! and sharded runs are byte-identical (CI diffs `--shards 1` vs
//! `--shards 4` on this experiment's JSON).

use netclone_kvstore::{HotKeyCost, ServiceCostModel};
use netclone_stats::{Report, Table};
use netclone_workloads::{bimodal_25_250, exp25, heavy_tail_25};

use crate::harness::{Experiment, RunCtx};
use crate::metrics::RunResult;
use crate::scenario::{DrainPlan, Fault, Scenario, SlowdownPlan, Workload};
use crate::scheme::Scheme;
use crate::sweep::capacity_fractions;
use crate::topology::Topology;

const TITLE: &str = "Adversarial shootout: heavy tails, hot keys, mid-run degradation";

/// The adversarial scenario kinds, in report order.
pub const KINDS: [&str; 5] = ["bimodal", "heavytail", "zipf-hotkey", "slowdown", "drain"];

/// Schemes under test: the in-network policy, the coordinator policy,
/// and unconditional client duplication.
pub const SCHEMES: [Scheme; 3] = [Scheme::NETCLONE, Scheme::Laedge, Scheme::CClone];

/// Load fractions swept (of each template's own capacity; duplication
/// doubles its effective load, so the sweep tops out below saturation
/// for the single-copy schemes and *above* it for C-Clone — that
/// asymmetry is the point of the comparison).
pub const LOAD_RANGE: (f64, f64) = (0.3, 0.7);

/// The hot-key split of the zipf-hotkey scenario: top 1 000 ranks of a
/// 10 000-key population resident, misses 10× the Redis hit cost.
pub fn hot_key_model() -> HotKeyCost {
    HotKeyCost::redis_with_backing_store(1_000)
}

/// The scenario template of one adversarial kind (offered load filled in
/// by the sweep). Degradation windows sit at the middle half of the
/// measurement window, so they scale with `--scale`.
pub fn scenario(kind: &str, scheme: Scheme, ctx: &RunCtx) -> Scenario {
    let mut s = match kind {
        "bimodal" => Scenario::synthetic_default(scheme, bimodal_25_250(), 1.0),
        "heavytail" => Scenario::synthetic_default(scheme, heavy_tail_25(), 1.0),
        "zipf-hotkey" => {
            let mut s = Scenario::kv_default(
                scheme,
                Workload::Kv {
                    get_frac: 0.99,
                    scan_count: 100,
                    objects: 10_000,
                    zipf_theta: 0.99,
                    cost: ServiceCostModel::redis(),
                },
                1.0,
            );
            s.service_model.hot_key = Some(hot_key_model());
            s
        }
        "slowdown" => Scenario::synthetic_default(scheme, exp25(), 1.0),
        "drain" => {
            let mut s = Scenario::synthetic_default(scheme, exp25(), 1.0);
            s.topology = Topology::uniform(4);
            s
        }
        other => panic!("unknown adversarial kind {other:?}"),
    };
    s.warmup_ns = ctx.scale.warmup_ns();
    s.measure_ns = ctx.scale.measure_ns();
    let mid_start = s.warmup_ns + s.measure_ns / 4;
    let mid_end = s.warmup_ns + 3 * s.measure_ns / 4;
    match kind {
        "slowdown" => {
            s.faults.faults.push(Fault::Slowdown(SlowdownPlan {
                sid: 0,
                start_ns: mid_start,
                end_ns: mid_end,
                factor: 4.0,
            }));
        }
        "drain" => {
            // Rack 3 holds server 3 and no client (round-robin placement:
            // clients 0–1 → racks 0–1) and is not the coordinator's rack
            // (rack 0), so every scheme keeps its control path.
            s.faults.faults.push(Fault::Drain(DrainPlan {
                rack: 3,
                drain_at_ns: mid_start,
                restore_at_ns: mid_end,
            }));
        }
        _ => {}
    }
    s
}

/// One measured cell of the shootout.
pub struct Cell {
    /// The adversarial kind (one of [`KINDS`]).
    pub kind: &'static str,
    /// The full run result.
    pub run: RunResult,
}

/// The typed result: every (kind, scheme, load) cell, in sweep order.
pub struct AdversarialResult {
    /// The measured cells.
    pub cells: Vec<Cell>,
}

impl AdversarialResult {
    /// Renders the shootout as one table: kind × scheme × load rows with
    /// the tail percentiles and the clone-win diagnostic.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new([
            "scenario",
            "scheme",
            "offered (MRPS)",
            "achieved (MRPS)",
            "p50 (us)",
            "p99 (us)",
            "p999 (us)",
            "clone-win ratio",
        ]);
        for cell in &self.cells {
            let (p50, p99, p999) = cell.run.percentiles_us();
            t.row([
                cell.kind.to_string(),
                cell.run.scheme.to_string(),
                format!("{:.3}", cell.run.offered_rps / 1e6),
                format!("{:.3}", cell.run.achieved_mrps()),
                format!("{p50:.1}"),
                format!("{p99:.1}"),
                format!("{p999:.1}"),
                format!("{:.3}", cell.run.clone_win_ratio()),
            ]);
        }
        t
    }

    /// Converts the shootout into the unified report artifact.
    pub fn into_report(self) -> Report {
        let table = self.to_table();
        Report::new("adversarial", TITLE).with_table(table)
    }

    /// p99 of the given (kind, scheme) series at the highest load point
    /// (for shape assertions).
    pub fn p99_at_peak(&self, kind: &str, scheme: &str) -> Option<f64> {
        self.cells
            .iter()
            .rev()
            .find(|c| c.kind == kind && c.run.scheme == scheme)
            .map(|c| c.run.p99_us())
    }
}

/// Runs the shootout on the given context.
pub fn run(ctx: &RunCtx) -> AdversarialResult {
    let mut cells: Vec<(&'static str, Scenario)> = Vec::new();
    for kind in KINDS {
        // Rates come from each kind's own capacity (the heavy-tail and
        // hot-key models shift the mean service time), measured once per
        // kind so every scheme sweeps the identical offered loads.
        let template = scenario(kind, Scheme::Baseline, ctx);
        let rates = capacity_fractions(
            &template,
            LOAD_RANGE.0,
            LOAD_RANGE.1,
            ctx.scale.sweep_points(),
        );
        for scheme in SCHEMES {
            for &rate in &rates {
                let mut s = scenario(kind, scheme, ctx);
                s.offered_rps = rate;
                cells.push((kind, s));
            }
        }
    }
    let cells = ctx.map("adversarial", cells, |(kind, s)| Cell {
        kind,
        run: ctx.run_sim(s),
    });
    AdversarialResult { cells }
}

/// The adversarial shootout in the experiment registry.
pub struct Adversarial;

impl Experiment for Adversarial {
    fn id(&self) -> &'static str {
        "adversarial"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn tags(&self) -> &'static [&'static str] {
        &["table", "sweep", "adversarial", "degradation", "laedge"]
    }
    fn topology(&self) -> &'static str {
        "mixed"
    }
    fn run(&self, ctx: &RunCtx) -> Report {
        run(ctx).into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn smoke_run_covers_every_cell_and_netclone_wins_under_slowdown() {
        let ctx = RunCtx::new(Scale::Smoke).with_jobs(crate::harness::default_jobs());
        let r = run(&ctx);
        assert_eq!(
            r.cells.len(),
            KINDS.len() * SCHEMES.len() * Scale::Smoke.sweep_points()
        );
        for cell in &r.cells {
            assert!(cell.run.completed > 0, "{} {}", cell.kind, cell.run.scheme);
        }
        // The acceptance shape: under the gray-failure slowdown, cloning
        // with the idle signal beats unconditional duplication on p99 at
        // the peak load point (C-Clone's doubled load saturates first).
        let nc = r.p99_at_peak("slowdown", "NetClone").expect("series");
        let dup = r.p99_at_peak("slowdown", "C-Clone").expect("series");
        assert!(nc < dup, "slowdown p99: NetClone {nc} >= C-Clone {dup}");
        // The drain cells actually exercised the drain: packets were
        // lost while the leaf was down.
        assert!(
            r.cells
                .iter()
                .filter(|c| c.kind == "drain")
                .all(|c| c.run.packets_lost > 0),
            "drain cells lost no packets"
        );
        let report = r.into_report();
        assert!(report.to_markdown().contains("adversarial"));
    }
}
