//! The chaos suite: composed fault timelines against recovering clients,
//! as a seed-pinned policy shootout.
//!
//! Where the adversarial suite stresses *service-time* shape, this one
//! stresses the *fabric and fleet*: every scenario runs a multi-fault
//! [`FaultTimeline`] while the clients run the real recovery path — a
//! [`RetryPolicy`] with capped exponential backoff and a per-client
//! retry budget. Four kinds:
//!
//! * **rolling-drain** — a maintenance wave: two server-bearing leaves
//!   of a 4-rack fabric drain one after another
//!   ([`FaultTimeline::rolling_drain`]), each returning with cold soft
//!   state while the next goes down. Requests parked behind a dead leaf
//!   time out and retransmit with *fresh* addressing, so recovery rides
//!   the same policy lever the shootout measures: NetClone's second copy
//!   (and a retry's re-roll) routes around the hole, C-Clone pays double
//!   load for the privilege.
//! * **correlated-gray** — two servers slow down 4× over the *same*
//!   window ([`FaultTimeline::correlated_gray`]): the shared-power-cap /
//!   bad-rollout shape. With a quarter of the fleet gray, random
//!   placement alone cannot dodge it.
//! * **linkflap** — one rack's adjacent links renegotiate down three
//!   orders of magnitude mid-window ([`LinkFlapPlan`],
//!   netclone-linksim) — the classic bad-transceiver flap, 10 Gbps
//!   falling to ~10 Mbps: the queues grow, ECN marks, and tail drops
//!   concentrate on one rack while the switch keeps forwarding — gray
//!   at the *link* layer, surfaced to clients only as timeouts.
//! * **retry-storm** — injected packet loss with a tight timeout and a
//!   deliberately small retry budget: the recovery path itself under
//!   stress, exercising eviction-by-budget (`budget_exhausted`) and the
//!   backoff cap rather than any switch-side fault. This kind also
//!   surfaces a structural LÆDGE weakness: the coordinator admits per
//!   server only up to a fixed outstanding capacity and a *lost response
//!   leaks its slot forever*, so under sustained loss the coordinator
//!   wedges and client retries — which route through the same wedged
//!   coordinator — cannot recover it. The client-driven and in-network
//!   schemes have no such single point of state.
//!
//! Every fault edge is a fabric-domain-0 control event, so serial and
//! sharded runs are byte-identical (CI diffs `--shards 1` vs `--shards
//! 4` on this experiment's JSON); `tests/chaos.rs` pins the exact
//! seed-42 state per kind.

use netclone_stats::{Report, Table};
use netclone_workloads::exp25;

use crate::harness::{Experiment, RunCtx};
use crate::metrics::RunResult;
use crate::scenario::{Fault, FaultTimeline, LinkFlapPlan, RetryPolicy, Scenario};
use crate::scheme::Scheme;
use crate::sweep::capacity_fractions;
use crate::topology::Topology;

const TITLE: &str = "Chaos shootout: fault timelines vs recovering clients";

/// The chaos scenario kinds, in report order.
pub const KINDS: [&str; 4] = [
    "rolling-drain",
    "correlated-gray",
    "linkflap",
    "retry-storm",
];

/// Schemes under test: the in-network policy, the coordinator policy,
/// and unconditional client duplication.
pub const SCHEMES: [Scheme; 3] = [Scheme::NETCLONE, Scheme::Laedge, Scheme::CClone];

/// Load fractions swept (of each template's own capacity — see the
/// adversarial suite for why the asymmetry vs C-Clone is the point).
pub const LOAD_RANGE: (f64, f64) = (0.3, 0.7);

/// The recovery policy every chaos client runs (except retry-storm's
/// tighter one): a 1 ms timeout — far past the healthy p99, so retries
/// fire on faults, not noise — doubling to an 8 ms cap, 3 tries, no
/// budget pressure.
pub fn retry_policy() -> RetryPolicy {
    RetryPolicy::new(1_000_000)
}

/// Retry-storm's deliberately strained policy: a 400 µs timeout and a
/// 64-retransmission budget per client, so the budget actually runs out
/// inside the window and `budget_exhausted` is exercised.
pub fn storm_policy() -> RetryPolicy {
    RetryPolicy {
        timeout_ns: 400_000,
        backoff_cap_ns: 3_200_000,
        max_retries: 3,
        budget: 64,
    }
}

/// The scenario template of one chaos kind (offered load filled in by
/// the sweep). Fault windows sit inside the middle half of the
/// measurement window, so they scale with `--scale`.
pub fn scenario(kind: &str, scheme: Scheme, ctx: &RunCtx) -> Scenario {
    let mut s = Scenario::synthetic_default(scheme, exp25(), 1.0);
    s.warmup_ns = ctx.scale.warmup_ns();
    s.measure_ns = ctx.scale.measure_ns();
    let mid_start = s.warmup_ns + s.measure_ns / 4;
    let mid_end = s.warmup_ns + 3 * s.measure_ns / 4;
    s.retry = Some(retry_policy());
    match kind {
        "rolling-drain" => {
            // Racks 2 and 3 hold servers but no clients (round-robin
            // placement: clients 0–1 → racks 0–1) and neither is the
            // coordinator's rack (rack 0), so every scheme keeps its
            // control path while the wave rolls.
            s.topology = Topology::uniform(4);
            s.faults = FaultTimeline::rolling_drain(
                &[2, 3],
                mid_start,
                s.measure_ns / 4,
                s.measure_ns / 6,
            );
        }
        "correlated-gray" => {
            s.faults = FaultTimeline::correlated_gray(&[0, 1], mid_start, mid_end, 4.0);
        }
        "linkflap" => {
            s.topology = Topology::uniform(4);
            s.links = Some(netclone_linksim::LinkSpec::flat(10.0, 150_000));
            s.faults = FaultTimeline {
                faults: vec![Fault::LinkFlap(LinkFlapPlan {
                    rack: 3,
                    start_ns: mid_start,
                    end_ns: mid_end,
                    factor: 1000,
                })],
            };
        }
        "retry-storm" => {
            s.loss = 0.02;
            s.retry = Some(storm_policy());
        }
        other => panic!("unknown chaos kind {other:?}"),
    }
    s
}

/// One measured cell of the shootout.
pub struct Cell {
    /// The chaos kind (one of [`KINDS`]).
    pub kind: &'static str,
    /// The full run result.
    pub run: RunResult,
}

/// The typed result: every (kind, scheme, load) cell, in sweep order.
pub struct ChaosResult {
    /// The measured cells.
    pub cells: Vec<Cell>,
}

impl ChaosResult {
    /// Renders the shootout as one table: kind × scheme × load rows with
    /// the tail percentiles and the recovery diagnostics.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new([
            "scenario",
            "scheme",
            "offered (MRPS)",
            "achieved (MRPS)",
            "p50 (us)",
            "p99 (us)",
            "p999 (us)",
            "retried",
            "retry wins",
            "lost",
            "budget out",
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
                cell.run.client_retried.to_string(),
                cell.run.client_retry_wins.to_string(),
                cell.run.client_lost.to_string(),
                cell.run.client_budget_exhausted.to_string(),
            ]);
        }
        t
    }

    /// Converts the shootout into the unified report artifact.
    pub fn into_report(self) -> Report {
        let table = self.to_table();
        Report::new("chaos", TITLE).with_table(table)
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
pub fn run(ctx: &RunCtx) -> ChaosResult {
    let mut cells: Vec<(&'static str, Scenario)> = Vec::new();
    for kind in KINDS {
        // Rates come from each kind's own capacity, measured once per
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
    let cells = ctx.map("chaos", cells, |(kind, s)| Cell {
        kind,
        run: ctx.run_sim(s),
    });
    ChaosResult { cells }
}

/// The chaos shootout in the experiment registry.
pub struct Chaos;

impl Experiment for Chaos {
    fn id(&self) -> &'static str {
        "chaos"
    }
    fn title(&self) -> &'static str {
        TITLE
    }
    fn tags(&self) -> &'static [&'static str] {
        &["table", "sweep", "chaos", "faults", "retry", "recovery"]
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
    fn smoke_run_covers_every_cell_and_recovery_is_exercised() {
        let ctx = RunCtx::new(Scale::Smoke).with_jobs(crate::harness::default_jobs());
        let r = run(&ctx);
        assert_eq!(
            r.cells.len(),
            KINDS.len() * SCHEMES.len() * Scale::Smoke.sweep_points()
        );
        for cell in &r.cells {
            // The storm is allowed to *win* against the non-NetClone
            // schemes: LÆDGE's coordinator wedges on leaked slots (see
            // the module docs), and C-Clone's doubled load under a tight
            // timeout collapses metastably (every response lands after
            // its request was evicted). Those cells must still show the
            // damage; every other cell must complete work.
            if cell.kind == "retry-storm" && cell.run.scheme != "NetClone" {
                assert!(
                    cell.run.client_lost > 0 || cell.run.completed > 0,
                    "{} {} neither completed nor lost anything",
                    cell.kind,
                    cell.run.scheme
                );
                continue;
            }
            assert!(cell.run.completed > 0, "{} {}", cell.kind, cell.run.scheme);
        }
        // Every fault kind actually triggered the recovery path.
        for kind in KINDS {
            assert!(
                r.cells
                    .iter()
                    .filter(|c| c.kind == kind)
                    .any(|c| c.run.client_retried > 0),
                "{kind} cells never retried"
            );
        }
        // The strained policy ran out of budget somewhere in the storm.
        assert!(
            r.cells
                .iter()
                .filter(|c| c.kind == "retry-storm")
                .any(|c| c.run.client_budget_exhausted > 0),
            "retry-storm never exhausted a budget"
        );
        // The flap congested the flapped rack's links.
        assert!(
            r.cells
                .iter()
                .filter(|c| c.kind == "linkflap")
                .any(|c| c.run.link_ecn_marks() > 0 || c.run.link_drops() > 0),
            "linkflap produced no congestion signal"
        );
        let report = r.into_report();
        assert!(report.to_markdown().contains("chaos"));
    }
}
