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
//!   orders of magnitude mid-window ([`FaultKind::LinkFlap`],
//!   netclone-linksim) — the classic bad-transceiver flap, 10 Gbps
//!   falling to ~10 Mbps: the queues grow, ECN marks, and tail drops
//!   concentrate on one rack while the switch keeps forwarding — gray
//!   at the *link* layer, surfaced to clients only as timeouts.
//! * **retry-storm** — whole-run packet loss ([`Fault::loss`]) under a
//!   tight timeout and a small retry budget: the recovery path itself
//!   under stress, exercising eviction-by-budget (`budget_exhausted`) and
//!   the backoff cap rather than any switch-side fault. This kind also
//!   surfaces a structural LÆDGE weakness: the coordinator admits per
//!   server only up to a fixed outstanding capacity and a *lost response
//!   leaks its slot forever*, so under sustained loss the coordinator
//!   wedges and client retries — which route through the same wedged
//!   coordinator — cannot recover it. The client-driven and in-network
//!   schemes have no such single point of state.
//!
//! Every fault edge is a fabric-domain-0 control event and every loss
//! verdict a function of the packet, so serial and sharded runs are
//! byte-identical (CI diffs `--shards 1` vs `--shards 4` on this
//! experiment's JSON); `tests/chaos.rs` pins the seed-42 state per kind.

use netclone_stats::Report;
use netclone_workloads::exp25;

use crate::experiments::adversarial;
use crate::harness::{Experiment, RunCtx};
use crate::scenario::{Fault, FaultKind, FaultTimeline, RetryPolicy, Scenario};
use crate::scheme::Scheme;
use crate::sweep::{sweep_table, Panel};
use crate::topology::Topology;

const TITLE: &str = "Chaos shootout: fault timelines vs recovering clients";

/// The chaos scenario kinds, in report order.
pub const KINDS: [&str; 4] = [
    "rolling-drain",
    "correlated-gray",
    "linkflap",
    "retry-storm",
];

/// Schemes under test, swept over the adversarial suite's
/// [`LOAD_RANGE`](adversarial::LOAD_RANGE) (see there for why the
/// asymmetry vs C-Clone is the point).
pub const SCHEMES: [Scheme; 3] = adversarial::SCHEMES;

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
            let kind = FaultKind::LinkFlap {
                rack: 3,
                factor: 1000,
            };
            s.faults.faults.push(Fault {
                start_ns: mid_start,
                end_ns: mid_end,
                kind,
            });
        }
        "retry-storm" => {
            s.faults.faults.push(Fault::loss(0.02));
            s.retry = Some(storm_policy());
        }
        other => panic!("unknown chaos kind {other:?}"),
    }
    s
}

/// Runs the shootout on the given context: one panel per kind, one
/// series per scheme.
pub fn run(ctx: &RunCtx) -> Vec<Panel> {
    adversarial::shootout(ctx, "chaos", &KINDS, scenario)
}

/// Renders the shootout as one table: kind × scheme × load rows with
/// the tail percentiles and the recovery diagnostics.
pub fn report(panels: &[Panel]) -> Report {
    Report::new("chaos", TITLE).with_table(sweep_table(
        panels,
        "scenario",
        &[
            ("p999 (us)", |r| format!("{:.1}", r.percentiles_us().2)),
            ("retried", |r| r.client_retried.to_string()),
            ("retry wins", |r| r.client_retry_wins.to_string()),
            ("lost", |r| r.client_lost.to_string()),
            ("budget out", |r| r.client_budget_exhausted.to_string()),
        ],
    ))
}

/// The chaos shootout in the experiment registry.
pub const EXPERIMENT: Experiment = Experiment {
    id: "chaos",
    title: TITLE,
    tags: &["table", "sweep", "chaos", "faults", "retry", "recovery"],
    topology: "mixed",
    run: |ctx| report(&run(ctx)),
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn smoke_run_covers_every_cell_and_recovery_is_exercised() {
        let ctx = RunCtx::new(Scale::Smoke).with_jobs(crate::harness::default_jobs());
        let panels = run(&ctx);
        let names: Vec<&str> = panels.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, KINDS);
        for p in &panels {
            assert_eq!(
                p.runs().count(),
                SCHEMES.len() * Scale::Smoke.sweep_points()
            );
            for r in p.runs() {
                // The storm is allowed to *win* against the non-NetClone
                // schemes: LÆDGE's coordinator wedges on leaked slots (see
                // the module docs), and C-Clone's doubled load under a tight
                // timeout collapses metastably (every response lands after
                // its request was evicted). Those cells must still show the
                // damage; every other cell must complete work.
                if p.name == "retry-storm" && r.scheme != "NetClone" {
                    assert!(
                        r.client_lost > 0 || r.completed > 0,
                        "{} {} neither completed nor lost anything",
                        p.name,
                        r.scheme
                    );
                    continue;
                }
                assert!(r.completed > 0, "{} {}", p.name, r.scheme);
            }
            // Every fault kind actually triggered the recovery path.
            assert!(
                p.runs().any(|r| r.client_retried > 0),
                "{} cells never retried",
                p.name
            );
        }
        // The strained policy ran out of budget somewhere in the storm.
        assert!(
            panels[3].runs().any(|r| r.client_budget_exhausted > 0),
            "retry-storm never exhausted a budget"
        );
        // The flap congested the flapped rack's links.
        assert!(
            panels[2]
                .runs()
                .any(|r| r.link_ecn_marks() > 0 || r.link_drops() > 0),
            "linkflap produced no congestion signal"
        );
        assert!(report(&panels).to_markdown().contains("chaos"));
    }
}
