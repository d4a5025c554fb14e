//! Oversubscribed fat-tree fabrics: cloning under real congestion.
//!
//! The paper's evaluation (and the `multirack` sweep) runs over
//! fixed-latency hops — the fabric is never the bottleneck. This
//! experiment puts NetClone where cloning actually hurts: a k-ary
//! fat-tree ([`Topology::fat_tree`]) with congestion-aware links
//! (`netclone-linksim`), swept over the fabric oversubscription ratio
//! (1:1 wire-speed → 4:1), with bulk background incast converging on the
//! rack where every client sits. Two effects compose against cloning:
//!
//! * the redundant response stream doubles NetClone's share of the
//!   victim rack's downlink bytes, so it saturates the oversubscribed
//!   fabric earlier than the baseline;
//! * cloned responses crossing the congested core are delayed or
//!   tail-dropped, so the clone loses (or never arrives) more often —
//!   the clone-win ratio degrades as the ratio grows, while p99 inflates
//!   for everyone.
//!
//! The report's congested-links section names the congested links — the
//! victim's downlinks, by construction.
//!
//! Scale picks the radix (`--fattree-k` overrides): Smoke k=4 (8 racks,
//! 16 host slots), Standard and Full k=6 (18 racks, 54 slots) — the
//! widest fabric whose servers fit a leaf's port range; k=8 has 124.

use netclone_linksim::LinkSpec;
use netclone_stats::{Report, Table};
use netclone_workloads::exp50;

use crate::harness::{Experiment, RunCtx};
use crate::metrics::{LinkTotals, RunResult};
use crate::scenario::{Background, Scenario, ServerSpec};
use crate::scheme::Scheme;
use crate::sweep::{per_scheme, run_sweeps, sweep_table, Panel};
use crate::topology::Topology;

const TITLE: &str = "Fat-tree oversubscription: clone-win ratio and p99 under incast";

/// Oversubscription ratios under test (fabric rate = edge rate ÷ ratio).
pub const OVERSUB: [f64; 4] = [1.0, 2.0, 3.0, 4.0];

/// Schemes under test.
pub const SCHEMES: [Scheme; 2] = [Scheme::Baseline, Scheme::NETCLONE];

/// Host access-link rate, Gbit/s.
pub const EDGE_GBPS: f64 = 10.0;

/// Per-link queue capacity, bytes (≈ 5 jumbo frames).
pub const QUEUE_BYTES: u32 = 45_000;

/// Background packet size, bytes (bulk flows: jumbo frames).
pub const BG_WIRE_BYTES: u16 = 9_000;

/// Background load as a fraction of the victim rack's *wire-speed*
/// downlink capacity — fixed across the sweep, so rising ratios turn the
/// same offered bytes into rising overload.
pub const BG_FRACTION: f64 = 0.30;

/// RPC load as a fraction of the binding host ceiling (the clients'
/// receive rate).
pub const CLIENT_LOAD: f64 = 0.6;

/// Target worker-thread utilization. High enough that a clone landing on
/// an actually-busy server queues behind real work and loses — which is
/// what lets stale idle signals (delayed by fabric congestion) degrade
/// the clone-win ratio.
pub const WORKER_UTIL: f64 = 0.7;

/// The experiment's seed (all cells share it; the sweep varies only the
/// ratio and scheme).
pub const SEED: u64 = 7;

/// Fat-tree radix per scale (even, ≥ 4, and small enough that
/// [`Scenario::validate`] accepts the server count).
pub fn radix_for(ctx: &RunCtx) -> usize {
    ctx.fattree_k.unwrap_or(match ctx.scale {
        crate::experiments::Scale::Smoke => 4,
        crate::experiments::Scale::Standard | crate::experiments::Scale::Full => 6,
    })
}

/// The scenario of one cell: a k-ary fat-tree filled to its canonical
/// k/2 hosts per leaf — rack 0 is all clients (the incast victim), every
/// other rack all servers, worker threads sized to [`WORKER_UTIL`] so
/// idle signals carry real information.
pub fn scenario(k: usize, oversub: f64, scheme: Scheme, ctx: &RunCtx) -> Scenario {
    assert!(k >= 4 && k % 2 == 0, "the experiment needs an even k >= 4");
    let topo = Topology::fat_tree(k);
    let racks = topo.racks;
    let hosts_per_leaf = k / 2;
    let n_clients = hosts_per_leaf;
    let n_servers = (racks - 1) * hosts_per_leaf;
    let mut server_racks = Vec::new();
    for r in 1..racks {
        server_racks.extend(std::iter::repeat(r).take(hosts_per_leaf));
    }
    let mut s = Scenario::synthetic_default(scheme, exp50(), 1.0);
    s.n_clients = n_clients;
    s.seed = SEED;
    s.warmup_ns = ctx.scale.warmup_ns();
    s.measure_ns = ctx.scale.measure_ns();
    s.topology = topo
        .with_server_racks(server_racks)
        .with_client_racks(vec![0; n_clients])
        .with_ecmp_seed(SEED);
    s.links = Some(LinkSpec::oversubscribed(EDGE_GBPS, oversub, QUEUE_BYTES));
    // Offered RPC load: a fixed fraction of the clients' receive ceiling
    // (the binding host limit) — the *fabric* is then the only thing the
    // sweep varies.
    let client_rx_rps = n_clients as f64 * 1e9 / crate::calib::CLIENT_RX_NS as f64;
    s.offered_rps = CLIENT_LOAD * client_rx_rps;
    // Worker threads sized so the pool runs at ≈ WORKER_UTIL (floor: one
    // thread per server), spread as evenly as the integer split allows.
    // An overprovisioned pool would make every clone land on an idle
    // server and hide the cost of stale idle signals entirely.
    s.servers = vec![ServerSpec { workers: 1 }; n_servers];
    let mean_eff_s = n_servers as f64 / s.capacity_rps();
    let threads = ((s.offered_rps * mean_eff_s / WORKER_UTIL).ceil() as usize).max(n_servers);
    let threads = threads.min(n_servers * crate::calib::SYNTHETIC_WORKERS);
    let (base, extra) = (threads / n_servers, threads % n_servers);
    for (i, spec) in s.servers.iter_mut().enumerate() {
        spec.workers = base + usize::from(i < extra);
    }
    // Background incast: a fixed byte rate against the victim's
    // wire-speed downlink capacity, independent of the ratio under test.
    let victim_capacity_bps = (k / 2) as f64 * EDGE_GBPS * 1e9;
    s.background = Some(Background {
        rps: BG_FRACTION * victim_capacity_bps / (8.0 * BG_WIRE_BYTES as f64),
        wire_bytes: BG_WIRE_BYTES,
        victim_rack: 0,
    });
    s
}

/// The oversubscription ratios a run sweeps: `--oversub`'s one ratio, or
/// [`OVERSUB`].
pub fn ratios(ctx: &RunCtx) -> Vec<f64> {
    ctx.oversub.map_or(OVERSUB.to_vec(), |r| vec![r])
}

/// Runs the sweep on the given context: one panel per ratio (named
/// `"{ratio}:1"`), one single-point series per scheme.
pub fn run(ctx: &RunCtx) -> Vec<Panel> {
    let k = radix_for(ctx);
    let mut specs = Vec::new();
    for oversub in ratios(ctx) {
        let template = scenario(k, oversub, Scheme::Baseline, ctx);
        let rates = [template.offered_rps];
        specs.extend(per_scheme(
            &format!("{oversub}:1"),
            &template,
            &SCHEMES,
            &rates,
        ));
    }
    run_sweeps(ctx, "fattree", specs)
}

/// The congested links, per run: every link that dropped or ECN-marked
/// a packet, capped at the eight worst per run.
fn links_table(panels: &[Panel]) -> Table {
    let mut t = Table::new([
        "oversub",
        "scheme",
        "link",
        "forwarded",
        "dropped",
        "ecn marked",
    ]);
    for panel in panels {
        for r in panel.runs() {
            let mut links: Vec<_> = r.link_stats.iter().collect();
            links.sort_by_key(|l| std::cmp::Reverse((l.dropped, l.ecn_marked)));
            for l in links.into_iter().take(8) {
                t.row([
                    panel.name.clone(),
                    r.scheme.to_string(),
                    l.link.clone(),
                    l.forwarded.to_string(),
                    l.dropped.to_string(),
                    l.ecn_marked.to_string(),
                ]);
            }
        }
    }
    t
}

/// The report of a radix-`k` sweep: ratio × scheme rows with tail
/// latency, the clone-win ratio and the fabric-wide drop/mark totals by
/// tier, then the congested-links section.
pub fn report(k: usize, panels: &[Panel]) -> Report {
    let main = sweep_table(
        panels,
        "oversub",
        &[
            ("clone-win ratio", |r| format!("{:.3}", r.clone_win_ratio())),
            ("up drops", |r| totals(r).up.dropped.to_string()),
            ("down drops", |r| totals(r).down.dropped.to_string()),
            ("edge drops", |r| totals(r).edge.dropped.to_string()),
            ("ecn marks", |r| r.link_ecn_marks().to_string()),
        ],
    );
    Report::new("fattree", TITLE)
        .with_section(
            format!("k={k} fat-tree, oversubscription sweep"),
            "fattree",
            main,
        )
        .with_note(format!(
            "edge {EDGE_GBPS} Gbit/s; fabric = edge / ratio; queue {QUEUE_BYTES} B/link; \
             background incast {:.0}% of wire-speed victim downlink capacity",
            BG_FRACTION * 100.0
        ))
        .with_section(
            "congested links (worst 8 per cell)",
            "fattree_links",
            links_table(panels),
        )
}

fn totals(r: &RunResult) -> LinkTotals {
    r.link_totals.unwrap_or_default()
}

/// The fat-tree oversubscription sweep in the experiment registry.
pub const EXPERIMENT: Experiment = Experiment {
    id: "fattree",
    title: TITLE,
    tags: &["table", "sweep", "topology", "links", "congestion"],
    topology: "fat-tree",
    run: |ctx| report(radix_for(ctx), &run(ctx)),
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn smoke_run_covers_every_cell() {
        let ctx = RunCtx::new(Scale::Smoke).with_jobs(crate::harness::default_jobs());
        assert_eq!(radix_for(&ctx), 4);
        let panels = run(&ctx);
        let names: Vec<String> = panels.iter().map(|p| p.name.clone()).collect();
        assert_eq!(names, ["1:1", "2:1", "3:1", "4:1"]);
        for p in &panels {
            assert_eq!(p.runs().count(), SCHEMES.len());
            for r in p.runs() {
                assert!(r.completed > 0, "{} {}", p.name, r.scheme);
                let totals = r.link_totals.expect("links enabled");
                // Conservation per tier: everything offered is forwarded or
                // dropped, nowhere else.
                for t in [totals.edge, totals.up, totals.down] {
                    assert_eq!(t.offered, t.forwarded + t.dropped);
                }
            }
        }
        assert!(report(4, &panels).to_markdown().contains("fattree"));
    }

    #[test]
    fn every_scale_picks_a_radix_that_validates_and_builds() {
        for scale in [Scale::Smoke, Scale::Standard, Scale::Full] {
            let ctx = RunCtx::new(scale);
            for scheme in SCHEMES {
                let s = scenario(radix_for(&ctx), 3.0, scheme, &ctx);
                assert_eq!(s.validate(), Ok(()), "{scale:?} {scheme:?}");
                let (shards, _) = crate::build::ScenarioBuilder::new(s).build_shards(1, false);
                assert!(
                    !shards[0].q.is_empty(),
                    "{scale:?} {scheme:?}: nothing primed"
                );
            }
        }
    }

    #[test]
    fn radixes_past_the_port_space_are_rejected_by_name() {
        let ctx = RunCtx::new(Scale::Smoke);
        // k=8: server 89 would sit on the coordinator's port, 90.. on
        // the clients'. k=16 also overflows the switch program's table.
        for (k, scheme, limit) in [
            (8, Scheme::Baseline, "89 server ports"),
            (8, Scheme::NETCLONE, "89 server ports"),
            (16, Scheme::Baseline, "89 server ports"),
            (16, Scheme::NETCLONE, "max_servers (256)"),
        ] {
            let err = scenario(k, 3.0, scheme, &ctx).validate().unwrap_err();
            assert!(err.contains(limit), "k={k} {scheme:?}: {err}");
        }
    }

    #[test]
    fn oversub_override_pins_one_ratio() {
        let ctx = RunCtx::new(Scale::Smoke).with_oversub(2.0);
        let panels = run(&ctx);
        assert_eq!(panels.len(), 1);
        assert_eq!(panels[0].name, "2:1");
        assert_eq!(panels[0].runs().count(), SCHEMES.len());
    }
}
