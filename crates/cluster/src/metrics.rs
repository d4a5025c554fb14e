//! Results of one simulation run.

use netclone_core::SwitchCounters;
use netclone_linksim::LinkCounters;
use netclone_stats::{LatencyHistogram, TimeSeries};

/// One congested link's counter window (only links that dropped or
/// ECN-marked at least one packet are reported — a healthy fabric has
/// thousands of boring links).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkStat {
    /// Deterministic link name: `client3.up`, `server0.down`, `coord.up`,
    /// `leaf2.up1`, `leaf0.down3`, …
    pub link: String,
    /// Packets the link accepted.
    pub forwarded: u64,
    /// Packets tail-dropped at the bounded queue.
    pub dropped: u64,
    /// Forwarded packets ECN-marked at enqueue.
    pub ecn_marked: u64,
}

/// Fabric-wide link counter totals by tier, for conservation checks
/// (every packet offered to a tier is forwarded or dropped there) and
/// congestion summaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkTotals {
    /// All host access links (client/server/coordinator NIC↔leaf), both
    /// directions.
    pub edge: LinkCounters,
    /// All leaf→upper fabric links.
    pub up: LinkCounters,
    /// All upper→leaf fabric links.
    pub down: LinkCounters,
}

/// Everything measured in one run's measurement window.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Scheme label.
    pub scheme: &'static str,
    /// Workload label.
    pub workload: String,
    /// Offered load, requests/second.
    pub offered_rps: f64,
    /// Achieved goodput: completed requests ÷ measurement window.
    pub achieved_rps: f64,
    /// End-to-end latency histogram (merged over clients).
    pub latency: LatencyHistogram,
    /// Requests generated in the window.
    pub generated: u64,
    /// Requests completed in the window.
    pub completed: u64,
    /// Redundant responses processed by clients.
    pub client_redundant: u64,
    /// Completed requests whose winning response came from the clone
    /// (`CLO=2`) — tracked by the shared host core in every frontend.
    pub client_clone_wins: u64,
    /// Requests evicted as lost by the clients (timeout budget spent, or
    /// no retry policy and the deadline passed).
    pub client_lost: u64,
    /// Retransmissions sent by the clients under their retry policy.
    pub client_retried: u64,
    /// Completions whose winning response arrived after at least one
    /// retransmission of the request.
    pub client_retry_wins: u64,
    /// Evictions forced by an exhausted per-client retry budget while
    /// per-request tries remained.
    pub client_budget_exhausted: u64,
    /// The clients' whole-run counters, summed (never reset
    /// at warm-up, unlike the windowed counters above): `generated ==
    /// completed + lost + client_outstanding` holds at run end, retries
    /// included.
    pub lifetime: netclone_hosts::ClientStats,
    /// Requests still outstanding (un-answered, un-evicted) at run end,
    /// summed over clients — the third term of the conservation identity.
    pub client_outstanding: u64,
    /// Fabric-wide switch counters: the merge of every per-switch window
    /// (NetClone/RackSched engines count cloning/filtering; plain-L3
    /// switches only routed/dropped).
    pub switch: SwitchCounters,
    /// Per-switch counter windows, in fabric index order (leaves
    /// `0..racks`, then the spine for multi-rack runs). Single-rack runs
    /// have exactly one entry, equal to [`RunResult::switch`].
    pub per_switch: Vec<SwitchCounters>,
    /// Cloned requests dropped at servers (tracked-vs-actual state gap).
    pub server_clone_drops: u64,
    /// Responses reporting an empty queue (Fig. 13a numerator).
    pub server_idle_reports: u64,
    /// Total responses sent by servers (Fig. 13a denominator).
    pub server_responses: u64,
    /// Completions over time (Fig. 16).
    pub throughput_series: TimeSeries,
    /// Packets lost to injected link loss.
    pub packets_lost: u64,
    /// Requests served per server (load-balance diagnostics, ablations).
    pub per_server_served: Vec<u64>,
    /// Total simulation events processed (scheduled and drained) over the
    /// whole run, warm-up included — seed-deterministic, so
    /// `tests/event_counts.rs` pins it per fabric shape.
    pub events: u64,
    /// Per-link windows of every link that dropped or ECN-marked a
    /// packet, in deterministic fabric order (empty without
    /// [`Scenario::links`](crate::scenario::Scenario::links)).
    pub link_stats: Vec<LinkStat>,
    /// Fabric-wide link totals by tier (`None` without congestion-aware
    /// links).
    pub link_totals: Option<LinkTotals>,
}

impl RunResult {
    /// 50th/99th/99.9th percentile latency, μs.
    pub fn percentiles_us(&self) -> (f64, f64, f64) {
        let (p50, p99, p999) = self.latency.p50_p99_p999();
        (
            p50 as f64 / 1_000.0,
            p99 as f64 / 1_000.0,
            p999 as f64 / 1_000.0,
        )
    }

    /// p99 latency in μs (the paper's headline metric).
    pub fn p99_us(&self) -> f64 {
        self.latency.quantile(0.99) as f64 / 1_000.0
    }

    /// Mean latency in μs.
    pub fn mean_us(&self) -> f64 {
        self.latency.mean() / 1_000.0
    }

    /// Achieved throughput in MRPS.
    pub fn achieved_mrps(&self) -> f64 {
        self.achieved_rps / 1e6
    }

    /// Fraction of completed requests won by the switch-generated clone —
    /// how often cloning actually beat the original (§5.3).
    pub fn clone_win_ratio(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.client_clone_wins as f64 / self.completed as f64
        }
    }

    /// Fraction of server responses that reported an empty queue
    /// (Fig. 13a).
    pub fn empty_queue_fraction(&self) -> f64 {
        if self.server_responses == 0 {
            0.0
        } else {
            self.server_idle_reports as f64 / self.server_responses as f64
        }
    }

    /// Packets tail-dropped across every congestion-aware link (0 when
    /// links are disabled).
    pub fn link_drops(&self) -> u64 {
        self.link_totals
            .map_or(0, |t| t.edge.dropped + t.up.dropped + t.down.dropped)
    }

    /// Packets ECN-marked across every congestion-aware link.
    pub fn link_ecn_marks(&self) -> u64 {
        self.link_totals.map_or(0, |t| {
            t.edge.ecn_marked + t.up.ecn_marked + t.down.ecn_marked
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut latency = LatencyHistogram::new();
        for v in [10_000u64, 20_000, 900_000] {
            latency.record(v);
        }
        let r = RunResult {
            scheme: "NetClone",
            workload: "Exp(25)".into(),
            offered_rps: 1e6,
            achieved_rps: 9.9e5,
            latency,
            generated: 100,
            completed: 99,
            client_redundant: 1,
            client_clone_wins: 33,
            client_lost: 0,
            client_retried: 0,
            client_retry_wins: 0,
            client_budget_exhausted: 0,
            lifetime: Default::default(),
            client_outstanding: 0,
            switch: SwitchCounters::default(),
            per_switch: vec![SwitchCounters::default()],
            server_clone_drops: 0,
            server_idle_reports: 60,
            server_responses: 100,
            throughput_series: TimeSeries::new(1_000_000_000, 1),
            packets_lost: 0,
            per_server_served: vec![50, 50],
            events: 0,
            link_stats: Vec::new(),
            link_totals: None,
        };
        assert!((r.achieved_mrps() - 0.99).abs() < 1e-9);
        assert!((r.empty_queue_fraction() - 0.6).abs() < 1e-9);
        assert_eq!(r.link_drops(), 0);
        assert_eq!(r.link_ecn_marks(), 0);
        assert!((r.clone_win_ratio() - 33.0 / 99.0).abs() < 1e-9);
        assert!(r.p99_us() >= 890.0);
        let (p50, p99, p999) = r.percentiles_us();
        assert!(p50 <= p99 && p99 <= p999);
    }
}
