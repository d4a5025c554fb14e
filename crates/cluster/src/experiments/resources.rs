//! §4.1 resource usage: the NetClone program's footprint on the modeled
//! ASIC, next to the paper's reported figures, plus the back-of-the-
//! envelope filter-capacity calculation.

use netclone_core::{NetCloneConfig, NetCloneSwitch};
use netclone_stats::{Report, Table};

use crate::harness::Experiment;

const TITLE: &str = "Switch resource usage (§4.1)";

/// The report rows: (metric, measured, paper).
pub fn to_table() -> Table {
    let sw = NetCloneSwitch::new(NetCloneConfig::paper_prototype());
    let r = sw.resource_report();
    let mut t = Table::new(["metric", "this reproduction", "paper (§4.1)"]);
    t.row([
        "match-action stages".to_string(),
        r.stages_used.to_string(),
        "7".to_string(),
    ]);
    t.row([
        "SRAM".to_string(),
        format!("{:.2}%", r.sram_pct),
        "18.04%".to_string(),
    ]);
    t.row([
        "match input crossbar".to_string(),
        format!("{:.2}%", r.crossbar_pct),
        "12.28%".to_string(),
    ]);
    t.row([
        "hash unit".to_string(),
        format!("{:.2}%", r.hash_pct),
        "26.79%".to_string(),
    ]);
    t.row([
        "ALUs".to_string(),
        format!("{:.2}%", r.alu_pct),
        "21.43%".to_string(),
    ]);
    t.row([
        "filter-table memory".to_string(),
        format!(
            "{:.2} MB ({:.2}% of switch memory)",
            r.register_sram_bytes as f64 / 1e6,
            r.register_sram_pct
        ),
        "1.05 MB (4.77%)".to_string(),
    ]);
    // The paper's throughput back-of-envelope: 2^18 slots, 20 KRPS per
    // slot at 50 μs per request ⇒ ≈ 5.24 BRPS.
    let slots = 2u64 * (1 << 17);
    let per_slot_rps = 1.0 / 50e-6;
    t.row([
        "supported throughput (50us RPCs)".to_string(),
        format!("{:.2} BRPS", slots as f64 * per_slot_rps / 1e9),
        "~5.24 BRPS".to_string(),
    ]);
    t
}

/// Builds the unified report artifact. The CSV keeps its historical
/// `tab_resources` stem.
pub fn report() -> Report {
    Report::new("tab-res", TITLE).with_section("", "tab_resources", to_table())
}

/// The §4.1 resource report in the experiment registry (pure — ignores
/// the context).
pub const EXPERIMENT: Experiment = Experiment {
    id: "tab-res",
    title: TITLE,
    tags: &["table", "resources"],
    topology: "single-rack",
    run: |_| report(),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_of_envelope_matches_paper() {
        let md = report().to_markdown();
        assert!(md.contains("5.24 BRPS"), "{md}");
        assert!(md.contains("18.04%"));
    }

    #[test]
    fn measured_stages_are_7() {
        let sw = NetCloneSwitch::new(NetCloneConfig::paper_prototype());
        assert_eq!(sw.resource_report().stages_used, 7);
    }
}
