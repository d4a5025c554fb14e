//! Static resource layout and utilisation accounting.
//!
//! [`Layout`] is the "compiler": programs declare every stateful object
//! through it, it enforces the stage/SRAM budgets at declaration time, and
//! it produces the [`ResourceReport`] reproducing the §4.1 utilisation
//! metrics (stages, SRAM, match-input crossbar, hash bits, ALUs).

use crate::error::AsicError;
use crate::pass::PacketPass;
use crate::spec::AsicSpec;

/// Opaque identity of one allocated resource (used by [`crate::PacketPass`]
/// to detect double accesses). Always below [`PacketPass::MAX_RESOURCES`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct ResourceId(u8);

impl ResourceId {
    #[doc(hidden)]
    pub fn new_for_test(n: usize) -> Self {
        assert!(n < PacketPass::MAX_RESOURCES, "resource id {n} too wide");
        ResourceId(n as u8)
    }

    /// The id's bit position in the pass guard's mask.
    pub(crate) fn index(self) -> u32 {
        self.0.into()
    }
}

/// What kind of object an allocation is (for the report breakdown).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResourceKind {
    /// A stateful register array (data-plane read/write).
    Register,
    /// A match-action table (control-plane populated).
    MatchTable,
    /// A hash/CRC computation unit.
    HashUnit,
    /// Action logic that rewrites header fields (accounted for ALU usage).
    ActionEngine,
}

/// One allocation's footprint.
#[derive(Clone, Debug)]
pub struct Allocation {
    /// Human-readable name (e.g. `"FilterT[0]"`).
    pub name: String,
    /// Stage the object is bound to.
    pub stage: u8,
    /// Kind of object.
    pub kind: ResourceKind,
    /// SRAM consumed, bytes.
    pub sram_bytes: u64,
    /// Hash-distribution bits consumed.
    pub hash_bits: u64,
    /// ALUs consumed (stateful or action).
    pub alus: u32,
    /// Match-input crossbar bytes consumed.
    pub crossbar_bytes: u32,
}

/// The static layout of a pipeline program.
pub struct Layout {
    spec: AsicSpec,
    allocations: Vec<Allocation>,
    per_stage_sram: Vec<u64>,
}

impl Layout {
    /// Starts an empty layout for the given ASIC.
    pub fn new(spec: AsicSpec) -> Self {
        Layout {
            per_stage_sram: vec![0; spec.stages as usize],
            spec,
            allocations: Vec::new(),
        }
    }

    /// The ASIC capacity model this layout targets.
    pub fn spec(&self) -> &AsicSpec {
        &self.spec
    }

    /// Records an allocation, enforcing stage range, per-stage SRAM
    /// budget and the pass guard's resource limit. Returns the resource's
    /// identity.
    pub fn allocate(&mut self, alloc: Allocation) -> Result<ResourceId, AsicError> {
        if self.allocations.len() >= PacketPass::MAX_RESOURCES {
            return Err(AsicError::TooManyResources {
                limit: PacketPass::MAX_RESOURCES,
            });
        }
        if alloc.stage >= self.spec.stages {
            return Err(AsicError::StageOutOfRange {
                stage: alloc.stage,
                stages: self.spec.stages,
            });
        }
        let used = self.per_stage_sram[alloc.stage as usize] + alloc.sram_bytes;
        if used > self.spec.sram_per_stage_bytes {
            return Err(AsicError::SramBudgetExceeded {
                stage: alloc.stage,
                used_bytes: used,
                budget_bytes: self.spec.sram_per_stage_bytes,
            });
        }
        self.per_stage_sram[alloc.stage as usize] = used;
        // Ids are dense: the allocation's index, below the limit checked
        // above.
        let id = ResourceId(self.allocations.len() as u8);
        self.allocations.push(alloc);
        Ok(id)
    }

    /// All recorded allocations.
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// Computes the utilisation report (§4.1 metrics).
    pub fn report(&self, program_name: &str) -> ResourceReport {
        let stages_used = self
            .allocations
            .iter()
            .map(|a| a.stage + 1)
            .max()
            .unwrap_or(0);
        let sram: u64 = self.allocations.iter().map(|a| a.sram_bytes).sum();
        let hash: u64 = self.allocations.iter().map(|a| a.hash_bits).sum();
        let alus: u32 = self.allocations.iter().map(|a| a.alus).sum();
        let xbar: u32 = self.allocations.iter().map(|a| a.crossbar_bytes).sum();
        let register_sram: u64 = self
            .allocations
            .iter()
            .filter(|a| a.kind == ResourceKind::Register)
            .map(|a| a.sram_bytes)
            .sum();
        ResourceReport {
            program: program_name.to_string(),
            stages_used,
            stages_total: self.spec.stages,
            sram_bytes: sram,
            sram_pct: pct(sram, self.spec.sram_total_bytes),
            register_sram_bytes: register_sram,
            register_sram_pct: pct(register_sram, self.spec.sram_total_bytes),
            hash_bits: hash,
            hash_pct: pct(hash, self.spec.hash_bits_total),
            alus,
            alu_pct: pct(alus as u64, self.spec.alus_total as u64),
            crossbar_bytes: xbar,
            crossbar_pct: pct(xbar as u64, self.spec.crossbar_bytes_total as u64),
        }
    }
}

fn pct(used: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        used as f64 / total as f64 * 100.0
    }
}

/// Utilisation summary mirroring the metrics reported in §4.1 of the paper.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceReport {
    /// Program name.
    pub program: String,
    /// Match-action stages consumed (paper: 7 for two filter tables).
    pub stages_used: u8,
    /// Stages available.
    pub stages_total: u8,
    /// Total SRAM consumed, bytes.
    pub sram_bytes: u64,
    /// SRAM utilisation % (paper: 18.04 %).
    pub sram_pct: f64,
    /// SRAM consumed by register arrays alone, bytes (paper: ≈ 1.05 MB of
    /// filter tables).
    pub register_sram_bytes: u64,
    /// Register SRAM as % of switch memory (paper: 4.77 %).
    pub register_sram_pct: f64,
    /// Hash-distribution bits consumed.
    pub hash_bits: u64,
    /// Hash utilisation % (paper: 26.79 %).
    pub hash_pct: f64,
    /// ALUs consumed.
    pub alus: u32,
    /// ALU utilisation % (paper: 21.43 %).
    pub alu_pct: f64,
    /// Match-input crossbar bytes consumed.
    pub crossbar_bytes: u32,
    /// Crossbar utilisation % (paper: 12.28 %).
    pub crossbar_pct: f64,
}

impl std::fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "program: {}", self.program)?;
        writeln!(
            f,
            "  stages:   {} / {} used",
            self.stages_used, self.stages_total
        )?;
        writeln!(
            f,
            "  SRAM:     {:.2}% ({} bytes; registers {:.2}% = {} bytes)",
            self.sram_pct, self.sram_bytes, self.register_sram_pct, self.register_sram_bytes
        )?;
        writeln!(
            f,
            "  hash:     {:.2}% ({} bits)",
            self.hash_pct, self.hash_bits
        )?;
        writeln!(f, "  ALUs:     {:.2}% ({})", self.alu_pct, self.alus)?;
        writeln!(
            f,
            "  crossbar: {:.2}% ({} bytes)",
            self.crossbar_pct, self.crossbar_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(stage: u8, sram: u64) -> Allocation {
        Allocation {
            name: "t".into(),
            stage,
            kind: ResourceKind::Register,
            sram_bytes: sram,
            hash_bits: 10,
            alus: 1,
            crossbar_bytes: 2,
        }
    }

    #[test]
    fn allocations_get_distinct_ids() {
        let mut l = Layout::new(AsicSpec::tofino());
        let a = l.allocate(alloc(0, 100)).unwrap();
        let b = l.allocate(alloc(0, 100)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn resource_limit_is_a_structured_error() {
        let mut l = Layout::new(AsicSpec::tofino());
        let mut pass = PacketPass::new();
        for _ in 0..PacketPass::MAX_RESOURCES {
            let id = l.allocate(alloc(0, 1)).unwrap();
            pass.access(id, 0).unwrap();
        }
        assert_eq!(pass.accesses(), PacketPass::MAX_RESOURCES);
        assert_eq!(
            l.allocate(alloc(0, 1)),
            Err(AsicError::TooManyResources {
                limit: PacketPass::MAX_RESOURCES
            })
        );
        // A refused allocation consumes nothing.
        assert_eq!(l.allocations().len(), PacketPass::MAX_RESOURCES);
    }

    #[test]
    fn stage_out_of_range_is_rejected() {
        let mut l = Layout::new(AsicSpec::tofino());
        let err = l.allocate(alloc(12, 100)).unwrap_err();
        assert!(matches!(err, AsicError::StageOutOfRange { stage: 12, .. }));
    }

    #[test]
    fn sram_budget_is_per_stage() {
        let spec = AsicSpec::tofino();
        let mut l = Layout::new(spec);
        let budget = spec.sram_per_stage_bytes;
        l.allocate(alloc(3, budget)).unwrap();
        // Same stage: full.
        assert!(matches!(
            l.allocate(alloc(3, 1)),
            Err(AsicError::SramBudgetExceeded { stage: 3, .. })
        ));
        // Different stage: fine.
        l.allocate(alloc(4, budget)).unwrap();
    }

    #[test]
    fn report_totals_and_percentages() {
        let spec = AsicSpec::tofino();
        let mut l = Layout::new(spec);
        l.allocate(alloc(0, 1_000)).unwrap();
        l.allocate(alloc(6, 2_000)).unwrap();
        let r = l.report("test");
        assert_eq!(r.stages_used, 7);
        assert_eq!(r.sram_bytes, 3_000);
        assert_eq!(r.hash_bits, 20);
        assert_eq!(r.alus, 2);
        assert_eq!(r.crossbar_bytes, 4);
        let expect_pct = 3_000.0 / spec.sram_total_bytes as f64 * 100.0;
        assert!((r.sram_pct - expect_pct).abs() < 1e-9);
        assert!(r.to_string().contains("stages:   7 / 12"));
    }

    #[test]
    fn empty_layout_reports_zero() {
        let l = Layout::new(AsicSpec::tofino());
        let r = l.report("empty");
        assert_eq!(r.stages_used, 0);
        assert_eq!(r.sram_bytes, 0);
    }
}
