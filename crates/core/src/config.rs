//! Configuration of the NetClone switch program.

use crate::program::STAGE_FILTER0;
use netclone_asic::{AsicSpec, PortId};
use netclone_proto::SwitchId;

/// How the switch picks a destination when it does **not** clone.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Scheduling {
    /// Forward to the group's first candidate (the base design, §3.3 —
    /// group randomisation at the client supplies the load balancing).
    #[default]
    Random,
    /// RackSched integration (§3.7): the state tables hold queue lengths;
    /// when not cloning, fall back to join-the-shortest-queue between the
    /// two candidates (power-of-two choices).
    RackSched,
}

/// When the switch considers a candidate pair cloneable (§3.4).
///
/// The paper's design clones only when both tracked queues are empty
/// ([`CloneCondition::BothIdle`]). §3.4 also sketches the alternative it
/// rejected — cloning below a load threshold, "however, this requires
/// complex performance profiling to determine the threshold" — which is
/// implemented here as [`CloneCondition::QueueBelow`] so the ablation can
/// demonstrate exactly that sensitivity.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CloneCondition {
    /// Clone iff both tracked queues are empty (the paper's design).
    #[default]
    BothIdle,
    /// Clone iff both tracked queue lengths are strictly below the
    /// threshold. `QueueBelow(1)` ≡ `BothIdle`.
    QueueBelow(u16),
}

impl CloneCondition {
    /// Evaluates the condition against two tracked queue lengths.
    pub fn allows(self, q1: u16, q2: u16) -> bool {
        match self {
            CloneCondition::BothIdle => q1 == 0 && q2 == 0,
            CloneCondition::QueueBelow(t) => q1 < t && q2 < t,
        }
    }
}

/// How request IDs are assigned (§3.7 "Protocol support").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RequestIdMode {
    /// The switch's global sequence register (the UDP base design).
    #[default]
    SwitchSequence,
    /// Lamport-style `(CLIENT_ID, CLIENT_SEQ)` tuple, so TCP
    /// retransmissions of one request keep one request ID.
    ClientLamport,
}

/// Static configuration of one NetClone switch.
#[derive(Clone, Debug)]
pub struct NetCloneConfig {
    /// The ASIC capacity model to lay the program out on.
    pub spec: AsicSpec,
    /// Number of filter tables (the paper's prototype uses 2; must be
    /// ≥ 1 and fit the stage budget).
    pub num_filter_tables: usize,
    /// log2 of slots per filter table (the paper uses 2^17).
    pub filter_slots_log2: u8,
    /// Maximum servers the state tables are sized for.
    pub max_servers: usize,
    /// Destination selection when not cloning.
    pub scheduling: Scheduling,
    /// When a candidate pair is cloneable.
    pub clone_condition: CloneCondition,
    /// Request-ID assignment mode.
    pub req_id_mode: RequestIdMode,
    /// Master switch for cloning (disabling yields a plain scheduler).
    pub cloning_enabled: bool,
    /// Master switch for response filtering (Fig. 15 ablation).
    pub filtering_enabled: bool,
    /// Multi-packet request affinity (§3.7): packets of an already-cloned
    /// message are cloned regardless of tracked state.
    pub multi_packet_enabled: bool,
    /// This switch's identity for multi-rack gating (§3.7). Any non-zero
    /// value; single-rack deployments can leave the default.
    pub switch_id: SwitchId,
    /// The loopback port used for recirculation (§3.4).
    pub recirc_port: PortId,
}

impl Default for NetCloneConfig {
    fn default() -> Self {
        NetCloneConfig {
            spec: AsicSpec::tofino(),
            num_filter_tables: 2,
            filter_slots_log2: 17,
            max_servers: 256,
            scheduling: Scheduling::Random,
            clone_condition: CloneCondition::BothIdle,
            req_id_mode: RequestIdMode::SwitchSequence,
            cloning_enabled: true,
            filtering_enabled: true,
            multi_packet_enabled: false,
            switch_id: 1,
            recirc_port: 196,
        }
    }
}

impl NetCloneConfig {
    /// The paper's prototype configuration (2 × 2^17 filter tables, random
    /// scheduling, cloning + filtering on).
    pub fn paper_prototype() -> Self {
        Self::default()
    }

    /// Slots per filter table.
    pub fn filter_slots(&self) -> usize {
        1usize << self.filter_slots_log2
    }

    /// Validates invariants that must hold before building the program.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_filter_tables == 0 {
            return Err("need at least one filter table".into());
        }
        // Filter table `i` takes stage `STAGE_FILTER0 + i`.
        let limit = usize::from(self.spec.stages.saturating_sub(STAGE_FILTER0));
        if self.num_filter_tables > limit {
            return Err(format!(
                "num_filter_tables {} exceeds the {limit} stages the pipeline has \
                 left for filter tables",
                self.num_filter_tables
            ));
        }
        // The filter hash emits 1..=32 bits, and each filter table is one
        // register array of 4-byte cells in a stage of its own.
        if !(1..=32).contains(&self.filter_slots_log2) {
            return Err(format!(
                "filter_slots_log2 {} out of range 1..=32",
                self.filter_slots_log2
            ));
        }
        let table_bytes = 4u64 << self.filter_slots_log2;
        if table_bytes > self.spec.sram_per_stage_bytes {
            return Err(format!(
                "filter_slots_log2 {}: a {table_bytes}-byte filter table exceeds \
                 one stage's {} bytes of SRAM",
                self.filter_slots_log2, self.spec.sram_per_stage_bytes
            ));
        }
        if self.switch_id == 0 {
            return Err("switch_id 0 is reserved for 'unstamped' (§3.7)".into());
        }
        if self.max_servers == 0 || self.max_servers > u16::MAX as usize {
            return Err(format!("max_servers {} out of range", self.max_servers));
        }
        if self.clone_condition == CloneCondition::QueueBelow(0) {
            return Err("QueueBelow(0) never clones; use cloning_enabled=false".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_prototype() {
        let c = NetCloneConfig::default();
        assert_eq!(c.num_filter_tables, 2);
        assert_eq!(c.filter_slots(), 1 << 17);
        assert!(c.cloning_enabled);
        assert!(c.filtering_enabled);
        assert_eq!(c.scheduling, Scheduling::Random);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = NetCloneConfig {
            num_filter_tables: 0,
            ..NetCloneConfig::default()
        };
        assert!(c.validate().is_err());
        let c = NetCloneConfig {
            switch_id: 0,
            ..NetCloneConfig::default()
        };
        assert!(c.validate().is_err());
        let c = NetCloneConfig {
            max_servers: 0,
            ..NetCloneConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn filter_width_zero_is_rejected_by_name() {
        let c = NetCloneConfig {
            filter_slots_log2: 0,
            ..NetCloneConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("filter_slots_log2"), "{err}");
    }

    #[test]
    fn filter_width_past_the_hash_is_rejected_by_name() {
        let c = NetCloneConfig {
            filter_slots_log2: 33,
            ..NetCloneConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("filter_slots_log2"), "{err}");
    }

    #[test]
    fn filter_tables_past_the_last_stage_are_rejected_by_name() {
        let fits = NetCloneConfig {
            num_filter_tables: 7,
            ..NetCloneConfig::default()
        };
        assert!(fits.validate().is_ok());
        let _builds = crate::program::NetCloneSwitch::new(fits);
        let c = NetCloneConfig {
            num_filter_tables: 8,
            ..NetCloneConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("num_filter_tables"), "{err}");
        assert!(err.contains("the 7 stages"), "{err}");
    }

    #[test]
    fn filter_width_past_a_stage_is_rejected_by_name() {
        // 2^19 four-byte cells fill a Tofino stage's 2 MiB exactly; 2^20
        // do not fit.
        let fits = NetCloneConfig {
            filter_slots_log2: 19,
            ..NetCloneConfig::default()
        };
        assert!(fits.validate().is_ok());
        let _builds = crate::program::NetCloneSwitch::new(fits);
        let c = NetCloneConfig {
            filter_slots_log2: 20,
            ..NetCloneConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("filter_slots_log2"), "{err}");
        assert!(err.contains("SRAM"), "{err}");
    }
}
