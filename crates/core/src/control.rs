//! The switch control plane.
//!
//! Installs servers and clients, (re)builds the group table, and handles
//! the §3.6 failure procedures: removing a failed server "by updating
//! relevant tables (e.g., the group table and the address table) in the
//! switch data plane", and reinstalling table entries after a switch
//! power-cycle (register soft state is *not* reinstalled — it reconverges
//! from subsequent responses). The operations themselves are the
//! program's [`SwitchEngine`](crate::SwitchEngine) implementation
//! (`register_server`, `deregister_server`, `register_route`,
//! `install_custom_groups`); this module holds the control plane's
//! read-only views.

use netclone_proto::ServerId;

use crate::program::NetCloneSwitch;

impl NetCloneSwitch {
    /// The registered server set, in registration order.
    pub fn servers(&self) -> &[ServerId] {
        &self.servers
    }

    /// Control-plane peek at a group entry (tests/diagnostics).
    pub fn group(&self, gid: u16) -> Option<(ServerId, ServerId)> {
        self.grp_t.peek(gid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetCloneConfig;
    use crate::engine::{EngineError, SwitchEngine};
    use netclone_proto::Ipv4;

    fn switch_with(n: u16) -> NetCloneSwitch {
        let mut sw = NetCloneSwitch::new(NetCloneConfig::default());
        for sid in 0..n {
            sw.register_server(sid, Ipv4::server(sid), 10 + sid)
                .unwrap();
        }
        sw
    }

    #[test]
    fn adding_servers_builds_ordered_pair_groups() {
        let sw = switch_with(3);
        assert_eq!(sw.num_groups(), 6); // 3 × 2
        let mut firsts = std::collections::HashSet::new();
        for g in 0..6 {
            let (a, b) = sw.group(g).unwrap();
            assert_ne!(a, b);
            firsts.insert(a);
        }
        assert_eq!(firsts.len(), 3, "every server leads some group");
    }

    #[test]
    fn duplicate_and_unknown_sids_are_rejected() {
        let mut sw = switch_with(2);
        assert_eq!(
            sw.register_server(1, Ipv4::server(1), 11),
            Err(EngineError::DuplicateSid(1))
        );
        assert_eq!(sw.deregister_server(9), Err(EngineError::UnknownSid(9)));
    }

    #[test]
    fn sid_out_of_range_is_rejected() {
        let cfg = NetCloneConfig {
            max_servers: 4,
            ..NetCloneConfig::default()
        };
        let mut sw = NetCloneSwitch::new(cfg);
        assert!(matches!(
            sw.register_server(4, Ipv4::server(4), 10),
            Err(EngineError::SidOutOfRange { sid: 4, max: 4 })
        ));
    }

    #[test]
    fn removing_a_server_shrinks_the_groups() {
        let mut sw = switch_with(4);
        assert_eq!(sw.num_groups(), 12);
        sw.deregister_server(2).unwrap();
        assert_eq!(sw.num_groups(), 6); // 3 servers remain
        for g in 0..6 {
            let (a, b) = sw.group(g).unwrap();
            assert_ne!(a, 2, "failed server must not appear in any group");
            assert_ne!(b, 2);
        }
        assert_eq!(sw.servers(), &[0, 1, 3]);
    }

    #[test]
    fn resource_report_matches_section_4_1() {
        let sw = switch_with(6);
        let r = sw.resource_report();
        // Paper §4.1: 7 stages with two filter tables.
        assert_eq!(r.stages_used, 7);
        // Filter registers ≈ 1.05 MB = two 2^17 × 4 B tables; the register
        // total also counts the small state/shadow/seq/affinity arrays.
        let filter_bytes = 2 * (1 << 17) * 4;
        assert!(r.register_sram_bytes >= filter_bytes);
        assert!(r.register_sram_bytes < filter_bytes + 64 * 1024);
        // The §4.1 utilisation ballparks (calibrated denominators, see
        // AsicSpec docs): SRAM 18.04 %, hash 26.79 %, ALUs 21.43 %,
        // crossbar 12.28 %.
        assert!((15.0..22.0).contains(&r.sram_pct), "SRAM {}%", r.sram_pct);
        assert!((20.0..33.0).contains(&r.hash_pct), "hash {}%", r.hash_pct);
        assert!((15.0..28.0).contains(&r.alu_pct), "ALU {}%", r.alu_pct);
        assert!(
            (8.0..17.0).contains(&r.crossbar_pct),
            "crossbar {}%",
            r.crossbar_pct
        );
        // Register share of switch memory ≈ 4.77 %.
        assert!(
            (4.4..5.4).contains(&r.register_sram_pct),
            "register share {}%",
            r.register_sram_pct
        );
    }
}
