//! The switch control plane.
//!
//! Installs servers and clients, (re)builds the group table, and handles
//! the §3.6 failure procedures: removing a failed server "by updating
//! relevant tables (e.g., the group table and the address table) in the
//! switch data plane", and reinstalling table entries after a switch
//! power-cycle (register soft state is *not* reinstalled — it reconverges
//! from subsequent responses).

use netclone_asic::PortId;
use netclone_proto::{Ipv4, ServerId};

use crate::groups::build_groups;
use crate::program::NetCloneSwitch;

/// Errors returned by control-plane operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlError {
    /// The server ID is outside the state tables' static range.
    SidOutOfRange {
        /// The offending server ID.
        sid: ServerId,
        /// Size of the state tables.
        max: usize,
    },
    /// The server ID is already registered.
    DuplicateSid(ServerId),
    /// The server ID is not registered.
    UnknownSid(ServerId),
    /// A table rejected the update (capacity).
    Table(netclone_asic::AsicError),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::SidOutOfRange { sid, max } => {
                write!(f, "server id {sid} out of range (max {max})")
            }
            ControlError::DuplicateSid(s) => write!(f, "server id {s} already registered"),
            ControlError::UnknownSid(s) => write!(f, "server id {s} not registered"),
            ControlError::Table(e) => write!(f, "table update failed: {e}"),
        }
    }
}

impl std::error::Error for ControlError {}

impl NetCloneSwitch {
    /// Registers a worker server: installs its address/port and rebuilds
    /// the group table over the new server set.
    pub fn add_server(
        &mut self,
        sid: ServerId,
        ip: Ipv4,
        port: PortId,
    ) -> Result<(), ControlError> {
        if sid as usize >= self.cfg.max_servers {
            return Err(ControlError::SidOutOfRange {
                sid,
                max: self.cfg.max_servers,
            });
        }
        if self.servers.contains(&sid) {
            return Err(ControlError::DuplicateSid(sid));
        }
        self.addr_t
            .insert(sid, (ip.0, port))
            .map_err(ControlError::Table)?;
        self.route_t
            .insert(ip.0, port)
            .map_err(ControlError::Table)?;
        self.servers.push(sid);
        self.rebuild_groups()?;
        // A fresh (or recovered) server starts tracked-idle; its first
        // response corrects this if wrong.
        self.state_t.poke(sid as usize, 0);
        self.shadow_t.poke(sid as usize, 0);
        Ok(())
    }

    /// §3.6 "Server failures": removes a failed server from every relevant
    /// table so no new requests (cloned or not) are steered to it.
    pub fn remove_server(&mut self, sid: ServerId) -> Result<(), ControlError> {
        let Some(pos) = self.servers.iter().position(|&s| s == sid) else {
            return Err(ControlError::UnknownSid(sid));
        };
        self.servers.remove(pos);
        self.addr_t.remove(sid);
        self.rebuild_groups()?;
        Ok(())
    }

    /// Installs a plain L3 route (e.g. toward an aggregation switch in
    /// multi-rack topologies).
    pub fn add_route(&mut self, ip: Ipv4, port: PortId) -> Result<(), ControlError> {
        self.route_t.insert(ip.0, port).map_err(ControlError::Table)
    }

    /// The registered server set, in registration order.
    pub fn servers(&self) -> &[ServerId] {
        &self.servers
    }

    /// Rebuilds the group table as the ordered 2-permutations of the
    /// current server set (§3.3).
    fn rebuild_groups(&mut self) -> Result<(), ControlError> {
        self.grp_t.clear();
        let pairs = build_groups(&self.servers);
        for (gid, pair) in pairs.into_iter().enumerate() {
            self.grp_t
                .insert(gid as u16, pair)
                .map_err(ControlError::Table)?;
        }
        Ok(())
    }

    /// Control-plane peek at a group entry (tests/diagnostics).
    pub fn group(&self, gid: u16) -> Option<(ServerId, ServerId)> {
        self.grp_t.peek(gid)
    }

    /// Replaces the group table with an explicit pair list (ablation
    /// support: e.g. unordered C(n,2) groups to demonstrate why the paper
    /// doubles them, §3.3).
    pub fn install_custom_groups(
        &mut self,
        pairs: &[(ServerId, ServerId)],
    ) -> Result<(), ControlError> {
        self.grp_t.clear();
        for (gid, &pair) in pairs.iter().enumerate() {
            self.grp_t
                .insert(gid as u16, pair)
                .map_err(ControlError::Table)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetCloneConfig;

    fn switch_with(n: u16) -> NetCloneSwitch {
        let mut sw = NetCloneSwitch::new(NetCloneConfig::default());
        for sid in 0..n {
            sw.add_server(sid, Ipv4::server(sid), 10 + sid).unwrap();
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
            sw.add_server(1, Ipv4::server(1), 11),
            Err(ControlError::DuplicateSid(1))
        );
        assert_eq!(sw.remove_server(9), Err(ControlError::UnknownSid(9)));
    }

    #[test]
    fn sid_out_of_range_is_rejected() {
        let cfg = NetCloneConfig {
            max_servers: 4,
            ..NetCloneConfig::default()
        };
        let mut sw = NetCloneSwitch::new(cfg);
        assert!(matches!(
            sw.add_server(4, Ipv4::server(4), 10),
            Err(ControlError::SidOutOfRange { sid: 4, max: 4 })
        ));
    }

    #[test]
    fn removing_a_server_shrinks_the_groups() {
        let mut sw = switch_with(4);
        assert_eq!(sw.num_groups(), 12);
        sw.remove_server(2).unwrap();
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
