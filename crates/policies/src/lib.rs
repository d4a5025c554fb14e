//! # netclone-policies
//!
//! The schemes NetClone is evaluated against (paper §5.1.3):
//!
//! * **Baseline** — "sends requests to workers randomly without cloning".
//!   Client-side random addressing over a plain L3 switch
//!   ([`PlainL3Switch`]).
//! * **C-Clone** — "the client-based cloning mechanism that always sends
//!   duplicate requests to two random worker servers". Same plain switch;
//!   the duplication lives in the client
//!   ([`netclone_hosts::ClientMode::DirectDuplicate`]).
//! * **LÆDGE** — "performs dynamic cloning using the coordinator"
//!   ([`LaedgeCoordinator`]): a CPU-bound host that queues requests, clones
//!   only when ≥ 2 servers are idle, and relays every response — which is
//!   precisely why it cannot scale (§2.2).
//! * **RackSched** — the in-network JSQ scheduler (§6). The §3.7
//!   integration means a standalone RackSched is just the NetClone program
//!   with cloning disabled and the JSQ fallback always active
//!   ([`racksched_switch`]).

pub mod laedge;
pub mod plain;

pub use laedge::{CoordinatorConfig, CoordinatorEvent, LaedgeCoordinator};
pub use plain::PlainL3Switch;

use netclone_core::{NetCloneConfig, NetCloneSwitch, Scheduling};

/// Builds a standalone RackSched switch: queue-length state tracking and
/// JSQ power-of-two scheduling, **no** cloning, no filtering (nothing is
/// ever redundant without clones).
pub fn racksched_switch(mut cfg: NetCloneConfig) -> NetCloneSwitch {
    cfg.cloning_enabled = false;
    cfg.scheduling = Scheduling::RackSched;
    NetCloneSwitch::new(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclone_core::SwitchEngine;
    use netclone_proto::{Ipv4, NetCloneHdr, PacketMeta, ServerState};

    #[test]
    fn racksched_switch_never_clones_and_balances() {
        let mut sw = racksched_switch(NetCloneConfig::default());
        for sid in 0..4u16 {
            sw.register_server(sid, Ipv4::server(sid), 10 + sid)
                .unwrap();
        }
        sw.register_route(Ipv4::client(0), 2).unwrap();
        // Load server states: group 0's first candidate busy, second idle.
        let (s1, s2) = sw.group(0).unwrap();
        let probe = sw.process_collected(
            PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(1, 0, 0, 0), 84),
            2,
            0,
        );
        let resp = PacketMeta::netclone_response(
            Ipv4::server(s1),
            Ipv4::client(0),
            NetCloneHdr::response_to(&probe[0].pkt.nc, s1, ServerState(5)),
            84,
        );
        sw.process_collected(resp, 10, 0);

        let out = sw.process_collected(
            PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(0, 0, 0, 0), 84),
            2,
            0,
        );
        assert_eq!(out.len(), 1, "RackSched never clones");
        assert_eq!(out[0].port, 10 + s2, "JSQ picks the idle candidate");
        assert_eq!(sw.counters().cloned, 0);
    }
}
