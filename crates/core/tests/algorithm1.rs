#![allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]

//! Scripted scenarios verifying the paper's Algorithm 1 semantics and the
//! §3.7 extensions, packet by packet.

use netclone_asic::{EmissionSink, PortId};
use netclone_core::{NetCloneConfig, NetCloneSwitch, RequestIdMode, Scheduling, SwitchEngine};
use netclone_proto::{CloneStatus, Ipv4, MsgType, NetCloneHdr, PacketMeta, ServerId, ServerState};

const CLIENT_PORT: PortId = 2;

fn server_port(sid: ServerId) -> PortId {
    10 + sid
}

fn build_switch(n: u16, cfg: NetCloneConfig) -> NetCloneSwitch {
    let mut sw = NetCloneSwitch::new(cfg);
    for sid in 0..n {
        sw.register_server(sid, Ipv4::server(sid), server_port(sid))
            .unwrap();
    }
    sw.register_route(Ipv4::client(0), CLIENT_PORT).unwrap();
    sw
}

fn request(grp: u16, idx: u8) -> PacketMeta {
    PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(grp, idx, 0, 0), 84)
}

/// Builds the response a server would send for an emitted request.
fn response_for(emitted: &PacketMeta, sid: ServerId, state: u16) -> PacketMeta {
    let nc = NetCloneHdr::response_to(&emitted.nc, sid, ServerState(state));
    PacketMeta::netclone_response(Ipv4::server(sid), Ipv4::client(0), nc, 84)
}

fn ingest(sw: &mut NetCloneSwitch, pkt: PacketMeta) -> EmissionSink {
    sw.process_collected(pkt, CLIENT_PORT, 0)
}

#[test]
fn idle_pair_is_cloned_with_shared_request_id() {
    let mut sw = build_switch(4, NetCloneConfig::default());
    let (s1, s2) = sw.group(0).unwrap();
    let out = ingest(&mut sw, request(0, 0));
    assert_eq!(out.len(), 2, "original + clone");
    let orig = &out[0];
    let clone = &out[1];
    assert_eq!(orig.pkt.nc.clo, CloneStatus::ClonedOriginal);
    assert_eq!(clone.pkt.nc.clo, CloneStatus::Clone);
    assert_eq!(orig.pkt.nc.req_id, clone.pkt.nc.req_id);
    assert_ne!(
        orig.pkt.nc.req_id, 0,
        "request IDs never collide with the empty sentinel"
    );
    assert_eq!(orig.port, server_port(s1));
    assert_eq!(clone.port, server_port(s2));
    assert_eq!(orig.pkt.dst_ip, Ipv4::server(s1));
    assert_eq!(clone.pkt.dst_ip, Ipv4::server(s2));
    // The clone pays the recirculation: strictly larger in-switch latency.
    assert!(clone.latency_ns > orig.latency_ns);
    assert_eq!(sw.counters().cloned, 1);
}

#[test]
fn request_ids_are_monotonic() {
    let mut sw = build_switch(2, NetCloneConfig::default());
    let a = ingest(&mut sw, request(0, 0))[0].pkt.nc.req_id;
    let b = ingest(&mut sw, request(1, 0))[0].pkt.nc.req_id;
    let c = ingest(&mut sw, request(0, 0))[0].pkt.nc.req_id;
    assert_eq!(b, a + 1);
    assert_eq!(c, b + 1);
}

#[test]
fn busy_candidate_suppresses_cloning_and_routes_to_first() {
    let mut sw = build_switch(4, NetCloneConfig::default());
    let (s1, s2) = sw.group(0).unwrap();
    // A response from s2 reporting a non-empty queue marks it busy.
    let seed = ingest(&mut sw, request(1, 0)); // any request to learn hdr shape
    let resp = response_for(&seed[0].pkt, s2, 3);
    ingest(&mut sw, resp);
    assert_eq!(sw.tracked_state(s2).unwrap().queue_len(), 3);

    let out = ingest(&mut sw, request(0, 0));
    assert_eq!(out.len(), 1, "no clone when a candidate is busy");
    assert_eq!(out[0].pkt.nc.clo, CloneStatus::NotCloned);
    assert_eq!(out[0].port, server_port(s1), "base design forwards to Srv1");
    assert!(sw.counters().clone_skipped_busy >= 1);
}

#[test]
fn responses_update_both_state_tables() {
    let mut sw = build_switch(3, NetCloneConfig::default());
    let out = ingest(&mut sw, request(0, 0));
    let resp = response_for(&out[0].pkt, 1, 7);
    ingest(&mut sw, resp);
    assert_eq!(sw.tracked_state(1).unwrap().queue_len(), 7);
    assert!(
        sw.state_tables_consistent(),
        "shadow must mirror state (§3.4)"
    );
    // Back to idle.
    let resp = response_for(&out[0].pkt, 1, 0);
    ingest(&mut sw, resp);
    assert!(sw.tracked_state(1).unwrap().is_idle());
    assert!(sw.state_tables_consistent());
}

#[test]
fn slower_response_is_filtered_and_slot_is_cleared() {
    let mut sw = build_switch(4, NetCloneConfig::default());
    let out = ingest(&mut sw, request(0, 1));
    assert_eq!(out.len(), 2);
    let (s1, s2) = sw.group(0).unwrap();

    // Faster response (from the original) is forwarded to the client.
    let fast = response_for(&out[0].pkt, s1, 0);
    let fwd = ingest(&mut sw, fast);
    assert_eq!(fwd.len(), 1);
    assert_eq!(fwd[0].port, CLIENT_PORT);

    // Slower response (from the clone) is dropped.
    let slow = response_for(&out[1].pkt, s2, 0);
    let dropped = ingest(&mut sw, slow);
    assert!(
        dropped.is_empty(),
        "redundant slower response must be filtered"
    );
    assert_eq!(sw.counters().responses_filtered, 1);

    // The slot was cleared (line 20): a hypothetical third response with
    // the same ID would be treated as "faster" again, not dropped.
    let third = response_for(&out[0].pkt, s1, 0);
    assert_eq!(ingest(&mut sw, third).len(), 1);
}

#[test]
fn non_cloned_responses_bypass_the_filter() {
    let mut sw = build_switch(4, NetCloneConfig::default());
    // Make every server busy so nothing clones.
    for sid in 0..4u16 {
        let probe = ingest(&mut sw, request(0, 0));
        let r = response_for(&probe[0].pkt, sid, 5);
        ingest(&mut sw, r);
    }
    let out = ingest(&mut sw, request(0, 0));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].pkt.nc.clo, CloneStatus::NotCloned);
    // Even a duplicate delivery of the same non-cloned response passes the
    // filter untouched (CLO = 0 skips lines 17–25).
    let resp = response_for(&out[0].pkt, 0, 5);
    assert_eq!(ingest(&mut sw, resp).len(), 1);
    assert_eq!(ingest(&mut sw, resp).len(), 1);
    assert_eq!(sw.counters().responses_filtered, 0);
}

#[test]
fn writes_are_never_cloned() {
    let mut sw = build_switch(4, NetCloneConfig::default());
    let mut pkt = request(0, 0);
    // Clients mark non-cloneable requests (writes) with STATE=1 (§5.5).
    pkt.nc.state = ServerState(1);
    let out = ingest(&mut sw, pkt);
    assert_eq!(out.len(), 1, "writes must not be cloned");
    assert_eq!(out[0].pkt.nc.clo, CloneStatus::NotCloned);
    assert_eq!(sw.counters().clone_skipped_uncloneable, 1);
    assert_eq!(sw.counters().cloned, 0);
}

#[test]
fn filtering_can_be_disabled_for_the_ablation() {
    let mut cfg = NetCloneConfig::default();
    cfg.filtering_enabled = false;
    let mut sw = build_switch(4, cfg);
    let out = ingest(&mut sw, request(0, 0));
    assert_eq!(out.len(), 2);
    let (s1, s2) = sw.group(0).unwrap();
    let r1 = ingest(&mut sw, response_for(&out[0].pkt, s1, 0));
    let r2 = ingest(&mut sw, response_for(&out[1].pkt, s2, 0));
    assert_eq!(r1.len() + r2.len(), 2, "both responses reach the client");
    assert_eq!(sw.counters().responses_filtered, 0);
}

#[test]
fn cloning_can_be_disabled() {
    let mut cfg = NetCloneConfig::default();
    cfg.cloning_enabled = false;
    let mut sw = build_switch(4, cfg);
    for grp in 0..8 {
        let out = ingest(&mut sw, request(grp % 12, 0));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].pkt.nc.clo, CloneStatus::NotCloned);
    }
    assert_eq!(sw.counters().cloned, 0);
}

#[test]
fn racksched_fallback_joins_the_shorter_queue() {
    let mut cfg = NetCloneConfig::default();
    cfg.scheduling = Scheduling::RackSched;
    let mut sw = build_switch(4, cfg);
    let (s1, s2) = sw.group(0).unwrap();
    // s1 long queue, s2 short (but busy — so no cloning).
    let probe = ingest(&mut sw, request(2, 0));
    ingest(&mut sw, response_for(&probe[0].pkt, s1, 5));
    ingest(&mut sw, response_for(&probe[0].pkt, s2, 1));

    let out = ingest(&mut sw, request(0, 0));
    assert_eq!(out.len(), 1);
    assert_eq!(
        out[0].port,
        server_port(s2),
        "JSQ must pick the shorter queue"
    );
    assert!(sw.counters().jsq_fallbacks >= 1);

    // Both empty → still clones as usual (§3.7).
    ingest(&mut sw, response_for(&probe[0].pkt, s1, 0));
    ingest(&mut sw, response_for(&probe[0].pkt, s2, 0));
    let out = ingest(&mut sw, request(0, 0));
    assert_eq!(
        out.len(),
        2,
        "RackSched integration still clones on idle pairs"
    );
}

#[test]
fn multirack_gate_passes_foreign_packets_through() {
    let mut sw = build_switch(4, NetCloneConfig::default()); // our switch_id = 1
                                                             // A request already stamped by another ToR (switch 7), already addressed.
    let mut pkt = request(0, 0);
    pkt.nc.switch_id = 7;
    pkt.dst_ip = Ipv4::server(2);
    let out = ingest(&mut sw, pkt);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].port, server_port(2), "plain L3 routing only");
    assert_eq!(out[0].pkt.nc.req_id, 0, "no NetClone processing");
    assert_eq!(sw.counters().requests, 0);
    assert_eq!(sw.counters().routed_plain, 1);

    // A foreign response: no state update, no filtering.
    let mut resp = PacketMeta::netclone_response(
        Ipv4::server(2),
        Ipv4::client(0),
        NetCloneHdr {
            msg_type: MsgType::Resp,
            req_id: 99,
            grp: 0,
            sid: 2,
            state: ServerState(9),
            clo: CloneStatus::ClonedOriginal,
            idx: 0,
            switch_id: 7,
            client_id: 0,
            client_seq: 0,
        },
        84,
    );
    resp.l4_dport = netclone_proto::NETCLONE_UDP_PORT;
    let out = ingest(&mut sw, resp);
    assert_eq!(out.len(), 1);
    assert!(
        sw.tracked_state(2).unwrap().is_idle(),
        "foreign state not absorbed"
    );
}

#[test]
fn non_netclone_traffic_uses_plain_routing() {
    let mut sw = build_switch(2, NetCloneConfig::default());
    let mut pkt = request(0, 0);
    pkt.l4_dport = 53;
    pkt.dst_ip = Ipv4::server(1);
    let out = ingest(&mut sw, pkt);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].port, server_port(1));
    assert_eq!(sw.counters().routed_plain, 1);
    // Unroutable destination → dropped.
    let mut pkt = request(0, 0);
    pkt.l4_dport = 53;
    pkt.dst_ip = Ipv4::new(203, 0, 113, 9);
    assert!(ingest(&mut sw, pkt).is_empty());
    assert_eq!(sw.counters().dropped_unroutable, 1);
}

#[test]
fn unknown_group_is_dropped() {
    let mut sw = build_switch(2, NetCloneConfig::default());
    let out = ingest(&mut sw, request(999, 0));
    assert!(out.is_empty());
    assert_eq!(sw.counters().dropped_unroutable, 1);
}

#[test]
fn soft_state_reset_models_a_power_cycle() {
    let mut sw = build_switch(4, NetCloneConfig::default());
    // Learn some state.
    let out = ingest(&mut sw, request(0, 0));
    ingest(&mut sw, response_for(&out[0].pkt, 0, 9));
    let id_before = out[0].pkt.nc.req_id;
    assert!(!sw.tracked_state(0).unwrap().is_idle());

    sw.reset_soft_state();

    // Registers cleared: states idle again, sequence restarted (§3.6).
    assert!(sw.tracked_state(0).unwrap().is_idle());
    let out = ingest(&mut sw, request(0, 0));
    assert_eq!(
        out[0].pkt.nc.req_id, 1,
        "sequence restarts from 0 → first ID 1"
    );
    assert!(id_before >= 1);
    // Match-action tables survive: groups are still installed.
    assert_eq!(sw.num_groups(), 12);
}

#[test]
fn externally_recirculated_clone_is_finished_on_reentry() {
    // A soft switch that physically recirculates (netclone-net) re-injects
    // the CLO=1 copy on the loopback port; the program must finish it.
    let mut sw = build_switch(4, NetCloneConfig::default());
    let recirc = sw.config().recirc_port;
    let mut pkt = request(0, 0);
    pkt.nc.clo = CloneStatus::ClonedOriginal;
    pkt.nc.sid = 3;
    pkt.nc.req_id = 42;
    let out = sw.process_collected(pkt, recirc, 0);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].pkt.nc.clo, CloneStatus::Clone);
    assert_eq!(out[0].port, server_port(3));
    assert_eq!(out[0].pkt.dst_ip, Ipv4::server(3));
    assert_eq!(
        out[0].pkt.nc.req_id, 42,
        "request ID must not be reassigned"
    );
}

#[test]
fn multipacket_affinity_clones_followup_fragments() {
    let mut cfg = NetCloneConfig::default();
    cfg.multi_packet_enabled = true;
    let mut sw = build_switch(4, cfg);

    // Fragment 1 of message (client 3, seq 100) clones while idle.
    let mut frag1 = request(0, 0);
    frag1.nc.client_id = 3;
    frag1.nc.client_seq = 100;
    let out = ingest(&mut sw, frag1);
    assert_eq!(out.len(), 2);

    // Every server turns busy.
    for sid in 0..4u16 {
        ingest(&mut sw, response_for(&out[0].pkt, sid, 4));
    }

    // Fragment 2 of the SAME message must still clone (§3.7: "every packet
    // of a cloned request should be cloned regardless of system load").
    let mut frag2 = request(0, 0);
    frag2.nc.client_id = 3;
    frag2.nc.client_seq = 100;
    let out2 = ingest(&mut sw, frag2);
    assert_eq!(out2.len(), 2, "affinity must force the clone");
    assert_eq!(sw.counters().clone_forced_multipacket, 1);

    // A different message under load does not clone.
    let mut other = request(0, 0);
    other.nc.client_id = 3;
    other.nc.client_seq = 101;
    assert_eq!(ingest(&mut sw, other).len(), 1);
}

#[test]
fn lamport_request_ids_are_stable_across_retransmissions() {
    let mut cfg = NetCloneConfig::default();
    cfg.req_id_mode = RequestIdMode::ClientLamport;
    let mut sw = build_switch(4, cfg);
    let mut first = request(0, 0);
    first.nc.client_id = 9;
    first.nc.client_seq = 1234;
    let mut retx = first;
    let id1 = ingest(&mut sw, first)[0].pkt.nc.req_id;
    retx.nc.client_seq = 1234; // identical retransmission
    let id2 = ingest(&mut sw, retx)[0].pkt.nc.req_id;
    assert_eq!(
        id1, id2,
        "TCP retransmissions must keep one request ID (§3.7)"
    );
    // Different request → different ID.
    let mut next = request(0, 0);
    next.nc.client_id = 9;
    next.nc.client_seq = 1235;
    assert_ne!(ingest(&mut sw, next)[0].pkt.nc.req_id, id1);
}
