#![allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]

//! Tests of the cloning-condition generalisation (§3.4's rejected
//! threshold alternative, kept as an ablation knob).

use netclone_core::{CloneCondition, NetCloneConfig, NetCloneSwitch, SwitchEngine};
use netclone_proto::{Ipv4, NetCloneHdr, PacketMeta, ServerState};

#[test]
fn condition_semantics() {
    assert!(CloneCondition::BothIdle.allows(0, 0));
    assert!(!CloneCondition::BothIdle.allows(0, 1));
    assert!(!CloneCondition::BothIdle.allows(3, 0));
    // QueueBelow(1) is exactly BothIdle.
    for (a, b) in [(0, 0), (0, 1), (1, 0), (2, 2)] {
        assert_eq!(
            CloneCondition::QueueBelow(1).allows(a, b),
            CloneCondition::BothIdle.allows(a, b)
        );
    }
    assert!(CloneCondition::QueueBelow(3).allows(2, 2));
    assert!(!CloneCondition::QueueBelow(3).allows(3, 0));
}

#[test]
fn queue_below_zero_is_rejected() {
    let mut cfg = NetCloneConfig::default();
    cfg.clone_condition = CloneCondition::QueueBelow(0);
    assert!(cfg.validate().is_err());
}

fn build(cond: CloneCondition) -> NetCloneSwitch {
    let mut cfg = NetCloneConfig::default();
    cfg.clone_condition = cond;
    let mut sw = NetCloneSwitch::new(cfg);
    for sid in 0..4u16 {
        sw.register_server(sid, Ipv4::server(sid), 10 + sid)
            .unwrap();
    }
    sw.register_route(Ipv4::client(0), 100).unwrap();
    sw
}

fn mark_busy(sw: &mut NetCloneSwitch, sid: u16, qlen: u16) {
    let probe = sw.process_collected(
        PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(1, 0, 0, 0), 84),
        100,
        0,
    );
    let nc = NetCloneHdr::response_to(&probe[0].pkt.nc, sid, ServerState(qlen));
    let resp = PacketMeta::netclone_response(Ipv4::server(sid), Ipv4::client(0), nc, 84);
    sw.process_collected(resp, 10, 0);
}

#[test]
fn threshold_clones_through_small_queues() {
    let mut sw = build(CloneCondition::QueueBelow(3));
    let (s1, s2) = sw.group(0).unwrap();
    mark_busy(&mut sw, s1, 2);
    mark_busy(&mut sw, s2, 2);
    // BothIdle would refuse; QueueBelow(3) clones.
    let out = sw.process_collected(
        PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(0, 0, 0, 0), 84),
        100,
        0,
    );
    assert_eq!(
        out.len(),
        2,
        "threshold condition must clone through qlen 2"
    );

    mark_busy(&mut sw, s1, 3);
    let out = sw.process_collected(
        PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(0, 0, 0, 0), 84),
        100,
        0,
    );
    assert_eq!(out.len(), 1, "qlen 3 exceeds the threshold");
}

#[test]
fn default_condition_matches_the_paper() {
    let mut sw = build(CloneCondition::BothIdle);
    let (s1, _s2) = sw.group(0).unwrap();
    mark_busy(&mut sw, s1, 1);
    let out = sw.process_collected(
        PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(0, 0, 0, 0), 84),
        100,
        0,
    );
    assert_eq!(out.len(), 1, "any non-empty queue suppresses cloning");
}
