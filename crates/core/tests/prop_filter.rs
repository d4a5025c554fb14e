#![allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]

//! Property tests for the response-filtering and state-tracking invariants
//! under arbitrary interleavings.

use netclone_core::{NetCloneConfig, NetCloneSwitch, SwitchEngine};
use netclone_proto::{Ipv4, NetCloneHdr, PacketMeta, ServerState};
use proptest::prelude::*;

const CLIENT_PORT: u16 = 2;

fn build(n: u16) -> NetCloneSwitch {
    let mut sw = NetCloneSwitch::new(NetCloneConfig::default());
    for sid in 0..n {
        sw.register_server(sid, Ipv4::server(sid), 10 + sid)
            .unwrap();
    }
    sw.register_route(Ipv4::client(0), CLIENT_PORT).unwrap();
    sw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any batch of cloned requests and any interleaving of their
    /// responses, the client receives at least one and at most two
    /// responses per request, and forwarded + filtered = total.
    #[test]
    fn client_always_gets_an_answer(
        n_requests in 1usize..40,
        idxs in proptest::collection::vec(any::<u8>(), 40),
        order_seed in any::<u64>(),
    ) {
        let mut sw = build(6);
        let mut pending = Vec::new(); // (req_id, response pkt)
        for i in 0..n_requests {
            let grp = (i % sw.num_groups() as usize) as u16;
            let pkt = PacketMeta::netclone_request(
                Ipv4::client(0),
                NetCloneHdr::request(grp, idxs[i], 0, i as u32),
                84,
            );
            let out = sw.process_collected(pkt, CLIENT_PORT, 0);
            // All servers stay tracked-idle (no responses carry busy
            // states), so every request clones.
            prop_assert_eq!(out.len(), 2);
            for e in out {
                let nc = NetCloneHdr::response_to(&e.pkt.nc, e.pkt.nc.sid, ServerState(0));
                let resp = PacketMeta::netclone_response(
                    e.pkt.dst_ip,
                    Ipv4::client(0),
                    nc,
                    84,
                );
                pending.push((e.pkt.nc.req_id, resp));
            }
        }

        // Deterministic shuffle of response order.
        let mut rng_state = order_seed | 1;
        for i in (1..pending.len()).rev() {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (rng_state >> 33) as usize % (i + 1);
            pending.swap(i, j);
        }

        let mut forwarded = std::collections::HashMap::new();
        let total = pending.len() as u64;
        for (req_id, resp) in pending {
            let out = sw.process_collected(resp, 10, 0);
            if !out.is_empty() {
                *forwarded.entry(req_id).or_insert(0u32) += 1;
            }
        }
        for (&req_id, &count) in &forwarded {
            prop_assert!(count <= 2, "req {req_id} forwarded {count} times");
        }
        prop_assert_eq!(forwarded.len(), n_requests,
            "every request must deliver at least one response");
        let fwd_total: u32 = forwarded.values().sum();
        prop_assert_eq!(
            fwd_total as u64 + sw.counters().responses_filtered,
            total
        );
    }

    /// The state table and its shadow stay identical under any packet mix
    /// (the §3.4 consistency argument).
    #[test]
    fn state_and_shadow_never_diverge(
        script in proptest::collection::vec((0u16..6, 0u16..10, any::<bool>()), 1..100)
    ) {
        let mut sw = build(6);
        let mut last_req: Option<PacketMeta> = None;
        for (sid, qlen, send_request) in script {
            if send_request || last_req.is_none() {
                let pkt = PacketMeta::netclone_request(
                    Ipv4::client(0),
                    NetCloneHdr::request(sid % sw.num_groups(), 0, 0, 0),
                    84,
                );
                let out = sw.process_collected(pkt, CLIENT_PORT, 0);
                if let Some(e) = out.first() {
                    last_req = Some(e.pkt);
                }
            }
            if let Some(req) = last_req {
                let nc = NetCloneHdr::response_to(&req.nc, sid, ServerState(qlen));
                let resp = PacketMeta::netclone_response(
                    Ipv4::server(sid),
                    Ipv4::client(0),
                    nc,
                    84,
                );
                sw.process_collected(resp, 10, 0);
            }
            prop_assert!(sw.state_tables_consistent());
        }
    }

    /// Tracked state equals the last piggybacked state for each server,
    /// regardless of interleaving.
    #[test]
    fn tracked_state_is_last_writer_wins(
        updates in proptest::collection::vec((0u16..4, 0u16..8), 1..60)
    ) {
        let mut sw = build(4);
        let probe = sw.process_collected(
            PacketMeta::netclone_request(
                Ipv4::client(0),
                NetCloneHdr::request(0, 0, 0, 0),
                84,
            ),
            CLIENT_PORT,
            0,
        );
        let req = probe[0].pkt;
        let mut expected = [0u16; 4];
        for (sid, qlen) in updates {
            let nc = NetCloneHdr::response_to(&req.nc, sid, ServerState(qlen));
            let resp = PacketMeta::netclone_response(Ipv4::server(sid), Ipv4::client(0), nc, 84);
            sw.process_collected(resp, 10, 0);
            expected[sid as usize] = qlen;
        }
        for sid in 0..4u16 {
            prop_assert_eq!(
                sw.tracked_state(sid).unwrap().queue_len(),
                expected[sid as usize]
            );
        }
    }
}
