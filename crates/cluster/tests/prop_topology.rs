//! Property tests for the two-tier fabric (§3.7): for *any* topology —
//! 1–8 racks, 1–16 servers per rack, arbitrary client placement — every
//! request reaches a registered server, every response returns to its
//! client, nothing loops, and NetClone logic fires only at the
//! client-side ToR (the SWITCH_ID gate).

mod common;

use common::walk;
use netclone_cluster::{build_fabric, Scenario, Scheme, Sim, Topology};
use netclone_proto::{Ipv4, NetCloneHdr, PacketMeta, ServerState};
use netclone_workloads::exp25;
use proptest::prelude::*;

/// A random two-tier shape: explicit placements so every corner —
/// all-in-one-rack, fully spread, client-only racks — is reachable.
#[derive(Clone, Debug)]
struct Shape {
    racks: usize,
    server_racks: Vec<usize>,
    client_racks: Vec<usize>,
}

fn shapes() -> impl Strategy<Value = Shape> {
    // Rack indices are drawn from the widest range and folded into the
    // drawn rack count, so every placement — all-in-one-rack, fully
    // spread, client-only racks — is reachable. ≥ 2 servers (the
    // NetClone minimum), up to 16 per rack.
    (
        1usize..9,
        proptest::collection::vec(0usize..8, 2..=24),
        proptest::collection::vec(0usize..8, 1..=4),
    )
        .prop_map(|(racks, server_racks, client_racks)| Shape {
            racks,
            server_racks: server_racks.into_iter().map(|r| r % racks).collect(),
            client_racks: client_racks.into_iter().map(|r| r % racks).collect(),
        })
}

fn scenario_for(shape: &Shape) -> Scenario {
    let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e5);
    s.servers.truncate(2);
    while s.servers.len() < shape.server_racks.len() {
        s.servers.push(s.servers[0]);
    }
    s.n_clients = shape.client_racks.len();
    s.topology = Topology::uniform(shape.racks)
        .with_server_racks(shape.server_racks.clone())
        .with_client_racks(shape.client_racks.clone());
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Request/response reachability and the §3.7 gate, packet by packet.
    #[test]
    fn every_request_reaches_a_server_and_returns(shape in shapes(), seq in 0u32..1000) {
        let scenario = scenario_for(&shape);
        let mut fabric = build_fabric(&scenario);
        let n_servers = shape.server_racks.len();

        for (cid, &rack) in shape.client_racks.iter().enumerate() {
            let tor = fabric.client_leaf(cid);
            prop_assert_eq!(tor, rack);
            let grp = (seq as u16 + cid as u16) % fabric.engines[tor].num_groups();
            let req = PacketMeta::netclone_request(
                Ipv4::client(cid as u16),
                NetCloneHdr::request(grp, 0, cid as u16, seq),
                84,
            );
            let (delivered, _) = walk(&mut fabric, tor, req);

            // Reaches one server, or two distinct ones when cloned.
            prop_assert!(!delivered.is_empty(), "request vanished");
            prop_assert!(delivered.len() <= 2);
            let mut ports: Vec<u16> = delivered.iter().map(|d| d.2).collect();
            ports.dedup();
            prop_assert_eq!(ports.len(), delivered.len(), "same server twice");
            for &(sw, pkt, port) in &delivered {
                let sid = (port - 10) as usize;
                prop_assert!(sid < n_servers, "unknown server port {port}");
                prop_assert_eq!(sw, fabric.server_leaf(sid), "wrong rack");
                // Stamped by the client-side ToR, and by nothing else.
                prop_assert_eq!(pkt.nc.switch_id as usize, tor + 1);

                // The response finds its way back to exactly this client.
                let nc = NetCloneHdr::response_to(&pkt.nc, sid as u16, ServerState(0));
                let resp = PacketMeta::netclone_response(
                    Ipv4::server(sid as u16),
                    Ipv4::client(cid as u16),
                    nc,
                    84,
                );
                let server_tor = fabric.server_leaf(sid);
                let (back, _) = walk(&mut fabric, server_tor, resp);
                // The first response survives the filter; a cloned
                // sibling may be dropped, but nothing is misdelivered.
                for &(bsw, _, bport) in &back {
                    prop_assert_eq!(bsw, tor);
                    prop_assert_eq!(bport, 100 + cid as u16);
                }
            }
        }

        // The gate: NetClone request processing happened only at
        // client-bearing leaves, never at server-only leaves or the spine.
        for (sw, c) in fabric.counters().iter().enumerate() {
            let is_client_tor = shape.client_racks.contains(&sw);
            if !is_client_tor {
                prop_assert_eq!(c.requests, 0, "switch {sw} ran NetClone logic");
                prop_assert_eq!(c.cloned, 0);
                prop_assert_eq!(c.responses, 0);
            }
            prop_assert_eq!(c.dropped_unroutable, 0, "switch {sw} dropped packets");
        }
    }

    /// Whole-simulation conservation on random multi-rack shapes: the
    /// fleet completes work, cloning happens only at client ToRs, and the
    /// fabric-wide counters stay consistent.
    #[test]
    fn full_runs_conserve_on_any_topology(shape in shapes(), seed in any::<u64>()) {
        let mut s = scenario_for(&shape);
        s.warmup_ns = 1_000_000;
        s.measure_ns = 4_000_000;
        s.offered_rps = (s.capacity_rps() * 0.4).max(10_000.0);
        s.seed = seed;
        let r = Sim::run(s);
        prop_assert!(r.completed > 0);
        prop_assert_eq!(r.per_switch.len(), if shape.racks == 1 { 1 } else { shape.racks + 1 });
        prop_assert_eq!(
            r.switch.requests,
            r.switch.cloned + r.switch.clone_skipped_busy + r.switch.clone_skipped_uncloneable
        );
        prop_assert_eq!(r.switch.cloned, r.switch.recirculated);
        for (sw, c) in r.per_switch.iter().enumerate() {
            if !shape.client_racks.contains(&sw) {
                prop_assert_eq!(c.cloned, 0, "cloning outside a client ToR (switch {sw})");
            }
            prop_assert_eq!(c.dropped_unroutable, 0);
        }
    }
}
