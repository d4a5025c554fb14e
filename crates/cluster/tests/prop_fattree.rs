//! Property tests for the k-ary fat-tree fabric: for *any* radix
//! (k ∈ {4, 6, 8}), oversubscription ratio, host placement, and ECMP
//! hash seed —
//!
//! * every request reaches a registered server and its response returns
//!   to the issuing client, through the full leaf→agg→core walk;
//! * ECMP walks are loop-free (≤ 4 switch hops) and per-flow stable: a
//!   fixed (src, dst, seed) flow takes the same path every time;
//! * a congested full run conserves packets at every link tier:
//!   everything offered to a tier is forwarded or dropped there, nothing
//!   is minted or lost.

mod common;

use common::walk;
use netclone_cluster::{build_fabric, Scenario, Scheme, Sim, Topology};
use netclone_linksim::LinkSpec;
use netclone_proto::{Ipv4, NetCloneHdr, PacketMeta, ServerState};
use netclone_workloads::exp25;
use proptest::prelude::*;

/// A random fat-tree shape: radix plus explicit placements, so every
/// corner — all hosts in one pod, fully spread, client-only racks — is
/// reachable.
#[derive(Clone, Debug)]
struct Shape {
    k: usize,
    server_racks: Vec<usize>,
    client_racks: Vec<usize>,
    ecmp_seed: u64,
}

fn shapes() -> impl Strategy<Value = Shape> {
    (
        prop_oneof![Just(4usize), Just(6), Just(8)],
        proptest::collection::vec(0usize..32, 2..=24),
        proptest::collection::vec(0usize..32, 1..=4),
        any::<u64>(),
    )
        .prop_map(|(k, server_racks, client_racks, ecmp_seed)| {
            let racks = k * k / 2;
            Shape {
                k,
                server_racks: server_racks.into_iter().map(|r| r % racks).collect(),
                client_racks: client_racks.into_iter().map(|r| r % racks).collect(),
                ecmp_seed,
            }
        })
}

fn scenario_for(shape: &Shape) -> Scenario {
    let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e5);
    s.servers.truncate(2);
    while s.servers.len() < shape.server_racks.len() {
        s.servers.push(s.servers[0]);
    }
    s.n_clients = shape.client_racks.len();
    s.topology = Topology::fat_tree(shape.k)
        .with_server_racks(shape.server_racks.clone())
        .with_client_racks(shape.client_racks.clone())
        .with_ecmp_seed(shape.ecmp_seed);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Request/response reachability through the three-tier walk, and
    /// the §3.7 gate: NetClone logic only at client-bearing leaves.
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

            prop_assert!(!delivered.is_empty(), "request vanished");
            prop_assert!(delivered.len() <= 2);
            for &(sw, pkt, port) in &delivered {
                let sid = (port - 10) as usize;
                prop_assert!(sid < n_servers, "unknown server port {port}");
                prop_assert_eq!(sw, fabric.server_leaf(sid), "wrong rack");
                prop_assert_eq!(pkt.nc.switch_id as usize, tor + 1);

                let nc = NetCloneHdr::response_to(&pkt.nc, sid as u16, ServerState(0));
                let resp = PacketMeta::netclone_response(
                    Ipv4::server(sid as u16),
                    Ipv4::client(cid as u16),
                    nc,
                    84,
                );
                let server_tor = fabric.server_leaf(sid);
                let (back, _) = walk(&mut fabric, server_tor, resp);
                for &(bsw, _, bport) in &back {
                    prop_assert_eq!(bsw, tor);
                    prop_assert_eq!(bport, 100 + cid as u16);
                }
            }
        }

        for (sw, c) in fabric.counters().iter().enumerate() {
            let is_client_tor = shape.client_racks.contains(&sw);
            if !is_client_tor {
                prop_assert_eq!(c.requests, 0, "switch {sw} ran NetClone logic");
                prop_assert_eq!(c.cloned, 0);
            }
            prop_assert_eq!(c.dropped_unroutable, 0, "switch {sw} dropped packets");
        }
    }

    /// ECMP is loop-free and per-flow stable: under a fixed hash seed the
    /// same flow walks the identical switch path in a fresh fabric.
    #[test]
    fn ecmp_paths_are_loop_free_and_flow_stable(shape in shapes(), seq in 0u32..1000) {
        let scenario = scenario_for(&shape);
        let mut paths = Vec::new();
        for _ in 0..2 {
            let mut fabric = build_fabric(&scenario);
            let mut run_paths = Vec::new();
            for (cid, &rack) in shape.client_racks.iter().enumerate() {
                let grp = (seq as u16 + cid as u16) % fabric.engines[rack].num_groups();
                let req = PacketMeta::netclone_request(
                    Ipv4::client(cid as u16),
                    NetCloneHdr::request(grp, 0, cid as u16, seq),
                    84,
                );
                let (_, path) = walk(&mut fabric, rack, req);
                // leaf → agg → core → agg → leaf is the longest legal
                // walk; a clone adds one more partial walk, never more.
                prop_assert!(path.len() <= 2 * 5, "path too long: {path:?}");
                run_paths.push(path);
            }
            paths.push(run_paths);
        }
        prop_assert_eq!(&paths[0], &paths[1], "per-flow path not stable");
    }

    /// Congested full runs conserve packets at every link tier, for any
    /// radix, ratio, and placement.
    #[test]
    fn congested_runs_conserve_packets_per_tier(
        shape in shapes(),
        oversub in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let mut s = scenario_for(&shape);
        s.warmup_ns = 300_000;
        s.measure_ns = 1_500_000;
        s.offered_rps = (s.capacity_rps() * 0.5).max(10_000.0);
        s.seed = seed;
        // Small queues so drops actually happen at the higher ratios.
        s.links = Some(LinkSpec::oversubscribed(10.0, oversub as f64, 20_000));
        s.background = Some(netclone_cluster::scenario::Background {
            rps: 50_000.0,
            wire_bytes: 9_000,
            victim_rack: shape.client_racks[0],
        });
        let r = Sim::run(s);
        prop_assert!(r.completed > 0);
        let totals = r.link_totals.expect("links enabled");
        for (tier, t) in [("edge", totals.edge), ("up", totals.up), ("down", totals.down)] {
            prop_assert_eq!(
                t.offered, t.forwarded + t.dropped,
                "{} tier leaks packets", tier
            );
        }
        prop_assert_eq!(r.switch.dropped_unroutable, 0);
    }
}
