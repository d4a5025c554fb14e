//! The compiled upper tier against the engine-backed fabric it stands in
//! for. The event loop forwards through [`UpperTier::walk`], one table
//! lookup per packet; `build_fabric` still programs a `PlainL3Switch` per
//! spine, aggregation and core switch (each route through
//! `FabricShape::port_toward`), and walking a packet through those engines
//! with [`Fabric::route`](netclone_cluster::topology::Fabric::route) is the
//! oracle. For *any* shape (leaf/spine of 1–8 racks, fat-trees
//! k ∈ {4, 6}, arbitrary placement), any scheme (with or without the
//! coordinator's route), every endpoint pair plus addresses nobody owns,
//! and several flow hashes per pair, the two agree on the destination
//! leaf, the downlink it is entered by, the switches crossed (hence the
//! arrival time: a propagation and a pass each) and on what every upper
//! switch counted as routed and as dropped.

mod common;

use common::walk;
use netclone_cluster::topology::{flow_hash, FabricShape, Hop, UPLINK_PORT};
use netclone_cluster::{build_fabric, build_upper_tier, Scenario, Scheme, Topology};
use netclone_proto::{Ipv4, NetCloneHdr, PacketMeta, ServerState};
use netclone_workloads::exp25;
use proptest::prelude::*;

const SCHEMES: [Scheme; 5] = [
    Scheme::NETCLONE,
    Scheme::RackSchedOnly,
    Scheme::Baseline,
    Scheme::CClone,
    Scheme::Laedge,
];

/// The coordinator's address (`build::COORD_IP`): an endpoint under
/// LÆDGE, nobody's under every other scheme.
const COORD_IP: Ipv4 = Ipv4::new(10, 0, 3, 1);

fn topologies() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (1usize..9).prop_map(Topology::uniform),
        Just(Topology::fat_tree(4)),
        Just(Topology::fat_tree(6)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_walk_matches_the_engine_walk(
        topo in topologies(),
        server_racks in proptest::collection::vec(0usize..32, 2..=24),
        client_racks in proptest::collection::vec(0usize..32, 1..=4),
        scheme in 0usize..SCHEMES.len(),
        ecmp_seed in any::<u64>(),
    ) {
        let racks = topo.racks;
        let mut s = Scenario::synthetic_default(SCHEMES[scheme], exp25(), 1e5);
        s.servers = vec![s.servers[0]; server_racks.len()];
        s.n_clients = client_racks.len();
        s.topology = topo
            .with_server_racks(server_racks.iter().map(|r| r % racks).collect())
            .with_client_racks(client_racks.iter().map(|r| r % racks).collect())
            .with_ecmp_seed(ecmp_seed);
        let mut fabric = build_fabric(&s);
        let mut tier = build_upper_tier(&fabric);
        if racks == 1 {
            prop_assert!(tier.counters().is_empty(), "one rack has no upper tier");
            return;
        }

        let mut endpoints: Vec<(Ipv4, usize)> = Vec::new();
        for sid in 0..s.servers.len() {
            endpoints.push((Ipv4::server(sid as u16), fabric.server_leaf(sid)));
        }
        for cid in 0..s.n_clients {
            endpoints.push((Ipv4::client(cid as u16), fabric.client_leaf(cid)));
        }
        if s.scheme.uses_coordinator() {
            endpoints.push((COORD_IP, fabric.coord_leaf()));
        }
        // Destinations: every endpoint, then addresses no endpoint owns —
        // inside the span the builder hands out, past it, and the
        // coordinator's (owned only when the scheme has one).
        let mut dsts: Vec<(Ipv4, Option<usize>)> =
            endpoints.iter().map(|&(ip, leaf)| (ip, Some(leaf))).collect();
        dsts.push((Ipv4::server(s.servers.len() as u16), None));
        dsts.push((Ipv4::new(198, 18, 0, 1), None));
        if !s.scheme.uses_coordinator() {
            dsts.push((COORD_IP, None));
        }

        let shape = fabric.shape();
        let downlink_of = |last_upper: usize| match shape {
            FabricShape::LeafSpine => 0,
            // Downlink j of a leaf hangs off aggregation j of its pod.
            FabricShape::FatTree { aggs_per_pod, .. } => (last_upper - racks) % aggs_per_pod,
        };
        for &(src_ip, src_leaf) in &endpoints {
            for &(dst_ip, dst_leaf) in &dsts {
                // The source address only feeds the flow hash: salting it
                // spreads one pair over the ECMP paths.
                for salt in 0u32..3 {
                    let src = Ipv4(src_ip.0 ^ salt.wrapping_mul(0x9e37_79b9));
                    let nc = NetCloneHdr::response_to(
                        &NetCloneHdr::request(0, 0, 0, salt),
                        0,
                        ServerState(0),
                    );
                    let pkt = PacketMeta::netclone_response(src, dst_ip, nc, 84);
                    let h = flow_hash(src, dst_ip, ecmp_seed);

                    // The oracle: up the source leaf's uplink, then engine
                    // pass by engine pass until a leaf is reached.
                    let Hop::Switch(first) = fabric.route(src_leaf, UPLINK_PORT, h) else {
                        panic!("an uplink leads to a switch");
                    };
                    let (_, path) = walk(&mut fabric, first, pkt);
                    let crossed: Vec<usize> =
                        path.iter().copied().take_while(|&sw| sw >= racks).collect();
                    let reached = path.get(crossed.len()).copied();

                    let w = tier.walk(src_leaf, dst_ip, h);
                    prop_assert_eq!(w.leaf, dst_leaf, "{} -> {}", src, dst_ip);
                    prop_assert_eq!(w.leaf, reached, "{} -> {}", src, dst_ip);
                    prop_assert_eq!(w.hops(), &crossed[..], "{} -> {}", src, dst_ip);
                    // Count as the event loop does (`Shard::via_upper`).
                    match w.leaf {
                        Some(_) => {
                            prop_assert_eq!(w.via, downlink_of(crossed[crossed.len() - 1]));
                            w.hops().iter().for_each(|&sw| tier.count_routed(sw));
                        }
                        None => tier.count_dropped(w.hops()[0]),
                    }
                }
            }
        }

        let engines = fabric.counters().split_off(racks);
        let compiled = tier.counters();
        prop_assert_eq!(compiled.len(), engines.len());
        for (i, (c, e)) in compiled.iter().zip(&engines).enumerate() {
            prop_assert_eq!(c, e, "upper switch {}", racks + i);
        }
        let strangers = (dsts.len() - endpoints.len()) * endpoints.len() * 3;
        let dropped: u64 = compiled.iter().map(|c| c.dropped_unroutable).sum();
        prop_assert_eq!(dropped as usize, strangers, "each route miss counts once");
    }
}
