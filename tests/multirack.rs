//! §3.7 "Multi-rack deployment": NetClone logic only at the *client-side*
//! ToR, gated by the SWITCH_ID field, with plain L3 everywhere else.
//!
//! The behaviour tests drive the builder-constructed fabric
//! ([`build_fabric`] from a [`Topology`]); one parity test keeps the
//! original hand-wired three-switch harness and asserts the builder
//! produces the *identical* per-switch [`SwitchCounters`] for the same
//! packet trace.

use netclone::asic::{DataPlane, Emission};
use netclone::cluster::{build_fabric, Fabric, Hop, Scenario, Scheme, Topology};
use netclone::core::{NetCloneConfig, NetCloneSwitch, SwitchCounters, SwitchEngine};
use netclone::policies::PlainL3Switch;
use netclone::proto::{CloneStatus, Ipv4, NetCloneHdr, PacketMeta, ServerState};
use netclone::workloads::exp25;

const UPLINK: u16 = 50;
const CLIENT_PORT: u16 = 100;

/// Two racks: the client alone in rack 0, all servers in rack 1.
fn two_rack_scenario(n_servers: usize) -> Scenario {
    let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e5);
    s.servers.truncate(n_servers);
    s.n_clients = 1;
    s.topology = Topology::uniform(2)
        .with_server_racks(vec![1; n_servers])
        .with_client_racks(vec![0]);
    s
}

/// Walks one packet through the fabric from `entry` until every copy
/// reaches a host port; returns the final `(switch, emission)` pairs.
/// Panics after 16 switch traversals — a forwarding loop.
fn drive(
    fabric: &mut Fabric,
    entry: usize,
    pkt: PacketMeta,
    ingress: u16,
) -> Vec<(usize, Emission)> {
    let mut delivered = Vec::new();
    let mut work = vec![(entry, pkt, ingress)];
    let mut hops = 0;
    while let Some((sw, pkt, ingress)) = work.pop() {
        hops += 1;
        assert!(hops <= 16, "forwarding loop");
        for e in fabric.engines[sw].process_collected(pkt, ingress, 0) {
            match fabric.route(sw, e.port, 0) {
                Hop::Switch(next) => work.push((next, e.pkt, 0)),
                Hop::Local(_) => delivered.push((sw, e)),
            }
        }
    }
    delivered
}

/// Drives one client request into its ToR; returns the server deliveries.
fn client_to_servers(fabric: &mut Fabric, pkt: PacketMeta) -> Vec<(usize, Emission)> {
    let entry = fabric.client_leaf(0);
    drive(fabric, entry, pkt, CLIENT_PORT)
}

/// Drives one response from server `sid` back toward the client.
fn server_to_client(fabric: &mut Fabric, pkt: PacketMeta, sid: u16) -> Vec<(usize, Emission)> {
    let entry = fabric.server_leaf(sid as usize);
    drive(fabric, entry, pkt, 10 + sid)
}

#[test]
fn only_the_client_tor_applies_netclone_logic() {
    let mut fabric = build_fabric(&two_rack_scenario(4));
    let req = PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(0, 0, 0, 1), 84);
    let delivered = client_to_servers(&mut fabric, req);

    // Cloned at the client ToR: two copies reach two different servers,
    // both in rack 1.
    assert_eq!(delivered.len(), 2);
    assert_ne!(delivered[0].1.port, delivered[1].1.port);
    for (sw, _) in &delivered {
        assert_eq!(*sw, 1, "servers hang off rack 1's leaf");
    }
    let req_id = delivered[0].1.pkt.nc.req_id;
    assert_ne!(req_id, 0);
    assert_eq!(
        delivered[1].1.pkt.nc.req_id, req_id,
        "one ID for both copies"
    );
    // Stamped by ToR 1 (rack 0's switch_id); the server ToR must not have
    // re-processed them.
    for (_, d) in &delivered {
        assert_eq!(d.pkt.nc.switch_id, 1);
    }
    assert_eq!(
        fabric.engines[1].counters().requests,
        0,
        "gate must bypass NetClone"
    );
    assert_eq!(fabric.engines[1].counters().routed_plain, 2);
    assert_eq!(fabric.engines[0].counters().cloned, 1);
    // The spine forwarded both copies as plain traffic.
    let spine = fabric.spine().expect("two racks have a spine");
    assert_eq!(fabric.engines[spine].counters().routed_plain, 2);
}

#[test]
fn responses_are_filtered_at_the_client_tor_only() {
    let mut fabric = build_fabric(&two_rack_scenario(4));
    let req = PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(3, 1, 0, 2), 84);
    let delivered = client_to_servers(&mut fabric, req);
    assert_eq!(delivered.len(), 2);

    // Both servers respond (idle, echoing the stamped switch_id).
    let mut to_client = Vec::new();
    for (_, d) in &delivered {
        let sid = d.port - 10;
        let nc = NetCloneHdr::response_to(&d.pkt.nc, sid, ServerState(0));
        let resp = PacketMeta::netclone_response(Ipv4::server(sid), Ipv4::client(0), nc, 84);
        to_client.extend(server_to_client(&mut fabric, resp, sid));
    }
    assert_eq!(
        to_client.len(),
        1,
        "exactly one response survives the filter"
    );
    assert_eq!(to_client[0].0, 0, "delivered at the client's own ToR");
    assert_eq!(to_client[0].1.port, CLIENT_PORT);
    assert_eq!(fabric.engines[0].counters().responses_filtered, 1);
    assert_eq!(
        fabric.engines[1].counters().responses,
        0,
        "server ToR only routes"
    );
}

#[test]
fn busy_remote_servers_suppress_cloning_across_racks() {
    let mut fabric = build_fabric(&two_rack_scenario(2));
    // Prime the client ToR with a busy report from server 1.
    let req = PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(0, 0, 0, 3), 84);
    let delivered = client_to_servers(&mut fabric, req);
    let sid = delivered[0].1.port - 10;
    let nc = NetCloneHdr::response_to(&delivered[0].1.pkt.nc, 1, ServerState(5));
    let resp = PacketMeta::netclone_response(Ipv4::server(1), Ipv4::client(0), nc, 84);
    server_to_client(&mut fabric, resp, sid);

    let req = PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(0, 0, 0, 4), 84);
    let delivered = client_to_servers(&mut fabric, req);
    assert_eq!(
        delivered.len(),
        1,
        "tracked-busy remote server must block cloning"
    );
    assert_eq!(delivered[0].1.pkt.nc.clo, CloneStatus::NotCloned);
}

// ---------------------------------------------------------------------
// Parity: the original hand-wired harness vs the topology builder.
// ---------------------------------------------------------------------

/// The original hand-wired two-tier harness this test suite used before
/// the `Topology` builder existed — kept as the parity reference.
struct TwoTier {
    client_tor: NetCloneSwitch,
    agg: PlainL3Switch,
    server_tor: NetCloneSwitch,
}

impl TwoTier {
    fn new(n_servers: u16) -> Self {
        // Client ToR (switch_id 1): clients attach here; all servers are
        // reachable via the uplink, so AddrT maps every SID to the uplink
        // port.
        let c_cfg = NetCloneConfig {
            switch_id: 1,
            ..NetCloneConfig::default()
        };
        let mut client_tor = NetCloneSwitch::new(c_cfg);
        for sid in 0..n_servers {
            client_tor
                .add_server(sid, Ipv4::server(sid), UPLINK)
                .unwrap();
        }
        client_tor.add_route(Ipv4::client(0), CLIENT_PORT).unwrap();

        // Aggregation: plain L3 both ways (port 1 → client ToR, 2 → server
        // ToR).
        let mut agg = PlainL3Switch::new(netclone::asic::AsicSpec::tofino());
        for sid in 0..n_servers {
            agg.add_route(Ipv4::server(sid), 2);
        }
        agg.add_route(Ipv4::client(0), 1);

        // Server ToR (switch_id 2): servers attach here; the gate must
        // bounce foreign-stamped packets to plain routing.
        let s_cfg = NetCloneConfig {
            switch_id: 2,
            ..NetCloneConfig::default()
        };
        let mut server_tor = NetCloneSwitch::new(s_cfg);
        for sid in 0..n_servers {
            server_tor.add_route(Ipv4::server(sid), 10 + sid).unwrap();
        }
        server_tor.add_route(Ipv4::client(0), UPLINK).unwrap();

        TwoTier {
            client_tor,
            agg,
            server_tor,
        }
    }

    /// Drives one packet from the client all the way to server ports.
    fn client_to_servers(&mut self, pkt: PacketMeta) -> Vec<Emission> {
        let mut out = Vec::new();
        for e1 in self.client_tor.process_collected(pkt, CLIENT_PORT, 0) {
            for e2 in self.agg.process_collected(e1.pkt, 1, 0) {
                assert_eq!(e2.port, 2, "agg must push toward the server rack");
                out.extend(self.server_tor.process_collected(e2.pkt, UPLINK, 0));
            }
        }
        out
    }

    /// Drives one response from a server back to the client port.
    fn server_to_client(&mut self, pkt: PacketMeta, sid: u16) {
        for e1 in self.server_tor.process_collected(pkt, 10 + sid, 0) {
            assert_eq!(e1.port, UPLINK);
            for e2 in self.agg.process_collected(e1.pkt, 2, 0) {
                assert_eq!(e2.port, 1);
                self.client_tor.process_collected(e2.pkt, UPLINK, 0);
            }
        }
    }
}

/// The same deterministic trace through both harnesses must leave every
/// switch with byte-identical counters: client ToR ↔ leaf 0, server ToR ↔
/// leaf 1, aggregation ↔ spine.
#[test]
fn hand_wired_two_tier_matches_the_builder_fabric() {
    const N_SERVERS: u16 = 4;
    let mut hand = TwoTier::new(N_SERVERS);
    let mut fabric = build_fabric(&two_rack_scenario(N_SERVERS as usize));

    // A trace exercising cloning, busy suppression, uncloneable marks,
    // and response filtering. Each step: one request, then a response
    // from every server copy that received it.
    for i in 0u32..12 {
        let grp = (i as u16) % fabric.engines[0].num_groups();
        let idx = (i % 2) as u8;
        let mut hdr = NetCloneHdr::request(grp, idx, 0, i);
        if i == 5 {
            // A write: the client marks it non-cloneable (§5.5).
            hdr.state = ServerState(1);
        }
        let req = PacketMeta::netclone_request(Ipv4::client(0), hdr, 84);
        let reply_state = ServerState(if i % 3 == 2 { 2 } else { 0 });

        let hand_delivered = hand.client_to_servers(req);
        let fab_delivered = client_to_servers(&mut fabric, req);
        assert_eq!(hand_delivered.len(), fab_delivered.len(), "step {i}");

        for d in &hand_delivered {
            let sid = d.port - 10;
            let nc = NetCloneHdr::response_to(&d.pkt.nc, sid, reply_state);
            let resp = PacketMeta::netclone_response(Ipv4::server(sid), Ipv4::client(0), nc, 84);
            hand.server_to_client(resp, sid);
        }
        for (_, d) in &fab_delivered {
            let sid = d.port - 10;
            let nc = NetCloneHdr::response_to(&d.pkt.nc, sid, reply_state);
            let resp = PacketMeta::netclone_response(Ipv4::server(sid), Ipv4::client(0), nc, 84);
            server_to_client(&mut fabric, resp, sid);
        }
    }

    let spine = fabric.spine().expect("two racks have a spine");
    let hand_counters: [SwitchCounters; 3] = [
        *hand.client_tor.counters(),
        *hand.server_tor.counters(),
        SwitchEngine::counters(&hand.agg),
    ];
    let fab_counters: [SwitchCounters; 3] = [
        fabric.engines[0].counters(),
        fabric.engines[1].counters(),
        fabric.engines[spine].counters(),
    ];
    assert_eq!(hand_counters, fab_counters);
    // The trace actually exercised the interesting paths.
    assert!(hand_counters[0].cloned > 0);
    assert!(hand_counters[0].responses_filtered > 0);
    assert!(hand_counters[0].clone_skipped_busy > 0);
    assert_eq!(hand_counters[0].clone_skipped_uncloneable, 1);
    assert!(hand.client_tor.state_tables_consistent());
}
