//! Property tests for the client model: dedup, latency accounting, and
//! sender/receiver serialization under arbitrary traffic.

use netclone_hosts::{AppPacket, ClientMode, ClientSim};
use netclone_proto::{Ipv4, NetCloneHdr, PacketMeta, RpcOp, ServerState};
use proptest::prelude::*;

/// The response a server would send for `pkt`.
fn response_to(pkt: &AppPacket) -> AppPacket {
    let nc = NetCloneHdr::response_to(&pkt.meta.nc, 0, ServerState::IDLE);
    AppPacket {
        meta: PacketMeta::netclone_response(Ipv4::server(0), pkt.meta.src_ip, nc, 84),
        op: pkt.op,
        born_ns: pkt.born_ns,
    }
}

fn nc_client(seed: u64) -> ClientSim {
    ClientSim::new(
        0,
        ClientMode::NetClone {
            num_groups: 30,
            num_filter_tables: 2,
        },
        100,
        200,
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// For any set of generated requests and any response multiplicity /
    /// order, completed = distinct requests answered, redundant = extras,
    /// and each latency ≥ the RX cost.
    #[test]
    fn dedup_counts_are_exact(
        n in 1usize..40,
        extra_copies in proptest::collection::vec(0u8..3, 40),
        seed in any::<u64>(),
    ) {
        let mut c = nc_client(seed);
        let mut pkts = Vec::new();
        for i in 0..n {
            let out = c.generate(RpcOp::Echo { class_ns: 10_000 }, (i as u64) * 1_000);
            prop_assert_eq!(out.len(), 1);
            pkts.push(response_to(&out[0].0));
        }
        let mut now = 1_000_000u64;
        let mut expect_redundant = 0u64;
        for (i, pkt) in pkts.iter().enumerate() {
            let copies = 1 + extra_copies[i] as u64;
            for k in 0..copies {
                now += 500;
                let r = c.on_response(pkt, now);
                if k == 0 {
                    prop_assert!(r.latency_ns.is_some(), "first response completes");
                    prop_assert!(r.latency_ns.unwrap() >= 200, "latency includes RX cost");
                } else {
                    prop_assert!(r.latency_ns.is_none(), "extras are redundant");
                    expect_redundant += 1;
                }
            }
        }
        let st = c.core.stats();
        prop_assert_eq!(st.completed, n as u64);
        prop_assert_eq!(st.redundant, expect_redundant);
        prop_assert_eq!(c.core.latencies().count(), n as u64);
        prop_assert_eq!(c.core.outstanding(), 0);
    }

    /// The receiver thread is a serial resource: k simultaneous responses
    /// finish exactly k × rx_cost apart.
    #[test]
    fn receiver_serialises(k in 1usize..20, seed in any::<u64>()) {
        let mut c = nc_client(seed);
        let mut pkts = Vec::new();
        for _ in 0..k {
            pkts.push(response_to(&c.generate(RpcOp::Echo { class_ns: 1 }, 0)[0].0));
        }
        let arrive = 10_000u64;
        let mut last_done = 0;
        for (i, pkt) in pkts.iter().enumerate() {
            let r = c.on_response(pkt, arrive);
            prop_assert_eq!(r.done_at, arrive + 200 * (i as u64 + 1));
            prop_assert!(r.done_at > last_done);
            last_done = r.done_at;
        }
    }

    /// C-Clone duplicates always target two distinct servers and share a
    /// sequence number, for any fleet size ≥ 2.
    #[test]
    fn duplicates_are_distinct(n_servers in 2u16..32, n in 1usize..30, seed in any::<u64>()) {
        let servers: Vec<Ipv4> = (0..n_servers).map(Ipv4::server).collect();
        let mut c = ClientSim::new(0, ClientMode::DirectDuplicate { servers }, 0, 0, seed);
        for i in 0..n {
            let out = c.generate(RpcOp::Echo { class_ns: 1 }, i as u64);
            prop_assert_eq!(out.len(), 2);
            prop_assert_ne!(out[0].0.meta.dst_ip, out[1].0.meta.dst_ip);
            prop_assert_eq!(out[0].0.meta.nc.client_seq, out[1].0.meta.nc.client_seq);
        }
    }
}
