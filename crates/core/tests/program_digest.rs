//! A digest pin over the whole NetClone program. One seeded trace drives
//! every configuration variant: fresh, uncloneable, repeated and
//! multi-rack requests, responses with varied states, recirculated
//! re-entries, plain traffic, unknown groups, server churn and power
//! cycles. Every emission (each header field, the port and the latency)
//! and the final counters fold into one 64-bit digest per variant.
//!
//! The pins predate the dense group/address tables and the on-demand
//! multi-packet hash: a fast-path change must keep the program's output
//! bit for bit.

use netclone_core::ports::{client_port, server_port};
use netclone_core::{
    CloneCondition, NetCloneConfig, NetCloneSwitch, RequestIdMode, Scheduling, SwitchEngine,
};
use netclone_proto::{CloneStatus, Ipv4, NetCloneHdr, PacketMeta, ServerState};

const SERVERS: u16 = 6;
const CLIENTS: u16 = 4;
const STEPS: u64 = 20_000;

/// splitmix64: the trace's only randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over 64-bit words.
fn fold(h: &mut u64, x: u64) {
    *h = (*h ^ x).wrapping_mul(0x0000_0100_0000_01B3);
}

fn fold_pkt(h: &mut u64, p: &PacketMeta) {
    for x in [
        u64::from(p.src_ip.0),
        u64::from(p.dst_ip.0),
        u64::from(p.l4_dport),
        p.nc.msg_type as u64,
        u64::from(p.nc.req_id),
        u64::from(p.nc.grp),
        u64::from(p.nc.sid),
        u64::from(p.nc.state.0),
        p.nc.clo as u64,
        u64::from(p.nc.idx),
        u64::from(p.nc.switch_id),
        u64::from(p.nc.client_id),
        u64::from(p.nc.client_seq),
        u64::from(p.wire_bytes),
    ] {
        fold(h, x);
    }
}

fn digest(cfg: NetCloneConfig, seed: u64) -> u64 {
    let recirc = cfg.recirc_port;
    let own_switch = cfg.switch_id;
    let mut sw = NetCloneSwitch::new(cfg);
    for sid in 0..SERVERS {
        sw.register_server(sid, Ipv4::server(sid), server_port(sid))
            .unwrap();
    }
    for cid in 0..CLIENTS {
        sw.register_route(Ipv4::client(cid), client_port(cid))
            .unwrap();
    }
    let mut rng = Rng(seed);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut in_flight: Vec<PacketMeta> = Vec::new();
    let mut down: Option<u16> = None;
    for step in 0..STEPS {
        let now = step * 100;
        let cid = rng.below(u64::from(CLIENTS)) as u16;
        let (pkt, ingress) = match rng.below(16) {
            0..=6 => {
                // Some groups past the installed ones, some repeated
                // Lamport tuples, some writes, some multi-rack stamps.
                let grp = rng.below(u64::from(sw.num_groups()) + 2) as u16;
                let idx = rng.below(4) as u8;
                let seq = rng.below(64) as u32;
                let mut p = PacketMeta::netclone_request(
                    Ipv4::client(cid),
                    NetCloneHdr::request(grp, idx, cid, seq),
                    84,
                );
                if rng.below(10) == 0 {
                    p.nc.state = ServerState(1);
                }
                p.nc.switch_id = [0, 0, 0, own_switch, 7][rng.below(5) as usize];
                (p, client_port(cid))
            }
            7..=12 if !in_flight.is_empty() => {
                let req = in_flight.swap_remove(rng.below(in_flight.len() as u64) as usize);
                let sid = (0..SERVERS)
                    .find(|&s| Ipv4::server(s) == req.dst_ip)
                    .expect("requests in flight went to a server");
                let state = ServerState(rng.below(3) as u16);
                let nc = NetCloneHdr::response_to(&req.nc, sid, state);
                let p = PacketMeta::netclone_response(Ipv4::server(sid), req.src_ip, nc, 84);
                (p, server_port(sid))
            }
            13 => {
                let mut p = PacketMeta::netclone_request(
                    Ipv4::client(cid),
                    NetCloneHdr::request(0, 0, cid, 0),
                    84,
                );
                p.l4_dport = 53;
                p.dst_ip = [Ipv4::server(1), Ipv4::client(2), Ipv4::new(198, 18, 0, 1)]
                    [rng.below(3) as usize];
                (p, client_port(cid))
            }
            14 => {
                let mut p = PacketMeta::netclone_request(
                    Ipv4::client(cid),
                    NetCloneHdr::request(0, 0, cid, 0),
                    84,
                );
                p.nc.clo = CloneStatus::ClonedOriginal;
                p.nc.sid = rng.below(u64::from(SERVERS) + 1) as u16;
                p.nc.req_id = rng.next() as u32;
                (p, recirc)
            }
            _ => {
                // Control-plane churn between packets.
                match (down, rng.below(8)) {
                    (_, 0) => sw.reset_soft_state(),
                    (None, 1..=3) => {
                        let sid = rng.below(u64::from(SERVERS)) as u16;
                        sw.deregister_server(sid).unwrap();
                        down = Some(sid);
                    }
                    (Some(sid), 4..=6) => {
                        sw.register_server(sid, Ipv4::server(sid), server_port(sid))
                            .unwrap();
                        down = None;
                    }
                    _ => {}
                }
                fold(&mut h, u64::from(sw.num_groups()));
                continue;
            }
        };
        for e in sw.process_collected(pkt, ingress, now).iter() {
            fold_pkt(&mut h, &e.pkt);
            fold(&mut h, u64::from(e.port));
            fold(&mut h, e.latency_ns);
            if e.pkt.nc.is_request() && e.port < client_port(0) && in_flight.len() < 256 {
                in_flight.push(e.pkt);
            }
        }
    }
    let c = sw.counters();
    for x in [
        c.requests,
        c.cloned,
        c.clone_skipped_busy,
        c.clone_skipped_uncloneable,
        c.clone_forced_multipacket,
        c.recirculated,
        c.responses,
        c.responses_filtered,
        c.filter_overwrites,
        c.routed_plain,
        c.dropped_unroutable,
        c.jsq_fallbacks,
    ] {
        fold(&mut h, x);
    }
    h
}

fn variants() -> Vec<(&'static str, NetCloneConfig)> {
    let base = NetCloneConfig::default;
    vec![
        ("paper prototype", base()),
        (
            "multi-packet affinity",
            NetCloneConfig {
                multi_packet_enabled: true,
                ..base()
            },
        ),
        (
            "lamport ids + multi-packet",
            NetCloneConfig {
                req_id_mode: RequestIdMode::ClientLamport,
                multi_packet_enabled: true,
                ..base()
            },
        ),
        (
            "racksched, queue below 2",
            NetCloneConfig {
                scheduling: Scheduling::RackSched,
                clone_condition: CloneCondition::QueueBelow(2),
                ..base()
            },
        ),
        (
            "three small filter tables",
            NetCloneConfig {
                num_filter_tables: 3,
                filter_slots_log2: 6,
                ..base()
            },
        ),
        (
            "filtering off",
            NetCloneConfig {
                filtering_enabled: false,
                ..base()
            },
        ),
        (
            "cloning off",
            NetCloneConfig {
                cloning_enabled: false,
                ..base()
            },
        ),
    ]
}

#[test]
fn every_variant_matches_its_pinned_digest() {
    let pins: [u64; 7] = [
        0xDC4E_3A6B_AEE0_A72A,
        0x4C2C_9335_9C92_2B00,
        0x6C64_456F_6F1A_9C59,
        0x0A3F_19A2_B7F0_4F90,
        0x1E22_850A_9E2F_0223,
        0x2ADC_6ABE_E48C_69DF,
        0x04CA_C93A_93E8_E6AF,
    ];
    let got: Vec<(&str, u64)> = variants()
        .into_iter()
        .map(|(name, cfg)| (name, digest(cfg, 0x5EED)))
        .collect();
    let want: Vec<(&str, u64)> = got.iter().map(|g| g.0).zip(pins).collect();
    assert_eq!(got, want, "the program's output moved");
}
