//! A burst through a live soft switch: one `sendmmsg` of cloneable
//! requests lands in the switch's socket together, the switch drains it
//! and fans every original and clone out in one flush. Each copy must
//! reach the server the program chose, and the switch must end with the
//! same counters as when the requests arrive one at a time.

use std::collections::BTreeMap;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use netclone_core::{NetCloneConfig, NetCloneSwitch, SwitchCounters, SwitchEngine};
use netclone_net::{decode_packet_borrowed, encode_packet_into, SendBatch, SoftSwitch};
use netclone_proto::{Ipv4, NetCloneHdr, PacketMeta, RpcOp};

const N_SERVERS: u16 = 2;
const BURST: u32 = 24;
const OP: RpcOp = RpcOp::Echo { class_ns: 0 };

fn request(seq: u32, num_groups: u16) -> PacketMeta {
    let nc = NetCloneHdr::request(seq as u16 % num_groups, (seq % 2) as u8, 0, seq);
    PacketMeta::netclone_request(Ipv4::client(0), nc, 84)
}

/// `(client_seq, CLO byte)` → server id, for every copy of every request.
type Deliveries = BTreeMap<(u32, u8), u16>;

/// What the program itself emits for the burst, run straight through an
/// engine programmed like the soft switch (`10 + sid` / `100 + cid`).
fn expected() -> (SwitchCounters, Deliveries) {
    let mut engine: Box<dyn SwitchEngine> =
        Box::new(NetCloneSwitch::new(NetCloneConfig::default()));
    for sid in 0..N_SERVERS {
        engine
            .register_server(sid, Ipv4::server(sid), 10 + sid)
            .unwrap();
    }
    engine.register_route(Ipv4::client(0), 100).unwrap();
    let groups = engine.num_groups();
    let mut out = Deliveries::new();
    for seq in 0..BURST {
        for e in engine.process_collected(request(seq, groups), 0, 0) {
            assert!(out.insert((seq, e.pkt.nc.clo as u8), e.port - 10).is_none());
        }
    }
    (engine.counters(), out)
}

/// Takes every datagram already queued at the server sockets into `got`.
fn poll(servers: &[UdpSocket], got: &mut Deliveries) {
    let mut buf = [0u8; 2048];
    for (sid, s) in servers.iter().enumerate() {
        while let Ok(len) = s.recv(&mut buf) {
            let (meta, op, _) = decode_packet_borrowed(&buf[..len]).unwrap();
            assert_eq!(op, OP);
            let key = (meta.nc.client_seq, meta.nc.clo as u8);
            assert!(got.insert(key, sid as u16).is_none(), "{key:?} twice");
        }
    }
}

/// Polls until `got` holds `n` copies (5 s at most).
fn wait_for(servers: &[UdpSocket], got: &mut Deliveries, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while got.len() < n {
        assert!(
            Instant::now() < deadline,
            "{} of {n} copies arrived",
            got.len()
        );
        std::thread::sleep(Duration::from_millis(1));
        poll(servers, got);
    }
}

/// Sends the burst through a fresh soft switch, either in one flush or one
/// request at a time (all of its copies delivered before the next is
/// sent), and returns the switch's counters and where every copy arrived.
fn through_soft_switch(one_flush: bool, want: &Deliveries) -> (SwitchCounters, Deliveries) {
    let switch = SoftSwitch::spawn(NetCloneConfig::default()).expect("spawn soft switch");
    let handle = switch.handle();
    let servers: Vec<UdpSocket> = (0..N_SERVERS)
        .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
        .collect();
    for (sid, s) in (0..N_SERVERS).zip(&servers) {
        s.set_nonblocking(true).unwrap();
        handle
            .register_server(sid, Ipv4::server(sid), s.local_addr().unwrap())
            .unwrap();
    }
    let client = UdpSocket::bind("127.0.0.1:0").unwrap();
    handle
        .register_client(0, Ipv4::client(0), client.local_addr().unwrap())
        .unwrap();
    client.connect(switch.addr()).unwrap();
    let groups = handle.num_groups();

    let mut got = Deliveries::new();
    let mut send = SendBatch::new();
    for seq in 0..BURST {
        encode_packet_into(&request(seq, groups), &OP, &[], send.slot());
        send.commit();
        if !one_flush {
            assert_eq!(send.flush(&client).unwrap(), 1);
            let upto = want.keys().filter(|(s, _)| *s <= seq).count();
            wait_for(&servers, &mut got, upto);
        }
    }
    if one_flush {
        assert_eq!(send.flush(&client).unwrap(), BURST as usize);
    }
    wait_for(&servers, &mut got, want.len());
    // Nothing beyond the expected copies trails in.
    std::thread::sleep(Duration::from_millis(20));
    poll(&servers, &mut got);
    let counters = handle.counters();
    switch.shutdown();
    (counters, got)
}

#[test]
fn a_burst_fans_out_like_requests_one_at_a_time() {
    let (counters, want) = expected();
    assert_eq!(
        counters.cloned, BURST as u64,
        "idle servers: every request clones"
    );
    assert_eq!(want.len(), 2 * BURST as usize);

    let (burst_counters, burst) = through_soft_switch(true, &want);
    assert_eq!(burst, want, "every original and clone reaches its server");
    assert_eq!(burst_counters, counters);

    let (serial_counters, serial) = through_soft_switch(false, &want);
    assert_eq!(serial, want);
    assert_eq!(burst_counters, serial_counters);
}
