//! Cross-frontend equivalence: the DES simulator and the UDP soft switch
//! must execute the *identical* switch program.
//!
//! Both frontends hold a `Box<dyn SwitchEngine>` built by the same
//! factory (`netclone_cluster::build_engine`), so this test drives one
//! short deterministic packet trace through
//!
//! 1. the engine directly (exactly how the DES event loop calls it), and
//! 2. a second engine from the same factory running behind
//!    [`SoftSwitch`](netclone::net::SoftSwitch) over real UDP sockets,
//!
//! and asserts the two end with byte-identical [`SwitchCounters`] —
//! cloning decisions, busy/uncloneable skips, recirculations, and
//! redundant-response filtering all included.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use netclone::cluster::{build_engine, Scenario, Scheme};
use netclone::core::{SwitchCounters, SwitchEngine};
use netclone::hostcore::{ClientCore, ClientMode, ClientStats, ServerCore, ServerStats};
use netclone::net::{decode_packet_borrowed, encode_packet_into, SoftSwitch};
use netclone::proto::{Ipv4, KvKey, NetCloneHdr, PacketMeta, RpcOp, ServerState};
use netclone::workloads::exp25;

const N_SERVERS: usize = 2;
const N_REQUESTS: u32 = 12;

/// The two-server, one-client scenario both frontends are programmed from.
fn scenario() -> Scenario {
    let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e5);
    s.servers.truncate(N_SERVERS);
    s.n_clients = 1;
    s
}

/// The deterministic trace, encoded as per-request inputs.
struct TraceStep {
    /// Client-chosen group.
    grp: u16,
    /// Client-chosen filter-table index.
    idx: u8,
    /// Client marks the request non-cloneable (a write, §5.5).
    uncloneable: bool,
    /// Queue state each server piggybacks on its response.
    reply_state: ServerState,
}

fn trace(num_groups: u16) -> Vec<TraceStep> {
    (0..N_REQUESTS)
        .map(|i| TraceStep {
            grp: (i as u16) % num_groups,
            idx: (i % 2) as u8,
            uncloneable: i == 5,
            // Every third request reports a busy queue, making later
            // requests on that pair skip cloning until the state clears.
            reply_state: ServerState(if i % 3 == 2 { 2 } else { 0 }),
        })
        .collect()
}

fn request_meta(step: &TraceStep, seq: u32) -> PacketMeta {
    let mut nc = NetCloneHdr::request(step.grp, step.idx, 0, seq);
    if step.uncloneable {
        nc.state = ServerState(1);
    }
    PacketMeta::netclone_request(Ipv4::client(0), nc, 84)
}

/// Runs the trace straight through the engine, the way the DES event loop
/// does. Returns the final counters plus, per request, the server ports
/// that received an emission (the expected fan-out for the UDP run).
fn run_direct(
    engine: &mut dyn SwitchEngine,
    steps: &[TraceStep],
) -> (SwitchCounters, Vec<Vec<u16>>) {
    let mut fanouts = Vec::new();
    for (seq, step) in steps.iter().enumerate() {
        let emissions = engine.process_collected(request_meta(step, seq as u32), 100, 0);
        let mut ports: Vec<u16> = emissions.iter().map(|e| e.port).collect();
        ports.sort_unstable();
        // Mirror each delivery with a server response, in port order.
        for e in &emissions {
            assert!((10..12).contains(&e.port), "emission to a server port");
        }
        let mut sorted = emissions;
        sorted.sort_by_key(|e| e.port);
        for e in sorted {
            let sid = e.port - 10;
            let nc = NetCloneHdr::response_to(&e.pkt.nc, sid, step.reply_state);
            let resp = PacketMeta::netclone_response(Ipv4::server(sid), e.pkt.src_ip, nc, 84);
            engine.process_collected(resp, e.port, 0);
        }
        fanouts.push(ports);
    }
    (engine.counters(), fanouts)
}

fn recv_with_deadline(sock: &UdpSocket, buf: &mut [u8]) -> Option<usize> {
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    sock.recv(buf).ok()
}

#[test]
fn soft_switch_and_des_engine_run_the_same_program() {
    let scenario = scenario();

    // Frontend 1: the engine as the DES simulator drives it.
    let mut direct = build_engine(&scenario);
    let steps = trace(direct.num_groups());
    let (direct_counters, fanouts) = run_direct(direct.as_mut(), &steps);

    // Sanity: the trace must actually exercise the interesting paths,
    // otherwise equality would be vacuous.
    assert!(direct_counters.cloned > 0, "trace exercises cloning");
    assert!(
        direct_counters.responses_filtered > 0,
        "trace exercises redundant-response filtering"
    );
    assert!(
        direct_counters.clone_skipped_busy > 0,
        "trace exercises busy-skip"
    );
    assert_eq!(direct_counters.clone_skipped_uncloneable, 1);

    // Frontend 2: an identically-programmed engine behind the UDP soft
    // switch. The scenario builder registered ports 10+sid / 100+cid;
    // map them to real sockets.
    let switch = SoftSwitch::spawn_engine(build_engine(&scenario)).expect("spawn soft switch");
    let handle = switch.handle();
    let client = UdpSocket::bind("127.0.0.1:0").expect("client socket");
    let servers: Vec<UdpSocket> = (0..N_SERVERS)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("server socket"))
        .collect();
    handle
        .map_port(100, client.local_addr().unwrap())
        .expect("map client port");
    for (sid, sock) in servers.iter().enumerate() {
        handle
            .map_port(10 + sid as u16, sock.local_addr().unwrap())
            .expect("map server port");
    }

    let op = RpcOp::Echo { class_ns: 25_000 };
    let mut buf = vec![0u8; 65_536];
    for (seq, step) in steps.iter().enumerate() {
        client
            .send_to(
                &datagram(&request_meta(step, seq as u32), &op),
                handle.addr(),
            )
            .expect("send request");

        // Receive on exactly the server ports the direct run predicts,
        // then respond in the same (sorted) port order.
        for &port in &fanouts[seq] {
            let sock = &servers[(port - 10) as usize];
            let len = recv_with_deadline(sock, &mut buf)
                .unwrap_or_else(|| panic!("request {seq}: no delivery on port {port}"));
            let (meta, op_rx, _value) =
                decode_packet_borrowed(&buf[..len]).expect("decode request");
            assert_eq!(op_rx, op);
            let sid = port - 10;
            let nc = NetCloneHdr::response_to(&meta.nc, sid, step.reply_state);
            let resp = PacketMeta::netclone_response(Ipv4::server(sid), meta.src_ip, nc, 84);
            sock.send_to(&datagram(&resp, &op), handle.addr())
                .expect("send response");
        }

        // Serialise the trace: wait until the switch has processed every
        // response of this step before issuing the next request.
        let expected_responses = direct_partial_responses(&fanouts, seq);
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.counters().responses < expected_responses {
            assert!(
                Instant::now() < deadline,
                "request {seq}: switch never saw its responses"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let udp_counters = handle.counters();
    assert_eq!(
        udp_counters, direct_counters,
        "soft switch and DES engine diverged on an identical trace"
    );
    // The headline numbers of the paper's data plane, spelled out:
    assert_eq!(udp_counters.clone_rate(), direct_counters.clone_rate());
    assert_eq!(udp_counters.filter_rate(), direct_counters.filter_rate());
    switch.shutdown();
}

/// Responses the switch must have processed once step `upto` completed.
fn direct_partial_responses(fanouts: &[Vec<u16>], upto: usize) -> u64 {
    fanouts[..=upto].iter().map(|f| f.len() as u64).sum()
}

/// Encodes one value-less datagram.
fn datagram(meta: &PacketMeta, op: &RpcOp) -> Vec<u8> {
    let mut dg = Vec::new();
    encode_packet_into(meta, op, &[], &mut dg);
    dg
}

/// Host-level equivalence: both frontends are thin drivers over the same
/// sans-io protocol cores (`ClientCore`/`ServerCore`), so driving the
/// *same* cores through the DES-style inline path and through real UDP
/// sockets must yield identical host counters — sent, completed,
/// redundant, clone-win, lost on the client; served/responses/idle on the
/// servers. Filtering is disabled so redundant responses actually reach
/// the client and its dedup path is exercised, not just the switch's.
#[test]
fn host_cores_agree_across_frontends() {
    const N_HOST_REQUESTS: usize = 24;

    let mut scenario = scenario();
    scenario.scheme = Scheme::NetClone {
        racksched: false,
        filtering: false,
    };

    /// The op sequence: mostly cloneable echoes, every fifth a write
    /// (uncloneable, §5.5) so the no-clone path is exercised too.
    fn op_for(i: usize) -> RpcOp {
        if i % 5 == 3 {
            RpcOp::Put {
                key: KvKey::from_index(i as u64),
                value_len: 16,
            }
        } else {
            RpcOp::Echo { class_ns: 25_000 }
        }
    }

    fn fresh_hosts(num_groups: u16) -> (ClientCore, Vec<ServerCore>) {
        let client = ClientCore::new(
            0,
            ClientMode::NetClone {
                num_groups,
                num_filter_tables: 2,
            },
            424242,
        );
        let servers = (0..N_SERVERS as u16).map(ServerCore::new).collect();
        (client, servers)
    }

    // ---- Frontend 1: DES-style, cores fed inline from the engine. ----
    let mut engine = build_engine(&scenario);
    let (mut client, mut servers) = fresh_hosts(engine.num_groups());
    // Per step: the server ports that received a delivery, and how many
    // responses the switch forwarded back to the client — the UDP run's
    // receive schedule.
    let mut fanouts: Vec<Vec<u16>> = Vec::new();
    let mut client_rx: Vec<usize> = Vec::new();
    for i in 0..N_HOST_REQUESTS {
        let now = (i as u64 + 1) * 100_000;
        client.generate(op_for(i), now);
        let meta = client.poll().expect("one packet per request");
        assert!(client.poll().is_none());
        let mut emissions = engine.process_collected(meta, 100, now);
        emissions.sort_by_key(|e| e.port);
        let ports: Vec<u16> = emissions.iter().map(|e| e.port).collect();
        let mut to_client = 0;
        for e in emissions {
            let sid = e.port - 10;
            // The harness serialises requests, so every queue is empty:
            // clones are always admitted.
            let core = &mut servers[sid as usize];
            assert_eq!(
                core.admit(e.pkt.nc.clo, 0),
                netclone::hostcore::AdmitDecision::Admit
            );
            let resp_hdr = core.response(&e.pkt.nc, 0);
            let resp = PacketMeta::netclone_response(Ipv4::server(sid), e.pkt.src_ip, resp_hdr, 84);
            for out in engine.process_collected(resp, e.port, now) {
                assert_eq!(out.port, 100, "responses go back to the client");
                client.on_packet(&out.pkt.nc, now + 50_000);
                to_client += 1;
            }
        }
        fanouts.push(ports);
        client_rx.push(to_client);
    }
    let direct_client: ClientStats = client.stats();
    let direct_servers: Vec<ServerStats> = servers.iter().map(|s| s.stats()).collect();

    // The trace must exercise the interesting host paths, otherwise the
    // parity assertions below would be vacuous.
    assert_eq!(direct_client.generated, N_HOST_REQUESTS as u64);
    assert_eq!(direct_client.completed, N_HOST_REQUESTS as u64);
    assert_eq!(direct_client.lost, 0);
    assert!(
        direct_client.redundant > 0,
        "unfiltered clones must reach the client's dedup path"
    );
    assert!(
        direct_client.clone_wins > 0,
        "some requests must be won by the clone copy"
    );

    // ---- Frontend 2: the same cores behind real UDP sockets. ----
    let switch = SoftSwitch::spawn_engine(build_engine(&scenario)).expect("spawn soft switch");
    let handle = switch.handle();
    let (mut client, mut servers) = fresh_hosts(handle.num_groups());
    let client_sock = UdpSocket::bind("127.0.0.1:0").expect("client socket");
    let server_socks: Vec<UdpSocket> = (0..N_SERVERS)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("server socket"))
        .collect();
    handle
        .map_port(100, client_sock.local_addr().unwrap())
        .expect("map client port");
    for (sid, sock) in server_socks.iter().enumerate() {
        handle
            .map_port(10 + sid as u16, sock.local_addr().unwrap())
            .expect("map server port");
    }

    let mut buf = vec![0u8; 65_536];
    for i in 0..N_HOST_REQUESTS {
        let now = (i as u64 + 1) * 100_000;
        let op = op_for(i);
        client.generate(op, now);
        let meta = client.poll().expect("one packet per request");
        client_sock
            .send_to(&datagram(&meta, &op), handle.addr())
            .expect("send request");

        // Serve on exactly the ports the direct run predicts, responding
        // in the same (sorted) port order so the switch sees the same
        // response sequence.
        for &port in &fanouts[i] {
            let sock = &server_socks[(port - 10) as usize];
            let len = recv_with_deadline(sock, &mut buf)
                .unwrap_or_else(|| panic!("request {i}: no delivery on port {port}"));
            let (req, op_rx, _value) = decode_packet_borrowed(&buf[..len]).expect("decode");
            assert_eq!(op_rx, op);
            let sid = port - 10;
            let core = &mut servers[sid as usize];
            assert_eq!(
                core.admit(req.nc.clo, 0),
                netclone::hostcore::AdmitDecision::Admit
            );
            let resp_hdr = core.response(&req.nc, 0);
            let resp = PacketMeta::netclone_response(Ipv4::server(sid), req.src_ip, resp_hdr, 84);
            sock.send_to(&datagram(&resp, &op), handle.addr())
                .expect("send response");
        }

        // Drain the responses the direct run says the switch forwards.
        for _ in 0..client_rx[i] {
            let len = recv_with_deadline(&client_sock, &mut buf)
                .unwrap_or_else(|| panic!("request {i}: missing response at the client"));
            let (resp, _op, _value) = decode_packet_borrowed(&buf[..len]).expect("decode");
            client.on_packet(&resp.nc, now + 50_000);
        }
    }

    assert_eq!(
        client.stats(),
        direct_client,
        "client cores diverged between the DES and UDP frontends"
    );
    let udp_servers: Vec<ServerStats> = servers.iter().map(|s| s.stats()).collect();
    assert_eq!(
        udp_servers, direct_servers,
        "server cores diverged between the DES and UDP frontends"
    );
    switch.shutdown();
}

/// The hot-key service model ([`HotKeyCost`]) classifies a request by its
/// key's popularity rank, so parity across frontends hinges on the wire
/// codec preserving everything `class_ns` reads: the op kind, the key
/// index, and the scan count. Drive the same hot/cold op mix through the
/// inline engine and over real UDP, classify each delivery at the server,
/// and require the identical hit/miss cost sequence.
#[test]
fn hot_key_costs_agree_across_frontends() {
    use netclone::kvstore::HotKeyCost;

    const N_OPS: usize = 24;
    let hk = HotKeyCost::redis_with_backing_store(100);
    // Hits, misses, a SCAN that stays resident, one that overruns the hot
    // set, and a write — every classification branch.
    let op_for = |i: usize| -> RpcOp {
        match i % 6 {
            0 => RpcOp::Scan {
                key: KvKey::from_index((i as u64 * 7) % 120),
                count: 50,
            },
            3 => RpcOp::Put {
                key: KvKey::from_index((i as u64 * 37) % 200),
                value_len: 16,
            },
            _ => RpcOp::Get {
                key: KvKey::from_index((i as u64 * 37) % 200),
            },
        }
    };

    let scenario = scenario();

    // Frontend 1: inline engine; ops reach the "server" unencoded.
    let mut engine = build_engine(&scenario);
    let mut direct_classes: Vec<(u16, u64)> = Vec::new();
    let mut fanouts: Vec<Vec<u16>> = Vec::new();
    for i in 0..N_OPS {
        let op = op_for(i);
        let mut meta = PacketMeta::netclone_request(
            Ipv4::client(0),
            NetCloneHdr::request((i as u16) % engine.num_groups(), (i % 2) as u8, 0, i as u32),
            84,
        );
        if !op.is_cloneable() {
            meta.nc.state = ServerState(1);
        }
        let mut emissions = engine.process_collected(meta, 100, 0);
        emissions.sort_by_key(|e| e.port);
        fanouts.push(emissions.iter().map(|e| e.port).collect());
        for e in emissions {
            let sid = e.port - 10;
            direct_classes.push((e.port, hk.class_ns(&op)));
            let nc = NetCloneHdr::response_to(&e.pkt.nc, sid, ServerState(0));
            let resp = PacketMeta::netclone_response(Ipv4::server(sid), e.pkt.src_ip, nc, 84);
            engine.process_collected(resp, e.port, 0);
        }
    }
    let hit = hk.hit.class_ns(&RpcOp::Get {
        key: KvKey::from_index(0),
    });
    let miss = hk.miss.class_ns(&RpcOp::Get {
        key: KvKey::from_index(150),
    });
    assert!(hit < miss);
    assert!(
        direct_classes.iter().any(|&(_, c)| c == hit)
            && direct_classes.iter().any(|&(_, c)| c == miss),
        "the mix must exercise both the hit and the miss path"
    );

    // Frontend 2: the same trace over UDP; servers classify what the wire
    // actually delivered.
    let switch = SoftSwitch::spawn_engine(build_engine(&scenario)).expect("spawn soft switch");
    let handle = switch.handle();
    let client = UdpSocket::bind("127.0.0.1:0").expect("client socket");
    let servers: Vec<UdpSocket> = (0..N_SERVERS)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("server socket"))
        .collect();
    handle
        .map_port(100, client.local_addr().unwrap())
        .expect("map client port");
    for (sid, sock) in servers.iter().enumerate() {
        handle
            .map_port(10 + sid as u16, sock.local_addr().unwrap())
            .expect("map server port");
    }

    let mut udp_classes: Vec<(u16, u64)> = Vec::new();
    let mut buf = vec![0u8; 65_536];
    let mut responses_seen = 0u64;
    for (i, fanout) in fanouts.iter().enumerate() {
        let op = op_for(i);
        let mut meta = PacketMeta::netclone_request(
            Ipv4::client(0),
            NetCloneHdr::request((i as u16) % handle.num_groups(), (i % 2) as u8, 0, i as u32),
            84,
        );
        if !op.is_cloneable() {
            meta.nc.state = ServerState(1);
        }
        client
            .send_to(&datagram(&meta, &op), handle.addr())
            .expect("send request");
        for &port in fanout {
            let sock = &servers[(port - 10) as usize];
            let len = recv_with_deadline(sock, &mut buf)
                .unwrap_or_else(|| panic!("request {i}: no delivery on port {port}"));
            let (req, op_rx, _value) = decode_packet_borrowed(&buf[..len]).expect("decode");
            let sid = port - 10;
            udp_classes.push((port, hk.class_ns(&op_rx)));
            let nc = NetCloneHdr::response_to(&req.nc, sid, ServerState(0));
            let resp = PacketMeta::netclone_response(Ipv4::server(sid), req.src_ip, nc, 84);
            sock.send_to(&datagram(&resp, &op), handle.addr())
                .expect("send response");
            responses_seen += 1;
        }
        // Serialise: wait for this step's responses before the next send.
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.counters().responses < responses_seen {
            assert!(Instant::now() < deadline, "request {i}: responses lost");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    assert_eq!(
        udp_classes, direct_classes,
        "hot-key classification diverged between the inline and UDP frontends"
    );
    switch.shutdown();
}

/// The plain L3 fabric (Baseline/C-Clone schemes) must also behave
/// identically across frontends — it implements the same trait.
#[test]
fn plain_engine_is_equivalent_across_frontends() {
    let mut scenario = scenario();
    scenario.scheme = Scheme::Baseline;

    // Direct run: route one request to each server and one response back.
    let mut direct = build_engine(&scenario);
    for sid in 0..N_SERVERS as u16 {
        let mut req = PacketMeta::netclone_request(
            Ipv4::client(0),
            NetCloneHdr::request(0, 0, 0, sid as u32),
            84,
        );
        req.dst_ip = Ipv4::server(sid);
        let out = direct.process_collected(req, 100, 0);
        assert_eq!(out.len(), 1, "plain switch forwards without cloning");
        let resp = PacketMeta::netclone_response(
            Ipv4::server(sid),
            Ipv4::client(0),
            NetCloneHdr::response_to(&req.nc, sid, ServerState(0)),
            84,
        );
        direct.process_collected(resp, 10 + sid, 0);
    }
    let direct_counters = direct.counters();
    assert_eq!(direct_counters.routed_plain, 2 * N_SERVERS as u64);
    assert_eq!(direct_counters.cloned, 0);

    // Same trace through the soft switch.
    let switch = SoftSwitch::spawn_engine(build_engine(&scenario)).expect("spawn soft switch");
    let handle = switch.handle();
    let client = UdpSocket::bind("127.0.0.1:0").unwrap();
    let servers: Vec<UdpSocket> = (0..N_SERVERS)
        .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
        .collect();
    handle
        .map_port(100, client.local_addr().unwrap())
        .expect("map client port");
    for (sid, sock) in servers.iter().enumerate() {
        handle
            .map_port(10 + sid as u16, sock.local_addr().unwrap())
            .expect("map server port");
    }

    let op = RpcOp::Echo { class_ns: 25_000 };
    let mut buf = vec![0u8; 65_536];
    for sid in 0..N_SERVERS as u16 {
        let mut req = PacketMeta::netclone_request(
            Ipv4::client(0),
            NetCloneHdr::request(0, 0, 0, sid as u32),
            84,
        );
        req.dst_ip = Ipv4::server(sid);
        client.send_to(&datagram(&req, &op), handle.addr()).unwrap();
        let len = recv_with_deadline(&servers[sid as usize], &mut buf)
            .expect("plain switch must deliver to the addressed server");
        let (meta, _op, _v) = decode_packet_borrowed(&buf[..len]).unwrap();
        let resp = PacketMeta::netclone_response(
            Ipv4::server(sid),
            meta.src_ip,
            NetCloneHdr::response_to(&meta.nc, sid, ServerState(0)),
            84,
        );
        servers[sid as usize]
            .send_to(&datagram(&resp, &op), handle.addr())
            .unwrap();
        recv_with_deadline(&client, &mut buf).expect("response reaches the client");
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.counters() != direct_counters && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(handle.counters(), direct_counters);
    switch.shutdown();
}

/// The sharded open-loop frontend preserves host-core parity at any
/// worker count: every generated request resolves exactly once
/// (`sent == completed + lost`), the merged report equals the sum of its
/// per-worker breakdown, and server-side accounting stays consistent
/// with what the clients observed — the same invariants the single-core
/// frontends uphold, now across disjoint cid/seq partitions.
#[test]
fn sharded_open_loop_preserves_host_accounting() {
    use netclone::core::NetCloneConfig;
    use netclone::net::{OpenLoopSpec, Testbed, WorkExecutor};

    for workers in [1usize, 4] {
        let mut tb = Testbed::spawn(
            NetCloneConfig::default(),
            2,
            workers,
            WorkExecutor::Synthetic,
        )
        .expect("testbed");
        let handle = tb.switch_handle();
        let client = tb.open_loop_client(workers).expect("open-loop client");
        let report = client
            .run(OpenLoopSpec {
                rate_rps: 2_000.0,
                duration: Duration::from_millis(300),
                op: RpcOp::Echo { class_ns: 25_000 },
                drain: Duration::from_millis(150),
                request_timeout: Duration::from_millis(100),
                num_groups: handle.num_groups(),
                num_filter_tables: 2,
                seed: 17,
                workers,
                retry: None,
                faults: None,
                crash_worker: None,
            })
            .expect("open-loop run");

        // Client-side conservation, merged and per worker.
        let st = report.stats;
        assert!(st.completed > 0, "workers={workers}: no traffic moved");
        assert_eq!(
            st.generated,
            st.completed + st.lost,
            "workers={workers}: every request resolves exactly once"
        );
        assert_eq!(st.redundant, 0, "workers={workers}: filtering held");
        assert_eq!(report.per_worker.len(), workers);
        let mut merged = ClientStats::default();
        let mut samples = 0u64;
        for (w, wr) in report.per_worker.iter().enumerate() {
            assert_eq!(wr.cid, w as u16, "cids are a contiguous partition");
            assert_eq!(
                wr.stats.generated,
                wr.stats.completed + wr.stats.lost,
                "workers={workers}: worker {w} conserves its own partition"
            );
            merged.merge(&wr.stats);
            samples += wr.latencies.count();
        }
        assert_eq!(merged, st);
        assert_eq!(samples, report.latencies.count());
        assert_eq!(report.latencies.count(), st.completed);

        // Server-side parity: every response was served exactly once per
        // core, and the fleet served at least every client completion
        // (clone copies can be served and then lose the race).
        let mut served_total = 0u64;
        for s in tb.servers() {
            let st = s.stats();
            assert_eq!(st.served, st.responses, "served and responses agree");
            served_total += st.served;
            // Merged handle stats equal the per-worker core sum.
            let mut per_core = ServerStats::default();
            for w in s.worker_stats() {
                per_core.merge(&w);
            }
            assert_eq!(per_core, st);
        }
        assert!(
            served_total >= st.completed,
            "workers={workers}: servers served {} but clients completed {}",
            served_total,
            st.completed
        );
        tb.shutdown();
    }
}
