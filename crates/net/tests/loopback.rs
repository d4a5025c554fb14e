#![allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]

//! End-to-end tests of the real-socket runtime on loopback: the genuine
//! NetClone program forwarding real datagrams between real threads.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use netclone_core::NetCloneConfig;
use netclone_net::{
    decode_packet_borrowed, encode_packet_into, CallError, ServerHandle, Testbed, UdpServerConfig,
    WorkExecutor,
};
use netclone_proto::{Ipv4, KvKey, NetCloneHdr, PacketMeta, RpcOp, ServerState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TIMEOUT: Duration = Duration::from_secs(2);

#[test]
fn echo_calls_complete_and_slower_responses_are_filtered() {
    let mut tb =
        Testbed::spawn(NetCloneConfig::default(), 3, 2, WorkExecutor::Synthetic).expect("testbed");
    let mut client = tb.client(1).expect("client");
    let calls = 40;
    for _ in 0..calls {
        let reply = client
            .call(RpcOp::Echo { class_ns: 100_000 }, TIMEOUT)
            .expect("call");
        assert!(reply.latency >= Duration::from_micros(100));
        assert!(reply.sid < 3);
    }
    // Closed-loop single-outstanding traffic leaves every queue empty, so
    // every request should clone, and the filter must absorb exactly the
    // slower responses.
    let c = tb.switch_handle().counters();
    assert_eq!(c.requests, calls);
    assert!(
        c.cloned >= calls * 9 / 10,
        "closed-loop requests should nearly always clone: {c:?}"
    );
    // Allow stragglers still in flight, then confirm no redundancy leaked.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        client.drain_late_responses(),
        0,
        "filter must block the slower copies"
    );
    assert_eq!(client.stats().redundant, 0);
    assert_eq!(client.stats().completed, calls);
    tb.shutdown();
}

#[test]
fn disabling_the_filter_leaks_redundant_responses() {
    let mut cfg = NetCloneConfig::default();
    cfg.filtering_enabled = false;
    let mut tb = Testbed::spawn(cfg, 3, 2, WorkExecutor::Synthetic).expect("testbed");
    let mut client = tb.client(2).expect("client");
    for _ in 0..25 {
        client
            .call(RpcOp::Echo { class_ns: 50_000 }, TIMEOUT)
            .expect("call");
    }
    std::thread::sleep(Duration::from_millis(80));
    client.drain_late_responses();
    assert!(
        client.stats().redundant > 0,
        "without filtering the client must see duplicate responses"
    );
    tb.shutdown();
}

#[test]
fn kv_store_round_trips_values_through_the_fabric() {
    let mut tb = Testbed::spawn(NetCloneConfig::default(), 2, 2, WorkExecutor::kv(1_000, 64))
        .expect("testbed");
    let mut client = tb.client(3).expect("client");

    // GET returns the store's deterministic value (object index prefix).
    let reply = client
        .call(
            RpcOp::Get {
                key: KvKey::from_index(42),
            },
            TIMEOUT,
        )
        .expect("get");
    assert_eq!(reply.value.len(), 64);
    assert_eq!(&reply.value[..8], &42u64.to_be_bytes());

    // SCAN concatenates 10 objects.
    let reply = client
        .call(
            RpcOp::Scan {
                key: KvKey::from_index(0),
                count: 10,
            },
            TIMEOUT,
        )
        .expect("scan");
    assert_eq!(reply.value.len(), 640);

    // PUT is acknowledged and never cloned (§5.5).
    let before = tb.switch_handle().counters().cloned;
    let reply = client
        .call(
            RpcOp::Put {
                key: KvKey::from_index(7),
                value_len: 64,
            },
            TIMEOUT,
        )
        .expect("put");
    assert_eq!(reply.value, b"STORED");
    let after = tb.switch_handle().counters().cloned;
    assert_eq!(before, after, "writes must not be cloned");
    tb.shutdown();
}

#[test]
fn a_reply_over_the_datagram_envelope_times_out_instead_of_arriving_cut() {
    let mut tb = Testbed::spawn(NetCloneConfig::default(), 2, 1, WorkExecutor::kv(1_000, 64))
        .expect("testbed");
    let mut client = tb.client(9).expect("client");
    let scan = |count| RpcOp::Scan {
        key: KvKey::from_index(0),
        count,
    };
    // 127 objects are 8,128 value bytes: the reply fits the 8 KiB envelope.
    let reply = client.call(scan(127), TIMEOUT).expect("scan of 127");
    assert_eq!(reply.value.len(), 127 * 64);
    // 128 and 200 objects do not: the switch drops the reply on receipt
    // rather than forward the first 8 KiB of it as a whole answer.
    for count in [128, 200] {
        match client.call(scan(count), Duration::from_millis(300)) {
            Err(CallError::Timeout) => {}
            Ok(reply) => panic!(
                "scan of {count} returned {} of {} value bytes",
                reply.value.len(),
                usize::from(count) * 64
            ),
            Err(e) => panic!("scan of {count}: {e}"),
        }
    }
    tb.shutdown();
}

#[test]
fn a_call_past_its_timeout_returns_within_one_poll_and_counts_the_late_reply() {
    let mut tb =
        Testbed::spawn(NetCloneConfig::default(), 2, 1, WorkExecutor::Synthetic).expect("testbed");
    let mut client = tb.client(10).expect("client");
    let timeout = Duration::from_millis(20);
    let start = Instant::now();
    let result = client.call(
        RpcOp::Echo {
            class_ns: 200_000_000,
        },
        timeout,
    );
    let took = start.elapsed();
    assert!(matches!(result, Err(CallError::Timeout)), "{result:?}");
    // The read timeout is a fixed 5 ms poll, so the call wakes at most
    // one poll past its deadline; the rest is scheduling slack.
    assert!(took >= timeout, "returned after {took:?}");
    assert!(
        took < timeout + Duration::from_millis(5 + 45),
        "returned {took:?} after a {timeout:?} timeout"
    );
    assert_eq!(client.stats().lost, 1);
    // The switch filter lets one of the two copies' replies through; it
    // lands ~200 ms in, after the call gave up, and counts as redundant.
    let mut drained = 0;
    while drained == 0 && start.elapsed() < TIMEOUT {
        drained += client.drain_late_responses();
    }
    assert_eq!(drained, 1);
    let stats = client.stats();
    assert_eq!((stats.redundant, stats.completed, stats.lost), (1, 0, 1));
    tb.shutdown();
}

#[test]
fn server_failure_is_handled_by_the_control_plane() {
    let mut tb =
        Testbed::spawn(NetCloneConfig::default(), 3, 2, WorkExecutor::Synthetic).expect("testbed");
    let handle = tb.switch_handle();
    assert_eq!(handle.num_groups(), 6);
    handle.remove_server(2).expect("remove");
    assert_eq!(handle.num_groups(), 2, "groups rebuilt over 2 servers");
    // Traffic still completes against the surviving pair. (The client
    // draws groups from the updated count, §3.6.)
    let mut client = tb.client(4).expect("client");
    for _ in 0..10 {
        let reply = client
            .call(RpcOp::Echo { class_ns: 20_000 }, TIMEOUT)
            .expect("call survives failure");
        assert!(reply.sid < 2, "failed server must not answer");
    }
    tb.shutdown();
}

#[test]
fn switch_soft_state_reset_is_harmless() {
    let mut tb =
        Testbed::spawn(NetCloneConfig::default(), 2, 2, WorkExecutor::Synthetic).expect("testbed");
    let mut client = tb.client(5).expect("client");
    client
        .call(RpcOp::Echo { class_ns: 20_000 }, TIMEOUT)
        .expect("before reset");
    // §3.6 argues a restarted sequence number is harmless because "most
    // requests with earlier sequence numbers have already been completed".
    // That caveat is real: an in-flight pre-reset response can collide with
    // a reused post-reset request ID and make the filter absorb a live
    // response (observed in this very test without the drain). Model the
    // paper's assumption: let in-flight traffic drain before the reset.
    std::thread::sleep(Duration::from_millis(50));
    client.drain_late_responses();
    tb.switch_handle().reset_soft_state();
    for i in 0..5 {
        if let Err(e) = client.call(RpcOp::Echo { class_ns: 20_000 }, TIMEOUT) {
            panic!("call {i} after reset failed: {e}");
        }
    }
    tb.shutdown();
}

#[test]
fn shutdown_joins_quickly() {
    let tb =
        Testbed::spawn(NetCloneConfig::default(), 2, 2, WorkExecutor::Synthetic).expect("testbed");
    let start = std::time::Instant::now();
    tb.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "graceful shutdown must not hang"
    );
}

#[test]
fn client_ids_past_the_port_space_are_refused() {
    let mut tb =
        Testbed::spawn(NetCloneConfig::default(), 2, 2, WorkExecutor::Synthetic).expect("testbed");
    let mut client = tb.client(7).expect("client");
    let handle = tb.switch_handle();
    let stray = UdpSocket::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    // Client ports are 100 + cid in a 512-port map: cid 412 is the first
    // without a slot, and 100 + u16::MAX does not fit a port number at all.
    for cid in [412, u16::MAX] {
        assert!(
            handle
                .register_client(cid, Ipv4::client(cid), stray)
                .is_err(),
            "cid {cid} was accepted"
        );
    }
    assert!(handle
        .register_server(u16::MAX, Ipv4::server(7), stray)
        .is_err());
    // The refusals left no route behind: the registered client still gets
    // answers.
    client
        .call(RpcOp::Echo { class_ns: 10_000 }, TIMEOUT)
        .expect("registered client still served");
    // cids 1..=413 run past 411, the last cid with a port: the testbed
    // reports the refusal instead of panicking.
    assert!(tb.open_loop_client(413).is_err());
    tb.shutdown();
}

#[test]
fn a_forged_endless_echo_does_not_wedge_shutdown() {
    let mut tb =
        Testbed::spawn(NetCloneConfig::default(), 2, 1, WorkExecutor::Synthetic).expect("testbed");
    let client = tb.client(31).expect("client");
    let attacker = UdpSocket::bind("127.0.0.1:0").unwrap();
    // A well-formed request from the client's address whose echo names
    // the longest service time the wire can carry. Both servers are idle,
    // so the switch clones it and both synthetic workers start spinning.
    let req =
        PacketMeta::netclone_request(client.vip(), NetCloneHdr::request(0, 0, 0, 0x5A5A_5A5A), 0);
    let mut dg = Vec::new();
    encode_packet_into(&req, &RpcOp::Echo { class_ns: u64::MAX }, &[], &mut dg);
    attacker.send_to(&dg, tb.switch_addr()).unwrap();
    let sent = std::time::Instant::now();
    while tb.switch_handle().counters().requests == 0 {
        assert!(sent.elapsed() < TIMEOUT, "the switch never saw the echo");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Let the servers take it off their sockets and enter the spin. (Only
    // the parent's wedge depends on this; a stoppable spin passes either
    // way.)
    std::thread::sleep(Duration::from_millis(50));

    // Shutdown runs on a thread of its own so a wedge fails the test
    // instead of hanging it; on success the thread is joined.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let shutdown = std::thread::spawn(move || {
        tb.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("Testbed::shutdown returns within 2 s of a forged endless echo");
    shutdown.join().expect("shutdown thread");
}

#[test]
fn a_synthetic_workers_reply_is_not_held_behind_the_next_requests_spin() {
    // A bare socket stands in for the switch, so the test decides what
    // lands in one receive batch.
    let switch = UdpSocket::bind("127.0.0.1:0").unwrap();
    let cfg = UdpServerConfig::new(
        0,
        Ipv4::server(0),
        1,
        WorkExecutor::Synthetic,
        switch.local_addr().unwrap(),
    );
    let server = ServerHandle::spawn(cfg).expect("server");
    let request = |seq: u32, class_ns: u64| {
        let meta =
            PacketMeta::netclone_request(Ipv4::client(1), NetCloneHdr::request(0, 0, 1, seq), 0);
        let mut dg = Vec::new();
        encode_packet_into(&meta, &RpcOp::Echo { class_ns }, &[], &mut dg);
        dg
    };
    // Request 1 keeps the worker spinning while requests 2 and 3 queue
    // behind it, so the worker takes those two in one receive batch. The
    // zero echo's reply is staged first; the ten-second echo must not
    // keep it staged through its spin. (Shutdown ends that spin.)
    switch
        .send_to(&request(1, 100_000_000), server.addr())
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    for (seq, class_ns) in [(2, 0), (3, 10_000_000_000)] {
        switch
            .send_to(&request(seq, class_ns), server.addr())
            .unwrap();
    }
    let sent = std::time::Instant::now();
    switch.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut buf = [0u8; 2048];
    let mut replies = Vec::new();
    while replies.len() < 2 {
        let len = switch
            .recv(&mut buf)
            .expect("the zero echo's reply arrives while the next request spins");
        let (meta, _, _) = decode_packet_borrowed(&buf[..len]).expect("a well-formed reply");
        replies.push(meta.nc.client_seq);
    }
    assert_eq!(replies, [1, 2]);
    assert!(
        sent.elapsed() < TIMEOUT,
        "the zero echo's reply took {:?}",
        sent.elapsed()
    );
    server.shutdown();
}

#[test]
fn hostile_datagrams_never_wedge_the_switch() {
    let mut tb =
        Testbed::spawn(NetCloneConfig::default(), 2, 2, WorkExecutor::Synthetic).expect("testbed");
    let mut client = tb.client(8).expect("client");
    let attacker = UdpSocket::bind("127.0.0.1:0").unwrap();

    // Valid templates to corrupt: a request from the client and a response
    // to it. The client_seq is far from anything the client issues, so no
    // single flipped byte can forge an answer to its real call. The op is
    // a GET of key 0: a flipped echo could name any service time, which
    // the synthetic server would honour for as long as it says, while a
    // GET whose tag flips to echo carries key 0's prefix, a 0 ns class.
    let op = RpcOp::Get {
        key: KvKey::from_index(0),
    };
    let req =
        PacketMeta::netclone_request(client.vip(), NetCloneHdr::request(0, 0, 0, 0x5A5A_5A5A), 0);
    let resp = PacketMeta::netclone_response(
        Ipv4::server(1),
        client.vip(),
        NetCloneHdr::response_to(&req.nc, 1, ServerState(0)),
        0,
    );
    let mut templates = [Vec::new(), Vec::new()];
    encode_packet_into(&req, &op, &[], &mut templates[0]);
    encode_packet_into(&resp, &op, b"value", &mut templates[1]);

    let mut rng = StdRng::seed_from_u64(30);
    let mut dg = Vec::new();
    for i in 0..400 {
        dg.clear();
        if i % 2 == 0 {
            let len = rng.random_range(0..80usize);
            dg.extend((0..len).map(|_| rng.random::<u8>()));
        } else {
            dg.extend_from_slice(&templates[(i / 2) % 2]);
            let pos = rng.random_range(0..dg.len());
            dg[pos] ^= rng.random_range(1..=255u8);
        }
        attacker.send_to(&dg, tb.switch_addr()).unwrap();
        // Paced, so the kernel does not drop the burst at the switch's
        // receive buffer before the switch has parsed it.
        if i % 16 == 15 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // A wedged or dead switch thread fails every attempt; a retry only
    // absorbs a datagram the loaded loopback lost.
    let before = tb.switch_handle().counters().requests;
    let reply = (0..3)
        .find_map(|_| client.call(RpcOp::Echo { class_ns: 20_000 }, TIMEOUT).ok())
        .expect("a valid request after hostile traffic is still answered");
    assert!(reply.sid < 2);
    assert!(tb.switch_handle().counters().requests > before);
    tb.shutdown();
}

/// Field 41 (`policy`) of a `/proc/.../stat` line; `comm` sits in
/// parentheses and may hold spaces, so fields are counted after the last `)`.
#[cfg(target_os = "linux")]
fn sched_policy(stat: &str) -> Option<u32> {
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(41 - 3)?.parse().ok()
}

#[cfg(target_os = "linux")]
#[test]
fn server_workers_run_sched_batch_and_the_switch_keeps_the_default() {
    const SCHED_OTHER: u32 = 0;
    const SCHED_BATCH: u32 = 3;
    // Every switch and server worker thread of the process, by `comm`,
    // with its policy. Other tests' testbeds count too: they obey the
    // same rule.
    let testbed_policies = || -> Vec<(String, Option<u32>)> {
        let mut found = Vec::new();
        for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
            let dir = task.expect("task entry").path();
            let (Ok(comm), Ok(stat)) = (
                std::fs::read_to_string(dir.join("comm")),
                std::fs::read_to_string(dir.join("stat")),
            ) else {
                continue; // the thread exited between the listing and the read
            };
            let comm = comm.trim_end().to_string();
            if comm == "soft-switch" || (comm.starts_with("server") && comm.contains("-worker")) {
                found.push((comm, sched_policy(&stat)));
            }
        }
        found
    };
    let expected = |comm: &str| {
        if comm == "soft-switch" {
            SCHED_OTHER
        } else {
            SCHED_BATCH
        }
    };

    let mut tb =
        Testbed::spawn(NetCloneConfig::default(), 2, 2, WorkExecutor::Synthetic).expect("testbed");
    let mut client = tb.client(41).expect("client");
    client
        .call(RpcOp::Echo { class_ns: 0 }, TIMEOUT)
        .expect("an echo completes under the batch policy");

    // A worker sets its policy first thing, so one spawned a moment ago
    // may not have yet: poll until every thread reads its policy.
    let start = std::time::Instant::now();
    let threads = loop {
        let threads = testbed_policies();
        let settled = threads.iter().all(|(c, p)| *p == Some(expected(c)));
        if settled || start.elapsed() > TIMEOUT {
            break threads;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        threads.iter().any(|(c, _)| c == "soft-switch"),
        "{threads:?}"
    );
    assert!(
        threads.iter().any(|(c, _)| c.starts_with("server")),
        "{threads:?}"
    );
    for (comm, policy) in &threads {
        assert_eq!(*policy, Some(expected(comm)), "{comm}'s scheduling policy");
    }
    let own = std::fs::read_to_string("/proc/thread-self/stat").expect("own stat");
    assert_eq!(
        sched_policy(&own),
        Some(SCHED_OTHER),
        "the calling thread keeps the default policy"
    );
    tb.shutdown();
}
