//! The layer replay: each crate's hot public functions, timed in-process
//! and single-threaded on inputs shaped like the workload's own.
//!
//! Every figure is nanoseconds per call, the median of [`BATCHES`]
//! batches. Cheap calls run [`CALLS`] times per batch (a million in all);
//! calls costing microseconds run fewer, so the whole replay stays within
//! a few seconds. Inputs are built before the clock starts and results go
//! through `black_box`, so the compiler can neither hoist nor delete the
//! measured work.

use std::hint::black_box;
use std::time::Instant;

use netclone::asic::EmissionSink;
use netclone::cluster::topology::UPLINK_PORT;
use netclone::cluster::{build_engine, build_fabric, RetryPolicy, Scenario, Scheme};
use netclone::des::{EventQueue, SimTime, SpinBarrier};
use netclone::hostcore::{ClientCore, ClientMode, ServerCore};
use netclone::hosts::{AppPacket, ClientSim, ServerConfig, ServerSim};
use netclone::kvstore::KvStore;
use netclone::net::{decode_packet_borrowed, encode_packet_into, WorkExecutor};
use netclone::proto::{CloneStatus, Ipv4, KvKey, NetCloneHdr, PacketMeta, RpcOp, ServerState};
use netclone::stats::LatencyHistogram;
use netclone::workloads::exp25;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::est::median;
use crate::udp::{KV_OBJECTS, KV_SCAN_COUNT, KV_VALUE_LEN};

pub const BATCHES: usize = 5;
pub const CALLS: usize = 200_000;

/// ns/call of `f`, which runs `calls` calls and returns the time it spent
/// in the timed part.
fn per_call(calls: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut per: Vec<f64> = (0..BATCHES).map(|_| f() as f64 / calls as f64).collect();
    median(&mut per)
}

fn timed(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// `des.queue_op_ns`: one schedule plus one pop with `depth` events
/// pending (the classic hold model: pop the earliest, reschedule it a
/// random delay ahead).
pub fn queue_op_ns(depth: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..depth {
        q.schedule(
            SimTime::from_ns(rng.random_range(0..1_000_000u64)),
            i as u32,
        );
    }
    let delays: Vec<u64> = (0..CALLS)
        .map(|_| rng.random_range(1..2_000_000u64))
        .collect();
    per_call(CALLS, || {
        timed(|| {
            for &d in &delays {
                let (t, ev) = q.pop().expect("hold model never drains");
                q.schedule(t + d, ev);
            }
            black_box(q.len());
        })
    })
}

/// `des.barrier_ns`: one `SpinBarrier::wait` with two participants, the
/// sharded loop's per-window synchronisation cost on this machine.
pub fn barrier_ns() -> f64 {
    const ROUNDS: usize = 50_000;
    per_call(ROUNDS, || {
        let b = SpinBarrier::new(2);
        std::thread::scope(|s| {
            let peer = s.spawn(|| {
                for _ in 0..ROUNDS {
                    b.wait();
                }
            });
            let ns = timed(|| {
                for _ in 0..ROUNDS {
                    b.wait();
                }
            });
            peer.join().expect("barrier peer panicked");
            ns
        })
    })
}

/// The four `SwitchEngine::process` paths of the NetClone program.
pub struct CoreNs {
    pub req_clone: f64,
    pub req_noclone: f64,
    pub resp_pass: f64,
    pub resp_filtered: f64,
}

/// Times `process` on a fully programmed engine (the default rack's, via
/// `build_engine`): cloneable requests with every server tracked idle
/// (all clone), requests marked uncloneable (none do), then the two
/// responses of each cloned request — the first passes and records its
/// fingerprint, the second is filtered.
pub fn core_ns(seed: u64) -> CoreNs {
    const N: usize = 50_000;
    const IN_FLIGHT: usize = 64;
    let scenario = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1.0);
    let mut engine = build_engine(&scenario);
    let mut client = ClientCore::new(
        0,
        ClientMode::NetClone {
            num_groups: engine.num_groups(),
            num_filter_tables: scenario.n_filter_tables as u8,
        },
        seed,
    );
    let op = RpcOp::Echo { class_ns: 25_000 };
    let mut sink = EmissionSink::new();
    let mut now = 0u64;
    let mut per = [const { Vec::new() }; 4];
    let mut reqs: Vec<PacketMeta> = Vec::with_capacity(N);
    let mut first: Vec<PacketMeta> = Vec::with_capacity(N);
    let mut second: Vec<PacketMeta> = Vec::with_capacity(N);
    for _ in 0..BATCHES {
        for uncloneable in [false, true] {
            reqs.clear();
            for _ in 0..N {
                client.generate(op, now);
                let mut meta = client.poll().expect("one packet per request");
                if uncloneable {
                    meta.nc.state = ServerState(1);
                }
                reqs.push(meta);
            }
            first.clear();
            second.clear();
            let counters = engine.counters();
            let ns = timed(|| {
                for &meta in &reqs {
                    now += 100;
                    engine.process(meta, 0, now, &mut sink);
                    for (i, e) in sink.drain().enumerate() {
                        let sid = e.port - 10;
                        let nc = NetCloneHdr::response_to(&e.pkt.nc, sid, ServerState::IDLE);
                        let resp =
                            PacketMeta::netclone_response(Ipv4::server(sid), e.pkt.src_ip, nc, 84);
                        if i == 0 { &mut first } else { &mut second }.push(resp);
                    }
                }
            });
            let cloned = engine.counters().since(&counters).cloned as usize;
            assert_eq!(
                cloned,
                if uncloneable { 0 } else { N },
                "replay left the path it meant to time"
            );
            per[usize::from(uncloneable)].push(ns as f64 / N as f64);

            // Responses, a few requests at a time so that — as in a real
            // run — few fingerprints are in flight and the filter tables
            // do not collide: each first response passes (and, for a
            // cloned request, arms the filter), each second is filtered.
            let counters = engine.counters();
            let mut process_all = |metas: &[PacketMeta]| {
                timed(|| {
                    for &meta in metas {
                        now += 100;
                        engine.process(meta, 0, now, &mut sink);
                        black_box(sink.len());
                        sink.clear();
                    }
                })
            };
            let (mut pass, mut filt) = (0u64, 0u64);
            for (i, firsts) in first.chunks(IN_FLIGHT).enumerate() {
                pass += process_all(firsts);
                if let Some(seconds) = second.chunks(IN_FLIGHT).nth(i) {
                    filt += process_all(seconds);
                }
            }
            let d = engine.counters().since(&counters);
            assert!(
                d.responses_filtered as usize * 100 >= second.len() * 99,
                "only {} of {} second responses were filtered",
                d.responses_filtered,
                second.len()
            );
            if !uncloneable {
                per[2].push(pass as f64 / first.len() as f64);
                per[3].push(filt as f64 / second.len() as f64);
            }
            // The client's bookkeeping is not under test here.
            client.drain_outstanding();
        }
    }
    let [a, b, c, d] = &mut per;
    CoreNs {
        req_clone: median(a),
        req_noclone: median(b),
        resp_pass: median(c),
        resp_filtered: median(d),
    }
}

fn netclone_mode() -> ClientMode {
    ClientMode::NetClone {
        num_groups: 30,
        num_filter_tables: 2,
    }
}

fn response_for(meta: &PacketMeta) -> NetCloneHdr {
    NetCloneHdr::response_to(&meta.nc, 0, ServerState::IDLE)
}

pub struct HostcoreNs {
    pub client_tx: f64,
    pub client_rx: f64,
    pub server: f64,
    pub client_tick: f64,
}

/// `ClientCore` generate+poll, `on_packet`, `ServerCore`
/// admit+note_queue_depth+response, and an `on_tick` sweep over 1,000
/// outstanding requests with a retry policy armed and nothing yet due
/// (the common sweep: it scans, finds nothing, returns).
pub fn hostcore_ns(ops: &[RpcOp], seed: u64) -> HostcoreNs {
    let n = ops.len();
    let mut client = ClientCore::new(0, netclone_mode(), seed).with_timeout(100_000_000);
    let mut metas: Vec<PacketMeta> = Vec::with_capacity(n);
    let mut resps: Vec<NetCloneHdr> = Vec::with_capacity(n);
    let (mut tx, mut rx) = (Vec::new(), Vec::new());
    let mut now = 0u64;
    for _ in 0..BATCHES {
        metas.clear();
        tx.push(
            timed(|| {
                for op in ops {
                    now += 50;
                    client.generate(*op, now);
                    metas.push(client.poll().expect("one packet per request"));
                }
            }) as f64
                / n as f64,
        );
        resps.clear();
        resps.extend(metas.iter().map(response_for));
        rx.push(
            timed(|| {
                for nc in &resps {
                    now += 50;
                    black_box(client.on_packet(nc, now));
                }
            }) as f64
                / n as f64,
        );
    }

    let server = ServerCore::new(0);
    let reqs: Vec<NetCloneHdr> = metas.iter().map(|m| m.nc).collect();
    let server_ns = per_call(n, || {
        timed(|| {
            for (i, nc) in reqs.iter().enumerate() {
                let backlog = i & 3;
                black_box(server.admit(CloneStatus::NotCloned, backlog));
                server.note_queue_depth(backlog);
                black_box(server.response(nc, backlog));
            }
        })
    });

    const OUTSTANDING: usize = 1_000;
    const TICKS: usize = 2_000;
    let mut ticking =
        ClientCore::new(1, netclone_mode(), seed).with_retry(RetryPolicy::new(1_000_000_000));
    for i in 0..OUTSTANDING {
        ticking.generate(ops[i % n], 0);
        ticking.poll();
    }
    let client_tick = per_call(TICKS, || {
        timed(|| {
            for t in 0..TICKS as u64 {
                black_box(ticking.on_tick(1_000 + t));
            }
        })
    });

    HostcoreNs {
        client_tx: median(&mut tx),
        client_rx: median(&mut rx),
        server: server_ns,
        client_tick,
    }
}

/// `hosts.client_ns` (`ClientSim::generate` + `on_response`) and
/// `hosts.server_ns` (`ServerSim::on_request` + `on_service_done`), per
/// request.
pub fn hosts_ns(seed: u64) -> (f64, f64) {
    let op = RpcOp::Echo { class_ns: 25_000 };
    let mut client = ClientSim::new(0, netclone_mode(), 500, 500, seed);
    let mut pkts: Vec<AppPacket> = Vec::with_capacity(CALLS);
    let mut now = 0u64;
    let mut per_client = Vec::new();
    for _ in 0..BATCHES {
        pkts.clear();
        let gen = timed(|| {
            for _ in 0..CALLS {
                now += 1_000;
                let burst = client.generate(op, now);
                pkts.push(burst[0].0);
            }
        });
        for p in &mut pkts {
            p.meta.nc = response_for(&p.meta);
        }
        let resp = timed(|| {
            for p in &pkts {
                now += 1_000;
                black_box(client.on_response(p, now));
            }
        });
        per_client.push((gen + resp) as f64 / CALLS as f64);
    }

    let mut server = ServerSim::new(ServerConfig::synthetic(0, seed));
    let req = AppPacket {
        meta: PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(0, 0, 0, 0), 84),
        op,
        born_ns: 0,
    };
    let mut now = 0u64;
    let server_ns = per_call(CALLS, || {
        timed(|| {
            for _ in 0..CALLS {
                now += 1_000;
                black_box(server.on_request(req, now));
                black_box(server.on_service_done(&req.meta.nc, now + 500));
            }
        })
    });
    (median(&mut per_client), server_ns)
}

/// `linksim.offer_ns` on the scenario's edge link (the flat 10 Gbit/s
/// default where the scenario has no links), spaced so nothing drops.
pub fn link_offer_ns(scenario: &Scenario) -> f64 {
    let spec = scenario
        .links
        .unwrap_or_else(|| netclone::linksim::LinkSpec::flat(10.0, 150_000));
    let mut link = spec.edge_link();
    let mut now = 0u64;
    let ns = per_call(CALLS, || {
        timed(|| {
            for _ in 0..CALLS {
                now += 200;
                black_box(link.offer(now, 84));
            }
        })
    });
    assert_eq!(
        link.counters().dropped,
        0,
        "replay meant to stay uncongested"
    );
    ns
}

/// `cluster.route_ns` and `cluster.build_ms`: `Fabric::route` on the
/// workload's own fabric, and the cost of `build_fabric` itself.
pub fn cluster_route_build(scenario: &Scenario, seed: u64) -> (f64, f64) {
    let t = Instant::now();
    let fabric = build_fabric(scenario);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let racks = scenario.topology.racks;
    let mut rng = StdRng::seed_from_u64(seed);
    // Leaf emissions: towards the upper tier on a multi-rack fabric, to a
    // local server port on a single rack.
    let hops: Vec<(usize, u16, u64)> = (0..CALLS)
        .map(|_| {
            let sw = rng.random_range(0..racks);
            let port = if racks > 1 { UPLINK_PORT } else { 10 };
            (sw, port, rng.random::<u64>())
        })
        .collect();
    let ns = per_call(CALLS, || {
        timed(|| {
            for &(sw, port, h) in &hops {
                black_box(fabric.route(sw, port, h));
            }
        })
    });
    (ns, build_ms)
}

/// `workloads.sample_ns`: whatever `sample` draws, per call.
pub fn sample_ns(mut sample: impl FnMut()) -> f64 {
    per_call(CALLS, || {
        timed(|| {
            for _ in 0..CALLS {
                sample();
            }
        })
    })
}

/// `stats.record_ns`: `LatencyHistogram::record` over latencies spread
/// the way a run's are (tens to hundreds of microseconds).
pub fn record_ns(seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<u64> = (0..CALLS)
        .map(|_| rng.random_range(5_000..500_000u64))
        .collect();
    let mut h = LatencyHistogram::new();
    per_call(CALLS, || {
        timed(|| {
            for &v in &values {
                h.record(v);
            }
            black_box(h.count());
        })
    })
}

/// What a server sends back for `op` (the bytes `content_ok` accepts).
fn value_for(op: &RpcOp) -> Vec<u8> {
    match op {
        RpcOp::Echo { .. } => Vec::new(),
        RpcOp::Get { .. } => vec![0xAB; KV_VALUE_LEN],
        RpcOp::Scan { count, .. } => vec![0; *count as usize * KV_VALUE_LEN],
        RpcOp::Put { .. } => b"STORED".to_vec(),
    }
}

/// `proto.encode_ns` / `proto.decode_ns`: `encode_packet_into` and
/// `decode_packet_borrowed` over each op's request *and* response
/// datagram — the switch and the servers see both — averaged per
/// datagram.
pub fn codec_ns(ops: &[RpcOp]) -> (f64, f64) {
    let ops = &ops[..ops.len().min(20_000)]; // SCAN replies are 6.4 KB each
    let req = PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(3, 1, 0, 9), 0);
    let resp =
        PacketMeta::netclone_response(Ipv4::server(1), Ipv4::client(0), response_for(&req), 0);
    let values: Vec<Vec<u8>> = ops.iter().map(value_for).collect();
    let mut bufs: Vec<Vec<u8>> = (0..2 * ops.len()).map(|_| Vec::with_capacity(64)).collect();
    // First pass sizes every buffer, so the timed passes never allocate.
    let encode = |bufs: &mut Vec<Vec<u8>>| {
        timed(|| {
            for (i, op) in ops.iter().enumerate() {
                encode_packet_into(&req, op, &[], &mut bufs[2 * i]);
                encode_packet_into(&resp, op, &values[i], &mut bufs[2 * i + 1]);
            }
        })
    };
    encode(&mut bufs);
    let n = 2 * ops.len();
    let enc = per_call(n, || encode(&mut bufs));
    let dec = per_call(n, || {
        timed(|| {
            for b in &bufs {
                black_box(decode_packet_borrowed(b).expect("own encoding decodes"));
            }
        })
    });
    (enc, dec)
}

pub struct KvNs {
    pub get: f64,
    pub scan: f64,
    pub put: f64,
    pub exec_locked: f64,
}

/// `KvStore::execute` per op kind on the workload's population, and
/// `WorkExecutor::execute` (the lock plus the copy-out) over `ops`.
pub fn kv_ns(ops: &[RpcOp], seed: u64) -> KvNs {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<KvKey> = (0..CALLS)
        .map(|_| KvKey::from_index(rng.random_range(0..KV_OBJECTS as u64)))
        .collect();
    let mut store = KvStore::populate(KV_OBJECTS, KV_VALUE_LEN);
    let mut run = |calls: usize, mk: &dyn Fn(KvKey) -> RpcOp| {
        let ops: Vec<RpcOp> = keys[..calls].iter().map(|k| mk(*k)).collect();
        per_call(calls, || {
            timed(|| {
                for op in &ops {
                    black_box(store.execute(op));
                }
            })
        })
    };
    let get = run(CALLS, &|key| RpcOp::Get { key });
    let scan = run(CALLS / 10, &|key| RpcOp::Scan {
        key,
        count: KV_SCAN_COUNT,
    });
    let put = run(CALLS, &|key| RpcOp::Put {
        key,
        value_len: KV_VALUE_LEN as u16,
    });
    let exec = WorkExecutor::kv(KV_OBJECTS, KV_VALUE_LEN);
    let exec_locked = per_call(ops.len(), || {
        timed(|| {
            for op in ops {
                black_box(exec.execute(op));
            }
        })
    });
    KvNs {
        get,
        scan,
        put,
        exec_locked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_replay_reaches_all_four_paths() {
        // The asserts inside are the test: every request cloned (or not),
        // every second response filtered.
        let ns = core_ns(3);
        for v in [ns.req_clone, ns.req_noclone, ns.resp_pass, ns.resp_filtered] {
            assert!(v > 0.0 && v < 100_000.0, "{v}");
        }
    }

    #[test]
    fn codec_replay_round_trips_every_op_kind() {
        let key = KvKey::from_index(5);
        let ops = [
            RpcOp::Echo { class_ns: 0 },
            RpcOp::Get { key },
            RpcOp::Scan { key, count: 100 },
            RpcOp::Put { key, value_len: 64 },
        ];
        for op in &ops {
            assert!(crate::udp::content_ok(op, &value_for(op)));
        }
        let (enc, dec) = codec_ns(&ops);
        assert!(enc > 0.0 && dec > 0.0);
    }
}
