//! # NetClone — a Rust reproduction of in-network request cloning
//!
//! This workspace reproduces **"NetClone: Fast, Scalable, and Dynamic
//! Request Cloning for Microsecond-Scale RPCs"** (Gyuyeong Kim, ACM
//! SIGCOMM 2023): a Tofino-resident data plane that clones an RPC request
//! to a *pair* of tracked-idle servers and drops the slower of the two
//! responses with an in-switch fingerprint filter, cutting tail latency
//! without the throughput collapse of client-side cloning or the CPU
//! bottleneck of a coordinator.
//!
//! The crate is a facade: it re-exports every subsystem so downstream
//! users depend on one name.
//!
//! ## One switch program, many frontends
//!
//! Every switch program implements [`core::SwitchEngine`]
//! (`netclone_core::engine`), the one switch contract: the packet path
//! (`process` into an [`asic::EmissionSink`], `reset_soft_state`) plus the
//! control plane (registration, failure handling, group management,
//! counters). Both frontends — the
//! discrete-event testbed ([`cluster::Sim`]) and the real-socket soft
//! switch ([`net::SoftSwitch`]) — hold a `Box<dyn SwitchEngine>` built by
//! [`cluster::build_engine`], so they execute the *identical* program
//! (asserted by `tests/equivalence.rs`):
//!
//! ```
//! use netclone::cluster::{build_engine, Scenario, Scheme};
//! use netclone::core::SwitchEngine;
//! use netclone::proto::{Ipv4, NetCloneHdr, PacketMeta};
//! use netclone::workloads::exp25;
//!
//! let scenario = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1e5);
//! let mut engine = build_engine(&scenario); // Box<dyn SwitchEngine>, fully programmed
//! let req = PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(0, 0, 0, 0), 84);
//! let out = engine.process_collected(req, 100, 0);
//! assert_eq!(out.len(), 2, "both candidates idle: the request was cloned");
//! assert_eq!(engine.counters().cloned, 1);
//! ```
//!
//! ## Quick start (simulated rack)
//!
//! ```
//! use netclone::cluster::{Scenario, Scheme, Sim};
//! use netclone::workloads::exp25;
//!
//! // The paper's testbed: 2 clients, 6 workers, Exp(25 us) service.
//! let mut scenario = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 0.0);
//! scenario.offered_rps = scenario.capacity_rps() * 0.4;
//! scenario.warmup_ns = 2_000_000;
//! scenario.measure_ns = 10_000_000;
//! let result = Sim::run(scenario);
//! assert!(result.completed > 0);
//! assert!(result.switch.clone_rate() > 0.5); // mid load: cloning is common
//! ```
//!
//! ## Quick start (real sockets)
//!
//! ```no_run
//! use netclone::net::{Testbed, WorkExecutor};
//! use netclone::core::NetCloneConfig;
//! use netclone::proto::RpcOp;
//! use std::time::Duration;
//!
//! let mut tb = Testbed::spawn(NetCloneConfig::default(), 4, 2, WorkExecutor::Synthetic)?;
//! let mut client = tb.client(7)?;
//! let reply = client.call(RpcOp::Echo { class_ns: 100_000 }, Duration::from_secs(1)).unwrap();
//! println!("answered by server {} in {:?}", reply.sid, reply.latency);
//! # Ok::<(), std::io::Error>(())
//! ```

/// The PISA switch ASIC model (§2.3's constraints, §4.1's resources).
pub use netclone_asic as asic;
/// The simulated testbed and every figure/table of the evaluation (§5).
pub use netclone_cluster as cluster;
/// ★ The NetClone data plane: Algorithm 1 + §3.7 extensions.
pub use netclone_core as core;
/// Deterministic discrete-event kernel.
pub use netclone_des as des;
/// Sans-io host protocol cores shared by the DES and UDP frontends.
pub use netclone_hostcore as hostcore;
/// Client/server host models (§4.2).
pub use netclone_hosts as hosts;
/// The KV store and Redis/Memcached cost models (§5.5).
pub use netclone_kvstore as kvstore;
/// Congestion-aware link model: bandwidth, bounded queues, tail-drop/ECN.
pub use netclone_linksim as linksim;
/// The real-socket UDP runtime (soft switch + threaded hosts).
pub use netclone_net as net;
/// Compared schemes: Baseline/C-Clone fabric, LÆDGE, RackSched.
pub use netclone_policies as policies;
/// Packet formats and the wire codec (paper Fig. 3).
pub use netclone_proto as proto;
/// Histograms, summaries, time series, reports, tables.
pub use netclone_stats as stats;
/// Service-time distributions, arrivals, Zipf, op mixes (§5.1.2).
pub use netclone_workloads as workloads;
