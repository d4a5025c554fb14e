//! Scenario → testbed assembly.
//!
//! `build_shards` turns a [`Scenario`] into runnable per-rack shards:
//! each shard builds the records of the racks it owns (the leaf's switch
//! program, the rack's clients and servers, their RNG streams) and the
//! coordinator if it hangs off one of them; `prime` then schedules the
//! priming events under the shared control-domain key counter. The
//! simulator itself ([`Sim`][crate::sim::Sim]) is only the event loop.
//!
//! One private `program_switch` is the single place a scheme becomes a
//! switch program, from one host table and [`FabricShape::port_toward`]:
//! the shards program their leaves with it, [`build_engine`] the one-rack
//! switch, and [`build_fabric`] every switch of a topology, the oracle
//! the compiled upper tier is checked against. Every frontend (this DES
//! testbed, `netclone-net`'s soft switch, tests) drives the result
//! through [`netclone_core::SwitchEngine`], so there is exactly one
//! implementation of each data plane and no per-scheme dispatch anywhere
//! else. Per §3.7, NetClone logic runs only where clients attach, and
//! `SWITCH_ID`-gated pass-through everywhere else.

use std::sync::Arc;

use netclone_core::ports::{server_port, COORD_PORT, MAX_SERVER_PORTS};
use netclone_core::{NetCloneConfig, NetCloneSwitch, Scheduling, SwitchCounters, SwitchEngine};
use netclone_des::sync::tie_key;
use netclone_des::{EventQueue, SeedFactory, SimTime};
use netclone_hosts::{ClientMode, ClientSim, ServerConfig, ServerSim, ServerStats};
use netclone_kvstore::ServiceCostModel;
use netclone_policies::{CoordinatorConfig, LaedgeCoordinator, PlainL3Switch};
use netclone_proto::{Ipv4, SwitchId};
use netclone_stats::TimeSeries;
use netclone_workloads::{KvMix, PoissonArrivals, ServiceShape, ZipfSampler};

use crate::calib;
use crate::scenario::{FaultKind, Scenario, Workload};
use crate::scheme::Scheme;
use crate::sim::{BgState, ClientHost, Edge, Ev, Rack, ServerHost, Shard, CONTROL_SRC};
use crate::topology::{Fabric, FabricShape, HostKind, Hosts, Topology, UpperTier};

/// Virtual address of the LÆDGE coordinator host.
pub(crate) const COORD_IP: Ipv4 = Ipv4::new(10, 0, 3, 1);

/// True when the scheme programs in-switch logic (the NetClone family);
/// the client-driven schemes (Baseline, C-Clone, LÆDGE) run over a plain
/// L3 fabric.
fn scheme_has_engine(scheme: Scheme) -> bool {
    matches!(scheme, Scheme::NetClone { .. } | Scheme::RackSchedOnly)
}

/// Checks a server count against what a leaf can address: the switch
/// program's server table (the schemes that have one), then the ports.
pub(crate) fn check_server_count(scheme: Scheme, n: usize) -> Result<(), String> {
    let table = NetCloneConfig::paper_prototype().max_servers;
    if scheme_has_engine(scheme) && n > table {
        return Err(format!(
            "{n} servers exceed the switch program's max_servers ({table})"
        ));
    }
    if n > MAX_SERVER_PORTS {
        return Err(format!(
            "{n} servers exceed the {MAX_SERVER_PORTS} server ports ({}..{COORD_PORT}) \
             below the coordinator's and the clients'",
            server_port(0)
        ));
    }
    Ok(())
}

/// The switch-program configuration of `scenario`'s scheme, stamped with
/// the given multi-rack identity, for the schemes whose engine is a
/// NetClone program; `None` for the plain-L3 ones.
pub(crate) fn netclone_config(scenario: &Scenario, switch_id: SwitchId) -> Option<NetCloneConfig> {
    let mut cfg = NetCloneConfig::paper_prototype();
    cfg.switch_id = switch_id;
    match scenario.scheme {
        Scheme::NetClone {
            racksched,
            filtering,
        } => {
            cfg.scheduling = if racksched {
                Scheduling::RackSched
            } else {
                Scheduling::Random
            };
            cfg.filtering_enabled = filtering;
            cfg.num_filter_tables = scenario.n_filter_tables;
            cfg.filter_slots_log2 = scenario.filter_slots_log2;
            cfg.clone_condition = scenario.clone_condition;
        }
        Scheme::RackSchedOnly => {}
        Scheme::Baseline | Scheme::CClone | Scheme::Laedge => return None,
    }
    Some(cfg)
}

/// Builds the *unprogrammed* engine for a scenario's scheme, stamping the
/// given multi-rack identity (§3.7; single-rack deployments use 1).
fn scheme_engine(scenario: &Scenario, switch_id: SwitchId) -> Box<dyn SwitchEngine> {
    match netclone_config(scenario, switch_id) {
        Some(cfg) if scenario.scheme == Scheme::RackSchedOnly => {
            Box::new(netclone_policies::racksched_switch(cfg))
        }
        Some(cfg) => Box::new(NetCloneSwitch::new(cfg)),
        None => Box::new(PlainL3Switch::new(netclone_asic::AsicSpec::tofino())),
    }
}

/// The host table of `scenario`'s fleet placed by `topo`.
fn host_table(scenario: &Scenario, topo: &Topology) -> Hosts {
    let coord = scenario.scheme.uses_coordinator().then_some(COORD_IP);
    Hosts::new(topo, scenario.servers.len(), scenario.n_clients, coord)
}

/// Builds and programs switch `sw` of a `racks`-leaf fabric of `shape`
/// (roles as in [`build_fabric`]): a host on `sw`'s own leaf through its
/// access port, any other through [`FabricShape::port_toward`]. Servers
/// register in sid order, the order the group table is built from.
fn program_switch(
    scenario: &Scenario,
    hosts: &Hosts,
    racks: usize,
    shape: FabricShape,
    sw: usize,
) -> Box<dyn SwitchEngine> {
    let mut e = if sw < racks {
        scheme_engine(scenario, (sw + 1) as SwitchId)
    } else {
        Box::new(PlainL3Switch::new(netclone_asic::AsicSpec::tofino()))
    };
    let control = sw < racks
        && scheme_has_engine(scenario.scheme)
        && hosts
            .iter()
            .any(|h| h.leaf == sw && matches!(h.kind, HostKind::Client(_)));
    for h in hosts.iter() {
        let port = if h.leaf == sw {
            h.port
        } else {
            shape.port_toward(racks, sw, h.leaf)
        };
        match h.kind {
            HostKind::Server(sid) if control => e.register_server(sid, h.ip, port),
            _ => e.register_route(h.ip, port),
        }
        .expect("host registration");
    }
    match &scenario.custom_groups {
        Some(groups) if control => e.install_custom_groups(groups).expect("custom groups"),
        _ => {}
    }
    e
}

/// Builds and programs the single-rack switch engine for a scenario: the
/// one-leaf fabric, every host local, whatever the scenario's topology.
///
/// Together with [`build_fabric`] this is the only place in the workspace
/// where a [`Scheme`] is mapped to a switch program; everything
/// downstream sees `dyn SwitchEngine`. The real-socket soft switch and
/// the equivalence tests program from here too.
pub fn build_engine(scenario: &Scenario) -> Box<dyn SwitchEngine> {
    let hosts = host_table(scenario, &Topology::single_rack());
    program_switch(scenario, &hosts, 1, FabricShape::LeafSpine, 0)
}

/// Builds and programs the whole fabric for a scenario's topology.
///
/// Single rack: one engine, programmed exactly as [`build_engine`] does.
/// Multi-rack (§3.7): every **client-bearing leaf** runs the scheme's
/// engine (switch_id = rack + 1) with the full server table and the custom
/// groups, so cloning happens only where clients attach; every **other
/// leaf** of an in-switch scheme runs the same engine type with routes
/// only (the `SWITCH_ID` gate bounces foreign-stamped packets to plain
/// forwarding); the **upper tier** and all leaves of the client-driven
/// schemes are plain L3, routing each host toward its leaf.
pub fn build_fabric(scenario: &Scenario) -> Fabric {
    let topo = &scenario.topology;
    topo.validate(scenario.servers.len(), scenario.n_clients)
        .expect("invalid topology");
    let hosts = host_table(scenario, topo);
    let engines = (0..topo.num_switches())
        .map(|sw| program_switch(scenario, &hosts, topo.racks, topo.shape, sw))
        .collect();
    Fabric {
        engines,
        racks: topo.racks,
        inter_rack_ns: topo.inter_rack_ns,
        hosts,
        shape: topo.shape,
        ecmp_seed: topo.ecmp_seed,
    }
}

/// Compiles the upper tier of `fabric` — the spine, or the aggregation
/// and core switches, that [`build_fabric`] programs after the leaves —
/// into its forwarding table: the same hosts, each toward its leaf.
pub fn build_upper_tier(fabric: &Fabric) -> UpperTier {
    let hosts = fabric.hosts.iter().map(|h| (h.ip, h.leaf));
    UpperTier::new(fabric.racks, fabric.shape, hosts)
}

/// Each rack's share of the requests it terminates, in units of
/// `1 / (clients × servers)`: its share of the clients plus its share of
/// the servers, plus one whole on the coordinator's rack when the scheme
/// has one (every request crosses it).
fn rack_weights(hosts: &Hosts, racks: usize) -> Vec<u64> {
    let n_servers = hosts.n_servers.max(1) as u64;
    let n_clients = hosts.n_clients.max(1) as u64;
    let mut w = vec![0; racks];
    for h in hosts.iter() {
        w[h.leaf] += match h.kind {
            HostKind::Client(_) => n_servers,
            HostKind::Server(_) => n_clients,
            HostKind::Coord => n_clients * n_servers,
        };
    }
    w
}

/// The rack → shard table of an `nshards`-way run over racks of the given
/// `weights`: the fabric cut at its highest tier. The units are whole pods
/// when there are at least as many pods as shards (so pod-mates, which
/// talk through one aggregation switch, never sit apart), single racks
/// otherwise; they split, in index order, into the contiguous groups of
/// [`balanced_split`].
fn partition(shape: FabricShape, weights: &[u64], nshards: usize) -> Vec<usize> {
    let racks = weights.len();
    let pods = shape.pod_of_leaf(racks, racks - 1) + 1;
    let unit_of = |r: usize| {
        if nshards <= pods {
            shape.pod_of_leaf(racks, r)
        } else {
            r
        }
    };
    let mut units = vec![0; unit_of(racks - 1) + 1];
    for (r, w) in weights.iter().enumerate() {
        units[unit_of(r)] += w;
    }
    let group = balanced_split(&units, nshards);
    (0..racks).map(|r| group[unit_of(r)]).collect()
}

/// Splits `weights`, in index order, into `groups` non-empty contiguous
/// runs whose heaviest is as light as possible, placing each cut as early
/// as that allows; returns each item's run. `best[g][i]` is the lightest
/// heaviest run over the items `i..` in `g` runs.
fn balanced_split(weights: &[u64], groups: usize) -> Vec<usize> {
    let n = weights.len();
    assert!((1..=n).contains(&groups), "{groups} groups of {n} items");
    let mut prefix = vec![0; n + 1];
    for (i, w) in weights.iter().enumerate() {
        prefix[i + 1] = prefix[i] + w;
    }
    let sum = |i: usize, j: usize| prefix[j] - prefix[i];
    let mut best = vec![vec![u64::MAX; n + 1]; groups + 1];
    best[1] = (0..=n).map(|i| sum(i, n)).collect();
    for g in 2..=groups {
        for i in 0..=n - g {
            best[g][i] = (i + 1..=n - g + 1)
                .map(|j| sum(i, j).max(best[g - 1][j]))
                .min()
                .expect("a run ends somewhere");
        }
    }
    let bound = best[groups][0];
    let mut out = Vec::with_capacity(n);
    let mut i = 0;
    for g in (1..=groups).rev() {
        let j = if g == 1 {
            n
        } else {
            (i + 1..=n - g + 1)
                .find(|&j| sum(i, j) <= bound && best[g - 1][j] <= bound)
                .expect("the bound is attained")
        };
        out.resize(j, groups - g);
        i = j;
    }
    out
}

/// The conservative lookahead a rack → shard table allows: the least
/// simulated delay between an event and a cross-shard message it sends.
/// A packet pays a pass at its leaf, then a link and a pass at each of the
/// `h` upper switches it crosses, `h` being the fewest that any two racks
/// on different shards cross (1 through the spine or a same-pod
/// aggregation switch, 3 across a fat-tree's pods; the flow hash picks
/// which switches, never how many). With links the packet is handed over
/// at the foreign downlink's head; without, after the link down as well.
/// Queueing only adds delay.
fn lookahead_ns(
    tier: &UpperTier,
    rack_shard: &[usize],
    pass_ns: u64,
    inter_rack_ns: u64,
    links: bool,
) -> u64 {
    let racks = rack_shard.len();
    let h = (0..racks)
        .flat_map(|a| (0..racks).map(move |b| (a, b)))
        .filter(|&(a, b)| rack_shard[a] != rack_shard[b])
        .map(|(a, b)| tier.path(a, Some(b), 0).hops().len() as u64)
        .min()
        // One shard: nothing crosses, and the serial loop has no window.
        .unwrap_or(1);
    let handed_over = pass_ns + h * (inter_rack_ns + pass_ns);
    if links {
        handed_over
    } else {
        handed_over + inter_rack_ns
    }
}

/// Builds the testbed of `scenario` (see [`Sim`][crate::sim::Sim] for
/// the run entry points) partitioned into `min(shards, racks)` shards of
/// whole racks, assigned by one rack → shard table ([`partition`]):
/// switch engines, hosts, workload streams, and the priming events
/// (first arrivals, warm-up end, failure injections). Returns the
/// shards plus the conservative lookahead that partition allows
/// ([`lookahead_ns`]) — the minimum simulated delay of any
/// cross-shard interaction.
///
/// The partitioning is *count-clamped to the topology, never to the
/// machine*: the shard layout is a pure function of the scenario, so
/// results cannot depend on where the run executes (and event keys,
/// being per-rack, do not depend on the layout at all).
pub(crate) fn build_shards(scenario: Scenario, shards: usize, traced: bool) -> (Vec<Shard>, u64) {
    let scenario = Arc::new(scenario);
    let seeds = SeedFactory::new(scenario.seed);
    if let Err(e) = scenario.validate() {
        panic!("invalid scenario: {e}");
    }
    let topo = &scenario.topology;
    let (racks, shape) = (topo.racks, topo.shape);
    let hosts = host_table(&scenario, topo);
    let tier = UpperTier::new(racks, shape, hosts.iter().map(|h| (h.ip, h.leaf)));
    let nshards = shards.clamp(1, racks);
    let rack_shard = partition(shape, &rack_weights(&hosts, racks), nshards);

    // ---- workload -----------------------------------------------
    let (synthetic, kvmix, cost) = match &scenario.workload {
        Workload::Synthetic(wl) => (Some(*wl), None, ServiceCostModel::redis()),
        Workload::Kv {
            get_frac,
            scan_count,
            objects,
            zipf_theta,
            cost,
        } => {
            let keys = ZipfSampler::new(*objects, *zipf_theta);
            (
                None,
                Some(Arc::new(KvMix::read_mix(*get_frac, *scan_count, keys))),
                *cost,
            )
        }
    };
    let arrivals = PoissonArrivals::new(scenario.offered_rps / scenario.n_clients as f64);
    let loss: Vec<_> = (scenario.faults.faults.iter())
        .filter_map(|f| match f.kind {
            FaultKind::Loss { prob } => Some((f.start_ns, f.end_ns, prob)),
            _ => None,
        })
        .collect();
    let bg = scenario.background.map(|b| BgState {
        arrivals: PoissonArrivals::new(b.rps / (racks - 1) as f64),
        wire: b.wire_bytes,
        victim: b.victim_rack,
    });

    // ---- the records ---------------------------------------------
    // Each entity is built on the shard that owns its rack. Every
    // stream is its own `SeedFactory` fan-out, so the order in which
    // records are made (and their first gaps drawn, in `prime`)
    // cannot shift a draw.
    let fabric_links = || match &scenario.links {
        Some(spec) if racks > 1 => (0..shape.n_uplinks()).map(|_| spec.fabric_link()).collect(),
        _ => Vec::new(),
    };
    let rack = |r: usize| Rack {
        engine: program_switch(&scenario, &hosts, racks, shape, r),
        up: true,
        at_warmup: SwitchCounters::default(),
        bg: bg
            .filter(|b| b.victim != r)
            .map(|_| seeds.rng_for("bg", r as u64)),
        bg_sent: 0,
        uplinks: fabric_links(),
        downlinks: fabric_links(),
    };
    let server = |i: usize, workers: usize| ServerHost {
        sim: ServerSim::new(ServerConfig {
            sid: i as u16,
            workers,
            dispatch_ns: calib::DISPATCH_NS,
            clone_drop_ns: calib::CLONE_DROP_NS,
            // The workload's own execution-time shape.
            shape: if synthetic.is_some() {
                ServiceShape::Exponential
            } else {
                ServiceShape::Gamma4
            },
            jitter: scenario.jitter,
            cost,
            hot_key: scenario.hot_key,
            seed: seeds.seed_for("server", i as u64),
        }),
        at_warmup: ServerStats::default(),
    };
    let server_ips: Vec<Ipv4> = (0..scenario.servers.len() as u16)
        .map(Ipv4::server)
        .collect();
    // A NetClone client takes its group count from its own ToR: that
    // is the engine its requests traverse (§3.7).
    let client = |cid: usize, tor: &dyn SwitchEngine| {
        let servers = server_ips.clone();
        let mode = match scenario.scheme {
            Scheme::Baseline => ClientMode::DirectRandom { servers },
            Scheme::CClone => ClientMode::DirectDuplicate { servers },
            Scheme::Laedge => ClientMode::Coordinator { ip: COORD_IP },
            Scheme::NetClone { .. } | Scheme::RackSchedOnly => ClientMode::NetClone {
                num_groups: tor.num_groups(),
                num_filter_tables: u8::try_from(scenario.n_filter_tables)
                    .expect("validate bounds the filter tables"),
            },
        };
        let seed = seeds.seed_for("client", cid as u64);
        let mut sim = ClientSim::new(
            cid as u16,
            mode,
            calib::CLIENT_TX_NS,
            calib::CLIENT_RX_NS,
            seed,
        );
        if let Some(policy) = scenario.retry {
            sim.core = sim.core.with_retry(policy);
        }
        ClientHost {
            sim,
            arrivals: seeds.rng_for("arrivals", cid as u64),
            ops: seeds.rng_for("workload", cid as u64),
        }
    };
    let coordinator = || {
        let mut c = LaedgeCoordinator::new(CoordinatorConfig {
            ip: COORD_IP,
            per_packet_ns: calib::COORD_PKT_NS,
        });
        for (i, spec) in scenario.servers.iter().enumerate() {
            c.add_server(i as u16, Ipv4::server(i as u16), spec.workers);
        }
        c
    };

    let end_ns = scenario.warmup_ns + scenario.measure_ns;
    let ts_buckets = (end_ns / scenario.timeseries_bucket_ns + 2).max(1) as usize;
    // Single-rack runs collapse every domain onto the control domain
    // (one counter == the old global sequence); multi-rack runs get
    // one domain per rack above it.
    let n_domains = if racks == 1 { 1 } else { racks + 1 };
    let pass_ns = netclone_asic::AsicSpec::tofino().pass_latency_ns;

    let mut out: Vec<Shard> = (0..nshards)
        .map(|k| {
            let owns = |leaf: usize| rack_shard[leaf] == k;
            let racks: Vec<Option<Rack>> = (0..racks).map(|r| owns(r).then(|| rack(r))).collect();
            let clients = (0..scenario.n_clients)
                .map(|cid| {
                    let leaf = hosts[hosts.client(cid)].leaf;
                    let tor = racks[leaf].as_ref().map(|r| &*r.engine);
                    tor.map(|tor| client(cid, tor))
                })
                .collect();
            let servers = scenario.servers.iter().enumerate();
            let servers = servers
                .map(|(i, spec)| owns(hosts[hosts.server(i)].leaf).then(|| server(i, spec.workers)))
                .collect();
            let coord = scenario.scheme.uses_coordinator() && owns(hosts[hosts.coord()].leaf);
            Shard {
                id: k,
                rack_shard: rack_shard.clone(),
                scenario: Arc::clone(&scenario),
                q: EventQueue::new(),
                racks,
                clients,
                servers,
                tier: tier.clone(),
                inter_rack_ns: topo.inter_rack_ns,
                ecmp_seed: topo.ecmp_seed,
                pass_ns,
                hosts: hosts.clone(),
                access: scenario.links.as_ref().map(|spec| {
                    let owned = |leaf| owns(leaf).then(|| [spec.edge_link(), spec.edge_link()]);
                    hosts.iter().map(|h| owned(h.leaf)).collect()
                }),
                bg,
                switch_up: true,
                coordinator: coord.then(coordinator),
                arrivals,
                loss: loss.clone(),
                loss_seed: seeds.seed_for("loss", 0),
                synthetic,
                kvmix: kvmix.clone(),
                sink: netclone_asic::EmissionSink::new(),
                end_ns,
                measure_start_ns: 0,
                throughput: TimeSeries::new(scenario.timeseries_bucket_ns, ts_buckets),
                completed_in_window: 0,
                packets_lost: 0,
                upper_counters_at_warmup: tier.counters().to_vec(),
                seq: vec![0; n_domains],
                cur_src: CONTROL_SRC,
                events_scheduled: 0,
                outbox: (0..nshards).map(|_| Vec::new()).collect(),
                trace: traced.then(Vec::new),
            }
        })
        .collect();

    prime(&mut out, &scenario, &hosts, &rack_shard);
    let lookahead = lookahead_ns(
        &tier,
        &rack_shard,
        pass_ns,
        topo.inter_rack_ns,
        scenario.links.is_some(),
    );
    (out, lookahead)
}

/// Schedules the events that start the run: one arrival per client,
/// the warm-up end, and any configured failure injections.
///
/// Control events share one key counter regardless of the shard
/// count, assigned in a fixed order. Events with a single owner
/// (arrivals, a server kill) land only on the owner's queue;
/// fabric-wide events (warm-up end, switch failure, server removal)
/// are replicated onto *every* queue under the *same* key, and every
/// shard leaves priming with the same control counter — so any
/// control key a shard assigns later is assigned identically by all.
/// Logical events are counted once (on the owner, or shard 0 for
/// broadcasts), keeping `RunResult::events` shard-count-invariant.
/// Each first arrival gap is the first draw of its record's stream.
fn prime(shards: &mut [Shard], scenario: &Scenario, hosts: &Hosts, rack_shard: &[usize]) {
    let client_shard = |cid: usize| rack_shard[hosts[hosts.client(cid)].leaf];
    let server_shard = |sid: u16| rack_shard[hosts[hosts.server(sid.into())].leaf];
    let mut ctl = 0u64;
    let prime_one = |shards: &mut [Shard], ctl: &mut u64, owner: usize, at: u64, ev: Ev| {
        let tie = tie_key(CONTROL_SRC, *ctl);
        *ctl += 1;
        shards[owner].events_scheduled += 1;
        shards[owner]
            .q
            .schedule_keyed(SimTime::from_ns(at), tie, ev);
    };
    let broadcast = |shards: &mut [Shard], ctl: &mut u64, at: u64, mk: &dyn Fn() -> Ev| {
        let tie = tie_key(CONTROL_SRC, *ctl);
        *ctl += 1;
        shards[0].events_scheduled += 1;
        for sh in shards.iter_mut() {
            sh.q.schedule_keyed(SimTime::from_ns(at), tie, mk());
        }
    };

    for cid in 0..scenario.n_clients {
        let k = client_shard(cid);
        let sh = &mut shards[k];
        let c = sh.clients[cid].as_mut().expect("owned client");
        let gap = sh.arrivals.next_gap_ns(&mut c.arrivals);
        prime_one(shards, &mut ctl, k, gap, Ev::Gen(cid));
    }
    broadcast(shards, &mut ctl, scenario.warmup_ns, &|| Ev::EndWarmup);
    // Fault edges ride the control domain too, in declaration order,
    // start before end; `Shard::on_fault` applies them. An edge whose
    // state has a single holder (a server's slow factor or liveness,
    // a leaf's forwarding flag, a rack's link rates) primes on the
    // holder's shard alone; a fabric-wide edge (a switch reboot, a
    // server's removal from the tables) broadcasts under one key. A
    // loss window has no edges: `Shard::lose_packet` reads it.
    for (idx, fault) in scenario.faults.faults.iter().enumerate() {
        let owners = match fault.kind {
            FaultKind::Slowdown { sid, .. } => [Some(server_shard(sid)); 2],
            FaultKind::Drain { rack } | FaultKind::LinkFlap { rack, .. } => {
                [Some(rack_shard[rack]); 2]
            }
            FaultKind::Reboot { .. } => [None; 2],
            FaultKind::ServerStop { sid } => [Some(server_shard(sid)), None],
            FaultKind::Loss { .. } => continue,
        };
        let edges = [(Edge::Start, fault.start_ns), (Edge::End, fault.end_ns)];
        for ((edge, at), owner) in edges.into_iter().zip(owners) {
            let ev = || Ev::Fault { idx, edge };
            match owner {
                Some(k) => prime_one(shards, &mut ctl, k, at, ev()),
                None => broadcast(shards, &mut ctl, at, &ev),
            }
        }
    }
    // The retry clock: one self-rescheduling tick per client, owned by
    // the client's shard. Absent a retry policy no tick is ever
    // scheduled (and the legacy scenarios stay seed-pinned).
    if let Some(policy) = scenario.retry {
        for cid in 0..scenario.n_clients {
            let tick = Ev::ClientTick(cid);
            prime_one(shards, &mut ctl, client_shard(cid), policy.tick_ns(), tick);
        }
    }
    // Background incast: one first arrival per source rack, owned by
    // the rack's shard (the victim rack has no stream).
    for (r, &k) in rack_shard.iter().enumerate() {
        let sh = &mut shards[k];
        let rack = sh.racks[r].as_mut().expect("owned rack");
        if let (Some(bg), Some(rng)) = (&sh.bg, &mut rack.bg) {
            let gap = bg.arrivals.next_gap_ns(rng);
            prime_one(shards, &mut ctl, k, gap, Ev::BgGen(r));
        }
    }
    for sh in shards.iter_mut() {
        sh.seq[usize::from(CONTROL_SRC)] = ctl;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{fattree, Scale};
    use crate::harness::RunCtx;
    use crate::shard::ShardCoordinator;
    use crate::topology::Topology;

    fn fat_tree(k: usize) -> Scenario {
        fattree::scenario(k, 3.0, Scheme::NETCLONE, &RunCtx::new(Scale::Smoke))
    }

    /// The rack → shard table and lookahead of `scenario` at `shards`.
    fn layout(scenario: Scenario, shards: usize) -> (Vec<usize>, u64) {
        let (shards, lookahead) = build_shards(scenario, shards, false);
        (shards[0].rack_shard.clone(), lookahead)
    }

    #[test]
    fn splits_are_balanced_with_each_cut_as_early_as_possible() {
        assert_eq!(balanced_split(&[7], 1), [0]);
        assert_eq!(balanced_split(&[1, 1, 1, 1], 2), [0, 0, 1, 1]);
        assert_eq!(balanced_split(&[1, 1, 1, 1], 3), [0, 1, 2, 2]);
        assert_eq!(balanced_split(&[0, 0, 5], 2), [0, 1, 1]);
        assert_eq!(balanced_split(&[8, 2, 2, 2], 2), [0, 1, 1, 1]);
        assert_eq!(balanced_split(&[1, 2, 3, 4, 5], 3), [0, 0, 0, 1, 2]);
    }

    /// Every client sits on rack 0, so pod 0 carries more than half the
    /// requests' ends and the other three pods share the second shard.
    #[test]
    fn k4_two_shards_put_pod_0_against_pods_1_to_3() {
        assert_eq!(
            layout(fat_tree(4), 2),
            (vec![0, 0, 1, 1, 1, 1, 1, 1], 3_900)
        );
    }

    #[test]
    fn k4_four_shards_get_a_pod_each() {
        assert_eq!(
            layout(fat_tree(4), 4),
            (vec![0, 0, 1, 1, 2, 2, 3, 3], 3_900)
        );
    }

    /// More shards than pods: racks are the units, pod-mates sit apart and
    /// talk through one aggregation switch.
    #[test]
    fn k4_eight_shards_fall_back_to_racks() {
        assert_eq!(layout(fat_tree(4), 8), ((0..8).collect(), 1_700));
    }

    #[test]
    fn k6_two_shards_keep_pod_0_whole() {
        let (rack_shard, lookahead) = layout(fat_tree(6), 2);
        assert_eq!(rack_shard[..3], [0, 0, 0]);
        assert!(rack_shard[3..].iter().all(|&k| k == 1), "{rack_shard:?}");
        assert_eq!(lookahead, 3_900);
    }

    #[test]
    fn leaf_spine_crosses_one_switch_with_or_without_links() {
        let mut s = Scenario::synthetic_default(Scheme::NETCLONE, netclone_workloads::exp25(), 1e5);
        s.topology = Topology::uniform(4);
        assert_eq!(layout(s.clone(), 2).1, 2_200);
        s.links = Some(netclone_linksim::LinkSpec::flat(10.0, 150_000));
        assert_eq!(layout(s, 2).1, 1_700);
    }

    /// Every rack, client, server and access-link record lives on the
    /// shard that owns its rack and on no other, and so does the
    /// coordinator; only the victim rack has no background stream.
    #[test]
    fn each_record_lives_on_its_racks_shard_alone() {
        let mut laedge =
            Scenario::synthetic_default(Scheme::Laedge, netclone_workloads::exp25(), 1e5);
        laedge.topology = Topology::uniform(4);
        let fat = [1, 2, 4, 8].map(|n| (fat_tree(4), n));
        for (scenario, n) in fat.into_iter().chain([(laedge, 2)]) {
            let (shards, _) = build_shards(scenario, n, false);
            assert_eq!(shards.len(), n);
            let (hosts, rack_shard) = (&shards[0].hosts, &shards[0].rack_shard);
            for sh in &shards {
                let owns = |leaf: usize| rack_shard[leaf] == sh.id;
                let at = |what: &str, i: usize| format!("shard {} of {n}, {what} {i}", sh.id);
                for (r, rack) in sh.racks.iter().enumerate() {
                    assert_eq!(rack.is_some(), owns(r), "{}", at("rack", r));
                    if let Some(rack) = rack {
                        let victim = sh.bg.map(|b| b.victim);
                        let quiet = victim.is_none_or(|v| v == r);
                        assert_eq!(rack.bg.is_none(), quiet, "{}", at("rack", r));
                    }
                }
                for (cid, c) in sh.clients.iter().enumerate() {
                    let leaf = hosts[hosts.client(cid)].leaf;
                    assert_eq!(c.is_some(), owns(leaf), "{}", at("client", cid));
                }
                for (sid, s) in sh.servers.iter().enumerate() {
                    let leaf = hosts[hosts.server(sid)].leaf;
                    assert_eq!(s.is_some(), owns(leaf), "{}", at("server", sid));
                }
                assert_eq!(sh.access.is_some(), sh.scenario.links.is_some());
                for (h, links) in sh.access.iter().flatten().enumerate() {
                    assert_eq!(links.is_some(), owns(hosts[h].leaf), "{}", at("host", h));
                }
                let coord =
                    sh.scenario.scheme.uses_coordinator() && owns(hosts[hosts.coord()].leaf);
                assert_eq!(sh.coordinator.is_some(), coord, "shard {} of {n}", sh.id);
            }
        }
    }

    /// The derived bound is tight: one pass more and the always-on check
    /// in `Shard::deliver` catches a message landing inside the window it
    /// was sent from.
    #[test]
    #[should_panic(expected = "lookahead violated")]
    fn overstating_the_lookahead_by_one_pass_is_caught() {
        let mut s = fat_tree(4);
        s.warmup_ns = 500_000;
        s.measure_ns = 1_000_000;
        let (shards, lookahead_ns) = build_shards(s, 2, false);
        let pass = netclone_asic::AsicSpec::tofino().pass_latency_ns;
        ShardCoordinator {
            shards,
            lookahead_ns: lookahead_ns + pass,
        }
        .run();
    }
}
