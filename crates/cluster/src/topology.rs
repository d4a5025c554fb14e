//! Cluster topology as a first-class scenario dimension.
//!
//! The paper's evaluation runs a single rack: every host hangs off one
//! ToR switch. §3.7 "Multi-rack deployment" extends the design to a
//! two-tier leaf/spine fabric: NetClone logic runs only at the
//! *client-side* ToR (gated by the `SWITCH_ID` header field); every other
//! switch — server-side ToRs and the aggregation spine — forwards with
//! plain L3 routing.
//!
//! [`Topology`] describes the fabric shape: how many racks, where servers
//! and clients sit, and the extra per-link latency of the leaf↔spine
//! hops. A fabric's host table lists every server, client and coordinator
//! once, with its address, leaf and access port. [`Fabric`] is the built
//! artifact — one [`SwitchEngine`] per switch plus the routing metadata
//! ([`Fabric::route`]) to walk emissions between
//! switches; [`UpperTier`] is the same wiring above the leaves compiled to
//! one table, which is what the event loop walks. Assembly (which engine
//! runs on which leaf, what gets registered where) lives in
//! [`crate::build::build_fabric`].
//!
//! ## Shapes
//!
//! [`FabricShape::LeafSpine`] is the two-tier fabric of §3.7: every leaf
//! has one uplink to a single spine. [`FabricShape::FatTree`] is the
//! parameterized k-ary three-tier fabric (ROADMAP item 1): `pods` pods
//! of `racks/pods` leaves, `aggs_per_pod` aggregation switches per pod,
//! and `aggs_per_pod × cores_per_group` core switches — core group *j*
//! connects to aggregation switch *j* of every pod, the classic wiring
//! that keeps ECMP loop-free. Uplink choice hashes each flow with
//! [`flow_hash`] so a flow pins one path ("per-flow path stability")
//! while distinct flows spread across the fabric.
//!
//! ## Switch indexing and ports
//!
//! | index | switch |
//! |-------|--------|
//! | `0..racks` | leaf (ToR) of rack *r* |
//! | `racks` | the spine (leaf/spine, only when `racks > 1`) |
//! | `racks + pod·A + j` | fat-tree aggregation *j* of pod *pod* (A = `aggs_per_pod`) |
//! | `racks + pods·A + c` | fat-tree core *c* (group `c / cores_per_group`) |
//!
//! On a leaf, port [`UPLINK_PORT`] faces the upper tier — which *physical*
//! uplink carries the packet is the simulator's ECMP choice, invisible to
//! the engine; servers, clients and the coordinator keep their
//! single-rack ports ([`netclone_core::ports`]). On the spine,
//! [`spine_port`]`(r)` faces leaf *r*. On an aggregation switch,
//! [`agg_down_port`]`(i)` faces leaf *i* of its pod and [`UPLINK_PORT`]
//! faces its core group. On a core, [`core_port`]`(p)` faces pod *p*.
//! [`FabricShape::port_toward`] is [`Fabric::route`]'s inverse: the port a
//! switch forwards on toward a given leaf. Every switch is programmed from
//! the host table and that one function — a host on the switch's own leaf
//! through its access port, any other toward its leaf. A single-rack
//! topology has no upper tier and no uplink — the fabric degenerates to
//! exactly the pre-topology simulator.

use std::ops::Deref;

use netclone_asic::PortId;
use netclone_core::ports::{client_port, server_port, COORD_PORT};
use netclone_core::{SwitchCounters, SwitchEngine};
use netclone_proto::{Ipv4, ServerId};

/// Leaf port facing the spine. Servers sit at `10+`, clients at `100+`,
/// the coordinator at 99, so 1 is free on every leaf.
pub const UPLINK_PORT: PortId = 1;

/// Spine port facing leaf `rack`.
pub const fn spine_port(rack: usize) -> PortId {
    2 + rack as PortId
}

/// Aggregation-switch port facing leaf `leaf_in_pod` of its pod.
pub const fn agg_down_port(leaf_in_pod: usize) -> PortId {
    2 + leaf_in_pod as PortId
}

/// Core-switch port facing pod `pod`.
pub const fn core_port(pod: usize) -> PortId {
    2 + pod as PortId
}

/// Seeded FNV-1a over the flow's (src, dst) address pair: the ECMP hash.
///
/// A fixed `seed` makes every flow's path a pure function of its
/// endpoints — the per-flow path-stability property the proptests pin —
/// while different seeds re-shuffle flows across uplinks.
#[inline]
pub fn flow_hash(src: Ipv4, dst: Ipv4, seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in src.0.to_be_bytes().into_iter().chain(dst.0.to_be_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The upper-fabric wiring above the leaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricShape {
    /// §3.7's two-tier fabric: one spine, one uplink per leaf.
    LeafSpine,
    /// A k-ary three-tier fat-tree: `pods` pods of `racks/pods` leaves,
    /// `aggs_per_pod` aggregation switches per pod, and
    /// `aggs_per_pod × cores_per_group` cores (core group *j* connects
    /// to aggregation *j* of every pod).
    FatTree {
        /// Number of pods.
        pods: usize,
        /// Aggregation switches per pod == uplinks per leaf.
        aggs_per_pod: usize,
        /// Cores per aggregation group == uplinks per aggregation switch.
        cores_per_group: usize,
    },
}

impl FabricShape {
    /// ECMP width: distinct uplinks out of one leaf.
    #[inline]
    pub fn n_uplinks(&self) -> usize {
        match *self {
            FabricShape::LeafSpine => 1,
            FabricShape::FatTree { aggs_per_pod, .. } => aggs_per_pod,
        }
    }

    /// Leaves per pod of a `racks`-leaf fabric (leaf/spine: one pod).
    #[inline]
    pub fn leaves_per_pod(&self, racks: usize) -> usize {
        match *self {
            FabricShape::LeafSpine => racks,
            FabricShape::FatTree { pods, .. } => racks / pods,
        }
    }

    /// Switches above the leaf tier (0 for a single rack).
    #[inline]
    pub fn upper_count(&self, racks: usize) -> usize {
        if racks <= 1 {
            return 0;
        }
        match *self {
            FabricShape::LeafSpine => 1,
            FabricShape::FatTree {
                pods,
                aggs_per_pod,
                cores_per_group,
            } => pods * aggs_per_pod + aggs_per_pod * cores_per_group,
        }
    }

    /// Pod of leaf `leaf`.
    #[inline]
    pub fn pod_of_leaf(&self, racks: usize, leaf: usize) -> usize {
        leaf / self.leaves_per_pod(racks)
    }

    /// Global switch index of aggregation `j` in pod `pod` (pod-major).
    #[inline]
    pub fn agg_index(&self, racks: usize, pod: usize, j: usize) -> usize {
        match *self {
            FabricShape::LeafSpine => racks,
            FabricShape::FatTree { aggs_per_pod, .. } => racks + pod * aggs_per_pod + j,
        }
    }

    /// Global switch index of core `c` in group `j` (cores sit after all
    /// aggregation switches; group-major).
    #[inline]
    pub fn core_index(&self, racks: usize, j: usize, c: usize) -> usize {
        match *self {
            FabricShape::LeafSpine => racks,
            FabricShape::FatTree {
                pods,
                aggs_per_pod,
                cores_per_group,
            } => racks + pods * aggs_per_pod + j * cores_per_group + c,
        }
    }

    /// The port switch `sw` of a `racks`-leaf fabric uses toward leaf
    /// `leaf`: the inverse of [`Fabric::route`], which maps that port back
    /// to the next switch on the way. A leaf, and an aggregation switch of
    /// another pod, go up ([`UPLINK_PORT`]); the spine and an aggregation
    /// switch of the leaf's pod go down to the leaf, a core down to its
    /// pod. (For a leaf, `leaf` is another one: its own hosts hang off
    /// their access ports.)
    pub fn port_toward(&self, racks: usize, sw: usize, leaf: usize) -> PortId {
        if sw < racks {
            return UPLINK_PORT;
        }
        match *self {
            FabricShape::LeafSpine => spine_port(leaf),
            FabricShape::FatTree {
                pods, aggs_per_pod, ..
            } => {
                let pod = self.pod_of_leaf(racks, leaf);
                let u = sw - racks;
                if u >= pods * aggs_per_pod {
                    core_port(pod)
                } else if u / aggs_per_pod == pod {
                    agg_down_port(leaf % self.leaves_per_pod(racks))
                } else {
                    UPLINK_PORT
                }
            }
        }
    }
}

/// Where the hosts of one kind sit across the racks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Host `i` sits in rack `i % racks` (the default: balanced).
    RoundRobin,
    /// Host `i` sits in rack `racks[i]` (arbitrary, e.g. all servers in
    /// one rack with the clients in another).
    Explicit(Vec<usize>),
}

impl Placement {
    /// Rack of host `i` under this placement.
    pub fn rack_of(&self, i: usize, racks: usize) -> usize {
        match self {
            Placement::RoundRobin => i % racks,
            Placement::Explicit(v) => v[i],
        }
    }
}

/// The fabric shape: racks, host placement, inter-rack link latency.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    /// Number of racks (leaf switches). 1 = the paper's testbed.
    pub racks: usize,
    /// One-way latency of each leaf↔spine link, ns (on top of the
    /// switch pass latency; unused when `racks == 1`).
    pub inter_rack_ns: u64,
    /// Which rack each server sits in.
    pub server_placement: Placement,
    /// Which rack each client sits in.
    pub client_placement: Placement,
    /// The upper-fabric wiring above the leaves.
    pub shape: FabricShape,
    /// Seed of the ECMP [`flow_hash`] (only meaningful with multiple
    /// uplinks, i.e. fat-tree shapes).
    pub ecmp_seed: u64,
}

impl Topology {
    /// The paper's single-rack testbed (the default everywhere).
    pub fn single_rack() -> Self {
        Topology {
            racks: 1,
            inter_rack_ns: crate::calib::INTER_RACK_ONE_WAY_NS,
            server_placement: Placement::RoundRobin,
            client_placement: Placement::RoundRobin,
            shape: FabricShape::LeafSpine,
            ecmp_seed: 0,
        }
    }

    /// A balanced multi-rack fabric: servers and clients round-robin
    /// across `racks` racks, default inter-rack link latency.
    pub fn uniform(racks: usize) -> Self {
        Topology {
            racks,
            ..Topology::single_rack()
        }
    }

    /// The canonical k-ary fat-tree (`k` even, ≥ 2): `k` pods of `k/2`
    /// leaves, `k/2` aggregation switches per pod, `(k/2)²` cores —
    /// `k²/2` racks total. Hosts round-robin unless placed explicitly.
    pub fn fat_tree(k: usize) -> Self {
        assert!(k >= 2 && k % 2 == 0, "a fat-tree needs an even k >= 2");
        Topology {
            racks: k * k / 2,
            shape: FabricShape::FatTree {
                pods: k,
                aggs_per_pod: k / 2,
                cores_per_group: k / 2,
            },
            ..Topology::single_rack()
        }
    }

    /// Overrides the ECMP hash seed.
    pub fn with_ecmp_seed(mut self, seed: u64) -> Self {
        self.ecmp_seed = seed;
        self
    }

    /// Places server `sid` explicitly (see [`Placement::Explicit`]).
    pub fn with_server_racks(mut self, racks: Vec<usize>) -> Self {
        self.server_placement = Placement::Explicit(racks);
        self
    }

    /// Places client `cid` explicitly (see [`Placement::Explicit`]).
    pub fn with_client_racks(mut self, racks: Vec<usize>) -> Self {
        self.client_placement = Placement::Explicit(racks);
        self
    }

    /// Rack of server `sid`.
    pub fn server_rack(&self, sid: usize) -> usize {
        self.server_placement.rack_of(sid, self.racks)
    }

    /// Rack of client `cid`.
    pub fn client_rack(&self, cid: usize) -> usize {
        self.client_placement.rack_of(cid, self.racks)
    }

    /// Leaves per pod (`racks` for leaf/spine: one pod).
    pub fn leaves_per_pod(&self) -> usize {
        self.shape.leaves_per_pod(self.racks)
    }

    /// ECMP width: distinct uplinks out of one leaf.
    pub fn n_uplinks(&self) -> usize {
        self.shape.n_uplinks()
    }

    /// Switches above the leaf tier (0 for a single rack).
    pub fn upper_count(&self) -> usize {
        self.shape.upper_count(self.racks)
    }

    /// Number of switches in the fabric: the leaves plus the upper tier.
    pub fn num_switches(&self) -> usize {
        (self.racks + self.upper_count()).max(1)
    }

    /// Index of the spine switch (`None` for a single rack or a
    /// fat-tree, which has no single spine).
    pub fn spine(&self) -> Option<usize> {
        (self.racks > 1 && self.shape == FabricShape::LeafSpine).then_some(self.racks)
    }

    /// Checks the shape against a host fleet. Explicit placements must
    /// cover every host and name only existing racks.
    pub fn validate(&self, n_servers: usize, n_clients: usize) -> Result<(), String> {
        if self.racks == 0 {
            return Err("a topology needs at least one rack".into());
        }
        if let FabricShape::FatTree {
            pods,
            aggs_per_pod,
            cores_per_group,
        } = self.shape
        {
            if self.racks < 2 {
                return Err("a fat-tree needs at least two racks".into());
            }
            if pods == 0 || aggs_per_pod == 0 || cores_per_group == 0 {
                return Err("a fat-tree needs pods, aggs and cores >= 1".into());
            }
            if self.racks % pods != 0 {
                return Err(format!(
                    "{} racks do not split into {pods} pods",
                    self.racks
                ));
            }
        }
        let check = |kind: &str, placement: &Placement, n: usize| match placement {
            Placement::RoundRobin => Ok(()),
            Placement::Explicit(v) => {
                if v.len() != n {
                    return Err(format!("{kind} placement covers {} of {n} hosts", v.len()));
                }
                match v.iter().find(|&&r| r >= self.racks) {
                    Some(r) => Err(format!("{kind} placed in rack {r} of {}", self.racks)),
                    None => Ok(()),
                }
            }
        };
        check("server", &self.server_placement, n_servers)?;
        check("client", &self.client_placement, n_clients)
    }
}

/// What a [`Host`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum HostKind {
    /// Client `cid`.
    Client(u16),
    /// Server `sid`.
    Server(ServerId),
    /// The LÆDGE coordinator.
    Coord,
}

/// One host of the fabric: what it is, its address, and where it attaches.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Host {
    pub kind: HostKind,
    pub ip: Ipv4,
    /// The leaf it hangs off.
    pub leaf: usize,
    /// Its access port on that leaf.
    pub port: PortId,
}

/// The host table: every client by cid, then every server by sid, then
/// the coordinator when the scheme has one — the one list every switch's
/// routes, the compiled upper tier and the host access links are read
/// from. A host's index in it is its global host id.
#[derive(Clone, Debug, Default)]
pub(crate) struct Hosts {
    list: Vec<Host>,
    pub n_clients: usize,
    pub n_servers: usize,
}

impl Hosts {
    /// The hosts of a fleet placed by `topo`; the coordinator at `coord`,
    /// if any, hangs off rack 0's leaf by convention.
    pub fn new(topo: &Topology, n_servers: usize, n_clients: usize, coord: Option<Ipv4>) -> Self {
        let clients = (0..n_clients as u16).map(|cid| Host {
            kind: HostKind::Client(cid),
            ip: Ipv4::client(cid),
            leaf: topo.client_rack(cid.into()),
            port: client_port(cid),
        });
        let servers = (0..n_servers as ServerId).map(|sid| Host {
            kind: HostKind::Server(sid),
            ip: Ipv4::server(sid),
            leaf: topo.server_rack(sid.into()),
            port: server_port(sid),
        });
        let coord = coord.map(|ip| Host {
            kind: HostKind::Coord,
            ip,
            leaf: 0,
            port: COORD_PORT,
        });
        Hosts {
            list: clients.chain(servers).chain(coord).collect(),
            n_clients,
            n_servers,
        }
    }

    /// Host id of client `cid`.
    #[inline]
    pub fn client(&self, cid: usize) -> usize {
        cid
    }

    /// Host id of server `sid`.
    #[inline]
    pub fn server(&self, sid: usize) -> usize {
        self.n_clients + sid
    }

    /// Host id of the coordinator (past the end when there is none).
    #[inline]
    pub fn coord(&self) -> usize {
        self.n_clients + self.n_servers
    }
}

impl Deref for Hosts {
    type Target = [Host];

    fn deref(&self) -> &[Host] {
        &self.list
    }
}

/// One step of a packet's walk through the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hop {
    /// The port is a host port on this leaf — deliver locally.
    Local(PortId),
    /// The port is an inter-switch link — forward to that switch.
    Switch(usize),
}

/// A built two-tier fabric: one programmed engine per switch plus the
/// routing metadata to walk emissions between them.
///
/// Index layout matches [`Topology`]: leaves `0..racks`, then the spine.
/// Built by [`crate::build::build_fabric`]; the event loop
/// ([`crate::sim::Sim`]) takes its leaf engines, the topology tests and
/// the benchmark's replay drive it directly.
pub struct Fabric {
    /// The per-switch engines.
    pub engines: Vec<Box<dyn SwitchEngine>>,
    pub(crate) racks: usize,
    pub(crate) inter_rack_ns: u64,
    /// Every host and where it attaches.
    pub(crate) hosts: Hosts,
    /// The upper-fabric wiring above the leaves.
    pub(crate) shape: FabricShape,
    /// Seed of the ECMP [`flow_hash`].
    pub(crate) ecmp_seed: u64,
}

impl Fabric {
    /// Number of switches.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// True for an engine-less fabric (never produced by the builder).
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Index of the spine switch (`None` for a single rack or fat-tree).
    pub fn spine(&self) -> Option<usize> {
        (self.racks > 1 && self.shape == FabricShape::LeafSpine).then_some(self.racks)
    }

    /// The upper-fabric wiring.
    pub fn shape(&self) -> FabricShape {
        self.shape
    }

    /// Seed of the ECMP [`flow_hash`].
    pub fn ecmp_seed(&self) -> u64 {
        self.ecmp_seed
    }

    /// Leaf switch of server `idx`.
    pub fn server_leaf(&self, idx: usize) -> usize {
        self.hosts[self.hosts.server(idx)].leaf
    }

    /// Leaf switch of client `cid`.
    pub fn client_leaf(&self, cid: usize) -> usize {
        self.hosts[self.hosts.client(cid)].leaf
    }

    /// Leaf switch of the coordinator host (the scheme must have one).
    pub fn coord_leaf(&self) -> usize {
        self.hosts[self.hosts.coord()].leaf
    }

    /// One-way latency of a leaf↔spine link, ns.
    pub fn inter_rack_ns(&self) -> u64 {
        self.inter_rack_ns
    }

    /// Resolves an emission from switch `sw` out of `port` for a flow
    /// hashing to `h`: either a local host port or the next switch. Pure
    /// arithmetic — the hot path allocates nothing.
    ///
    /// The upper-tier walk is loop-free by construction: a packet goes
    /// up (leaf → agg → core) only while `port == UPLINK_PORT`, and the
    /// hash decides *which* same-tier switch, never whether to go back
    /// down the tier it came from. Core group `j` reaches aggregation
    /// `j` of every pod, so the down path retraces the group the up
    /// path chose.
    #[inline]
    pub fn route(&self, sw: usize, port: PortId, h: u64) -> Hop {
        if sw < self.racks {
            // Leaf: the only inter-switch port is the uplink.
            if port == UPLINK_PORT && self.racks > 1 {
                match self.shape {
                    FabricShape::LeafSpine => Hop::Switch(self.racks),
                    FabricShape::FatTree { aggs_per_pod, .. } => {
                        let pod = self.shape.pod_of_leaf(self.racks, sw);
                        let j = (h % aggs_per_pod as u64) as usize;
                        Hop::Switch(self.shape.agg_index(self.racks, pod, j))
                    }
                }
            } else {
                Hop::Local(port)
            }
        } else {
            match self.shape {
                FabricShape::LeafSpine => Hop::Switch((port - spine_port(0)) as usize),
                FabricShape::FatTree {
                    pods,
                    aggs_per_pod,
                    cores_per_group,
                } => {
                    let u = sw - self.racks;
                    if u < pods * aggs_per_pod {
                        // Aggregation switch `j` of pod `pod`.
                        let (pod, j) = (u / aggs_per_pod, u % aggs_per_pod);
                        if port == UPLINK_PORT {
                            let c = ((h / aggs_per_pod as u64) % cores_per_group as u64) as usize;
                            Hop::Switch(self.shape.core_index(self.racks, j, c))
                        } else {
                            let leaf_in_pod = (port - agg_down_port(0)) as usize;
                            Hop::Switch(pod * self.shape.leaves_per_pod(self.racks) + leaf_in_pod)
                        }
                    } else {
                        // Core of group `j`: every port faces one pod's
                        // aggregation `j`.
                        let j = (u - pods * aggs_per_pod) / cores_per_group;
                        let pod = (port - core_port(0)) as usize;
                        Hop::Switch(self.shape.agg_index(self.racks, pod, j))
                    }
                }
            }
        }
    }

    /// Per-switch counter snapshots, in switch-index order.
    pub fn counters(&self) -> Vec<SwitchCounters> {
        self.engines.iter().map(|e| e.counters()).collect()
    }
}

/// What [`UpperTier::walk`] resolves for one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpperWalk {
    /// Destination leaf; `None` when no endpoint owns the address, and the
    /// first switch of [`Self::hops`] drops the packet on the route miss.
    pub leaf: Option<usize>,
    /// Uplink the flow leaves its source leaf on, which is also the
    /// downlink it enters the destination leaf by (uplink *j* ↔ agg *j*).
    pub via: usize,
    hops: [usize; 3],
    n_hops: usize,
}

impl UpperWalk {
    /// The upper switches crossed, in order, by fabric index: the spine or
    /// a same-pod aggregation switch, or agg → core → agg.
    #[inline]
    pub fn hops(&self) -> &[usize] {
        &self.hops[..self.n_hops]
    }
}

/// The upper tier compiled to what it is: wiring. Every switch above the
/// leaves is stateless plain L3 (§3.7) holding the same routes, so a
/// packet's whole path through them is a function of its destination's
/// rack and its flow hash. This is that function as one table, plus the
/// counters each switch would have kept. The simulator walks it in place
/// of per-switch engine passes; the engine-backed [`Fabric`] stays the
/// oracle (`tests/prop_upper_tier.rs`).
#[derive(Clone, Debug)]
pub struct UpperTier {
    racks: usize,
    shape: FabricShape,
    /// First address of the table: the lowest one any endpoint holds.
    base: u32,
    /// Leaf of the endpoint at address `base + i` (`None`: nobody's).
    leaf_of: Vec<Option<u16>>,
    pod_of: Vec<usize>,
    /// What a `PlainL3Switch` in each upper switch's place would report,
    /// by fabric index − `racks`.
    counters: Vec<SwitchCounters>,
}

impl UpperTier {
    /// Compiles the tier of a `racks`-leaf fabric from every endpoint's
    /// `(address, leaf)`; a repeated address keeps its last leaf, as a
    /// route table keeps its last insert.
    pub(crate) fn new(
        racks: usize,
        shape: FabricShape,
        endpoints: impl IntoIterator<Item = (Ipv4, usize)>,
    ) -> Self {
        let mut tier = UpperTier {
            racks,
            shape,
            base: 0,
            leaf_of: Vec::new(),
            pod_of: Vec::new(),
            counters: vec![SwitchCounters::default(); shape.upper_count(racks)],
        };
        if tier.counters.is_empty() {
            // One rack: no switch above it, nothing is ever walked, and
            // set-up allocates nothing on its behalf.
            return tier;
        }
        let endpoints: Vec<(Ipv4, usize)> = endpoints.into_iter().collect();
        tier.base = endpoints.iter().map(|(ip, _)| ip.0).min().unwrap_or(0);
        let span = endpoints.iter().map(|(ip, _)| ip.0 - tier.base + 1).max();
        tier.leaf_of = vec![None; span.unwrap_or(0) as usize];
        for (ip, leaf) in endpoints {
            let leaf = u16::try_from(leaf).expect("leaf ids fit u16");
            tier.leaf_of[(ip.0 - tier.base) as usize] = Some(leaf);
        }
        tier.pod_of = (0..racks).map(|l| shape.pod_of_leaf(racks, l)).collect();
        tier
    }

    /// The path of a flow hashing to `h` from `src_leaf` toward the leaf
    /// of `dst`: ECMP stage one picks the aggregation switch (`h mod
    /// aggs`), stage two the core of its group (the next hash digit), and
    /// the way down retraces the group — the transitions of
    /// [`Fabric::route`], composed.
    #[inline]
    pub fn walk(&self, src_leaf: usize, dst: Ipv4, h: u64) -> UpperWalk {
        let i = dst.0.wrapping_sub(self.base) as usize;
        let leaf = self.leaf_of.get(i).copied().flatten().map(usize::from);
        self.path(src_leaf, leaf, h)
    }

    /// [`Self::walk`] toward a known leaf (`None`: as far as the first
    /// switch, which is where a route miss ends).
    #[inline]
    pub(crate) fn path(&self, src_leaf: usize, leaf: Option<usize>, h: u64) -> UpperWalk {
        let (via, hops, n_hops) = match self.shape {
            FabricShape::LeafSpine => (0, [self.racks, 0, 0], 1),
            FabricShape::FatTree {
                aggs_per_pod,
                cores_per_group,
                ..
            } => {
                let j = (h % aggs_per_pod as u64) as usize;
                let src_pod = self.pod_of[src_leaf];
                let up = self.shape.agg_index(self.racks, src_pod, j);
                match leaf.map(|l| self.pod_of[l]) {
                    Some(pod) if pod != src_pod => {
                        let c = ((h / aggs_per_pod as u64) % cores_per_group as u64) as usize;
                        let core = self.shape.core_index(self.racks, j, c);
                        let down = self.shape.agg_index(self.racks, pod, j);
                        (j, [up, core, down], 3)
                    }
                    _ => (j, [up, 0, 0], 1),
                }
            }
        };
        UpperWalk {
            leaf,
            via,
            hops,
            n_hops,
        }
    }

    /// Upper switch `sw` (fabric index) forwarded a packet.
    #[inline]
    pub fn count_routed(&mut self, sw: usize) {
        self.counters[sw - self.racks].routed_plain += 1;
    }

    /// Upper switch `sw` (fabric index) dropped a packet on a route miss.
    #[inline]
    pub fn count_dropped(&mut self, sw: usize) {
        self.counters[sw - self.racks].dropped_unroutable += 1;
    }

    /// Per-switch counters in fabric index order, as the engines of
    /// [`Fabric::counters`]`[racks..]` report them.
    pub fn counters(&self) -> &[SwitchCounters] {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rack_is_the_default_shape() {
        let t = Topology::single_rack();
        assert_eq!(t.racks, 1);
        assert_eq!(t.num_switches(), 1);
        assert_eq!(t.spine(), None);
        assert_eq!(t.server_rack(5), 0);
        assert_eq!(t.client_rack(1), 0);
        assert!(t.validate(6, 2).is_ok());
    }

    #[test]
    fn uniform_round_robins_hosts() {
        let t = Topology::uniform(3);
        assert_eq!(t.num_switches(), 4);
        assert_eq!(t.spine(), Some(3));
        assert_eq!(
            (0..6).map(|s| t.server_rack(s)).collect::<Vec<_>>(),
            vec![0, 1, 2, 0, 1, 2]
        );
        assert_eq!(t.client_rack(1), 1);
    }

    #[test]
    fn explicit_placement_and_validation() {
        let t = Topology::uniform(2)
            .with_server_racks(vec![1, 1, 1])
            .with_client_racks(vec![0]);
        assert_eq!(t.server_rack(2), 1);
        assert_eq!(t.client_rack(0), 0);
        assert!(t.validate(3, 1).is_ok());
        assert!(t.validate(4, 1).is_err(), "placement must cover all hosts");
        let bad = Topology::uniform(2).with_client_racks(vec![2]);
        assert!(bad.validate(2, 1).is_err(), "rack index out of range");
    }

    #[test]
    fn zero_racks_rejected() {
        let t = Topology {
            racks: 0,
            ..Topology::single_rack()
        };
        assert!(t.validate(2, 1).is_err());
    }

    /// An engine-less fabric: `route` is pure arithmetic over the shape.
    fn fabric(t: Topology) -> Fabric {
        Fabric {
            engines: Vec::new(),
            racks: t.racks,
            inter_rack_ns: t.inter_rack_ns,
            hosts: Hosts::default(),
            shape: t.shape,
            ecmp_seed: 0,
        }
    }

    #[test]
    fn fat_tree_shape_arithmetic() {
        let t = Topology::fat_tree(4);
        assert_eq!(t.racks, 8);
        assert_eq!(t.leaves_per_pod(), 2);
        assert_eq!(t.n_uplinks(), 2);
        assert_eq!(t.upper_count(), 4 * 2 + 2 * 2);
        assert_eq!(t.num_switches(), 8 + 12);
        assert_eq!(t.spine(), None, "a fat-tree has no single spine");
        assert!(t.validate(8, 4).is_ok());
        let t = Topology::fat_tree(6);
        assert_eq!(t.racks, 18);
        assert_eq!(t.n_uplinks(), 3);
        assert_eq!(t.upper_count(), 6 * 3 + 3 * 3);
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn fat_tree_rejects_odd_k() {
        let _ = Topology::fat_tree(3);
    }

    #[test]
    fn fat_tree_route_transitions() {
        let f = fabric(Topology::fat_tree(4));
        let (pods, a, c) = (4usize, 2usize, 2usize);
        let (racks, lpp) = (8usize, 2usize);
        for leaf in 0..racks {
            for h in [0u64, 1, 5, 0xdead_beef] {
                let pod = leaf / lpp;
                let j = (h % a as u64) as usize;
                let agg = racks + pod * a + j;
                assert_eq!(f.route(leaf, UPLINK_PORT, h), Hop::Switch(agg));
                // Aggregation uplink: a core of group `j` (higher hash
                // bits pick which one).
                let cc = ((h / a as u64) % c as u64) as usize;
                let core = racks + pods * a + j * c + cc;
                assert_eq!(f.route(agg, UPLINK_PORT, h), Hop::Switch(core));
                // Core group `j` reaches aggregation `j` of every pod —
                // the down path retraces the group the up path chose.
                for p in 0..pods {
                    assert_eq!(
                        f.route(core, core_port(p), h),
                        Hop::Switch(racks + p * a + j)
                    );
                }
                for i in 0..lpp {
                    assert_eq!(
                        f.route(agg, agg_down_port(i), h),
                        Hop::Switch(pod * lpp + i)
                    );
                }
                // Host ports on a leaf stay local.
                assert_eq!(f.route(leaf, 10, h), Hop::Local(10));
            }
        }
    }

    #[test]
    fn fat_tree_walks_terminate_loop_free() {
        // From any leaf, following UPLINK_PORT transitions and then the
        // down-ports reaches any destination leaf in ≤ 4 switch-to-switch
        // hops without revisiting a tier.
        let f = fabric(Topology::fat_tree(6));
        let shape = f.shape();
        let (racks, lpp) = (18usize, 3usize);
        for src in 0..racks {
            for dst in 0..racks {
                for h in [3u64, 0x9e37_79b9] {
                    // Up as far as needed: same pod stops at the agg.
                    let Hop::Switch(agg) = f.route(src, UPLINK_PORT, h) else {
                        panic!("uplink must reach a switch");
                    };
                    let down_from = if src / lpp == dst / lpp {
                        agg
                    } else {
                        let Hop::Switch(core) = f.route(agg, UPLINK_PORT, h) else {
                            panic!("agg uplink must reach a core");
                        };
                        let Hop::Switch(agg2) = f.route(core, core_port(dst / lpp), h) else {
                            panic!("core must reach the destination pod");
                        };
                        assert_eq!(
                            shape.pod_of_leaf(racks, (agg2 - racks) / shape.n_uplinks() * lpp),
                            dst / lpp
                        );
                        agg2
                    };
                    assert_eq!(
                        f.route(down_from, agg_down_port(dst % lpp), h),
                        Hop::Switch(dst)
                    );
                }
            }
        }
    }

    /// `port_toward` inverts `route`: from any switch, following the port
    /// toward a leaf reaches that leaf in at most four hops, whatever the
    /// flow hash picks on the way up.
    #[test]
    fn port_toward_leads_every_switch_to_the_leaf() {
        for t in [
            Topology::uniform(5),
            Topology::fat_tree(4),
            Topology::fat_tree(6),
        ] {
            let (racks, shape, n) = (t.racks, t.shape, t.num_switches());
            let f = fabric(t);
            for (sw, leaf) in (0..n).flat_map(|sw| (0..racks).map(move |l| (sw, l))) {
                for h in [0u64, 1, 5, 0xdead_beef] {
                    let (mut at, mut hops) = (sw, 0);
                    while at != leaf {
                        let port = shape.port_toward(racks, at, leaf);
                        let Hop::Switch(next) = f.route(at, port, h) else {
                            panic!("switch {at} toward leaf {leaf} stays local");
                        };
                        (at, hops) = (next, hops + 1);
                        assert!(hops <= 4, "switch {sw} toward leaf {leaf} loops");
                    }
                }
            }
        }
    }

    #[test]
    fn upper_tier_table_keeps_the_last_leaf_and_misses_outside_it() {
        let shape = Topology::fat_tree(4).shape;
        let ends = [
            (Ipv4::server(0), 1),
            (Ipv4::client(0), 6),
            (Ipv4::server(0), 7),
        ];
        let tier = UpperTier::new(8, shape, ends);
        // Leaf 0 → leaf 7 crosses pods: agg (pod 0) → core → agg (pod 3).
        let w = tier.walk(0, Ipv4::server(0), 0b11);
        assert_eq!((w.leaf, w.via), (Some(7), 1));
        assert_eq!(w.hops(), [8 + 1, 16 + 2 + 1, 8 + 3 * 2 + 1]);
        // Unowned addresses inside, below and past the table all miss at
        // the source pod's aggregation switch.
        for ip in [Ipv4::server(1), Ipv4::new(10, 0, 0, 1), Ipv4::client(1)] {
            let w = tier.walk(2, ip, 0);
            assert_eq!((w.leaf, w.hops()), (None, &[8 + 2][..]));
        }
        assert_eq!(tier.counters().len(), 12);
        assert!(UpperTier::new(1, FabricShape::LeafSpine, ends)
            .counters()
            .is_empty());
    }

    #[test]
    fn flow_hash_is_stable_and_seed_sensitive() {
        let a = Ipv4::client(0);
        let b = Ipv4::server(3);
        assert_eq!(flow_hash(a, b, 7), flow_hash(a, b, 7));
        assert_ne!(flow_hash(a, b, 7), flow_hash(a, b, 8));
        assert_ne!(flow_hash(a, b, 7), flow_hash(b, a, 7));
    }

    #[test]
    fn fat_tree_validation() {
        assert!(Topology::fat_tree(4).validate(8, 2).is_ok());
        let bad = Topology {
            racks: 7,
            shape: FabricShape::FatTree {
                pods: 4,
                aggs_per_pod: 2,
                cores_per_group: 2,
            },
            ..Topology::single_rack()
        };
        assert!(bad.validate(2, 1).is_err(), "racks must split into pods");
        let bad = Topology {
            racks: 4,
            shape: FabricShape::FatTree {
                pods: 4,
                aggs_per_pod: 0,
                cores_per_group: 2,
            },
            ..Topology::single_rack()
        };
        assert!(bad.validate(2, 1).is_err(), "zero aggs rejected");
    }
}
