//! The NetClone data-plane program (paper Algorithm 1 + §3.7 extensions).
//!
//! ## Stage layout
//!
//! The program occupies 7 match-action stages with the default two filter
//! tables, matching §4.1:
//!
//! | stage | resources |
//! |-------|-----------|
//! | 0 | `SEQ` register, L3 route table |
//! | 1 | group table `GrpT`, multi-packet hash |
//! | 2 | state table `StateT` |
//! | 3 | shadow table `ShadowT` |
//! | 4 | address table `AddrT`, filter hash, multi-packet affinity table |
//! | 5 | filter table 0 |
//! | 6 | filter table 1 |
//!
//! Note `AddrT` sits *after* the state tables: its action assigns both the
//! destination IP and the egress port for whichever candidate the cloning /
//! JSQ logic selected. (Algorithm 1 reads `AddrT[Srv1]` before the state
//! check because the base design always forwards to server 1 when not
//! cloning; placing the lookup after the decision is equivalent there and
//! also accommodates the RackSched fallback, which may pick server 2 — one
//! of the "several challenges" §3.7 alludes to.)
//!
//! `GrpT` and `AddrT` are keyed by the 16-bit `GRP` and `SID` header
//! fields, so they are [`DenseTable`]s: a lookup indexes an array. The
//! multi-packet hash is computed only when the feature is on; with it off,
//! nothing reads the hash, and skipping it changes no output.
//!
//! ## Filter slot order
//!
//! A filter table's logical slot is the CRC slot `h = CRC(REQ_ID)` of
//! Algorithm 1 line 18. The register array stores slot `h` at physical
//! index `B·h`, where [`CrcSlotOrder`] inverts the CRC's linear map on the
//! low `REQ_ID` bits, so consecutive request IDs fill neighbouring cells
//! instead of one random cache line each. `B` is a bijection: every
//! read-modify-write meets exactly the value it would meet in CRC order,
//! so the program's output is unchanged bit for bit. It is a storage
//! choice of the simulator alone; the §4.1 accounting (one hash unit, one
//! register array per table) does not change.
//!
//! ## Replication
//!
//! Cloning uses multicast + recirculation exactly as §3.4 describes: the
//! original egresses to server 1 immediately; the copy is sent to a
//! loopback port and re-enters the pipeline, where the `CLO=1 ∧ ingress =
//! recirc` pattern marks it `CLO=2`, looks up `AddrT[SID]`, and forwards.
//! The recirculated pass is executed inline here and surfaces as a second
//! [`Emission`] whose latency includes the loopback traversal.

use netclone_asic::resources::{Allocation, ResourceKind};
use netclone_asic::{
    AsicSpec, CrcSlotOrder, DenseTable, Emission, EmissionSink, HashUnit, Layout, MatchTable,
    PacketPass, PortId, RegisterArray, ResourceReport,
};
use netclone_proto::{CloneStatus, Ipv4, MsgType, PacketMeta, ReqId, ServerId, ServerState};

use crate::config::{NetCloneConfig, RequestIdMode, Scheduling};
use crate::counters::SwitchCounters;
use crate::engine::{EngineError, SwitchEngine};
use crate::groups::build_groups;

/// Panic message for pipeline-constraint violations: the program is
/// validated by construction, so any violation is a bug in this crate,
/// not a runtime condition.
const PIPE: &str = "NetClone pipeline violated a PISA constraint (bug in the program layout)";

pub(crate) const STAGE_SEQ: u8 = 0;
pub(crate) const STAGE_ROUTE: u8 = 0;
pub(crate) const STAGE_GRP: u8 = 1;
pub(crate) const STAGE_MPK_HASH: u8 = 1;
pub(crate) const STAGE_STATE: u8 = 2;
pub(crate) const STAGE_SHADOW: u8 = 3;
pub(crate) const STAGE_ADDR: u8 = 4;
pub(crate) const STAGE_HASH: u8 = 4;
pub(crate) const STAGE_MPK_TABLE: u8 = 4;
pub(crate) const STAGE_FILTER0: u8 = 5;

/// The NetClone switch program.
pub struct NetCloneSwitch {
    pub(crate) cfg: NetCloneConfig,
    pub(crate) layout: Layout,
    /// Global sequence register for request IDs (Algorithm 1: `SEQ`).
    pub(crate) seq: RegisterArray<u32>,
    /// Group ID → (Srv1, Srv2) (`GrpT`).
    pub(crate) grp_t: DenseTable<(ServerId, ServerId)>,
    /// Server ID → (IP, egress port) (`AddrT`; the action also supplies
    /// the port — see module docs).
    pub(crate) addr_t: DenseTable<(u32, PortId)>,
    /// Tracked server states (`StateT`): 0 = idle, n = queue length.
    pub(crate) state_t: RegisterArray<u16>,
    /// The shadow copy (`ShadowT`), kept identical by construction (§3.4).
    pub(crate) shadow_t: RegisterArray<u16>,
    /// CRC unit for filter-slot indices.
    pub(crate) filter_hash: HashUnit,
    /// K filter tables (`FilterT`), register arrays of request IDs (§3.5),
    /// each stored in `filter_order` (see module docs).
    pub(crate) filters: Vec<RegisterArray<u32>>,
    /// Where logical filter slot `h` lives in a filter array.
    pub(crate) filter_order: CrcSlotOrder,
    /// L3 exact-match route table: destination IP → egress port.
    pub(crate) route_t: MatchTable<u32, PortId>,
    /// Multi-packet affinity: CRC unit over (CLIENT_ID, CLIENT_SEQ).
    pub(crate) mpk_hash: HashUnit,
    /// Multi-packet affinity table: message tags of cloned, unfinished
    /// multi-packet requests (§3.7).
    pub(crate) mpk_t: RegisterArray<u32>,
    /// Registered servers, in SID order (control-plane view).
    pub(crate) servers: Vec<ServerId>,
    /// Data-plane counters.
    pub(crate) counters: SwitchCounters,
}

impl NetCloneSwitch {
    /// Builds the program for `cfg`, laying every table out on the ASIC.
    ///
    /// Panics if the configuration is invalid or does not fit the ASIC —
    /// the moral equivalent of a P4 compile error.
    pub fn new(cfg: NetCloneConfig) -> Self {
        cfg.validate().expect("invalid NetClone configuration");
        let mut layout = Layout::new(cfg.spec);
        let seq = RegisterArray::alloc(&mut layout, "SEQ", STAGE_SEQ, 1, 4).expect(PIPE);
        let route_t =
            MatchTable::alloc(&mut layout, "RouteT", STAGE_ROUTE, 65_536, 4, 2, 1).expect(PIPE);
        // The traditional L2 switching table: not exercised by the parsed
        // L3 metadata this model carries, but allocated because the paper's
        // utilisation figures (§4.1) cover the full program including its
        // L2/L3 base (§3.1 "our switch data plane can perform packet
        // forwarding with the traditional L2/L3 routing module"). Nothing
        // reads it, so only its footprint is kept.
        MatchTable::<u64, PortId>::alloc(&mut layout, "MacT", STAGE_ROUTE, 65_536, 6, 2, 1)
            .expect(PIPE);
        let grp_t = DenseTable::alloc(&mut layout, "GrpT", STAGE_GRP, 65_536, 2, 4, 2).expect(PIPE);
        let state_t = RegisterArray::alloc(&mut layout, "StateT", STAGE_STATE, cfg.max_servers, 2)
            .expect(PIPE);
        let shadow_t =
            RegisterArray::alloc(&mut layout, "ShadowT", STAGE_SHADOW, cfg.max_servers, 2)
                .expect(PIPE);
        let addr_t =
            DenseTable::alloc(&mut layout, "AddrT", STAGE_ADDR, 4_096, 2, 6, 2).expect(PIPE);
        let filter_hash = HashUnit::alloc(
            &mut layout,
            "FilterHash",
            STAGE_HASH,
            4,
            cfg.filter_slots_log2 as u32,
        )
        .expect(PIPE);
        let filter_order = CrcSlotOrder::new(cfg.filter_slots_log2 as u32);
        let mpk_hash = HashUnit::alloc(&mut layout, "MpkHash", STAGE_MPK_HASH, 6, 32).expect(PIPE);
        let mpk_t = RegisterArray::alloc(&mut layout, "ClonedReqT", STAGE_MPK_TABLE, 1 << 12, 4)
            .expect(PIPE);
        let mut filters = Vec::with_capacity(cfg.num_filter_tables);
        for i in 0..cfg.num_filter_tables {
            let stage = STAGE_FILTER0 + i as u8;
            filters.push(
                RegisterArray::alloc(
                    &mut layout,
                    &format!("FilterT[{i}]"),
                    stage,
                    cfg.filter_slots(),
                    4,
                )
                .expect(PIPE),
            );
        }
        // Header-rewrite action logic (REQ_ID stamp, CLO marking, SID
        // carry): accounted as action-engine ALUs like the P4 compiler
        // would report them.
        layout
            .allocate(Allocation {
                name: "RewriteActions".into(),
                stage: STAGE_ADDR,
                kind: ResourceKind::ActionEngine,
                sram_bytes: 0,
                hash_bits: 0,
                alus: 3,
                crossbar_bytes: 0,
            })
            .expect(PIPE);
        NetCloneSwitch {
            cfg,
            layout,
            seq,
            grp_t,
            addr_t,
            state_t,
            shadow_t,
            filter_hash,
            filters,
            filter_order,
            route_t,
            mpk_hash,
            mpk_t,
            servers: Vec::new(),
            counters: SwitchCounters::default(),
        }
    }

    /// The program's configuration.
    pub fn config(&self) -> &NetCloneConfig {
        &self.cfg
    }

    /// The §4.1-style resource utilisation report.
    pub fn resource_report(&self) -> ResourceReport {
        self.layout.report("NetClone")
    }

    /// The ASIC spec the program is laid out on.
    pub fn spec(&self) -> &AsicSpec {
        self.layout.spec()
    }

    /// Control-plane peek at a tracked server state (diagnostics/tests).
    pub fn tracked_state(&self, sid: ServerId) -> Option<ServerState> {
        self.state_t.peek(sid as usize).map(ServerState)
    }

    /// Verifies the §3.4 invariant that the shadow table is a faithful copy
    /// of the state table ("the consistency … can be preserved since the
    /// switch always updates the tables at the same time").
    pub fn state_tables_consistent(&self) -> bool {
        (0..self.cfg.max_servers).all(|i| self.state_t.peek(i) == self.shadow_t.peek(i))
    }

    // ------------------------------------------------------------------
    // Packet processing
    // ------------------------------------------------------------------

    fn plain_route(&mut self, pkt: PacketMeta, out: &mut EmissionSink) {
        let mut pass = PacketPass::new();
        let port = self.route_t.lookup(&mut pass, pkt.dst_ip.0).expect(PIPE);
        match port {
            Some(port) => {
                self.counters.routed_plain += 1;
                out.push(Emission {
                    pkt,
                    port,
                    latency_ns: self.cfg.spec.pass_latency_ns,
                });
            }
            None => self.counters.dropped_unroutable += 1,
        }
    }

    /// True when the multi-rack gate says this switch should run NetClone
    /// logic on the packet (§3.7): unstamped, or stamped by us.
    fn gate_allows(&self, pkt: &PacketMeta) -> bool {
        pkt.nc.switch_id == 0 || pkt.nc.switch_id == self.cfg.switch_id
    }

    /// The recirculated-clone pass (Algorithm 1 lines 11–13): mark `CLO=2`,
    /// resolve the clone's destination from `SID`, forward.
    fn process_recirculated(
        &mut self,
        mut pkt: PacketMeta,
        base_latency_ns: u64,
        out: &mut EmissionSink,
    ) {
        let mut pass = PacketPass::new();
        pkt.nc.clo = CloneStatus::Clone;
        let dest = self.addr_t.lookup(&mut pass, pkt.nc.sid).expect(PIPE);
        match dest {
            Some((ip, port)) => {
                self.counters.recirculated += 1;
                pkt.dst_ip = Ipv4(ip);
                out.push(Emission {
                    pkt,
                    port,
                    latency_ns: base_latency_ns
                        + self.cfg.spec.recirc_latency_ns
                        + self.cfg.spec.pass_latency_ns,
                });
            }
            None => self.counters.dropped_unroutable += 1,
        }
    }

    /// Fresh-request pass (Algorithm 1 lines 1–10).
    fn process_request(&mut self, mut pkt: PacketMeta, out: &mut EmissionSink) {
        let mut pass = PacketPass::new();
        self.counters.requests += 1;

        // Stage 0: assign the request ID (lines 2–3). Under the TCP-safe
        // mode the ID derives from the client's Lamport tuple instead and
        // the sequence register is skipped by predication (§3.7).
        let req_id: ReqId = match self.cfg.req_id_mode {
            RequestIdMode::SwitchSequence => {
                let raw = self
                    .seq
                    .read_modify_write(&mut pass, 0, |v| v.wrapping_add(1))
                    .expect(PIPE)
                    .wrapping_add(1);
                // Avoid 0: it is the filter tables' empty-slot sentinel.
                if raw == 0 {
                    1
                } else {
                    raw
                }
            }
            RequestIdMode::ClientLamport => {
                let id = ((pkt.nc.client_id as u32) << 20) | (pkt.nc.client_seq & 0x000F_FFFF);
                if id == 0 {
                    1
                } else {
                    id
                }
            }
        };
        pkt.nc.req_id = req_id;
        // Stamp the multi-rack identity (§3.7).
        pkt.nc.switch_id = self.cfg.switch_id;

        // Stage 1: group → candidate pair (line 4).
        let Some((s1, s2)) = self.grp_t.lookup(&mut pass, pkt.nc.grp).expect(PIPE) else {
            self.counters.dropped_unroutable += 1;
            return;
        };

        // Stage 1: multi-packet message hash (CRC of the Lamport tuple),
        // needed only by the affinity table and so computed only when the
        // feature is on. The low bits index the affinity table; the full
        // (never-zero) value is the message tag.
        let mpk_full = self.cfg.multi_packet_enabled.then(|| {
            let mut data = [0u8; 6];
            data[..2].copy_from_slice(&pkt.nc.client_id.to_be_bytes());
            data[2..].copy_from_slice(&pkt.nc.client_seq.to_be_bytes());
            self.mpk_hash.hash(&mut pass, &data).expect(PIPE)
        });

        // Stages 2–3: the two tracked states — one from the state table,
        // one from its shadow (lines 6; the §3.4 workaround).
        let st1 = self.state_t.read(&mut pass, s1 as usize).expect(PIPE);
        let st2 = self.shadow_t.read(&mut pass, s2 as usize).expect(PIPE);
        let both_idle = self.cfg.clone_condition.allows(st1, st2);

        // Clients mark non-cloneable requests (writes, §5.5) by sending
        // STATE=1 in the request header; the field is otherwise unused on
        // the request path.
        let cloneable = pkt.nc.state.is_idle();

        // Stage 4: multi-packet affinity (§3.7). One RMW both queries the
        // table and (when this packet clones) installs the tag, so later
        // packets of the same message are cloned regardless of state.
        let clone_by_state = self.cfg.cloning_enabled && both_idle && cloneable;
        let forced = if let Some(mpk_full) = mpk_full {
            let mpk_tag = mpk_full | 1; // never zero: zero is the empty-slot sentinel
            let mpk_slot = (mpk_full & ((1 << 12) - 1)) as usize;
            let old = self
                .mpk_t
                .read_modify_write(&mut pass, mpk_slot, |cur| {
                    if clone_by_state {
                        mpk_tag
                    } else {
                        cur
                    }
                })
                .expect(PIPE);
            old == mpk_tag && self.cfg.cloning_enabled && cloneable
        } else {
            false
        };

        let do_clone = clone_by_state || forced;
        if forced && !clone_by_state {
            self.counters.clone_forced_multipacket += 1;
        }

        if do_clone {
            // Lines 7–9: mark as cloned original, remember the clone's
            // destination in SID, multicast (egress + recirculation).
            self.counters.cloned += 1;
            pkt.nc.clo = CloneStatus::ClonedOriginal;
            pkt.nc.sid = s2;
            let Some((ip1, port1)) = self.addr_t.lookup(&mut pass, s1).expect(PIPE) else {
                self.counters.dropped_unroutable += 1;
                return;
            };
            pkt.dst_ip = Ipv4(ip1);
            out.push(Emission {
                pkt,
                port: port1,
                latency_ns: self.cfg.spec.pass_latency_ns,
            });
            // The multicast copy re-enters through the loopback port and
            // completes on a second pass (lines 11–13).
            self.process_recirculated(pkt, self.cfg.spec.pass_latency_ns, out);
        } else {
            if self.cfg.cloning_enabled {
                if !cloneable {
                    self.counters.clone_skipped_uncloneable += 1;
                } else {
                    self.counters.clone_skipped_busy += 1;
                }
            }
            // Destination selection: base design forwards to Srv1; the
            // RackSched integration joins the shorter queue (§3.7).
            let dst = match self.cfg.scheduling {
                Scheduling::Random => s1,
                Scheduling::RackSched => {
                    if st2 < st1 {
                        self.counters.jsq_fallbacks += 1;
                        s2
                    } else {
                        s1
                    }
                }
            };
            pkt.nc.clo = CloneStatus::NotCloned;
            let Some((ip, port)) = self.addr_t.lookup(&mut pass, dst).expect(PIPE) else {
                self.counters.dropped_unroutable += 1;
                return;
            };
            pkt.dst_ip = Ipv4(ip);
            out.push(Emission {
                pkt,
                port,
                latency_ns: self.cfg.spec.pass_latency_ns,
            });
        }
    }

    /// Response pass (Algorithm 1 lines 14–26).
    fn process_response(&mut self, pkt: PacketMeta, out: &mut EmissionSink) {
        let mut pass = PacketPass::new();
        self.counters.responses += 1;

        // Stage 0: egress port toward the client.
        let Some(port) = self.route_t.lookup(&mut pass, pkt.dst_ip.0).expect(PIPE) else {
            self.counters.dropped_unroutable += 1;
            return;
        };

        // Stages 2–3: update both state tables with the piggybacked state
        // (lines 15–16) — always, so the switch tracks the latest state.
        let sid = pkt.nc.sid as usize;
        if sid < self.cfg.max_servers {
            self.state_t
                .write(&mut pass, sid, pkt.nc.state.0)
                .expect(PIPE);
            self.shadow_t
                .write(&mut pass, sid, pkt.nc.state.0)
                .expect(PIPE);
        }

        // Lines 17–25: the filter engages only for cloned requests.
        if pkt.nc.clo.was_cloned() && self.cfg.filtering_enabled {
            // Stage 4: slot index = CRC(REQ_ID) (line 18), stored at its
            // physical index in the filter arrays.
            let h = self
                .filter_hash
                .hash(&mut pass, &pkt.nc.req_id.to_be_bytes())
                .expect(PIPE);
            let slot = self.filter_order.physical(h) as usize;
            // The client-chosen IDX picks the *table* (§3.5).
            let t = (pkt.nc.idx as usize) % self.filters.len();
            let req_id = pkt.nc.req_id;
            // One RMW performs the whole protocol: if the slot holds our
            // ID we are the slower response → clear and drop (lines
            // 19–21); otherwise install our fingerprint, overwriting
            // whatever was there (lines 22–23; overwrites are allowed to
            // survive collisions and lost responses).
            let old = self.filters[t]
                .read_modify_write(
                    &mut pass,
                    slot,
                    |cur| if cur == req_id { 0 } else { req_id },
                )
                .expect(PIPE);
            if old == req_id {
                self.counters.responses_filtered += 1;
                return; // Drop(pkt)
            }
            if old != 0 {
                self.counters.filter_overwrites += 1;
            }
        }

        out.push(Emission {
            pkt,
            port,
            latency_ns: self.cfg.spec.pass_latency_ns,
        });
    }
}

impl SwitchEngine for NetCloneSwitch {
    fn name(&self) -> &'static str {
        "NetClone"
    }

    fn process(&mut self, pkt: PacketMeta, ingress: PortId, _now_ns: u64, out: &mut EmissionSink) {
        // §3.2: the reserved L4 port selects NetClone processing.
        if !pkt.is_netclone() {
            return self.plain_route(pkt, out);
        }
        match pkt.nc.msg_type {
            MsgType::Req => {
                // The recirculated clone: CLO=1 arriving on the loopback
                // port (lines 11–13).
                if pkt.nc.clo == CloneStatus::ClonedOriginal && ingress == self.cfg.recirc_port {
                    return self.process_recirculated(pkt, 0, out);
                }
                // Multi-rack gate (§3.7): only the client-side ToR clones.
                if !self.gate_allows(&pkt) {
                    return self.plain_route(pkt, out);
                }
                self.process_request(pkt, out)
            }
            MsgType::Resp => {
                if !self.gate_allows(&pkt) {
                    return self.plain_route(pkt, out);
                }
                self.process_response(pkt, out)
            }
        }
    }

    /// §3.6 "Switch failures": soft state (sequence number, server states,
    /// filter fingerprints, multi-packet tags) is lost on a power cycle;
    /// match-action tables are reinstalled by the control plane and are
    /// retained here.
    fn reset_soft_state(&mut self) {
        self.seq.reset();
        self.state_t.reset();
        self.shadow_t.reset();
        for f in &mut self.filters {
            f.reset();
        }
        self.mpk_t.reset();
    }

    fn counters(&self) -> SwitchCounters {
        self.counters
    }

    fn num_groups(&self) -> u16 {
        self.grp_t.len() as u16
    }

    /// Installs the server's address/port and rebuilds the group table
    /// over the new server set.
    fn register_server(
        &mut self,
        sid: ServerId,
        ip: Ipv4,
        port: PortId,
    ) -> Result<(), EngineError> {
        if sid as usize >= self.cfg.max_servers {
            return Err(EngineError::SidOutOfRange {
                sid,
                max: self.cfg.max_servers,
            });
        }
        if self.servers.contains(&sid) {
            return Err(EngineError::DuplicateSid(sid));
        }
        self.addr_t
            .insert(sid, (ip.0, port))
            .map_err(EngineError::Table)?;
        self.route_t
            .insert(ip.0, port)
            .map_err(EngineError::Table)?;
        self.servers.push(sid);
        // Groups are the ordered 2-permutations of the server set (§3.3).
        self.install_custom_groups(&build_groups(&self.servers))?;
        // A fresh (or recovered) server starts tracked-idle; its first
        // response corrects this if wrong.
        self.state_t.poke(sid as usize, 0);
        self.shadow_t.poke(sid as usize, 0);
        Ok(())
    }

    /// §3.6 "Server failures": removes a failed server from every relevant
    /// table so no new requests (cloned or not) are steered to it.
    fn deregister_server(&mut self, sid: ServerId) -> Result<(), EngineError> {
        let Some(pos) = self.servers.iter().position(|&s| s == sid) else {
            return Err(EngineError::UnknownSid(sid));
        };
        self.servers.remove(pos);
        self.addr_t.remove(sid);
        self.install_custom_groups(&build_groups(&self.servers))
    }

    fn register_route(&mut self, ip: Ipv4, port: PortId) -> Result<(), EngineError> {
        self.route_t.insert(ip.0, port).map_err(EngineError::Table)
    }

    /// Replaces the group table with an explicit pair list, group ID =
    /// list position (ablation support: e.g. unordered C(n,2) groups to
    /// demonstrate why the paper doubles them, §3.3).
    fn install_custom_groups(&mut self, pairs: &[(ServerId, ServerId)]) -> Result<(), EngineError> {
        self.grp_t.clear();
        for (gid, &pair) in pairs.iter().enumerate() {
            self.grp_t
                .insert(gid as u16, pair)
                .map_err(EngineError::Table)?;
        }
        Ok(())
    }
}
