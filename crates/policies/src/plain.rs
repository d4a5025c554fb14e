//! A plain L3 switch: route on destination IP, nothing else. This is the
//! fabric under the Baseline and C-Clone schemes — all intelligence lives
//! in the clients.

use netclone_asic::{AsicSpec, Emission, EmissionSink, Layout, MatchTable, PacketPass, PortId};
use netclone_core::{EngineError, SwitchCounters, SwitchEngine};
use netclone_proto::{Ipv4, PacketMeta, ServerId};

/// Route-only data plane.
pub struct PlainL3Switch {
    layout: Layout,
    route_t: MatchTable<u32, PortId>,
    /// Only `routed_plain` and `dropped_unroutable` ever move: every
    /// cloning/filtering counter stays 0, which is exactly what a
    /// route-only switch reports.
    counters: SwitchCounters,
}

impl PlainL3Switch {
    /// Builds an empty switch on the given ASIC.
    pub fn new(spec: AsicSpec) -> Self {
        let mut layout = Layout::new(spec);
        let route_t = MatchTable::alloc(&mut layout, "RouteT", 0, 65_536, 4, 2, 1)
            .expect("route table must fit an empty ASIC");
        PlainL3Switch {
            layout,
            route_t,
            counters: SwitchCounters::default(),
        }
    }

    /// Resource report (for comparison against NetClone's §4.1 numbers).
    pub fn resource_report(&self) -> netclone_asic::ResourceReport {
        self.layout.report("PlainL3")
    }
}

impl SwitchEngine for PlainL3Switch {
    fn name(&self) -> &'static str {
        "PlainL3"
    }

    fn process(&mut self, pkt: PacketMeta, _ingress: PortId, _now_ns: u64, out: &mut EmissionSink) {
        let mut pass = PacketPass::new();
        match self
            .route_t
            .lookup(&mut pass, pkt.dst_ip.0)
            .expect("single lookup per pass")
        {
            Some(port) => {
                self.counters.routed_plain += 1;
                out.push(Emission {
                    pkt,
                    port,
                    latency_ns: self.layout.spec().pass_latency_ns,
                });
            }
            None => self.counters.dropped_unroutable += 1,
        }
    }

    fn counters(&self) -> SwitchCounters {
        self.counters
    }

    /// A plain switch has no server table — registration is just a route.
    fn register_server(
        &mut self,
        _sid: ServerId,
        ip: Ipv4,
        port: PortId,
    ) -> Result<(), EngineError> {
        self.register_route(ip, port)
    }

    fn register_route(&mut self, ip: Ipv4, port: PortId) -> Result<(), EngineError> {
        self.route_t.insert(ip.0, port).map_err(EngineError::Table)
    }

    // `deregister_server` and `install_custom_groups` keep the default
    // `Unsupported` answer: the plain fabric has no server/group tables,
    // and under the client-side schemes failure handling lives in the
    // clients (they stop addressing the dead server).
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclone_proto::NetCloneHdr;

    #[test]
    fn routes_by_destination() {
        let mut sw = PlainL3Switch::new(AsicSpec::tofino());
        sw.register_route(Ipv4::server(0), 10).unwrap();
        sw.register_route(Ipv4::client(0), 2).unwrap();
        let mut pkt =
            PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(0, 0, 0, 0), 84);
        pkt.dst_ip = Ipv4::server(0);
        let out = sw.process_collected(pkt, 2, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, 10);
        // Header is untouched: no request IDs, no cloning.
        assert_eq!(out[0].pkt.nc.req_id, 0);
        assert_eq!(sw.counters().routed_plain, 1);
    }

    #[test]
    fn unrouted_packets_drop() {
        let mut sw = PlainL3Switch::new(AsicSpec::tofino());
        let mut pkt =
            PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(0, 0, 0, 0), 84);
        pkt.dst_ip = Ipv4::new(198, 18, 0, 1);
        assert!(sw.process_collected(pkt, 2, 0).is_empty());
        assert_eq!(sw.counters().dropped_unroutable, 1);
    }

    #[test]
    fn works_as_a_boxed_engine() {
        let mut engine: Box<dyn SwitchEngine> = Box::new(PlainL3Switch::new(AsicSpec::tofino()));
        assert_eq!(engine.name(), "PlainL3");
        engine.register_server(0, Ipv4::server(0), 10).unwrap();
        let mut pkt =
            PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(0, 0, 0, 0), 84);
        pkt.dst_ip = Ipv4::server(0);
        let out = engine.process_collected(pkt, 2, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, 10, "register_server installed a route");
        assert_eq!(out[0].latency_ns, AsicSpec::tofino().pass_latency_ns);
        pkt.dst_ip = Ipv4::server(1);
        assert!(engine.process_collected(pkt, 2, 0).is_empty());
        let c = engine.counters();
        assert_eq!((c.routed_plain, c.dropped_unroutable), (1, 1));
        engine.reset_soft_state(); // the default no-op must be callable
        let unsupported = |op| {
            Err(EngineError::Unsupported {
                op,
                engine: "PlainL3",
            })
        };
        let removed = engine.deregister_server(0);
        assert_eq!(removed, unsupported("deregister_server"));
        let groups = engine.install_custom_groups(&[(0, 1)]);
        assert_eq!(groups, unsupported("install_custom_groups"));
    }

    #[test]
    fn uses_far_less_sram_than_netclone() {
        let plain = PlainL3Switch::new(AsicSpec::tofino()).resource_report();
        let nc =
            netclone_core::NetCloneSwitch::new(netclone_core::NetCloneConfig::paper_prototype())
                .resource_report();
        assert!(plain.sram_pct < nc.sram_pct);
        assert!(plain.stages_used < nc.stages_used);
    }
}
