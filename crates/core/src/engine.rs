//! The [`SwitchEngine`] trait: the single control-plane + data-plane
//! contract every switch program implements and every frontend drives.
//!
//! It covers the packet path (process, soft-state reset) and the
//! operations a *deployment* needs — endpoint registration, failure
//! handling, group management, and counter observation — so the
//! discrete-event simulator (`netclone-cluster`), the real-socket soft
//! switch (`netclone-net`), and any future frontend all hold a
//! `Box<dyn SwitchEngine>` and execute the identical program. There is
//! exactly one implementation of the NetClone algorithm
//! ([`NetCloneSwitch`](crate::NetCloneSwitch)); the compared schemes
//! implement the same trait (see `netclone-policies`), so swapping schemes
//! is swapping engines, never re-implementing dispatch.
//!
//! Not every engine supports every control operation: a plain L3 fabric
//! has no group table. Such operations return
//! [`EngineError::Unsupported`] instead of being compiled into per-scheme
//! `match` arms at every call site.

use netclone_asic::{AsicError, EmissionSink, PortId};
use netclone_proto::{Ipv4, PacketMeta, ServerId};

use crate::counters::SwitchCounters;

/// Errors returned by [`SwitchEngine`] control-plane operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The server ID is outside the state tables' static range.
    SidOutOfRange {
        /// The offending server ID.
        sid: ServerId,
        /// Size of the state tables.
        max: usize,
    },
    /// The server ID is already registered.
    DuplicateSid(ServerId),
    /// The server ID is not registered.
    UnknownSid(ServerId),
    /// A table rejected the update (capacity).
    Table(AsicError),
    /// This engine does not implement the operation (e.g. group
    /// installation on a plain L3 switch).
    Unsupported {
        /// The operation that was requested.
        op: &'static str,
        /// The engine that rejected it ([`SwitchEngine::name`]).
        engine: &'static str,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::SidOutOfRange { sid, max } => {
                write!(f, "server id {sid} out of range (max {max})")
            }
            EngineError::DuplicateSid(s) => write!(f, "server id {s} already registered"),
            EngineError::UnknownSid(s) => write!(f, "server id {s} not registered"),
            EngineError::Table(e) => write!(f, "table update failed: {e}"),
            EngineError::Unsupported { op, engine } => {
                write!(f, "engine {engine} does not support {op}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// A complete switch program: data plane plus control plane.
///
/// `Send` is required because the soft switch runs its engine on a
/// forwarding thread.
pub trait SwitchEngine: Send {
    /// Short program name (diagnostics and reports).
    fn name(&self) -> &'static str;

    /// Processes one ingress packet, appending everything that egresses
    /// to `out` (see [`netclone_asic::dataplane`] for the sink contract).
    ///
    /// Appending nothing means the packet was dropped (e.g. a filtered
    /// redundant response, or no route).
    fn process(&mut self, pkt: PacketMeta, ingress: PortId, now_ns: u64, out: &mut EmissionSink);

    /// Convenience for tests and diagnostics: processes one packet into a
    /// fresh sink and returns it. Hot paths hold a reusable sink and call
    /// [`SwitchEngine::process`] instead — this allocates per call.
    fn process_collected(&mut self, pkt: PacketMeta, ingress: PortId, now_ns: u64) -> EmissionSink {
        let mut out = EmissionSink::new();
        self.process(pkt, ingress, now_ns, &mut out);
        out
    }

    /// Clears all *soft* state (server states, sequence numbers, filter
    /// fingerprints) as a power cycle would (§3.6 "Switch failures").
    /// Match-action table entries survive: the control plane reinstalls
    /// them on recovery.
    fn reset_soft_state(&mut self) {}

    /// Snapshot of the data-plane counters.
    fn counters(&self) -> SwitchCounters {
        SwitchCounters::default()
    }

    /// Number of installed clone groups (clients draw `GRP` uniformly
    /// from `0..num_groups`). Engines without a group table report 0.
    fn num_groups(&self) -> u16 {
        0
    }

    /// Registers a worker server: its virtual address and egress port.
    fn register_server(&mut self, sid: ServerId, ip: Ipv4, port: PortId)
        -> Result<(), EngineError>;

    /// Removes a failed server so no new requests are steered to it
    /// (§3.6 "Server failures").
    fn deregister_server(&mut self, sid: ServerId) -> Result<(), EngineError> {
        let _ = sid;
        Err(EngineError::Unsupported {
            op: "deregister_server",
            engine: self.name(),
        })
    }

    /// Installs a plain L3 route: a client or coordinator host, or a
    /// remote endpoint via an inter-switch port.
    fn register_route(&mut self, ip: Ipv4, port: PortId) -> Result<(), EngineError>;

    /// Replaces the group table with an explicit pair list (ablations).
    fn install_custom_groups(&mut self, pairs: &[(ServerId, ServerId)]) -> Result<(), EngineError> {
        let _ = pairs;
        Err(EngineError::Unsupported {
            op: "install_custom_groups",
            engine: self.name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetCloneConfig;
    use crate::program::NetCloneSwitch;
    use netclone_proto::NetCloneHdr;

    #[test]
    fn netclone_switch_works_as_a_boxed_engine() {
        let mut engine: Box<dyn SwitchEngine> =
            Box::new(NetCloneSwitch::new(NetCloneConfig::default()));
        for sid in 0..2u16 {
            engine
                .register_server(sid, Ipv4::server(sid), 10 + sid)
                .unwrap();
        }
        engine.register_route(Ipv4::client(0), 100).unwrap();
        assert_eq!(engine.num_groups(), 2);

        let req =
            PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(0, 0, 0, 0), 84);
        let out = engine.process_collected(req, 100, 0);
        assert_eq!(out.len(), 2, "both candidates idle: cloned via the trait");
        assert_eq!(engine.counters().cloned, 1);

        engine.reset_soft_state();
        engine.deregister_server(1).unwrap();
        assert_eq!(engine.num_groups(), 0, "one server left: no pairs");
    }

    #[test]
    fn custom_groups_install_through_the_trait() {
        let mut engine: Box<dyn SwitchEngine> =
            Box::new(NetCloneSwitch::new(NetCloneConfig::default()));
        for sid in 0..3u16 {
            engine
                .register_server(sid, Ipv4::server(sid), 10 + sid)
                .unwrap();
        }
        engine.install_custom_groups(&[(0, 1), (1, 2)]).unwrap();
        assert_eq!(engine.num_groups(), 2);
    }

    #[test]
    fn engine_error_display() {
        let e = EngineError::Unsupported {
            op: "install_custom_groups",
            engine: "PlainL3",
        };
        assert!(e.to_string().contains("PlainL3"));
        let c = EngineError::UnknownSid(7);
        assert!(c.to_string().contains('7'));
    }
}
