//! What a switch program emits, and the buffer it emits into: the
//! packet-path types of the switch contract, `netclone_core::SwitchEngine`,
//! which every program implements and every frontend (the discrete-event
//! simulator, the real-socket soft switch) drives.
//!
//! `SwitchEngine::process` receives one parsed packet plus its ingress
//! port and appends the packets to emit — each with an egress port and
//! the processing latency it accrued inside the switch (pipeline passes +
//! any recirculations; replication and recirculation are internal to the
//! program, so callers only ever see final emissions) — into a
//! caller-provided [`EmissionSink`].
//!
//! ## The `EmissionSink` contract
//!
//! The sink is a reusable buffer owned by the *caller* (the simulator
//! holds exactly one per run; the soft switch one per forwarding thread),
//! so the per-packet path performs no heap allocation in steady state:
//!
//! * `SwitchEngine::process` only **appends**; it never reads, clears, or
//!   reorders existing contents. Callers normally hand in an empty sink
//!   and drain it in place afterwards.
//! * A program emits at most a handful of packets per ingress packet
//!   (cloning produces two), so the sink's initial capacity of
//!   [`EmissionSink::INLINE_CAPACITY`] never grows in steady state.
//! * Emission **order is part of the program's behaviour** (the original
//!   egresses before its recirculated clone) and must be deterministic —
//!   the DES frontend schedules emissions in sink order.
//! * Programs must not retain the sink across calls (the `&mut` borrow
//!   enforces this), so `process` is trivially reentrant per program.

use netclone_proto::PacketMeta;

/// A switch port number.
pub type PortId = u16;

/// One packet leaving the switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Emission {
    /// The (possibly rewritten) packet.
    pub pkt: PacketMeta,
    /// Egress port.
    pub port: PortId,
    /// Total in-switch latency accrued by this packet, ns.
    pub latency_ns: u64,
}

/// A reusable, caller-owned buffer of [`Emission`]s (see the module docs
/// for the ownership and reentrancy contract).
///
/// Backed by a `Vec` whose capacity is retained across
/// [`EmissionSink::clear`]/[`EmissionSink::drain`], so a long-lived sink
/// allocates exactly once. Dereferences to `[Emission]` for inspection.
#[derive(Clone, Debug, Default)]
pub struct EmissionSink {
    buf: Vec<Emission>,
}

impl EmissionSink {
    /// Initial capacity: enough for every program in the workspace
    /// (cloning emits two packets; nothing emits more than a handful).
    pub const INLINE_CAPACITY: usize = 8;

    /// Creates an empty sink with the default capacity pre-allocated.
    pub fn new() -> Self {
        EmissionSink {
            buf: Vec::with_capacity(Self::INLINE_CAPACITY),
        }
    }

    /// Appends one emission.
    #[inline]
    pub fn push(&mut self, e: Emission) {
        self.buf.push(e);
    }

    /// Removes all emissions, keeping the allocated capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Drains the buffered emissions front-to-back, keeping the allocated
    /// capacity for reuse.
    #[inline]
    pub fn drain(&mut self) -> std::vec::Drain<'_, Emission> {
        self.buf.drain(..)
    }
}

impl std::ops::Deref for EmissionSink {
    type Target = [Emission];
    #[inline]
    fn deref(&self) -> &[Emission] {
        &self.buf
    }
}

impl std::ops::DerefMut for EmissionSink {
    #[inline]
    fn deref_mut(&mut self) -> &mut [Emission] {
        &mut self.buf
    }
}

impl IntoIterator for EmissionSink {
    type Item = Emission;
    type IntoIter = std::vec::IntoIter<Emission>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter()
    }
}

impl<'a> IntoIterator for &'a EmissionSink {
    type Item = &'a Emission;
    type IntoIter = std::slice::Iter<'a, Emission>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclone_proto::{Ipv4, NetCloneHdr};

    #[test]
    fn sink_appends_and_reuses_capacity() {
        let pkt =
            PacketMeta::netclone_request(Ipv4::client(0), NetCloneHdr::request(0, 0, 0, 0), 64);
        let e = Emission {
            pkt,
            port: 0,
            latency_ns: 100,
        };
        let mut sink = EmissionSink::new();
        let cap_before = sink.buf.capacity();
        assert_eq!(cap_before, EmissionSink::INLINE_CAPACITY);

        // push() appends without clearing prior contents.
        sink.push(e);
        sink.push(e);
        assert_eq!(sink.len(), 2);

        // Draining and clearing keep the allocation: the steady state
        // never reallocates.
        assert_eq!(sink.drain().count(), 2);
        assert!(sink.is_empty());
        assert_eq!(sink.buf.capacity(), cap_before, "drain freed the buffer");
        sink.push(e);
        assert_eq!(sink.len(), 1);
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.buf.capacity(), cap_before, "clear freed the buffer");
    }
}
