//! # netclone-linksim
//!
//! A congestion-aware link model for the deterministic DES: every link
//! has a configurable bandwidth (serialization delay derived from the
//! on-wire packet size carried by [`netclone_proto::PacketMeta`]), a
//! bounded FIFO queue with tail-drop, an ECN mark threshold, and
//! per-link forward/drop/mark counters.
//!
//! ## The busy-until discipline
//!
//! A [`Link`] does not queue packet objects: because service is FIFO at a
//! fixed rate, the queue is fully described by one number — the time the
//! transmitter goes idle (`busy_until`). Offering a packet at `now`:
//!
//! * the backlog is `busy_until - now` of serialization time, converted
//!   back to bytes at the link rate;
//! * if the backlog plus the packet would exceed the queue capacity, the
//!   packet is **tail-dropped** (counted, no state change);
//! * otherwise the packet departs at `max(busy_until, now) + ser(bytes)`
//!   and `busy_until` advances to that departure — and if the backlog at
//!   enqueue was already past the ECN threshold, the packet is marked.
//!
//! All arithmetic is integer (picoseconds per byte, fixed at
//! construction), so a link is a pure deterministic function of its
//! offer sequence — the property the sharded event loop's bit-identity
//! proof needs: a link is only ever touched from its owning rack's
//! event domain, whose execution order is shard-count-invariant.
//!
//! The propagation delay of the wire is *not* modeled here — it stays
//! with the caller (the simulator's calibrated one-way latencies), so a
//! zero-length queue degenerates to the pre-linksim fixed-latency hop.

/// Outcome of offering one packet to a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The packet was enqueued; serialization completes at `depart_ns`.
    Forward {
        /// When the last bit leaves the transmitter (propagation delay is
        /// the caller's).
        depart_ns: u64,
        /// The backlog at enqueue exceeded the ECN threshold.
        ecn_marked: bool,
    },
    /// The bounded queue was full: tail-drop.
    Drop,
}

/// Monotonic per-link counters. `offered == forwarded + dropped` by
/// construction — the conservation invariant the proptests pin.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Packets offered to the link.
    pub offered: u64,
    /// Packets accepted (serialized and departed).
    pub forwarded: u64,
    /// Packets tail-dropped at the bounded queue.
    pub dropped: u64,
    /// Forwarded packets that were ECN-marked at enqueue.
    pub ecn_marked: u64,
}

impl LinkCounters {
    /// Field-wise accumulation (for fabric-wide totals).
    pub fn add(&mut self, other: &LinkCounters) {
        self.offered += other.offered;
        self.forwarded += other.forwarded;
        self.dropped += other.dropped;
        self.ecn_marked += other.ecn_marked;
    }
}

/// One unidirectional link: a rate, a bounded FIFO queue, and counters.
#[derive(Clone, Debug)]
pub struct Link {
    /// Serialization cost, picoseconds per byte (≥ 1; fixed at build so
    /// the hot path is pure integer arithmetic).
    ps_per_byte: u64,
    /// Queue capacity in bytes; an arriving packet that would push the
    /// backlog past this is dropped.
    queue_bytes: u64,
    /// ECN mark threshold in bytes (0 disables marking).
    ecn_bytes: u64,
    /// Rate-collapse multiplier for link-flap fault injection: the
    /// effective serialization cost is `ps_per_byte * degrade` (≥ 1, so a
    /// healthy link pays no arithmetic it did not already pay).
    degrade: u64,
    /// When the transmitter goes idle.
    busy_until_ns: u64,
    counters: LinkCounters,
}

impl Link {
    /// A link of `gbps` gigabits/second with a `queue_bytes`-byte queue
    /// and an ECN threshold (`0` disables marking).
    pub fn new(gbps: f64, queue_bytes: u32, ecn_threshold_bytes: u32) -> Self {
        assert!(gbps > 0.0, "a link needs positive bandwidth");
        // 1 byte at G gbit/s takes 8/G ns = 8000/G ps.
        let ps_per_byte = ((8_000.0 / gbps).round() as u64).max(1);
        Link {
            ps_per_byte,
            queue_bytes: u64::from(queue_bytes),
            ecn_bytes: u64::from(ecn_threshold_bytes),
            degrade: 1,
            busy_until_ns: 0,
            counters: LinkCounters::default(),
        }
    }

    /// Sets the link-flap degradation multiplier: `factor` > 1 collapses
    /// the effective rate to `1/factor` of nominal (queued backlog keeps
    /// its departure schedule; only packets offered after the edge pay the
    /// degraded rate). `factor ≤ 1` restores the nominal rate. Integer, so
    /// a flap is as deterministic as the link itself.
    #[inline]
    pub fn set_degradation(&mut self, factor: u64) {
        self.degrade = factor.max(1);
    }

    /// The current degradation multiplier (1 = healthy).
    #[inline]
    pub fn degradation(&self) -> u64 {
        self.degrade
    }

    /// The effective serialization cost under the current degradation.
    #[inline]
    fn effective_ps_per_byte(&self) -> u64 {
        self.ps_per_byte * self.degrade
    }

    /// Serialization delay of `bytes` on this link, ns (rounded up).
    #[inline]
    pub fn serialization_ns(&self, bytes: u32) -> u64 {
        (u64::from(bytes) * self.effective_ps_per_byte()).div_ceil(1_000)
    }

    /// Bytes queued ahead of a packet arriving at `now_ns` (the backlog
    /// the bounded queue and the ECN threshold are compared against).
    #[inline]
    pub fn queued_bytes(&self, now_ns: u64) -> u64 {
        let backlog_ns = self.busy_until_ns.saturating_sub(now_ns);
        backlog_ns * 1_000 / self.effective_ps_per_byte()
    }

    /// Offers a `wire_bytes`-byte packet at `now_ns`.
    #[inline]
    pub fn offer(&mut self, now_ns: u64, wire_bytes: u32) -> Verdict {
        self.counters.offered += 1;
        let backlog = self.queued_bytes(now_ns);
        if backlog + u64::from(wire_bytes) > self.queue_bytes {
            self.counters.dropped += 1;
            return Verdict::Drop;
        }
        let ecn_marked = self.ecn_bytes > 0 && backlog >= self.ecn_bytes;
        let depart_ns = self.busy_until_ns.max(now_ns) + self.serialization_ns(wire_bytes);
        self.busy_until_ns = depart_ns;
        self.counters.forwarded += 1;
        if ecn_marked {
            self.counters.ecn_marked += 1;
        }
        Verdict::Forward {
            depart_ns,
            ecn_marked,
        }
    }

    /// Counter snapshot.
    #[inline]
    pub fn counters(&self) -> LinkCounters {
        self.counters
    }
}

/// The link configuration of one fabric: edge (host↔leaf) and fabric
/// (leaf↔upper-tier) rates plus the shared queue shape.
///
/// [`LinkSpec::oversubscribed`] derives the fabric rate from a target
/// oversubscription ratio under the canonical k-ary fat-tree host count
/// (`k/2` hosts per leaf, `k/2` uplinks): *uplink = edge / ratio*.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Host access-link bandwidth, Gbit/s.
    pub edge_gbps: f64,
    /// Per-uplink fabric bandwidth, Gbit/s.
    pub fabric_gbps: f64,
    /// Per-link queue capacity, bytes.
    pub queue_bytes: u32,
    /// Per-link ECN mark threshold, bytes (0 disables marking).
    pub ecn_threshold_bytes: u32,
}

impl LinkSpec {
    /// A non-blocking fabric: every link at `gbps`.
    pub fn flat(gbps: f64, queue_bytes: u32) -> Self {
        LinkSpec {
            edge_gbps: gbps,
            fabric_gbps: gbps,
            queue_bytes,
            ecn_threshold_bytes: queue_bytes / 3,
        }
    }

    /// Fabric links scaled for an `oversub`:1 leaf oversubscription ratio
    /// (canonical k-ary shape: uplink rate = edge rate / ratio; 1.0 is
    /// non-blocking).
    pub fn oversubscribed(edge_gbps: f64, oversub: f64, queue_bytes: u32) -> Self {
        assert!(oversub >= 1.0, "oversubscription ratio is ≥ 1");
        LinkSpec {
            edge_gbps,
            fabric_gbps: edge_gbps / oversub,
            queue_bytes,
            ecn_threshold_bytes: queue_bytes / 3,
        }
    }

    /// Builds one host access link.
    pub fn edge_link(&self) -> Link {
        Link::new(self.edge_gbps, self.queue_bytes, self.ecn_threshold_bytes)
    }

    /// Builds one leaf↔upper-tier fabric link.
    pub fn fabric_link(&self) -> Link {
        Link::new(self.fabric_gbps, self.queue_bytes, self.ecn_threshold_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_matches_rate() {
        let l = Link::new(100.0, 1 << 20, 0);
        // 100 Gb/s = 80 ps/byte: 1500 B = 120_000 ps = 120 ns.
        assert_eq!(l.serialization_ns(1_500), 120);
        // Rounds up: 84 B = 6_720 ps → 7 ns.
        assert_eq!(l.serialization_ns(84), 7);
        let slow = Link::new(1.0, 1 << 20, 0);
        assert_eq!(slow.serialization_ns(1_500), 12_000);
    }

    #[test]
    fn idle_link_departs_after_serialization_only() {
        let mut l = Link::new(10.0, 1 << 20, 0);
        match l.offer(1_000, 1_000) {
            Verdict::Forward {
                depart_ns,
                ecn_marked,
            } => {
                assert_eq!(depart_ns, 1_000 + 800);
                assert!(!ecn_marked);
            }
            Verdict::Drop => panic!("idle link dropped"),
        }
        assert_eq!(l.counters().forwarded, 1);
    }

    #[test]
    fn backlog_accumulates_and_drains() {
        let mut l = Link::new(10.0, 10_000, 0);
        // Three back-to-back 1000 B packets at t=0: 800 ns each, FIFO.
        let d: Vec<u64> = (0..3)
            .map(|_| match l.offer(0, 1_000) {
                Verdict::Forward { depart_ns, .. } => depart_ns,
                Verdict::Drop => panic!("under capacity"),
            })
            .collect();
        assert_eq!(d, vec![800, 1_600, 2_400]);
        assert_eq!(l.queued_bytes(0), 3_000);
        assert_eq!(l.queued_bytes(800), 2_000);
        assert_eq!(l.queued_bytes(2_400), 0);
        // After the drain the link is idle again.
        match l.offer(5_000, 1_000) {
            Verdict::Forward { depart_ns, .. } => assert_eq!(depart_ns, 5_800),
            Verdict::Drop => panic!("idle link dropped"),
        }
    }

    #[test]
    fn bounded_queue_tail_drops() {
        let mut l = Link::new(10.0, 2_500, 0);
        assert!(matches!(l.offer(0, 1_000), Verdict::Forward { .. }));
        assert!(matches!(l.offer(0, 1_000), Verdict::Forward { .. }));
        // Backlog is 2000 B; a third 1000 B packet would exceed 2500.
        assert_eq!(l.offer(0, 1_000), Verdict::Drop);
        let c = l.counters();
        assert_eq!((c.offered, c.forwarded, c.dropped), (3, 2, 1));
        // A drop leaves the schedule untouched: the queue drains and the
        // link accepts again.
        assert!(matches!(l.offer(900, 1_000), Verdict::Forward { .. }));
    }

    #[test]
    fn ecn_marks_past_threshold() {
        let mut l = Link::new(10.0, 10_000, 1_500);
        let marked = |v: Verdict| match v {
            Verdict::Forward { ecn_marked, .. } => ecn_marked,
            Verdict::Drop => panic!("under capacity"),
        };
        assert!(!marked(l.offer(0, 1_000))); // backlog 0
        assert!(!marked(l.offer(0, 1_000))); // backlog 1000 < 1500
        assert!(marked(l.offer(0, 1_000))); // backlog 2000 ≥ 1500
        assert_eq!(l.counters().ecn_marked, 1);
        // Marking disabled at threshold 0.
        let mut off = Link::new(10.0, 10_000, 0);
        off.offer(0, 1_000);
        assert!(!marked(off.offer(0, 1_000)));
        assert_eq!(off.counters().ecn_marked, 0);
    }

    #[test]
    fn degradation_collapses_and_restores_the_rate() {
        let mut l = Link::new(10.0, 1 << 20, 0);
        assert_eq!(l.serialization_ns(1_000), 800);
        l.set_degradation(10);
        assert_eq!(l.degradation(), 10);
        assert_eq!(l.serialization_ns(1_000), 8_000);
        match l.offer(0, 1_000) {
            Verdict::Forward { depart_ns, .. } => assert_eq!(depart_ns, 8_000),
            Verdict::Drop => panic!("idle link dropped"),
        }
        // Restoring (any factor ≤ 1 clamps to 1) brings back the nominal
        // rate; the in-flight schedule is untouched.
        l.set_degradation(0);
        assert_eq!(l.degradation(), 1);
        match l.offer(8_000, 1_000) {
            Verdict::Forward { depart_ns, .. } => assert_eq!(depart_ns, 8_800),
            Verdict::Drop => panic!("idle link dropped"),
        }
    }

    #[test]
    fn spec_oversubscription_arithmetic() {
        let s = LinkSpec::oversubscribed(10.0, 4.0, 150_000);
        assert!((s.fabric_gbps - 2.5).abs() < 1e-9);
        // The fabric link of a 4:1 spec is 4x slower than its edge link.
        assert_eq!(
            s.fabric_link().serialization_ns(1_000),
            4 * s.edge_link().serialization_ns(1_000)
        );
    }
}
