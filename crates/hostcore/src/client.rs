//! [`ClientCore`] — the transport-free client half of the NetClone
//! protocol: addressing, duplicate filtering, and accounting.
//!
//! The core is a plain state machine over explicit nanosecond timestamps:
//!
//! * [`ClientCore::generate`] assigns the next sequence number, applies the
//!   scheme's addressing ([`ClientMode`]), and queues the outgoing
//!   packet(s);
//! * [`ClientCore::poll`] drains the queued packets — the frontend decides
//!   when and how to transmit them (DES event, UDP datagram);
//! * [`ClientCore::on_packet`] classifies an incoming response (first
//!   response / redundant / not-for-us) and keeps the latency histogram;
//! * [`ClientCore::on_tick`] applies the one recovery rule, a
//!   [`RetryPolicy`]: an expired request is *retransmitted* under capped
//!   exponential backoff and a per-client retry budget, then evicted, so
//!   `outstanding` never grows without bound under response loss. A plain
//!   timeout is the policy with no retries: it evicts at the deadline.

use std::collections::VecDeque;

use netclone_proto::{
    ClientId, CloneStatus, IntMap, Ipv4, NetCloneHdr, PacketMeta, RpcOp, ServerState,
};
use netclone_stats::LatencyHistogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the client addresses its requests — one variant per compared scheme
/// (paper §5.1.3).
#[derive(Clone, Debug)]
pub enum ClientMode {
    /// NetClone: pick a random group ID and filter-table index; let the
    /// switch choose the destination (§3.3).
    NetClone {
        /// Number of installed groups (n·(n−1)).
        num_groups: u16,
        /// Number of filter tables (for the random `IDX`).
        num_filter_tables: u8,
    },
    /// Baseline: send to one uniformly random worker server, no cloning.
    DirectRandom {
        /// The worker servers' addresses.
        servers: Vec<Ipv4>,
    },
    /// C-Clone: send duplicates to two distinct random servers (one copy
    /// when only one is left); the client processes both responses itself
    /// (§2.2).
    DirectDuplicate {
        /// The worker servers' addresses.
        servers: Vec<Ipv4>,
    },
    /// LÆDGE: send everything to the coordinator host.
    Coordinator {
        /// The coordinator's address.
        ip: Ipv4,
    },
}

/// Client-side recovery policy: retry-on-timeout with capped exponential
/// backoff and a per-client retry budget.
///
/// A request that misses its deadline is *retransmitted* (same sequence
/// number, fresh addressing draw) instead of evicted, doubling its timeout
/// up to `backoff_cap_ns` each attempt, until either `max_retries` extra
/// attempts or the client-wide `budget` is spent. Retries go through the
/// normal outbox, so retry storms load the fabric like real traffic —
/// they are modeled, not hidden.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Initial per-request timeout (first deadline = born + this).
    pub timeout_ns: u64,
    /// Ceiling for the doubled timeout (capped exponential backoff).
    pub backoff_cap_ns: u64,
    /// Extra transmission attempts allowed per request.
    pub max_retries: u32,
    /// Client-wide cap on total retransmissions; once spent, expired
    /// requests are evicted as `budget_exhausted` instead of retried.
    pub budget: u64,
}

impl RetryPolicy {
    /// A conventional policy: 3 retries, backoff capped at 8× the initial
    /// timeout, effectively unlimited budget.
    pub fn new(timeout_ns: u64) -> Self {
        RetryPolicy {
            timeout_ns,
            backoff_cap_ns: timeout_ns.saturating_mul(8),
            max_retries: 3,
            budget: u64::MAX,
        }
    }

    /// A reasonable cadence for calling [`ClientCore::on_tick`]: half the
    /// initial timeout, so a deadline is noticed at most half a timeout
    /// late.
    pub fn tick_ns(&self) -> u64 {
        (self.timeout_ns / 2).max(1_000)
    }
}

/// A client's counters. [`ClientCore`] keeps one set over the whole run:
/// [`ClientCore::stats`] is the window since the last
/// [`ClientCore::reset_measurements`], [`ClientCore::lifetime`] the whole
/// run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests generated.
    pub generated: u64,
    /// Packets sent (2× generated for C-Clone).
    pub packets_sent: u64,
    /// Completed requests (first responses).
    pub completed: u64,
    /// Redundant responses processed and discarded by the client.
    pub redundant: u64,
    /// Completed requests whose *winning* response came from the
    /// switch-generated clone (`CLO=2`) — the §5.3 "effectiveness of
    /// cloning" numerator.
    pub clone_wins: u64,
    /// Requests evicted after exceeding the per-request timeout (or
    /// explicitly abandoned) without ever completing.
    pub lost: u64,
    /// Retransmissions issued by the [`RetryPolicy`] recovery path.
    pub retried: u64,
    /// Completed requests that needed at least one retransmission —
    /// recoveries won by the retry path, disjoint from `clone_wins`'
    /// meaning (a retried request can still be clone-won; this counts the
    /// request once).
    pub retry_wins: u64,
    /// Requests evicted because the client-wide retry budget was spent
    /// while they still had attempts left.
    pub budget_exhausted: u64,
}

impl ClientStats {
    /// Fraction of completed requests won by the clone copy.
    pub fn clone_win_ratio(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.clone_wins as f64 / self.completed as f64
        }
    }

    /// Folds another client's counters into this one. Every field is a
    /// plain count over a disjoint request set (sharded frontends give
    /// each worker its own cid/seq partition), so merging is summation
    /// and the `sent == completed + lost` invariant is preserved.
    pub fn merge(&mut self, other: &ClientStats) {
        *self = self.zip_with(other, |a, b| a + b);
    }

    /// The counts since `earlier`, a snapshot of the same counters.
    fn since(&self, earlier: &ClientStats) -> ClientStats {
        self.zip_with(earlier, |a, b| a - b)
    }

    /// `f` applied to each pair of fields.
    fn zip_with(&self, o: &ClientStats, f: impl Fn(u64, u64) -> u64) -> ClientStats {
        ClientStats {
            generated: f(self.generated, o.generated),
            packets_sent: f(self.packets_sent, o.packets_sent),
            completed: f(self.completed, o.completed),
            redundant: f(self.redundant, o.redundant),
            clone_wins: f(self.clone_wins, o.clone_wins),
            lost: f(self.lost, o.lost),
            retried: f(self.retried, o.retried),
            retry_wins: f(self.retry_wins, o.retry_wins),
            budget_exhausted: f(self.budget_exhausted, o.budget_exhausted),
        }
    }
}

/// Verdict of [`ClientCore::on_packet`] on one incoming packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxEvent {
    /// First response for an outstanding request: it completed.
    Completed {
        /// End-to-end latency (receive time − generation time).
        latency_ns: u64,
        /// The winning response came from the clone (`CLO=2`).
        from_clone: bool,
    },
    /// A response for a request that already completed, timed out, or was
    /// never ours to begin with a matching client ID — counted and
    /// discarded (§3.7's client-side redundancy handling).
    Redundant,
    /// Not a response addressed to this client; ignored entirely.
    Ignored,
}

impl RxEvent {
    /// The recorded latency, if this packet completed a request.
    pub fn latency_ns(self) -> Option<u64> {
        match self {
            RxEvent::Completed { latency_ns, .. } => Some(latency_ns),
            _ => None,
        }
    }
}

/// The sans-io client protocol core.
///
/// Owns everything about *what* a NetClone client says and remembers;
/// owns nothing about *how* packets move or time passes.
pub struct ClientCore {
    cid: ClientId,
    ip: Ipv4,
    mode: ClientMode,
    rng: StdRng,
    next_seq: u32,
    /// client_seq → request state.
    outstanding: SeqTable,
    /// Lower bound on every outstanding `deadline_ns` (exact after each
    /// [`Self::on_tick`] scan): ticks before it skip the scan.
    earliest_deadline_ns: u64,
    outbox: VecDeque<PacketMeta>,
    /// The one recovery rule; a plain timeout is a policy with no retries.
    retry: Option<RetryPolicy>,
    budget_left: u64,
    latencies: LatencyHistogram,
    /// The one counter set, over the whole run.
    stats: ClientStats,
    /// `stats` at the last [`Self::reset_measurements`].
    at_reset: ClientStats,
}

/// Per-request bookkeeping for an outstanding (not yet answered) request.
#[derive(Clone, Copy)]
struct Pending {
    born_ns: u64,
    /// Next timeout edge; `u64::MAX` when no timeout is configured.
    deadline_ns: u64,
    /// Current (possibly backed-off) timeout used to set the next deadline.
    timeout_ns: u64,
    /// Transmission attempts beyond the first.
    tries: u32,
    op: RpcOp,
}

/// The outstanding requests, direct-mapped by sequence number: slot
/// `seq & mask` holds `(seq, Pending)`. A client issues its numbers
/// consecutively, so live requests rarely share a slot, and looking up
/// any number — including one off the wire — is one slot read.
///
/// When a new number lands on an occupied slot, the table doubles if it
/// is at least a quarter full; otherwise the older request (one left
/// unanswered while `mask + 1` later ones came and went) moves to a small
/// overflow map. Memory stays proportional to what is outstanding even
/// when some request is never answered, and the overflow is consulted
/// only while it holds such stragglers.
struct SeqTable {
    slots: Vec<Option<(u32, Pending)>>,
    /// `slots.len() - 1`; the length is a power of two.
    mask: usize,
    /// Occupied slots.
    in_slots: usize,
    /// Stragglers displaced from their slot, keyed by sequence number.
    overflow: IntMap<u32, Pending>,
}

impl SeqTable {
    const INITIAL_SLOTS: usize = 64;

    fn new() -> Self {
        SeqTable {
            slots: vec![None; Self::INITIAL_SLOTS],
            mask: Self::INITIAL_SLOTS - 1,
            in_slots: 0,
            overflow: IntMap::default(),
        }
    }

    fn len(&self) -> usize {
        self.in_slots + self.overflow.len()
    }

    fn index(&self, seq: u32) -> usize {
        seq as usize & self.mask
    }

    fn insert(&mut self, seq: u32, p: Pending) {
        let mut i = self.index(seq);
        while self.slots[i].is_some() && self.in_slots * 4 >= self.slots.len() {
            self.grow();
            i = self.index(seq);
        }
        match self.slots[i].replace((seq, p)) {
            None => self.in_slots += 1,
            Some((older, q)) => {
                self.overflow.insert(older, q);
            }
        }
    }

    /// Doubles the slot count. Entries that had distinct slots keep
    /// distinct ones (their low bits still differ), so nothing collides.
    fn grow(&mut self) {
        let slots = vec![None; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, slots);
        self.mask = self.slots.len() - 1;
        for (seq, p) in old.into_iter().flatten() {
            let i = self.index(seq);
            self.slots[i] = Some((seq, p));
        }
    }

    fn get(&self, seq: u32) -> Option<&Pending> {
        match &self.slots[self.index(seq)] {
            Some((s, p)) if *s == seq => Some(p),
            _ if self.overflow.is_empty() => None,
            _ => self.overflow.get(&seq),
        }
    }

    fn get_mut(&mut self, seq: u32) -> Option<&mut Pending> {
        let i = self.index(seq);
        match &mut self.slots[i] {
            Some((s, p)) if *s == seq => Some(p),
            _ if self.overflow.is_empty() => None,
            _ => self.overflow.get_mut(&seq),
        }
    }

    fn remove(&mut self, seq: u32) -> Option<Pending> {
        let i = self.index(seq);
        let slot = &mut self.slots[i];
        if matches!(slot, Some((s, _)) if *s == seq) {
            self.in_slots -= 1;
            slot.take().map(|(_, p)| p)
        } else if self.overflow.is_empty() {
            None
        } else {
            self.overflow.remove(&seq)
        }
    }

    /// Every outstanding request, in no particular order.
    fn iter(&self) -> impl Iterator<Item = (u32, &Pending)> {
        let slots = self.slots.iter().flatten().map(|(s, p)| (*s, p));
        slots.chain(self.overflow.iter().map(|(s, p)| (*s, p)))
    }

    fn clear(&mut self) {
        self.slots.fill(None);
        self.in_slots = 0;
        self.overflow.clear();
    }
}

impl ClientCore {
    /// Builds a core with no request timeout (requests stay outstanding
    /// until answered or [`Self::abandon`]ed).
    pub fn new(cid: ClientId, mode: ClientMode, seed: u64) -> Self {
        ClientCore {
            cid,
            ip: Ipv4::client(cid),
            mode,
            rng: StdRng::seed_from_u64(seed),
            next_seq: 0,
            outstanding: SeqTable::new(),
            earliest_deadline_ns: u64::MAX,
            outbox: VecDeque::new(),
            retry: None,
            budget_left: 0,
            latencies: LatencyHistogram::new(),
            stats: ClientStats::default(),
            at_reset: ClientStats::default(),
        }
    }

    /// Sets the per-request timeout consulted by [`Self::on_tick`]: a
    /// [`RetryPolicy`] with no retries and no budget, so an expired
    /// request is evicted.
    pub fn with_timeout(self, timeout_ns: u64) -> Self {
        self.with_retry(RetryPolicy {
            timeout_ns,
            backoff_cap_ns: timeout_ns,
            max_retries: 0,
            budget: 0,
        })
    }

    /// Arms the retry-on-timeout recovery path: expired requests are
    /// retransmitted under `policy` instead of evicted, while attempts and
    /// budget last.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.budget_left = policy.budget;
        self.retry = Some(policy);
        self
    }

    /// Starts sequence numbers at `base` instead of 0, e.g. just below
    /// `u32::MAX` to exercise the sequence wrap.
    pub fn with_seq_base(mut self, base: u32) -> Self {
        self.next_seq = base;
        self
    }

    /// The client's virtual address.
    pub fn ip(&self) -> Ipv4 {
        self.ip
    }

    /// The client's identity.
    pub fn cid(&self) -> ClientId {
        self.cid
    }

    /// Mutable access to the addressing mode — the §3.6 failure path
    /// updates "the number of groups on the client side" (and direct modes
    /// drop dead servers) through this.
    pub fn mode_mut(&mut self) -> &mut ClientMode {
        &mut self.mode
    }

    /// Latency histogram of completed requests.
    pub fn latencies(&self) -> &LatencyHistogram {
        &self.latencies
    }

    /// The counters since the last [`Self::reset_measurements`].
    pub fn stats(&self) -> ClientStats {
        self.stats.since(&self.at_reset)
    }

    /// Requests still awaiting their first response.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// The counters over the whole run, which no reset clears. Their
    /// `generated == completed + lost + outstanding()` holds at every
    /// instant, retries included: a retransmission keeps its request
    /// outstanding under the same sequence number, so recovery never
    /// double counts and never leaks a request.
    pub fn lifetime(&self) -> ClientStats {
        self.stats
    }

    /// The RPC operation of an outstanding request — frontends rebuild the
    /// application payload of a retransmission from this.
    pub fn pending_op(&self, seq: u32) -> Option<RpcOp> {
        self.outstanding.get(seq).map(|p| p.op)
    }

    /// Remaining client-wide retransmission budget (0 when no
    /// [`RetryPolicy`] is armed).
    pub fn retry_budget_left(&self) -> u64 {
        self.budget_left
    }

    /// Discards warm-up measurements: clears the histogram and starts
    /// the [`Self::stats`] window here (keeps outstanding bookkeeping).
    pub fn reset_measurements(&mut self) {
        self.latencies.clear();
        self.at_reset = self.stats;
    }

    /// Generates one request at time `now`, queues the addressed packet(s)
    /// for [`Self::poll`], and returns the assigned sequence number.
    pub fn generate(&mut self, op: RpcOp, now: u64) -> u32 {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let timeout_ns = self.retry.map_or(u64::MAX, |pol| pol.timeout_ns);
        let deadline_ns = now.saturating_add(timeout_ns);
        self.earliest_deadline_ns = self.earliest_deadline_ns.min(deadline_ns);
        self.outstanding.insert(
            seq,
            Pending {
                born_ns: now,
                deadline_ns,
                timeout_ns,
                tries: 0,
                op,
            },
        );
        self.stats.generated += 1;
        self.enqueue_addressed(seq, op);
        seq
    }

    /// Draws fresh addressing for `seq` and queues the packet(s) — the
    /// shared tail of first transmission and retransmission. A retry
    /// re-rolls the destination, so a retried request escapes a gray server
    /// instead of hammering it.
    fn enqueue_addressed(&mut self, seq: u32, op: RpcOp) {
        // Resolve the scheme's addressing first (mode and rng are disjoint
        // fields, so no clone of the server list is needed), then build
        // and queue the packet(s).
        enum Addressing {
            /// NetClone: destination left to the switch.
            Switch { grp: u16, idx: u8 },
            /// One addressed copy (Baseline / LÆDGE, or C-Clone with one
            /// server left).
            One(Ipv4),
            /// Two addressed duplicates (C-Clone).
            Two(Ipv4, Ipv4),
        }
        let rng = &mut self.rng;
        let addressing = match &self.mode {
            ClientMode::NetClone {
                num_groups,
                num_filter_tables,
            } => Addressing::Switch {
                grp: rng.random_range(0..(*num_groups).max(1)),
                idx: rng.random_range(0..(*num_filter_tables).max(1)),
            },
            ClientMode::DirectRandom { servers } => {
                Addressing::One(servers[rng.random_range(0..servers.len())])
            }
            ClientMode::DirectDuplicate { servers } => {
                // Two distinct random servers (§2.2: "typically sends two
                // duplicate requests"); with one left, a second copy
                // would share the first's queue slot and fate, so it
                // sends one.
                let a = rng.random_range(0..servers.len());
                if servers.len() > 1 {
                    let mut b = rng.random_range(0..servers.len() - 1);
                    if b >= a {
                        b += 1;
                    }
                    Addressing::Two(servers[a], servers[b])
                } else {
                    Addressing::One(servers[a])
                }
            }
            ClientMode::Coordinator { ip } => Addressing::One(*ip),
        };

        // Writes must not be cloned (§5.5): mark them for the switch.
        let uncloneable = !op.is_cloneable();
        let queue_to = |me: &mut Self, grp: u16, idx: u8, dst: Option<Ipv4>| {
            let mut nc = NetCloneHdr::request(grp, idx, me.cid, seq);
            if uncloneable {
                nc.state = ServerState(1);
            }
            let mut meta = PacketMeta::netclone_request(me.ip, nc, 84);
            if let Some(dst) = dst {
                meta.dst_ip = dst;
            }
            me.push(meta);
        };
        match addressing {
            Addressing::Switch { grp, idx } => queue_to(self, grp, idx, None),
            Addressing::One(dst) => queue_to(self, 0, 0, Some(dst)),
            Addressing::Two(a, b) => {
                queue_to(self, 0, 0, Some(a));
                queue_to(self, 0, 0, Some(b));
            }
        }
    }

    fn push(&mut self, meta: PacketMeta) {
        self.stats.packets_sent += 1;
        self.outbox.push_back(meta);
    }

    /// Takes the next queued outgoing packet, in generation order.
    pub fn poll(&mut self) -> Option<PacketMeta> {
        self.outbox.pop_front()
    }

    /// Classifies one incoming packet received at time `now`.
    ///
    /// The first response for an outstanding request completes it and
    /// records `now − born` in the latency histogram; any later copy — a
    /// duplicate that escaped the switch filter, a response to a timed-out
    /// request — is [`RxEvent::Redundant`]. Packets that are not responses
    /// addressed to this client are [`RxEvent::Ignored`].
    pub fn on_packet(&mut self, nc: &NetCloneHdr, now: u64) -> RxEvent {
        if !nc.is_response() || nc.client_id != self.cid {
            return RxEvent::Ignored;
        }
        match self.outstanding.remove(nc.client_seq) {
            Some(p) => {
                let latency_ns = now.saturating_sub(p.born_ns);
                self.latencies.record(latency_ns);
                self.stats.completed += 1;
                if p.tries > 0 {
                    self.stats.retry_wins += 1;
                }
                let from_clone = nc.clo == CloneStatus::Clone;
                if from_clone {
                    self.stats.clone_wins += 1;
                }
                RxEvent::Completed {
                    latency_ns,
                    from_clone,
                }
            }
            None => {
                self.stats.redundant += 1;
                RxEvent::Redundant
            }
        }
    }

    /// Processes timeout edges at `now` under the [`RetryPolicy`]: expired
    /// requests are retransmitted (queued for [`Self::poll`]) under capped
    /// exponential backoff until attempts or the client-wide budget run
    /// out, then evicted and counted as lost (a plain timeout evicts at
    /// once). Returns how many requests were *evicted* (retransmissions
    /// keep theirs outstanding). No-op (0) when no policy was configured.
    pub fn on_tick(&mut self, now: u64) -> u64 {
        let Some(pol) = self.retry.filter(|_| now >= self.earliest_deadline_ns) else {
            return 0;
        };
        let mut expired = Vec::new();
        self.earliest_deadline_ns = u64::MAX;
        for (seq, p) in self.outstanding.iter() {
            if p.deadline_ns <= now {
                expired.push(seq);
            } else {
                self.earliest_deadline_ns = self.earliest_deadline_ns.min(p.deadline_ns);
            }
        }
        if expired.is_empty() {
            return 0;
        }
        // Retransmissions draw fresh addressing from the client RNG, so
        // they go in sequence order: slot order also depends on the
        // table's size and on which requests overflowed.
        expired.sort_unstable();
        let mut evicted = 0;
        for seq in expired {
            let p = self.outstanding.get_mut(seq).expect("collected above");
            let tries_left = p.tries < pol.max_retries;
            if tries_left && self.budget_left > 0 {
                p.tries += 1;
                p.timeout_ns = p.timeout_ns.saturating_mul(2).min(pol.backoff_cap_ns);
                p.deadline_ns = now.saturating_add(p.timeout_ns);
                self.earliest_deadline_ns = self.earliest_deadline_ns.min(p.deadline_ns);
                let op = p.op;
                self.budget_left -= 1;
                self.stats.retried += 1;
                self.enqueue_addressed(seq, op);
            } else {
                if tries_left {
                    self.stats.budget_exhausted += 1;
                }
                self.outstanding.remove(seq);
                self.stats.lost += 1;
                evicted += 1;
            }
        }
        evicted
    }

    /// Gives up on one specific request (e.g. a blocking call that timed
    /// out), counting it as lost. Returns false if it was not outstanding.
    pub fn abandon(&mut self, seq: u32) -> bool {
        let removed = self.outstanding.remove(seq).is_some();
        if removed {
            self.stats.lost += 1;
        }
        removed
    }

    /// Ends the run: every still-outstanding request is counted as lost
    /// (nothing will ever answer it). Returns how many there were.
    pub fn drain_outstanding(&mut self) -> u64 {
        let n = self.outstanding.len() as u64;
        self.outstanding.clear();
        self.stats.lost += n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclone_proto::MsgType;

    fn echo() -> RpcOp {
        RpcOp::Echo { class_ns: 25_000 }
    }

    fn nc_core(seed: u64) -> ClientCore {
        ClientCore::new(
            0,
            ClientMode::NetClone {
                num_groups: 30,
                num_filter_tables: 2,
            },
            seed,
        )
    }

    fn response_for(meta: &PacketMeta, clo: CloneStatus) -> NetCloneHdr {
        let mut req = meta.nc;
        req.clo = clo;
        NetCloneHdr::response_to(&req, 1, ServerState::IDLE)
    }

    #[test]
    fn generate_then_poll_yields_addressed_packets() {
        let mut c = nc_core(1);
        let seq = c.generate(echo(), 1_000);
        assert_eq!(seq, 0);
        let meta = c.poll().expect("one packet queued");
        assert!(c.poll().is_none());
        assert!(meta.dst_ip.is_unspecified());
        assert!(meta.nc.grp < 30);
        assert!(meta.nc.idx < 2);
        assert_eq!(meta.nc.client_seq, 0);
        assert_eq!(c.stats().packets_sent, 1);
    }

    #[test]
    fn first_response_completes_second_is_redundant() {
        let mut c = nc_core(2);
        c.generate(echo(), 0);
        let meta = c.poll().unwrap();
        let resp = response_for(&meta, CloneStatus::ClonedOriginal);
        assert_eq!(
            c.on_packet(&resp, 40_000),
            RxEvent::Completed {
                latency_ns: 40_000,
                from_clone: false
            }
        );
        assert_eq!(c.on_packet(&resp, 41_000), RxEvent::Redundant);
        let st = c.stats();
        assert_eq!(st.completed, 1);
        assert_eq!(st.redundant, 1);
        assert_eq!(st.clone_wins, 0);
        assert_eq!(c.latencies().count(), 1);
    }

    #[test]
    fn clone_win_is_counted_once_per_completion() {
        let mut c = nc_core(3);
        c.generate(echo(), 0);
        let meta = c.poll().unwrap();
        let win = response_for(&meta, CloneStatus::Clone);
        assert_eq!(
            c.on_packet(&win, 10_000),
            RxEvent::Completed {
                latency_ns: 10_000,
                from_clone: true
            }
        );
        // The slower original is redundant, not a second win.
        let lose = response_for(&meta, CloneStatus::ClonedOriginal);
        assert_eq!(c.on_packet(&lose, 12_000), RxEvent::Redundant);
        assert_eq!(c.stats().clone_wins, 1);
        assert!((c.stats().clone_win_ratio() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn foreign_and_request_packets_are_ignored() {
        let mut c = nc_core(4);
        c.generate(echo(), 0);
        let meta = c.poll().unwrap();
        // A request header is never counted.
        assert_eq!(c.on_packet(&meta.nc, 1_000), RxEvent::Ignored);
        // A response for some other client is not ours.
        let mut foreign = response_for(&meta, CloneStatus::NotCloned);
        foreign.client_id = 9;
        assert_eq!(c.on_packet(&foreign, 1_000), RxEvent::Ignored);
        assert_eq!(c.stats().redundant, 0);
        assert_eq!(c.outstanding(), 1);
        assert_eq!(foreign.msg_type, MsgType::Resp);
    }

    #[test]
    fn on_tick_evicts_only_timed_out_requests() {
        let mut c = nc_core(5).with_timeout(10_000);
        c.generate(echo(), 0);
        let old = c.poll().unwrap();
        c.generate(echo(), 8_000);
        let young = c.poll().unwrap();
        assert_eq!(c.on_tick(9_999), 0, "nothing has timed out yet");
        assert_eq!(c.on_tick(12_000), 1, "only the first request expired");
        assert_eq!(c.stats().lost, 1);
        assert_eq!(c.outstanding(), 1);
        // A late response to the evicted request is redundant, not a
        // completion — no double counting.
        let resp = response_for(&old, CloneStatus::NotCloned);
        assert_eq!(c.on_packet(&resp, 13_000), RxEvent::Redundant);
        assert_eq!(c.stats().completed, 0);
        // The surviving request still completes normally.
        let resp = response_for(&young, CloneStatus::NotCloned);
        assert!(c.on_packet(&resp, 13_000).latency_ns().is_some());
        assert_eq!(
            c.stats(),
            ClientStats {
                generated: 2,
                packets_sent: 2,
                completed: 1,
                redundant: 1,
                clone_wins: 0,
                lost: 1,
                retried: 0,
                retry_wins: 0,
                budget_exhausted: 0,
            }
        );
    }

    #[test]
    fn retry_retransmits_with_backoff_then_evicts() {
        let pol = RetryPolicy {
            timeout_ns: 10_000,
            backoff_cap_ns: 40_000,
            max_retries: 2,
            budget: u64::MAX,
        };
        let mut c = nc_core(10).with_retry(pol);
        let seq = c.generate(echo(), 0);
        let first = c.poll().unwrap();
        // First deadline: 10_000 → retransmit, timeout doubles to 20_000.
        assert_eq!(c.on_tick(10_000), 0, "retry, not eviction");
        let rt = c.poll().expect("retransmission queued");
        assert_eq!(rt.nc.client_seq, first.nc.client_seq);
        assert_eq!(c.stats().retried, 1);
        assert_eq!(c.outstanding(), 1, "retried request stays outstanding");
        // Second deadline: 10_000 + 20_000 = 30_000.
        assert_eq!(c.on_tick(29_999), 0);
        assert_eq!(c.on_tick(30_000), 0);
        assert_eq!(c.stats().retried, 2);
        assert!(c.poll().is_some());
        // Timeout doubled again but capped: 40_000 → third deadline
        // 70_000, and with max_retries=2 spent it evicts there.
        assert_eq!(c.on_tick(69_999), 0);
        assert_eq!(c.on_tick(70_000), 1, "attempts exhausted");
        let st = c.stats();
        assert_eq!((st.lost, st.budget_exhausted), (1, 0));
        assert_eq!(st.packets_sent, 3);
        assert!(!c.abandon(seq), "already evicted");
        let lt = c.lifetime();
        assert_eq!(
            lt.generated,
            lt.completed + lt.lost + c.outstanding() as u64
        );
    }

    #[test]
    fn completion_after_a_retry_is_a_retry_win() {
        let mut c = nc_core(11).with_retry(RetryPolicy::new(10_000));
        c.generate(echo(), 0);
        let _ = c.poll().unwrap();
        c.on_tick(10_000);
        let rt = c.poll().expect("retransmission");
        let resp = response_for(&rt, CloneStatus::NotCloned);
        assert!(c.on_packet(&resp, 15_000).latency_ns().is_some());
        let st = c.stats();
        assert_eq!((st.completed, st.retried, st.retry_wins), (1, 1, 1));
        // Latency is measured from the original birth, not the retry.
        assert_eq!(c.latencies().count(), 1);
    }

    #[test]
    fn retry_budget_exhaustion_evicts_and_is_counted() {
        let pol = RetryPolicy {
            timeout_ns: 10_000,
            backoff_cap_ns: 80_000,
            max_retries: 3,
            budget: 1,
        };
        let mut c = nc_core(12).with_retry(pol);
        c.generate(echo(), 0);
        c.generate(echo(), 0);
        while c.poll().is_some() {}
        // Both expire at 10_000; the budget covers exactly one retry.
        // Expiry processes in seq order, so seq 0 gets it and seq 1 is
        // evicted with attempts left.
        assert_eq!(c.on_tick(10_000), 1);
        let st = c.stats();
        assert_eq!((st.retried, st.lost, st.budget_exhausted), (1, 1, 1));
        assert_eq!(c.retry_budget_left(), 0);
        assert_eq!(c.outstanding(), 1);
        let lt = c.lifetime();
        assert_eq!(
            lt.generated,
            lt.completed + lt.lost + c.outstanding() as u64
        );
    }

    #[test]
    fn lifetime_counters_survive_reset_measurements() {
        let mut c = nc_core(13);
        c.generate(echo(), 0);
        let meta = c.poll().unwrap();
        let resp = response_for(&meta, CloneStatus::NotCloned);
        c.on_packet(&resp, 5_000);
        c.reset_measurements();
        assert_eq!(c.stats().completed, 0, "windowed stats reset");
        c.generate(echo(), 6_000);
        assert_eq!((c.stats().generated, c.stats().packets_sent), (1, 1));
        let lt = c.lifetime();
        assert_eq!((lt.generated, lt.completed, lt.lost), (2, 1, 0));
        assert_eq!(lt.packets_sent, 2);
    }

    #[test]
    fn seq_base_partitions_the_sequence_space() {
        let mut c = nc_core(14).with_seq_base(1_000);
        assert_eq!(c.generate(echo(), 0), 1_000);
        assert_eq!(c.generate(echo(), 0), 1_001);
    }

    /// A request nobody answers must not make the table grow with every
    /// later request: once enough later numbers wrap round onto its slot,
    /// it moves to the overflow and the table stays at its first size.
    #[test]
    fn one_straggler_costs_one_overflow_entry_not_a_bigger_table() {
        let mut c = nc_core(15);
        let straggler = c.generate(echo(), 0);
        c.poll();
        for i in 1..=1_000_000 {
            c.generate(echo(), i);
            let resp = response_for(&c.poll().unwrap(), CloneStatus::NotCloned);
            assert!(c.on_packet(&resp, i).latency_ns().is_some());
        }
        assert_eq!(c.outstanding.slots.len(), SeqTable::INITIAL_SLOTS);
        assert_eq!(c.outstanding.overflow.len(), 1);
        assert_eq!(c.outstanding(), 1);
        assert_eq!(c.pending_op(straggler), Some(echo()));
        assert!(c.abandon(straggler));
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn abandon_and_drain_count_lost() {
        let mut c = nc_core(6);
        let seq = c.generate(echo(), 0);
        c.poll();
        assert!(c.abandon(seq));
        assert!(!c.abandon(seq), "already abandoned");
        c.generate(echo(), 1);
        c.generate(echo(), 2);
        assert_eq!(c.drain_outstanding(), 2);
        assert_eq!(c.stats().lost, 3);
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn cclone_duplicates_share_a_seq_and_differ_in_destination() {
        let servers: Vec<Ipv4> = (0..6).map(Ipv4::server).collect();
        let mut c = ClientCore::new(0, ClientMode::DirectDuplicate { servers }, 7);
        for i in 0..100 {
            c.generate(echo(), i);
            let a = c.poll().unwrap();
            let b = c.poll().unwrap();
            assert_ne!(a.dst_ip, b.dst_ip);
            assert_eq!(a.nc.client_seq, b.nc.client_seq);
        }
        assert_eq!(c.stats().packets_sent, 200);
        assert_eq!(c.stats().generated, 100);
    }

    #[test]
    fn cclone_with_one_server_left_sends_one_copy() {
        let servers = vec![Ipv4::server(3)];
        let mut c = ClientCore::new(0, ClientMode::DirectDuplicate { servers }, 7);
        c.generate(echo(), 0);
        assert_eq!(c.poll().unwrap().dst_ip, Ipv4::server(3));
        assert!(c.poll().is_none(), "a second copy to the same server");
        assert_eq!(c.stats().packets_sent, 1);
    }

    #[test]
    fn writes_are_marked_uncloneable() {
        let mut c = nc_core(8);
        c.generate(
            RpcOp::Put {
                key: netclone_proto::KvKey::from_index(1),
                value_len: 64,
            },
            0,
        );
        assert_eq!(c.poll().unwrap().nc.state, ServerState(1));
        c.generate(echo(), 0);
        assert_eq!(c.poll().unwrap().nc.state, ServerState(0));
    }

    #[test]
    fn reset_measurements_keeps_outstanding() {
        let mut c = nc_core(9);
        c.generate(echo(), 0);
        let meta = c.poll().unwrap();
        c.reset_measurements();
        assert_eq!(c.stats().generated, 0);
        let resp = response_for(&meta, CloneStatus::NotCloned);
        assert!(c.on_packet(&resp, 50_000).latency_ns().is_some());
    }
}
