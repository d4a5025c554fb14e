//! The event queue: a time-ordered priority queue with deterministic
//! FIFO tie-breaking.
//!
//! ## Implementation
//!
//! A **hierarchical timing wheel**, radix 64 over the nanosecond clock:
//! 11 levels × 64 slots cover all of `u64`, an event at time `t` sits at
//! level `msb(t ^ now) / 6` in the slot named by that digit of `t`, and
//! the earliest is in the lowest set bit of the lowest non-empty level's
//! occupancy word. Slots are intrusive lists through one node slab.
//!
//! * Schedule is an xor, a `leading_zeros` and a list push. Pop finds the
//!   front slot's smallest key, detaches the list, moves the clock onto
//!   that key and re-places the rest, which land on lower levels: no sift,
//!   no overflow tier, no cascade loop, no allocation past the peak depth.
//! * A level-0 slot holds one instant, so its only order left is the tie,
//!   found by **one linear scan of that instant's list per pop**: `n`
//!   events at one instant drain in O(n²), the one place a heap is better
//!   (the workloads' largest such group: a `ClientTick` per client).
//!
//! `(time, seq)` packs into one `u128` key and `seq` increments per push,
//! so keys are unique and pops follow the **total** order of a `BinaryHeap`
//! bit for bit: the seed pins rely on it, `tests/prop_queue.rs` checks it.

use crate::SimTime;

/// Packs a `(time, seq)` pair into one totally-ordered key. `seq` is
/// unique per push, so keys never collide and FIFO tie-breaking is exact.
#[inline]
const fn key(at: SimTime, seq: u64) -> u128 {
    ((at.as_ns() as u128) << 64) | seq as u128
}

/// Tie-break half of a packed key.
#[inline]
const fn key_tie(k: u128) -> u64 {
    k as u64
}

/// Time half of a packed key.
#[inline]
const fn key_time(k: u128) -> SimTime {
    SimTime::from_ns((k >> 64) as u64)
}

/// Timestamp bits one wheel level resolves: 64 slots per level.
const BITS: u32 = 6;
/// Levels: `ceil(64 / BITS)`, so the top one reaches `u64::MAX`.
const LEVELS: usize = 11;
/// End-of-list marker; no node has this index.
const NIL: u32 = u32::MAX;

/// One slab entry: a pending event, or a link of the free list.
struct Node<E> {
    key: u128,
    /// The next node of the slot's list, or of the free list.
    next: u32,
    /// `Some` exactly while the node is in a slot.
    ev: Option<E>,
}

/// A deterministic discrete-event queue.
///
/// Events scheduled for the same instant pop in the order they were pushed,
/// which makes whole-simulation runs reproducible for a fixed seed — a
/// property the reproduction leans on (fixed seeds per figure).
///
/// Cache-line aligned: the slot heads and occupancy words are 2.9 KB read
/// on every operation, and the queue is embedded in larger structs (the
/// simulator's shard), so without this any field added or removed ahead
/// of it moves the wheel across line boundaries — a measured ±5 % on
/// workloads that run none of the changed code.
#[repr(align(64))]
pub struct EventQueue<E> {
    nodes: Vec<Node<E>>,
    /// Head of the list of vacated nodes, reused before the slab grows.
    free: u32,
    /// Head node of every slot's list.
    slots: [[u32; 1 << BITS]; LEVELS],
    /// Per level, bit `s` is set iff slot `s` is non-empty.
    occupied: [u64; LEVELS],
    len: usize,
    next_seq: u64,
    /// The clock, and the cursor every event's level is relative to.
    now: SimTime,
    scheduled_total: u64,
}

const _: () = assert!(std::mem::align_of::<EventQueue<u64>>() == 64);

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            slots: [[NIL; 1 << BITS]; LEVELS],
            occupied: [0; LEVELS],
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            scheduled_total: 0,
        }
    }

    /// The current simulated time: the timestamp of the most recently
    /// popped event (time zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `ev` at absolute time `at`.
    ///
    /// Scheduling in the past is a simulation bug; this panics (in both
    /// debug and release) rather than silently reordering history.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, ev: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push(key(at, seq), ev);
    }

    /// Schedules `ev` at `now() + delay_ns`.
    #[inline]
    pub fn schedule_in(&mut self, delay_ns: u64, ev: E) {
        self.schedule(self.now + delay_ns, ev);
    }

    /// Schedules `ev` at `at` with a caller-supplied tie-break key.
    ///
    /// The pop order is `(at, tie)` lexicographic. Sharded simulations use
    /// this to impose a *machine-independent* total order: the caller packs
    /// `(source domain, per-domain sequence)` into `tie` (see
    /// [`crate::sync::tie_key`]), so two queues on different shards agree
    /// on the order of any pair of events without ever communicating.
    /// Callers must keep `(at, tie)` pairs unique; equal keys would fall
    /// back to unspecified ordering.
    ///
    /// Like [`schedule`](Self::schedule), panics on scheduling in the past.
    #[inline]
    pub fn schedule_keyed(&mut self, at: SimTime, tie: u64, ev: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        self.push(key(at, tie), ev);
    }

    /// Parks `ev` in a slab node and links the node into its slot.
    #[inline]
    fn push(&mut self, key: u128, ev: E) {
        self.scheduled_total += 1;
        self.len += 1;
        let node = match self.free {
            NIL => {
                let node = u32::try_from(self.nodes.len()).ok().filter(|&n| n != NIL);
                let node = node.expect("over u32::MAX - 1 pending events");
                let ev = Some(ev);
                self.nodes.push(Node { key, next: NIL, ev });
                node
            }
            node => {
                let n = &mut self.nodes[node as usize];
                self.free = n.next;
                (n.key, n.ev) = (key, Some(ev));
                node
            }
        };
        self.place(node);
    }

    /// Links `node` into the slot its time selects relative to the clock.
    #[inline]
    fn place(&mut self, node: u32) {
        let t = key_time(self.nodes[node as usize].key).as_ns();
        // The highest digit in which `t` differs from the clock (0 when
        // they are equal), and `t`'s value there.
        let level = (63 - ((t ^ self.now.as_ns()) | 1).leading_zeros()) / BITS;
        let slot = (t >> (level * BITS)) as usize % (1 << BITS);
        let head = &mut self.slots[level as usize][slot];
        self.nodes[node as usize].next = std::mem::replace(head, node);
        self.occupied[level as usize] |= 1 << slot;
    }

    /// The front slot as `(level, slot)`: it holds the earliest event.
    #[inline]
    fn front(&self) -> Option<(usize, usize)> {
        let level = self.occupied.iter().position(|&w| w != 0)?;
        Some((level, self.occupied[level].trailing_zeros() as usize))
    }

    /// The node with the smallest key in the non-empty list at `head`.
    #[inline]
    fn min_of(&self, head: u32) -> u32 {
        let (mut min, mut i) = (head, self.nodes[head as usize].next);
        while i != NIL {
            if self.nodes[i as usize].key < self.nodes[min as usize].key {
                min = i;
            }
            i = self.nodes[i as usize].next;
        }
        min
    }

    /// Pops the earliest event along with its tie-break key (the low 64
    /// bits of the packed key — the push sequence for
    /// [`schedule`](Self::schedule), the caller's `tie` for
    /// [`schedule_keyed`](Self::schedule_keyed)).
    #[inline]
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        self.pop_front(None)
    }

    /// [`pop_keyed`](Self::pop_keyed), but only if the earliest event is
    /// due strictly before `limit_ns`. A refusal leaves the queue and the
    /// clock exactly as they were: a windowed loop's `peek_time`-then-pop
    /// in one scan of the front slot's list instead of two.
    #[inline]
    pub fn pop_keyed_before(&mut self, limit_ns: u64) -> Option<(SimTime, u64, E)> {
        self.pop_front(Some(limit_ns))
    }

    /// The pop body. Inlined into both callers, so the unbounded one
    /// carries no trace of the limit.
    #[inline(always)]
    fn pop_front(&mut self, limit_ns: Option<u64>) -> Option<(SimTime, u64, E)> {
        let (level, slot) = self.front()?;
        let head = std::mem::replace(&mut self.slots[level][slot], NIL);
        self.occupied[level] &= !(1 << slot);
        let min = self.min_of(head);
        let k = self.nodes[min as usize].key;
        debug_assert!(
            key_time(k) >= self.now,
            "wheel returned an out-of-order event"
        );
        if limit_ns.is_some_and(|limit| key_time(k).as_ns() >= limit) {
            // Refused: put the detached list back, untouched.
            self.slots[level][slot] = head;
            self.occupied[level] |= 1 << slot;
            return None;
        }
        self.now = key_time(k);
        // The rest of the list shares the popped event's digits from
        // `level` up, so against the new clock it lands below `level`
        // (or, from level 0, back in the slot of this same instant).
        let mut i = head;
        while i != NIL {
            let next = self.nodes[i as usize].next;
            if i != min {
                self.place(i);
            }
            i = next;
        }
        let n = &mut self.nodes[min as usize];
        let ev = n.ev.take().expect("slot list holds a vacated node");
        n.next = std::mem::replace(&mut self.free, min);
        self.len -= 1;
        Some((self.now, key_tie(k), ev))
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(at, _, ev)| (at, ev))
    }

    /// Timestamp of the next event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        let (level, slot) = self.front()?;
        let min = self.min_of(self.slots[level][slot]);
        Some(key_time(self.nodes[min as usize].key))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (for run diagnostics and the
    /// events/sec throughput report).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), "c");
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_in_push_order() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third"] {
            q.schedule(SimTime::from_ns(5), label);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(2), ());
        q.schedule(SimTime::from_us(1), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_us(1));
        q.pop();
        assert_eq!(q.now(), SimTime::from_us(2));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(1), 1u32);
        q.pop();
        q.schedule_in(500, 2u32);
        let (at, ev) = q.pop().unwrap();
        assert_eq!(at, SimTime::from_ns(1_500));
        assert_eq!(ev, 2);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(10), ());
        q.pop();
        q.schedule(SimTime::from_us(5), ());
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_ns(1), ());
        q.schedule(SimTime::from_ns(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(2)));
    }

    #[test]
    fn popped_nodes_are_reused_before_the_slab_grows() {
        // Slab length == peak depth, across every wheel level a delay of
        // up to 2^40 ns reaches and whatever the payload size.
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            q.schedule_in(round % 7, [round; 16]);
            q.schedule_in(1 << (round % 41), [round; 16]);
            q.schedule_in(round % 5, [round; 16]);
            q.pop();
            q.pop();
            q.pop();
        }
        assert!(q.is_empty());
        assert_eq!(q.nodes.len(), 3);
    }

    #[test]
    fn keyed_schedule_orders_by_tie_not_push_order() {
        let mut q = EventQueue::new();
        // Push in descending tie order at one instant: pops must follow
        // the ties, not insertion.
        q.schedule_keyed(SimTime::from_ns(5), 300, "c");
        q.schedule_keyed(SimTime::from_ns(5), 100, "a");
        q.schedule_keyed(SimTime::from_ns(5), 200, "b");
        q.schedule_keyed(SimTime::from_ns(1), 999, "first");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["first", "a", "b", "c"]);
    }

    #[test]
    fn pop_keyed_returns_the_tie() {
        let mut q = EventQueue::new();
        q.schedule_keyed(SimTime::from_ns(7), 42, ());
        q.schedule(SimTime::from_ns(9), ());
        assert_eq!(q.scheduled_total(), 2);
        let (at, tie, _) = q.pop_keyed().unwrap();
        assert_eq!((at.as_ns(), tie), (7, 42));
        // `schedule` ties are the internal push sequence (one `schedule`
        // so far → seq 0).
        let (at, tie, _) = q.pop_keyed().unwrap();
        assert_eq!((at.as_ns(), tie), (9, 0));
    }

    #[test]
    fn bounded_pop_stops_at_the_limit_and_a_refusal_changes_nothing() {
        let mut q = EventQueue::new();
        // Two events in one level-1 slot, so a pop re-places the other.
        q.schedule_keyed(SimTime::from_ns(70), 2, "b");
        q.schedule_keyed(SimTime::from_ns(65), 1, "a");
        let occupied = q.occupied;
        assert_eq!(q.pop_keyed_before(65), None, "the limit is exclusive");
        assert_eq!((q.now(), q.len()), (SimTime::ZERO, 2));
        assert_eq!(q.occupied, occupied, "a refusal detached the front slot");
        let a = q.pop_keyed_before(66).expect("65 < 66");
        assert_eq!((a.0.as_ns(), a.1, a.2), (65, 1, "a"));
        assert_eq!(q.pop_keyed_before(70), None);
        assert_eq!(q.now(), SimTime::from_ns(65));
        assert_eq!(q.pop_keyed().map(|(at, ..)| at.as_ns()), Some(70));
        assert_eq!(q.pop_keyed_before(u64::MAX), None, "empty");
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn keyed_scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_keyed(SimTime::from_us(10), 0, ());
        q.pop();
        q.schedule_keyed(SimTime::from_us(5), 1, ());
    }

    /// Exercises placement on, and re-placement down from, several wheel
    /// levels with a mix of ties and distinct keys.
    #[test]
    fn order_is_total_across_wheel_levels() {
        let mut q = EventQueue::new();
        // Interleave two phases so the queue repeatedly grows and shrinks.
        let mut popped = Vec::new();
        for round in 0u64..8 {
            for i in 0..64u64 {
                // Many colliding timestamps (relative to the advancing
                // clock) to stress FIFO tie-breaking, spread over delays
                // of up to 2^24 ns: wheel levels 0 to 4.
                let delay = ((i * 7919 + round) % 97) << (i % 4 * 6);
                q.schedule(q.now() + delay, (round, i));
            }
            for _ in 0..32 {
                popped.push(q.pop().unwrap());
            }
        }
        assert!(q.occupied[3..].iter().any(|&w| w != 0));
        while let Some(p) = q.pop() {
            popped.push(p);
        }
        assert_eq!(popped.len(), 8 * 64);
        // Chronological, and FIFO within each timestamp: the payload
        // `(round, i)` is the push order, so equal-time neighbours must
        // pop in ascending lexicographic payload order.
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated: {w:?}");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO tie-break violated: {w:?}");
            }
        }
    }
}
