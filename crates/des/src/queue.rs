//! The event queue: a time-ordered priority queue with deterministic
//! FIFO tie-breaking.
//!
//! ## Implementation
//!
//! An **indexed** implicit **4-ary min-heap**: the heap is a flat `Vec` of
//! `(key, slot)` pairs, the payloads sit still in a slab (`Vec<Option<E>>`
//! plus a free list of vacated slots), and `(SimTime, seq)` is packed into
//! one `u128` key (`time << 64 | seq`).
//!
//! * The packed key makes every comparison a single `u128` compare
//!   instead of a two-field `Ord` chain.
//! * Arity 4 halves the tree depth, so a pop touches fewer cache lines.
//! * A sift swap moves one 32-byte heap entry whatever `size_of::<E>()`
//!   is; each payload is written once on schedule and read once on pop.
//! * Heap, slab and free list only grow to the queue's high-water depth,
//!   so steady-state schedule/pop allocates nothing.
//!
//! Because `seq` increments on every push, keys are unique and the pop
//! order is a **total** order identical to a `BinaryHeap` with
//! `(time, seq)` tie-breaking — bit-for-bit, which the seed-pinned
//! regression tests rely on. `tests/prop_queue.rs` checks this against
//! that reference under arbitrary interleaved schedule/pop workloads.

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

/// Heap arity. 4 is the sweet spot for shallow trees with cheap
/// min-of-children scans on small events.
const D: usize = 4;

/// A deterministic discrete-event queue.
///
/// Events scheduled for the same instant pop in the order they were pushed,
/// which makes whole-simulation runs reproducible for a fixed seed — a
/// property the reproduction leans on (fixed seeds per figure).
pub struct EventQueue<E> {
    /// The implicit d-ary heap of `(key, slab slot)`: `heap[0]` is the
    /// earliest event.
    heap: Vec<(u128, u32)>,
    /// Payloads, `Some` exactly at the slots the heap points to.
    slab: Vec<Option<E>>,
    /// Vacated slab slots, reused before the slab grows.
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
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
    /// back to unspecified (heap) ordering.
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

    /// Parks `ev` in a slab slot and sifts its `(key, slot)` entry in.
    #[inline]
    fn push(&mut self, key: u128, ev: E) {
        self.scheduled_total += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(ev);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("over u32::MAX pending events");
                self.slab.push(Some(ev));
                slot
            }
        };
        self.heap.push((key, slot));
        self.sift_up(self.heap.len() - 1);
    }

    /// Pops the earliest event along with its tie-break key (the low 64
    /// bits of the packed key — the push sequence for
    /// [`schedule`](Self::schedule), the caller's `tie` for
    /// [`schedule_keyed`](Self::schedule_keyed)).
    #[inline]
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        let last = self.heap.pop()?;
        let (k, slot) = if self.heap.is_empty() {
            last
        } else {
            let root = std::mem::replace(&mut self.heap[0], last);
            self.sift_down(0);
            root
        };
        let ev = self.slab[slot as usize]
            .take()
            .expect("heap entry points at a vacated slot");
        self.free.push(slot);
        let at = key_time(k);
        debug_assert!(at >= self.now, "heap returned an out-of-order event");
        self.now = at;
        Some((at, key_tie(k), ev))
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(at, _, ev)| (at, ev))
    }

    /// Timestamp of the next event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|&(k, _)| key_time(k))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (for run diagnostics and the
    /// events/sec throughput report).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Restores the heap invariant upward from `pos` (a freshly pushed
    /// leaf).
    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / D;
            if self.heap[parent].0 <= self.heap[pos].0 {
                break;
            }
            self.heap.swap(parent, pos);
            pos = parent;
        }
    }

    /// Restores the heap invariant downward from `pos` (a freshly
    /// replaced root).
    fn sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        loop {
            let first_child = pos * D + 1;
            if first_child >= len {
                break;
            }
            // The smallest key among up to D children.
            let mut min = first_child;
            let end = (first_child + D).min(len);
            for c in first_child + 1..end {
                if self.heap[c].0 < self.heap[min].0 {
                    min = c;
                }
            }
            if self.heap[pos].0 <= self.heap[min].0 {
                break;
            }
            self.heap.swap(pos, min);
            pos = min;
        }
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
    fn heap_entries_stay_small_whatever_the_payload() {
        // What a sift swaps: key + slot, never the event.
        assert!(std::mem::size_of::<(u128, u32)>() <= 32);
        // Slots vacated by pops are reused before the slab grows.
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            q.schedule_in(round % 7, [round; 16]);
            q.schedule_in(round % 5, [round; 16]);
            q.pop();
            q.pop();
        }
        assert!(q.is_empty());
        assert_eq!(q.slab.len(), 2);
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
    #[should_panic(expected = "scheduled in the past")]
    fn keyed_scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_keyed(SimTime::from_us(10), 0, ());
        q.pop();
        q.schedule_keyed(SimTime::from_us(5), 1, ());
    }

    /// Exercises sift-down through several heap levels with a mix of
    /// ties and distinct keys — deeper than the d-ary branching factor.
    #[test]
    fn deep_heaps_stay_totally_ordered() {
        let mut q = EventQueue::new();
        // Interleave two phases so the heap repeatedly grows and shrinks.
        let mut popped = Vec::new();
        for round in 0u64..8 {
            for i in 0..64u64 {
                // Many colliding timestamps (relative to the advancing
                // clock) to stress FIFO tie-breaking.
                q.schedule(q.now() + (i * 7919 + round) % 97, (round, i));
            }
            for _ in 0..32 {
                popped.push(q.pop().unwrap());
            }
        }
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
