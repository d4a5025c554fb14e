//! Property tests for the event queue: chronological pops, stable ties,
//! clock monotonicity under arbitrary schedules, and exact pop-sequence
//! equivalence of the timing wheel against a reference `BinaryHeap` — on
//! every wheel level, with caller-supplied ties and window-bounded pops,
//! for `Copy` payloads and for owning ones (nodes reused, every payload
//! dropped exactly once).

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

use netclone_des::{EventQueue, SimTime};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The reference implementation: the queue as it first was, kept as the
// ordering oracle — a max-`BinaryHeap` of `(time, seq)` entries with
// inverted comparison and FIFO tie-breaking on the push sequence number
// (or the caller's tie).
// ---------------------------------------------------------------------

struct RefEntry<E> {
    at: SimTime,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for RefEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for RefEntry<E> {}
impl<E> PartialOrd for RefEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for RefEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct ReferenceQueue<E> {
    heap: BinaryHeap<RefEntry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> ReferenceQueue<E> {
    fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn schedule(&mut self, at: SimTime, ev: E) {
        assert!(at >= self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(RefEntry { at, seq, ev });
    }

    fn schedule_keyed(&mut self, at: SimTime, tie: u64, ev: E) {
        assert!(at >= self.now);
        self.heap.push(RefEntry { at, seq: tie, ev });
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        let e = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.seq, e.ev))
    }
}

/// One step of the interleaved workload.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Schedule an event `delay` ns after the current clock. Small delays
    /// (including 0) force timestamp collisions, the FIFO-critical case.
    Schedule(u64),
    /// Pop the earliest event (a no-op on an empty queue).
    Pop,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..50).prop_map(Op::Schedule),
        (0u64..100_000).prop_map(Op::Schedule),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

proptest! {
    /// The seed-pinned regression suites require the new queue to pop the
    /// *exact* `(time, seq)` sequence the old `BinaryHeap` popped, for
    /// any interleaving of schedules and pops.
    #[test]
    fn wheel_matches_binary_heap_reference(ops in proptest::collection::vec(arb_op(), 1..400)) {
        let mut q = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        // Payload = push index = the reference's seq, so the assertion
        // catches any permutation, even among colliding timestamps.
        let mut pushed = 0u64;
        for op in ops {
            match op {
                Op::Schedule(delay) => {
                    // Pops are asserted identical below, so both clocks
                    // agree and relative delays yield identical absolute
                    // timestamps.
                    let at = q.now() + delay;
                    q.schedule(at, pushed);
                    reference.schedule(at, pushed);
                    pushed += 1;
                }
                Op::Pop => match (q.pop(), reference.pop()) {
                    (None, None) => {}
                    (Some((at, ev)), Some((r_at, r_seq, r_ev))) => {
                        prop_assert_eq!(at, r_at, "pop time diverged");
                        prop_assert_eq!(ev, r_ev, "pop order diverged");
                        prop_assert_eq!(ev, r_seq);
                        prop_assert_eq!(q.now(), reference.now);
                    }
                    (got, want) => prop_assert!(
                        false,
                        "emptiness diverged: {:?} vs reference {:?}",
                        got,
                        want.map(|w| (w.0, w.1))
                    ),
                },
            }
        }
        // Drain both: the tails must agree too.
        while let Some((at, ev)) = q.pop() {
            let (r_at, _, r_ev) = reference.pop().expect("reference drained early");
            prop_assert_eq!(at, r_at);
            prop_assert_eq!(ev, r_ev);
        }
        prop_assert!(reference.pop().is_none(), "new queue drained early");
    }
}

/// One step of the wide-range workload.
#[derive(Clone, Copy, Debug)]
enum WideOp {
    /// `schedule` at `now + delay`.
    Plain(u64),
    /// `schedule_keyed` at `now + delay` with a tie whose high half is the
    /// second field: unrelated to push order, so at delay 0 it is often
    /// below the tie just popped at this instant.
    Keyed(u64, u64),
    Pop,
    /// `pop_keyed_before(now + delay)`: a window loop's bounded pop.
    PopBefore(u64),
}

/// Delays drawn by bit-width, so every wheel level is as likely as every
/// other; one in four is 0 (the current instant).
fn arb_delay() -> impl Strategy<Value = u64> {
    (1u32..=62, any::<u64>(), 0u8..4)
        .prop_map(|(width, raw, die)| if die == 0 { 0 } else { raw >> (64 - width) })
}

fn arb_wide_op() -> impl Strategy<Value = WideOp> {
    prop_oneof![
        arb_delay().prop_map(WideOp::Plain),
        (arb_delay(), 1u64..4).prop_map(|(delay, hi)| WideOp::Keyed(delay, hi)),
        Just(WideOp::Pop),
        Just(WideOp::Pop),
        arb_delay().prop_map(WideOp::PopBefore),
    ]
}

proptest! {
    /// What the narrow workload above cannot reach: delays of every
    /// bit-width up to 2^62 (all eleven wheel levels, re-placement down
    /// from each), a clock that starts anywhere up to `u64::MAX`,
    /// colliding times under caller-supplied ties, scheduling at `now()`
    /// (delay 0), `peek_time` before every pop, `len` after every step —
    /// and `pop_keyed_before` with limits of every bit-width: it pops
    /// exactly when `peek_time() < limit` and what `pop_keyed` would, and a
    /// refusal (the limit at `now()` always is one) leaves the clock, the
    /// length and every later pop as they were.
    #[test]
    fn wide_delays_and_caller_ties_match_reference(
        start in prop_oneof![Just(0u64), any::<u64>(), u64::MAX - (1 << 20)..=u64::MAX],
        ops in proptest::collection::vec(arb_wide_op(), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        // Start the clock at `start` with a tie popped and one pending.
        for _ in 0..2 {
            q.schedule(SimTime::from_ns(start), u64::MAX);
            reference.schedule(SimTime::from_ns(start), u64::MAX);
        }
        prop_assert_eq!(q.pop().map(|(at, _)| at), reference.pop().map(|(at, ..)| at));
        let mut pushed = 0u64;
        for op in ops {
            let after = |delay: u64| SimTime::from_ns(q.now().as_ns().saturating_add(delay));
            match op {
                WideOp::Plain(delay) => {
                    let at = after(delay);
                    q.schedule(at, pushed);
                    reference.schedule(at, pushed);
                    pushed += 1;
                }
                WideOp::Keyed(delay, hi) => {
                    // Unique (the push index), above every `schedule`
                    // sequence number (`hi >= 1`), ordered by `hi` first.
                    let (at, tie) = (after(delay), hi << 32 | pushed);
                    q.schedule_keyed(at, tie, pushed);
                    reference.schedule_keyed(at, tie, pushed);
                    pushed += 1;
                }
                WideOp::Pop => {
                    let now = q.now();
                    prop_assert_eq!(q.peek_time(), reference.peek_time());
                    prop_assert_eq!(q.now(), now, "peek_time moved the clock");
                    prop_assert_eq!(q.pop_keyed(), reference.pop());
                }
                WideOp::PopBefore(delay) => {
                    let (now, limit) = (q.now(), after(delay));
                    let due = reference.peek_time().is_some_and(|t| t < limit);
                    let want = if due { reference.pop() } else { None };
                    prop_assert_eq!(q.pop_keyed_before(limit.as_ns()), want);
                    if !due {
                        prop_assert_eq!(q.now(), now, "a refused pop moved the clock");
                    }
                }
            }
            prop_assert_eq!(q.len(), reference.heap.len());
        }
        while let Some(got) = q.pop_keyed() {
            prop_assert_eq!(Some(got), reference.pop());
            prop_assert_eq!(q.len(), reference.heap.len());
        }
        prop_assert!(reference.pop().is_none(), "wheel drained early");
    }
}

/// A tie below one already popped at the current instant still pops
/// before everything else pending: the order is on what is in the queue,
/// not on what has left it.
#[test]
fn a_tie_below_the_one_just_popped_pops_next() {
    let mut q = EventQueue::new();
    let t = SimTime::from_us(3);
    q.schedule_keyed(t, 50, "popped first");
    q.schedule_keyed(t, 70, "later tie");
    q.schedule_keyed(t + 1, 0, "later time");
    assert_eq!(q.pop_keyed(), Some((t, 50, "popped first")));
    q.schedule_keyed(t, 10, "below the popped tie");
    q.schedule(q.now(), "seq 0: the smallest tie of all");
    let rest: Vec<_> = std::iter::from_fn(|| q.pop_keyed())
        .map(|(_, tie, _)| tie)
        .collect();
    assert_eq!(rest, [0, 10, 70, 0]);
    assert_eq!(q.now(), t + 1);
}

/// The one place the wheel is worse than a heap: a level-0 slot holds a
/// single instant, and each pop scans that instant's whole list for the
/// smallest tie (module docs). Order holds at 4,096 same-instant events,
/// far beyond the handful the workloads put on one instant.
#[test]
fn four_thousand_events_at_one_instant_drain_in_tie_order() {
    const N: u64 = 4_096;
    let mut q = EventQueue::new();
    for i in 0..N {
        // 2_654_435_761 is odd, so this permutes 0..N.
        q.schedule_keyed(SimTime::from_ns(999), i * 2_654_435_761 % N, ());
    }
    let ties: Vec<u64> = std::iter::from_fn(|| q.pop_keyed())
        .map(|(_, tie, _)| tie)
        .collect();
    assert!(ties.iter().copied().eq(0..N));
}

/// An owning payload: carries its push index on the heap (`Box`) and
/// counts its own drop in a shared tally.
struct Tracked {
    id: Box<u64>,
    drops: Rc<RefCell<Vec<u32>>>,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.borrow_mut()[*self.id as usize] += 1;
    }
}

proptest! {
    /// Payloads live in slab nodes that are vacated on pop and reused by
    /// later schedules. With a non-`Copy` payload under any interleaving:
    /// pop order still equals the reference's, a popped payload is the one
    /// that was scheduled under that key (no slot mix-up), and every
    /// payload is dropped exactly once — by its popper, or by the queue
    /// when it is dropped non-empty.
    #[test]
    fn owning_payloads_keep_order_and_drop_exactly_once(
        ops in proptest::collection::vec(arb_op(), 1..400),
        drain in any::<bool>(),
    ) {
        let drops = Rc::new(RefCell::new(Vec::new()));
        let mut q = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for op in ops {
            match op {
                Op::Schedule(delay) => {
                    let at = q.now() + delay;
                    drops.borrow_mut().push(0);
                    q.schedule(at, Tracked { id: Box::new(pushed), drops: Rc::clone(&drops) });
                    reference.schedule(at, pushed);
                    pushed += 1;
                }
                Op::Pop => {
                    let got = q.pop();
                    let want = reference.pop();
                    prop_assert_eq!(got.is_some(), want.is_some(), "emptiness diverged");
                    if let (Some((at, ev)), Some((r_at, _, r_ev))) = (got, want) {
                        prop_assert_eq!(at, r_at, "pop time diverged");
                        prop_assert_eq!(*ev.id, r_ev, "pop order diverged");
                        prop_assert_eq!(drops.borrow()[r_ev as usize], 0, "dropped while queued");
                        drop(ev);
                        prop_assert_eq!(drops.borrow()[r_ev as usize], 1);
                        popped += 1;
                    }
                }
            }
            prop_assert_eq!(q.len() as u64, pushed - popped);
        }
        if drain {
            while let Some((at, ev)) = q.pop() {
                let (r_at, _, r_ev) = reference.pop().expect("reference drained early");
                prop_assert_eq!((at, *ev.id), (r_at, r_ev));
            }
            prop_assert!(reference.pop().is_none(), "new queue drained early");
        }
        drop(q);
        prop_assert!(
            drops.borrow().iter().all(|&n| n == 1),
            "drop counts per payload: {:?}",
            drops.borrow()
        );
    }
}

proptest! {
    /// Popping returns events in non-decreasing time order regardless of
    /// push order.
    #[test]
    fn pops_are_chronological(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ns(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
        }
    }

    /// Events at equal times pop in push order (stable ties).
    #[test]
    fn equal_times_are_fifo(n in 1usize..100, t in 0u64..1_000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_ns(t), i);
        }
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let expected: Vec<usize> = (0..n).collect();
        prop_assert_eq!(popped, expected);
    }

    /// Interleaving schedule_in with pops keeps the clock monotone and
    /// drains everything exactly once.
    #[test]
    fn interleaved_scheduling_drains_once(
        script in proptest::collection::vec((0u64..10_000, 0u8..3), 1..100)
    ) {
        let mut q = EventQueue::new();
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for &(delay, extra) in &script {
            q.schedule_in(delay, ());
            pushed += 1;
            for _ in 0..extra {
                if q.pop().is_some() {
                    popped += 1;
                }
            }
        }
        while q.pop().is_some() {
            popped += 1;
        }
        prop_assert_eq!(pushed, popped);
        prop_assert_eq!(q.scheduled_total(), pushed);
    }
}
