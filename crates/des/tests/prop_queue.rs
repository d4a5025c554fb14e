//! Property tests for the event queue: chronological pops, stable ties,
//! clock monotonicity under arbitrary schedules, and — since the queue
//! became an indexed 4-ary heap — exact pop-sequence equivalence against
//! a reference `BinaryHeap` implementation, for `Copy` payloads and for
//! owning ones (slab slots reused, every payload dropped exactly once).

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

use netclone_des::{EventQueue, SimTime};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The reference implementation: the queue as it was before the 4-ary
// heap, kept verbatim as the ordering oracle — a max-`BinaryHeap` of
// `(time, seq)` entries with inverted comparison and FIFO tie-breaking
// on the push sequence number.
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
    fn indexed_heap_matches_binary_heap_reference(ops in proptest::collection::vec(arb_op(), 1..400)) {
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
    /// Payloads live in slab slots that are vacated on pop and reused by
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
