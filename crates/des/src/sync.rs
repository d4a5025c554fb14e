//! Conservative synchronization for sharded simulations.
//!
//! A sharded discrete-event simulation partitions the model into domains
//! (here: racks), gives each shard a private [`EventQueue`](crate::EventQueue), and lets the
//! shards run concurrently under the classic *conservative lookahead*
//! rule: if every cross-shard interaction takes at least `lookahead_ns`
//! of simulated time to arrive, each shard may safely execute every event
//! strictly before
//!
//! ```text
//! window_end = min(all shards' next-event times) + lookahead_ns
//! ```
//!
//! because no message sent by a peer inside the window can land inside
//! it. Shards advance in rounds, and [`WindowRounds`] is the round: each
//! shard holds a [`Port`] and, per round, calls [`Port::open`] (publish a
//! horizon, cross the barrier, read the window end), [`Port::take`] (the
//! mail peers posted last round), executes the window, and
//! [`Port::post`]s its outbound messages for the next round. **One
//! barrier per round**, and two arguments carry it:
//!
//! * *The board is complete without a delivery barrier.* A shard
//!   publishes `min(own next event, earliest delivery time among the
//!   messages it just posted)`, so the minimum over the board equals the
//!   minimum over every queue *as if* all mail had already been
//!   delivered; a receiver need not have seen its mail for the window end
//!   to account for it.
//! * *Parity buffering is race-free.* Round `r` publishes to board half
//!   `r & 1`, posts to mailbox half `r & 1` and takes from half
//!   `(r - 1) & 1`. A shard can be at most one round ahead of a peer (it
//!   cannot leave round `r + 1`'s barrier before the peer arrives there),
//!   so while a slow peer still reads the halves of round `r` a fast one
//!   writes only those of round `r + 1` — the other parity. Round `r + 2`
//!   reuses round `r`'s halves only after everyone has crossed barrier
//!   `r + 1`, hence finished with them.
//!
//! The pieces:
//!
//! * [`tie_key`] — the per-domain tie-break key that makes the *merged*
//!   execution order a machine-independent total order (see below);
//! * [`HorizonBoard`] — the shared, parity-buffered horizon slots;
//! * [`SpinBarrier`] — an arrival-ticket barrier that spins briefly and
//!   then yields, so oversubscribed hosts (fewer cores than shards)
//!   degrade gracefully instead of livelocking.
//!
//! ## Why `(time, domain, seq)` keys keep runs bit-identical
//!
//! A single global push-sequence tie-break (what [`EventQueue::schedule`](crate::EventQueue::schedule)
//! does) is inherently serial: the sequence a parallel run would assign
//! depends on the interleaving. Instead, every event is keyed by its
//! *source domain* and a *per-domain* sequence number, packed by
//! [`tie_key`]. Domains execute their own events in key order and stamp
//! outbound events deterministically, so the key every event carries — and
//! therefore the order any queue pops overlapping events — is independent
//! of how many shards executed the run. `netclone-cluster` asserts the
//! resulting serial/sharded bit-identity over random topologies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::SimTime;

/// Sequence numbers occupy the low 48 bits of a tie key; the source
/// domain sits above them. 2^48 events per domain is far beyond any run
/// this simulator performs (a billion-event run uses 0.0004% of it).
pub const TIE_SEQ_BITS: u32 = 48;

/// Packs `(source domain, per-domain sequence)` into one tie-break key
/// for [`EventQueue::schedule_keyed`](crate::EventQueue::schedule_keyed).
/// Ordering is `(src, seq)` lexicographic; keys from different domains
/// never collide.
#[inline]
pub const fn tie_key(src: u16, seq: u64) -> u64 {
    debug_assert!(seq < (1u64 << TIE_SEQ_BITS), "per-domain sequence overflow");
    ((src as u64) << TIE_SEQ_BITS) | seq
}

/// Source-domain half of a tie key (diagnostics).
#[inline]
pub const fn tie_src(tie: u64) -> u16 {
    (tie >> TIE_SEQ_BITS) as u16
}

/// One shared horizon slot per shard and round parity. A shard
/// *publishes* its horizon for a round (the earliest time at which it, or
/// a message it has posted, next needs to run; [`HorizonBoard::IDLE`] when
/// there is none) before the round's barrier; after the barrier every
/// shard reads the same minimum and derives the same window end. Rounds of
/// opposite parity use disjoint slots, so publishing for round `r + 1`
/// never disturbs a peer still reading round `r`.
pub struct HorizonBoard {
    /// `slots[round & 1][shard]`.
    slots: [Vec<AtomicU64>; 2],
}

impl HorizonBoard {
    /// The published value of a shard with nothing left to run. An
    /// all-idle board is the termination condition.
    pub const IDLE: u64 = u64::MAX;

    /// A board for `n` shards, all idle.
    pub fn new(n: usize) -> Self {
        let half = || (0..n).map(|_| AtomicU64::new(Self::IDLE)).collect();
        HorizonBoard {
            slots: [half(), half()],
        }
    }

    /// Publishes shard `k`'s horizon for `round`. (Release here pairs
    /// with the acquire in [`min`](Self::min); in the round protocol the
    /// barrier between them already orders the two.)
    #[inline]
    pub fn publish(&self, round: u64, k: usize, horizon_ns: u64) {
        self.slots[(round & 1) as usize][k].store(horizon_ns, Ordering::Release);
    }

    /// The minimum horizon published for `round` ([`Self::IDLE`] when
    /// every shard is drained). Call only between `round`'s barrier and
    /// the next one.
    #[inline]
    pub fn min(&self, round: u64) -> u64 {
        self.slots[(round & 1) as usize]
            .iter()
            .map(|s| s.load(Ordering::Acquire))
            .min()
            .unwrap_or(Self::IDLE)
    }
}

/// The end of the current conservative window: every shard may execute
/// events with `time < window_end`. `None` means all shards are drained
/// and the round loop should terminate.
#[inline]
pub fn window_end(min_horizon_ns: u64, lookahead_ns: u64) -> Option<u64> {
    (min_horizon_ns != HorizonBoard::IDLE).then(|| min_horizon_ns.saturating_add(lookahead_ns))
}

/// A reusable barrier over one shared word: a monotonic count of arrivals.
///
/// An arrival takes the next ticket; its generation is complete once the
/// count reaches the next multiple of `n` above the ticket. The count only
/// grows, so a fast participant re-arriving for the next generation cannot
/// hide this one's completion from a slow waiter, and the last arrival
/// releases the rest with the same single `fetch_add` that announced it.
///
/// Unlike `std::sync::Barrier`, waiting spins (for the common case of one
/// shard per core and sub-microsecond rounds) and falls back to
/// `yield_now` after a few iterations, so shard counts above the core
/// count — the 1-core CI case included — still make forward progress.
pub struct SpinBarrier {
    n: u64,
    arrivals: AtomicU64,
}

impl SpinBarrier {
    /// Tickets stop here, half-way to the wrap (at an arrival per
    /// nanosecond, 292 years away): an arrival at or past it panics rather
    /// than let a generation straddle the wrap, where `ticket / n` stops
    /// naming generations. Poisoning moves the count into the same range.
    const TICKET_LIMIT: u64 = 1 << 63;

    /// A barrier for `n` participants.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a barrier needs at least one participant");
        SpinBarrier {
            n: n as u64,
            arrivals: AtomicU64::new(0),
        }
    }

    /// Blocks until all `n` participants have called `wait` for this
    /// generation; the barrier is immediately reusable. Everything a
    /// participant wrote before arriving is visible to every participant
    /// after it returns. Panics if a participant panicked (see [`Port`])
    /// or the barrier has run out of tickets.
    pub fn wait(&self) {
        // Every arrival is a release RMW on the one word, so the count a
        // waiter's acquire load finally sees sits in the release sequence
        // of each earlier arrival: it synchronises with all of them.
        let ticket = self.arrivals.fetch_add(1, Ordering::AcqRel);
        // Clamped, so a poisoned or exhausted count releases (and fails)
        // every waiter whatever its ticket.
        let complete_at = (ticket - ticket % self.n)
            .saturating_add(self.n)
            .min(Self::TICKET_LIMIT);
        let mut spins = 0u32;
        loop {
            let seen = self.arrivals.load(Ordering::Acquire);
            if seen >= complete_at {
                assert!(
                    seen < Self::TICKET_LIMIT,
                    "barrier poisoned by a panicking participant, or out of tickets \
                     (ticket {ticket})"
                );
                return;
            }
            spins = spins.wrapping_add(1);
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Makes every current and future [`wait`](Self::wait) panic instead
    /// of block. A participant that cannot reach the barrier again (it is
    /// unwinding) calls this so its peers fail with it rather than spin
    /// forever.
    fn poison(&self) {
        self.arrivals.fetch_or(Self::TICKET_LIMIT, Ordering::AcqRel);
    }
}

/// The one-barrier conservative round for `n` shards exchanging messages
/// of type `M` (see the [module docs](self) for the protocol and why one
/// barrier suffices). Shared by reference; each shard drives its own
/// [`Port`].
pub struct WindowRounds<M> {
    lookahead_ns: u64,
    board: HorizonBoard,
    barrier: SpinBarrier,
    /// `mail[round & 1][destination shard]`.
    mail: [Vec<Mutex<Vec<M>>>; 2],
}

impl<M> WindowRounds<M> {
    /// Rounds for `n` shards whose cross-shard messages all take at least
    /// `lookahead_ns` of simulated time to arrive.
    pub fn new(n: usize, lookahead_ns: u64) -> Self {
        assert!(lookahead_ns > 0, "a zero lookahead cannot make progress");
        let half = || (0..n).map(|_| Mutex::new(Vec::new())).collect();
        WindowRounds {
            lookahead_ns,
            board: HorizonBoard::new(n),
            barrier: SpinBarrier::new(n),
            mail: [half(), half()],
        }
    }

    /// Shard `k`'s handle. Exactly one port per shard may be driven.
    pub fn port(&self, k: usize) -> Port<'_, M> {
        Port {
            rounds: self,
            k,
            round: 0,
            posted_min_ns: HorizonBoard::IDLE,
        }
    }

    /// Messages posted and not yet taken: zero once every port's
    /// [`open`](Port::open) has returned `None`.
    pub fn undelivered(&self) -> usize {
        let boxes = self.mail.iter().flatten();
        boxes.map(|m| m.lock().expect("mailbox").len()).sum()
    }
}

/// One shard's side of [`WindowRounds`]. Per round: [`open`](Self::open),
/// [`take`](Self::take), execute the window, [`post`](Self::post) to each
/// destination. Dropped during a panic, it poisons the barrier so the
/// other shards fail too instead of waiting for this one forever.
pub struct Port<'a, M> {
    rounds: &'a WindowRounds<M>,
    k: usize,
    /// The round last opened; rounds count from 1.
    round: u64,
    /// Earliest delivery time among the messages posted this round.
    posted_min_ns: u64,
}

impl<M> Port<'_, M> {
    /// Opens the next round: publishes this shard's horizon — its next
    /// local event (`None` = empty queue) or the earliest message it
    /// posted last round, whichever is sooner — crosses the barrier and
    /// returns the window end every shard agrees on, or `None` when all
    /// shards are idle and no mail is in flight (all ports see that in
    /// the same round).
    pub fn open(&mut self, next_local: Option<SimTime>) -> Option<u64> {
        let local_ns = next_local.map_or(HorizonBoard::IDLE, SimTime::as_ns);
        let horizon_ns = local_ns.min(self.posted_min_ns);
        self.posted_min_ns = HorizonBoard::IDLE;
        self.round += 1;
        let rounds = self.rounds;
        rounds.board.publish(self.round, self.k, horizon_ns);
        rounds.barrier.wait();
        window_end(rounds.board.min(self.round), rounds.lookahead_ns)
    }

    /// Moves the messages peers posted to this shard during the previous
    /// round into `inbound` (which must be empty: the two buffers swap,
    /// so both keep their capacity and no round allocates). All of them
    /// are due at or after the previous round's window end.
    pub fn take(&mut self, inbound: &mut Vec<M>) {
        debug_assert!(inbound.is_empty(), "undelivered mail would be lost");
        let half = &self.rounds.mail[((self.round ^ 1) & 1) as usize];
        std::mem::swap(inbound, &mut *half[self.k].lock().expect("mailbox"));
    }

    /// Posts `out` (drained) to shard `dst` for delivery next round;
    /// `at_ns` reads a message's delivery time, which must be at least
    /// this round's window end.
    pub fn post(&mut self, dst: usize, out: &mut Vec<M>, at_ns: impl Fn(&M) -> u64) {
        let Some(earliest_ns) = out.iter().map(at_ns).min() else {
            return;
        };
        self.posted_min_ns = self.posted_min_ns.min(earliest_ns);
        let half = &self.rounds.mail[(self.round & 1) as usize];
        half[dst].lock().expect("mailbox").append(out);
    }
}

impl<M> Drop for Port<'_, M> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.rounds.barrier.poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn tie_keys_order_by_domain_then_sequence() {
        assert!(tie_key(0, 5) < tie_key(0, 6));
        assert!(tie_key(0, (1 << TIE_SEQ_BITS) - 1) < tie_key(1, 0));
        assert!(tie_key(1, 7) < tie_key(2, 0));
        assert_eq!(tie_src(tie_key(3, 99)), 3);
        assert_eq!(tie_key(0, 42), 42, "domain 0 keys are the raw sequence");
    }

    #[test]
    fn horizon_board_minimum_and_idle() {
        let b = HorizonBoard::new(3);
        assert_eq!(b.min(1), HorizonBoard::IDLE);
        b.publish(1, 0, 500);
        b.publish(1, 1, HorizonBoard::IDLE);
        b.publish(1, 2, 300);
        assert_eq!(b.min(1), 300);
        assert_eq!(window_end(b.min(1), 200), Some(500));
        b.publish(1, 2, HorizonBoard::IDLE);
        b.publish(1, 0, HorizonBoard::IDLE);
        assert_eq!(b.min(1), HorizonBoard::IDLE);
        assert_eq!(window_end(b.min(1), 200), None);
    }

    /// A shard one round ahead publishes while a peer still reads: the
    /// two rounds' slots must not alias, and round `r + 2` reuses `r`'s.
    #[test]
    fn horizon_board_rounds_of_opposite_parity_do_not_alias() {
        let b = HorizonBoard::new(2);
        b.publish(4, 0, 100);
        b.publish(4, 1, 70);
        b.publish(5, 0, 10);
        assert_eq!(b.min(4), 70, "round 5's publish leaked into round 4");
        assert_eq!(b.min(5), 10);
        b.publish(6, 1, 900);
        assert_eq!(b.min(6), 100, "round 6 overwrites round 4's slots");
    }

    #[test]
    fn barrier_synchronises_counters_across_rounds() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 100;
        let barrier = SpinBarrier::new(THREADS);
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for round in 0..ROUNDS {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // Between the two barriers the count is exact: no
                        // thread can run ahead into the next round.
                        let seen = counter.load(Ordering::Relaxed);
                        assert_eq!(seen as usize, (round + 1) * THREADS);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed) as usize, THREADS * ROUNDS);
    }

    #[test]
    fn single_participant_barrier_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            b.wait();
        }
    }

    /// The ticket cannot wrap: the last whole generation below the limit
    /// still synchronises, the one that would reach it panics in every
    /// participant (nobody is left spinning).
    #[test]
    fn barrier_refuses_tickets_at_the_limit_instead_of_wrapping() {
        let barrier = SpinBarrier {
            n: 2,
            arrivals: AtomicU64::new(SpinBarrier::TICKET_LIMIT - 4),
        };
        let passed = AtomicU64::new(0);
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        passed.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        passed.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for t in threads {
                assert!(t.join().is_err(), "a wait at the ticket limit returned");
            }
        });
        assert_eq!(passed.load(Ordering::Relaxed), 2, "one generation each");
    }

    /// A shard that panics mid-round takes its peers down with it: they
    /// are released from the barrier with a panic, not left waiting.
    #[test]
    fn a_panicking_port_fails_its_peers_instead_of_hanging_them() {
        let rounds: WindowRounds<u64> = WindowRounds::new(2, 10);
        std::thread::scope(|s| {
            let (mut a, mut b) = (rounds.port(0), rounds.port(1));
            let a = s.spawn(move || {
                a.open(Some(SimTime::from_ns(1)));
                panic!("shard 0 fails inside its window");
            });
            let b = s.spawn(move || while b.open(Some(SimTime::from_ns(1))).is_some() {});
            assert!(a.join().is_err());
            assert!(b.join().is_err(), "the peer kept running alone");
        });
    }

    /// One message of the protocol tests: who posted it, in which round.
    #[derive(Debug, PartialEq)]
    struct Note {
        from: usize,
        round: u64,
        at: u64,
    }

    /// Shard 0 is forced a full step ahead of everyone else in every
    /// round: a peer may not `take` until shard 0 has already posted this
    /// round's mail (a channel per peer carries the go-ahead). With the
    /// mailboxes double-buffered that post lands in the other half, so
    /// each `take` yields exactly the previous round's notes — one per
    /// peer, none early, none twice — and every shard derives the same
    /// window ends.
    fn fast_poster_against_slow_takers(n: usize) {
        const ROUNDS: u64 = 1_000;
        const LOOKAHEAD: u64 = 50;
        let rounds: WindowRounds<Note> = WindowRounds::new(n, LOOKAHEAD);
        let (go, takers): (Vec<_>, Vec<_>) = (1..n).map(|_| mpsc::channel::<u64>()).unzip();
        let mut takers = takers.into_iter();
        let window_ends: Vec<Vec<u64>> = std::thread::scope(|s| {
            let shards: Vec<_> = (0..n)
                .map(|k| {
                    let mut port = rounds.port(k);
                    let go = if k == 0 { go.clone() } else { Vec::new() };
                    let wait_for = (k > 0).then(|| takers.next().expect("one per taker"));
                    s.spawn(move || {
                        let (mut ends, mut inbound, mut out) = (Vec::new(), Vec::new(), Vec::new());
                        let mut prev_end = 0;
                        loop {
                            let round = ends.len() as u64 + 1;
                            // A local event at the previous window's end
                            // while the script lasts, then only mail.
                            let next = (round <= ROUNDS).then(|| SimTime::from_ns(prev_end));
                            let Some(w_end) = port.open(next) else {
                                break;
                            };
                            if let Some(posted) = &wait_for {
                                if round <= ROUNDS {
                                    assert_eq!(posted.recv(), Ok(round));
                                }
                            }
                            port.take(&mut inbound);
                            inbound.sort_by_key(|m: &Note| m.from);
                            let expect: Vec<Note> = (0..n)
                                .filter(|&from| from != k && round > 1)
                                .map(|from| Note {
                                    from,
                                    round: round - 1,
                                    at: prev_end + from as u64,
                                })
                                .collect();
                            assert_eq!(inbound, expect, "shard {k}, round {round}");
                            inbound.clear();
                            if round <= ROUNDS {
                                for dst in (0..n).filter(|&dst| dst != k) {
                                    out.push(Note {
                                        from: k,
                                        round,
                                        at: w_end + k as u64,
                                    });
                                    port.post(dst, &mut out, |m| m.at);
                                }
                                for tx in &go {
                                    tx.send(round).expect("taker alive");
                                }
                            }
                            ends.push(w_end);
                            prev_end = w_end;
                        }
                        ends
                    })
                })
                .collect();
            shards
                .into_iter()
                .map(|t| t.join().expect("shard"))
                .collect()
        });
        // The script's rounds, plus one that only delivers the last mail.
        let expect: Vec<u64> = (1..=ROUNDS + 1).map(|r| r * LOOKAHEAD).collect();
        for (k, ends) in window_ends.iter().enumerate() {
            assert_eq!(ends, &expect, "shard {k}'s window ends");
        }
        assert_eq!(rounds.undelivered(), 0);
    }

    #[test]
    fn fast_poster_never_writes_the_half_being_taken_2_shards() {
        fast_poster_against_slow_takers(2);
    }

    #[test]
    fn fast_poster_never_writes_the_half_being_taken_3_shards() {
        fast_poster_against_slow_takers(3);
    }

    /// Eight participants on fewer cores: the barrier's yield path.
    #[test]
    fn fast_poster_never_writes_the_half_being_taken_8_shards() {
        fast_poster_against_slow_takers(8);
    }

    /// A shard with an empty queue and mail on its way publishes `IDLE`,
    /// yet the run must not end: the sender's horizon covers the message
    /// until the receiver has it. Only an all-idle board terminates.
    #[test]
    fn mail_in_flight_keeps_the_run_alive_for_an_idle_receiver() {
        const LOOKAHEAD: u64 = 40;
        let rounds: WindowRounds<Note> = WindowRounds::new(2, LOOKAHEAD);
        let at = 100 + LOOKAHEAD;
        std::thread::scope(|s| {
            let (mut sender, mut receiver) = (rounds.port(0), rounds.port(1));
            s.spawn(move || {
                let (mut inbound, mut out) = (Vec::new(), Vec::new());
                // Its only event, at t = 100, sends one message.
                assert_eq!(sender.open(Some(SimTime::from_ns(100))), Some(at));
                sender.take(&mut inbound);
                out.push(Note {
                    from: 0,
                    round: 1,
                    at,
                });
                sender.post(1, &mut out, |m| m.at);
                // Both queues are now empty; the posted message alone
                // sets the next window.
                assert_eq!(sender.open(None), Some(at + LOOKAHEAD));
                sender.take(&mut inbound);
                assert_eq!(sender.open(None), None);
                assert!(inbound.is_empty());
            });
            s.spawn(move || {
                let mut inbound = Vec::new();
                assert_eq!(receiver.open(None), Some(at));
                receiver.take(&mut inbound);
                assert!(inbound.is_empty(), "nothing was posted before round 1");
                assert_eq!(receiver.open(None), Some(at + LOOKAHEAD));
                receiver.take(&mut inbound);
                assert_eq!(inbound.len(), 1, "the message arrives in round 2");
                assert_eq!(inbound[0].at, at);
                // Executed inside round 2's window; nothing follows.
                assert_eq!(receiver.open(None), None);
            });
        });
        assert_eq!(rounds.undelivered(), 0);
    }
}
