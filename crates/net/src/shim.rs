//! Deterministic fault injection for the real-socket frontend.
//!
//! A [`FaultShim`] sits between the codec and the socket on a worker's
//! send and receive paths and perturbs datagrams — drop, delay,
//! duplicate — inside configured time windows, from a seeded RNG. Every
//! worker owns its own shim (same sharding discipline as the cores), so
//! the per-packet path stays lock-free and the draw sequence of one
//! worker cannot shift another's: given the same seed, windows, and
//! packet sequence, the shim makes the same decisions.
//!
//! The shim is I/O-free on purpose: a worker passes each datagram through
//! it once per direction ([`FaultShim::pass`]) and sends or handles the
//! verdict's [`FaultAction::copies`] — none when dropped or parked, two
//! when duplicated. A parked payload comes back from [`FaultShim::due`]
//! once its hold expires. This mirrors the DES frontend, where the same
//! fault classes are scheduled as control events — the real-socket path
//! injects them at the socket boundary instead, which is where a real
//! network would.

use std::collections::VecDeque;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which side of the socket a window applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDirection {
    /// Outbound datagrams only (after encode, before send).
    Tx,
    /// Inbound datagrams only (after receive, before decode).
    Rx,
    /// Both directions.
    Both,
}

impl FaultDirection {
    fn covers(self, dir: FaultDirection) -> bool {
        self == FaultDirection::Both || self == dir
    }
}

/// One timed fault window: inside `[from, until)` each matching datagram
/// is independently dropped with `drop_prob`, else duplicated with
/// `dup_prob`, else delayed by `delay` (when non-zero).
#[derive(Clone, Debug)]
pub struct FaultWindow {
    /// Window start, elapsed time since the run's epoch.
    pub from: Duration,
    /// Window end (exclusive).
    pub until: Duration,
    /// Which direction the window perturbs.
    pub direction: FaultDirection,
    /// Probability a matching datagram is dropped.
    pub drop_prob: f64,
    /// Probability a surviving datagram is sent twice.
    pub dup_prob: f64,
    /// Hold applied to surviving, non-duplicated datagrams
    /// (`Duration::ZERO` delivers immediately).
    pub delay: Duration,
}

impl FaultWindow {
    fn active(&self, now: Duration) -> bool {
        now >= self.from && now < self.until
    }
}

/// The shim's verdict for one datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Pass through untouched.
    Deliver,
    /// Discard silently.
    Drop,
    /// Deliver twice.
    Duplicate,
    /// Parked inside the shim; poll [`FaultShim::due`] to release it.
    Delay,
}

impl FaultAction {
    /// Copies of the datagram to pass on now: none when dropped or
    /// parked, two when duplicated.
    pub fn copies(self) -> usize {
        match self {
            FaultAction::Drop | FaultAction::Delay => 0,
            FaultAction::Deliver => 1,
            FaultAction::Duplicate => 2,
        }
    }
}

/// Fault plan of one endpoint: a seed plus its windows. Workers derive
/// per-worker shims from this ([`FaultShim::for_worker`]).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Base RNG seed; worker `w` draws from a splitmix64-decorrelated
    /// stream so the plan is deterministic per worker, not per run.
    pub seed: u64,
    /// The timed windows, checked in order (first active one wins).
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// True when no window is configured (the shim short-circuits).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

/// A per-worker deterministic fault injector (see the module docs).
pub struct FaultShim {
    windows: Vec<FaultWindow>,
    rng: StdRng,
    /// Delayed payloads with their release times and directions (`Tx` or
    /// `Rx`). Mostly release-ordered — every delay inside one window is
    /// constant and `now` is monotone per worker — but windows with
    /// different delays can interleave, so release scans for the first
    /// due entry rather than trusting the front.
    held: VecDeque<(Duration, FaultDirection, Vec<u8>)>,
}

impl FaultShim {
    /// Builds a shim drawing from `seed` with the given windows.
    pub fn new(seed: u64, windows: Vec<FaultWindow>) -> Self {
        FaultShim {
            windows,
            rng: StdRng::seed_from_u64(seed),
            held: VecDeque::new(),
        }
    }

    /// Builds worker `w`'s shim for a shared plan: identical windows, and
    /// the stream `openloop::worker_seed` derives for worker `w`.
    pub fn for_worker(plan: &FaultPlan, w: usize) -> Self {
        FaultShim::new(
            crate::openloop::worker_seed(plan.seed, w),
            plan.windows.clone(),
        )
    }

    /// The verdict for one datagram crossing the socket in direction
    /// `dir` (`Tx` after encode, `Rx` after receive). The first active
    /// window that applies to `dir` decides; on [`FaultAction::Delay`]
    /// the shim keeps a copy, held for that window's delay, until
    /// [`Self::due`] releases it.
    pub fn pass(&mut self, dir: FaultDirection, now: Duration, payload: &[u8]) -> FaultAction {
        let Some(w) = self
            .windows
            .iter()
            .find(|w| w.active(now) && w.direction.covers(dir))
        else {
            return FaultAction::Deliver;
        };
        // One draw per decision point, taken unconditionally, so a
        // window's packet count alone determines the stream position.
        let (d1, d2): (f64, f64) = (self.rng.random(), self.rng.random());
        if d1 < w.drop_prob {
            FaultAction::Drop
        } else if d2 < w.dup_prob {
            FaultAction::Duplicate
        } else if w.delay > Duration::ZERO {
            self.held.push_back((now + w.delay, dir, payload.to_vec()));
            FaultAction::Delay
        } else {
            FaultAction::Deliver
        }
    }

    /// Releases the first parked payload whose hold has expired, with the
    /// direction it was parked in: an outbound one goes to the socket, an
    /// inbound one to the decoder. Call in a loop each iteration of the
    /// worker loop. Within one window the queue is release-ordered, so
    /// this is an O(1) front check in the steady state; the scan matters
    /// only across adjacent windows with different delays, where a
    /// short-hold payload can be parked behind a long-hold one and must
    /// not be held for the longer delay.
    pub fn due(&mut self, now: Duration) -> Option<(FaultDirection, Vec<u8>)> {
        let i = self.held.iter().position(|(at, _, _)| *at <= now)?;
        self.held.remove(i).map(|(_, dir, p)| (dir, p))
    }

    /// Payloads still parked in either direction (diagnostics / final
    /// drain decisions).
    pub fn held(&self) -> usize {
        self.held.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use FaultDirection::{Rx, Tx};

    fn window(drop: f64, dup: f64, delay_ms: u64) -> FaultWindow {
        FaultWindow {
            from: Duration::from_millis(10),
            until: Duration::from_millis(20),
            direction: FaultDirection::Both,
            drop_prob: drop,
            dup_prob: dup,
            delay: Duration::from_millis(delay_ms),
        }
    }

    #[test]
    fn outside_a_window_everything_delivers() {
        let mut s = FaultShim::new(1, vec![window(1.0, 1.0, 5)]);
        assert_eq!(
            s.pass(Tx, Duration::from_millis(5), b"x"),
            FaultAction::Deliver
        );
        assert_eq!(
            s.pass(Rx, Duration::from_millis(25), b"x"),
            FaultAction::Deliver
        );
    }

    #[test]
    fn certain_drop_drops_and_certain_dup_duplicates() {
        let mut s = FaultShim::new(1, vec![window(1.0, 0.0, 0)]);
        assert_eq!(
            s.pass(Tx, Duration::from_millis(15), b"x"),
            FaultAction::Drop
        );
        let mut s = FaultShim::new(1, vec![window(0.0, 1.0, 0)]);
        assert_eq!(
            s.pass(Rx, Duration::from_millis(15), b"x"),
            FaultAction::Duplicate
        );
    }

    #[test]
    fn delay_parks_and_releases_in_order_per_direction() {
        let mut s = FaultShim::new(1, vec![window(0.0, 0.0, 5)]);
        assert_eq!(
            s.pass(Tx, Duration::from_millis(11), b"a"),
            FaultAction::Delay
        );
        assert_eq!(
            s.pass(Rx, Duration::from_millis(11), b"r"),
            FaultAction::Delay
        );
        assert_eq!(
            s.pass(Tx, Duration::from_millis(12), b"b"),
            FaultAction::Delay
        );
        assert_eq!(s.held(), 3);
        assert!(s.due(Duration::from_millis(15)).is_none());
        assert_eq!(s.due(Duration::from_millis(16)), Some((Tx, b"a".to_vec())));
        assert_eq!(s.due(Duration::from_millis(16)), Some((Rx, b"r".to_vec())));
        assert!(s.due(Duration::from_millis(16)).is_none());
        assert_eq!(s.due(Duration::from_millis(17)), Some((Tx, b"b".to_vec())));
        assert_eq!(s.held(), 0);
    }

    #[test]
    fn delay_comes_from_the_window_that_matched_the_direction() {
        // A Tx-only long-hold window ordered before an Rx short-hold one:
        // the Rx verdict must take the Rx window's 2 ms delay, not be held
        // for the Tx window's 10 ms.
        let mut tx_w = window(0.0, 0.0, 10);
        tx_w.direction = FaultDirection::Tx;
        let mut rx_w = window(0.0, 0.0, 2);
        rx_w.direction = FaultDirection::Rx;
        let mut s = FaultShim::new(1, vec![tx_w, rx_w]);
        assert_eq!(
            s.pass(Rx, Duration::from_millis(11), b"r"),
            FaultAction::Delay
        );
        assert_eq!(s.due(Duration::from_millis(13)), Some((Rx, b"r".to_vec())));
        // And the Tx verdict still takes the Tx window's 10 ms.
        assert_eq!(
            s.pass(Tx, Duration::from_millis(11), b"t"),
            FaultAction::Delay
        );
        assert!(s.due(Duration::from_millis(13)).is_none());
        assert_eq!(s.due(Duration::from_millis(21)), Some((Tx, b"t".to_vec())));
    }

    #[test]
    fn short_hold_is_not_stuck_behind_long_hold_across_windows() {
        // Adjacent windows with different delays: a payload held 10 ms in
        // the first window parks ahead of one held 1 ms in the second, but
        // the short hold must still release on its own schedule.
        let long = FaultWindow {
            from: Duration::from_millis(10),
            until: Duration::from_millis(20),
            direction: FaultDirection::Both,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay: Duration::from_millis(10),
        };
        let short = FaultWindow {
            from: Duration::from_millis(20),
            until: Duration::from_millis(30),
            direction: FaultDirection::Both,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay: Duration::from_millis(1),
        };
        let mut s = FaultShim::new(1, vec![long, short]);
        assert_eq!(
            s.pass(Tx, Duration::from_millis(19), b"L"),
            FaultAction::Delay
        ); // due 29 ms
        assert_eq!(
            s.pass(Tx, Duration::from_millis(21), b"S"),
            FaultAction::Delay
        ); // due 22 ms
        assert_eq!(s.due(Duration::from_millis(23)), Some((Tx, b"S".to_vec())));
        assert!(s.due(Duration::from_millis(23)).is_none());
        assert_eq!(s.due(Duration::from_millis(29)), Some((Tx, b"L".to_vec())));
        assert_eq!(s.held(), 0);
    }

    #[test]
    fn direction_gates_the_verdict() {
        let mut w = window(1.0, 0.0, 0);
        w.direction = FaultDirection::Tx;
        let mut s = FaultShim::new(1, vec![w]);
        assert_eq!(
            s.pass(Rx, Duration::from_millis(15), b"x"),
            FaultAction::Deliver
        );
        assert_eq!(
            s.pass(Tx, Duration::from_millis(15), b"x"),
            FaultAction::Drop
        );
    }

    #[test]
    fn same_seed_same_decisions() {
        let windows = vec![window(0.4, 0.4, 1)];
        let mut a = FaultShim::new(7, windows.clone());
        let mut b = FaultShim::new(7, windows);
        for i in 0..200u64 {
            let t = Duration::from_millis(10) + Duration::from_micros(i * 40);
            assert_eq!(a.pass(Tx, t, b"x"), b.pass(Tx, t, b"x"));
        }
    }
}
