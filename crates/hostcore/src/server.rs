//! [`ServerCore`] — the transport-free server half of the NetClone
//! protocol: the §3.4 clone-drop rule, response construction with the
//! piggybacked queue state, and accounting.
//!
//! The core deliberately does **not** own the request queue: the DES
//! server models it as a `VecDeque` behind simulated worker threads, the
//! real-socket server's is the rest of the receive batch it is working
//! through. Both report the observed queue length to the core, which
//! applies the protocol rules and keeps the counters the evaluation reads.
//!
//! A core has exactly one owner. Its counters are plain `Cell`s behind
//! `&self` methods, so the type is `Send` but not `Sync`: one thread drives
//! it, each counter update is an ordinary add, and sharing a core between
//! threads does not compile. The DES server owns one; each real-socket
//! worker thread owns one and publishes its [`ServerStats`] to the server
//! handle, which merges them across workers.

use std::cell::Cell;

use netclone_proto::{CloneStatus, NetCloneHdr, ServerId, ServerState};

/// What the §3.4 admission rule says to do with an arriving request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Process the request normally (enqueue / start service).
    Admit,
    /// A `CLO=2` clone arriving at a non-empty queue: drop it.
    DropClone,
}

/// A point-in-time snapshot of the server counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests fully served.
    pub served: u64,
    /// Cloned requests dropped at the dispatcher (§3.4).
    pub clones_dropped: u64,
    /// Responses that reported an empty queue (Fig. 13a numerator).
    pub idle_reports: u64,
    /// Total responses sent (Fig. 13a denominator).
    pub responses: u64,
    /// Peak queue length observed.
    pub peak_queue: usize,
}

impl ServerStats {
    /// Folds another core's counters into this one: counts sum, the peak
    /// queue takes the max. Used by sharded frontends where each receive
    /// thread owns its own [`ServerCore`] and stats are merged on read.
    pub fn merge(&mut self, other: &ServerStats) {
        self.served += other.served;
        self.clones_dropped += other.clones_dropped;
        self.idle_reports += other.idle_reports;
        self.responses += other.responses;
        self.peak_queue = self.peak_queue.max(other.peak_queue);
    }
}

/// The sans-io server protocol core, driven by one thread.
///
/// It may move to the thread that drives it, but not be shared with
/// another:
///
/// ```compile_fail,E0277
/// use netclone_hostcore::ServerCore;
///
/// let core = ServerCore::new(0);
/// std::thread::scope(|s| {
///     s.spawn(|| core.stats());
/// });
/// ```
#[derive(Debug)]
pub struct ServerCore {
    sid: ServerId,
    stats: Cell<ServerStats>,
}

impl ServerCore {
    /// Builds a core for server `sid`.
    pub fn new(sid: ServerId) -> Self {
        ServerCore {
            sid,
            stats: Cell::default(),
        }
    }

    /// The server's identity (the `SID` of its responses).
    pub fn sid(&self) -> ServerId {
        self.sid
    }

    /// Statistics so far.
    pub fn stats(&self) -> ServerStats {
        self.stats.get()
    }

    fn count(&self, f: impl FnOnce(&mut ServerStats)) {
        let mut stats = self.stats.get();
        f(&mut stats);
        self.stats.set(stats);
    }

    /// Applies the §3.4 admission rule to a request with clone status
    /// `clo` arriving while the request queue holds `queue_len` entries:
    /// "the server drops the packet request if the queue is not empty when
    /// receiving a cloned request … only cloned requests (CLO=2) are
    /// dropped, while the original (CLO=1) is processed normally."
    pub fn admit(&self, clo: CloneStatus, queue_len: usize) -> AdmitDecision {
        if clo == CloneStatus::Clone && queue_len > 0 {
            self.count(|s| s.clones_dropped += 1);
            AdmitDecision::DropClone
        } else {
            AdmitDecision::Admit
        }
    }

    /// Records the queue depth after an admitted request was actually
    /// enqueued (requests started immediately never deepen the queue).
    pub fn note_queue_depth(&self, queue_len: usize) {
        self.count(|s| s.peak_queue = s.peak_queue.max(queue_len));
    }

    /// Builds the response for `req`, piggybacking the queue length
    /// observed at send time (§3.4/§5.6.1), and accounts the completion.
    pub fn response(&self, req: &NetCloneHdr, queue_len: usize) -> NetCloneHdr {
        let state = ServerState::from_queue_len(queue_len);
        self.count(|s| {
            s.served += 1;
            s.responses += 1;
            s.idle_reports += u64::from(state.is_idle());
        });
        NetCloneHdr::response_to(req, self.sid, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_dropped_iff_queue_nonempty() {
        let s = ServerCore::new(3);
        assert_eq!(s.admit(CloneStatus::Clone, 0), AdmitDecision::Admit);
        assert_eq!(s.admit(CloneStatus::Clone, 2), AdmitDecision::DropClone);
        // Originals (CLO=1) and uncloned requests always pass.
        assert_eq!(
            s.admit(CloneStatus::ClonedOriginal, 5),
            AdmitDecision::Admit
        );
        assert_eq!(s.admit(CloneStatus::NotCloned, 5), AdmitDecision::Admit);
        assert_eq!(s.stats().clones_dropped, 1);
    }

    #[test]
    fn noted_depths_track_the_peak() {
        let s = ServerCore::new(0);
        s.note_queue_depth(1);
        s.note_queue_depth(5);
        s.note_queue_depth(3);
        assert_eq!(s.stats().peak_queue, 5);
    }

    #[test]
    fn responses_piggyback_state_and_count_idle() {
        let s = ServerCore::new(7);
        let req = NetCloneHdr::request(4, 1, 2, 99);
        let idle = s.response(&req, 0);
        assert!(idle.is_response());
        assert_eq!(idle.sid, 7);
        assert!(idle.state.is_idle());
        assert_eq!(idle.client_seq, 99);
        let busy = s.response(&req, 3);
        assert_eq!(busy.state.queue_len(), 3);
        let st = s.stats();
        assert_eq!(st.served, 2);
        assert_eq!(st.responses, 2);
        assert_eq!(st.idle_reports, 1);
    }
}
