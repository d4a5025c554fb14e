//! # netclone-hostcore
//!
//! Transport-free (*sans-io*) state machines for the **host** half of the
//! NetClone protocol (paper §3.3–§3.5, §4.2) — the logic every frontend
//! needs but no frontend should own:
//!
//! * [`ClientCore`] — request generation and addressing for every compared
//!   scheme (NetClone random `GRP`+`IDX`, Baseline, C-Clone, LÆDGE),
//!   sequence/duplicate filtering of responses, clone-win and redundant
//!   accounting, per-request timeout/loss bookkeeping, and the latency
//!   histogram.
//! * [`ServerCore`] — the §3.4 clone-drop rule, response construction with
//!   the piggybacked queue state, and served/dropped/idle accounting.
//!
//! The cores never touch a socket, a thread, or a clock: time is an
//! explicit `u64` nanosecond argument, input is parsed packet metadata
//! ([`netclone_proto::PacketMeta`] / [`netclone_proto::NetCloneHdr`]), and
//! output is either returned packets ([`ClientCore::poll`]) or plain
//! verdicts the caller acts on. That is what lets the discrete-event
//! simulator (`netclone-hosts`, `netclone-cluster`) and the real-socket
//! runtime (`netclone-net`) share *one* implementation: the DES frontend
//! feeds simulated nanoseconds and event-queue deliveries, the UDP
//! frontend feeds wall-clock nanoseconds and datagrams, and the
//! cross-frontend test at the workspace root pins both to identical
//! host-level counters.
//!
//! Every new host behavior — addressing modes, retries, timeout handling —
//! lands here once and is instantly available in both worlds.

pub mod client;
pub mod server;

pub use client::{ClientCore, ClientMode, ClientStats, RetryPolicy, RxEvent};
pub use server::{AdmitDecision, ServerCore, ServerStats};
