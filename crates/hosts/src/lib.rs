//! # netclone-hosts
//!
//! Host-side models for the evaluation testbed (paper §4.2):
//!
//! * [`ServerSim`] — "The server consists of a single dispatcher thread and
//!   multiple worker threads. The dispatcher enqueues received requests
//!   into a global request queue with FCFS policy. Worker threads dequeue
//!   requests and process them in parallel." Plus the NetClone server-side
//!   rule from §3.4: a cloned request (`CLO=2`) is **dropped** if the queue
//!   is non-empty on arrival, and every response piggybacks the current
//!   queue state.
//! * [`ClientSim`] — "an open-loop multi-threaded application … one sender
//!   thread and one receiver thread", with per-packet CPU costs on both
//!   (the VMA kernel-bypass path still costs hundreds of ns per packet);
//!   the receiver cost is what makes unfiltered redundant responses harmful
//!   at load (Fig. 15) and halves C-Clone's effective capacity (§2.2).
//!
//! Both models are thin DES frontends over the shared sans-io protocol
//! cores in [`netclone-hostcore`]: the cores own addressing, duplicate
//! filtering, the §3.4 clone-drop rule, piggyback construction, and all
//! accounting; this crate adds only the *timing* the simulator models
//! (serial sender/receiver threads, dispatcher + FCFS queue + workers).
//! A [`ClientSim`] is its `core` field plus the sender and receiver
//! timers: the core's counters and mode are read there, not forwarded.
//! The request-addressing modes of the evaluation — NetClone (group ID,
//! unspecified destination), Baseline (random server), C-Clone (duplicate
//! to two random servers), and coordinator-directed (LÆDGE) — come from
//! [`netclone_hostcore::ClientMode`], re-exported here.
//!
//! [`netclone-hostcore`]: ../netclone_hostcore/index.html

pub mod client;
pub mod packet;
pub mod server;

pub use client::{ClientMode, ClientSim, ClientStats, RetryPolicy, RxOutcome};
pub use packet::AppPacket;
pub use server::{Admission, Completion, ServerConfig, ServerSim, ServerStats};
