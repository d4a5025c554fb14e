//! # netclone-net
//!
//! A real-socket runtime for NetClone: the **same** switch program that
//! drives the simulator — any [`netclone-core`] `SwitchEngine`, by
//! default the genuine `NetCloneSwitch` — running as a userspace *soft
//! switch* over UDP sockets, plus threaded servers and clients speaking
//! the wire format of [`netclone-proto::wire`]. The cross-frontend
//! equivalence test at the workspace root proves the soft switch and the
//! discrete-event simulator execute the identical program.
//!
//! This is the closest laptop-scale equivalent of the paper's testbed
//! (Tofino ToR + VMA hosts): virtual L3 addresses are carried in a small
//! preheader so the switch can rewrite destinations exactly as the ASIC
//! rewrites `dst_ip`, and all forwarding decisions — cloning, recirculation
//! (performed internally by the program), state tracking, response
//! filtering — are the genuine Algorithm 1 implementation.
//!
//! The host protocol logic — addressing, duplicate filtering, the §3.4
//! clone-drop rule, clone-win/redundant/lost accounting — is **not**
//! implemented here: every client and server in this crate is a socket
//! driver over the sans-io cores in [`netclone-hostcore`], the same state
//! machines the discrete-event simulator runs.
//!
//! Concurrency is sharded, not queued: the open-loop client runs one
//! thread per worker, each owning its own `ClientCore` and socket; the
//! server runs one receive thread per worker, each owning its own
//! `ServerCore` (the §3.4 "queue" the clone-drop rule consults is the
//! batch backlog behind each request). The per-packet paths are
//! allocation-free and batched ([`batch`]: `sendmmsg`/`recvmmsg` on
//! Linux, each destination's run of equal-size datagrams one segmented
//! send; a portable `send`/`recv` loop elsewhere), and every loop moves
//! its datagrams the same way, the blocking [`UdpClient`] included: a
//! socket's read timeout is set once, at setup, and a blocking receive is
//! one `recvmmsg` that wakes at least once per timeout. No receive hands
//! on a datagram longer than [`batch::MAX_DATAGRAM`]; it is dropped, never
//! cut. Server workers stage their responses and flush once per receive
//! batch, and a fault shim's duplicate is a copy of the slot before it. Two
//! `parking_lot` locks remain: a `Mutex` around the soft switch's program
//! and port map (taken once per receive batch), and the `RwLock` around
//! the KV store a [`WorkExecutor::Kv`] shares between server workers,
//! taken shared by GET and SCAN and exclusively by PUT alone.
//! Every thread stops on an explicit shutdown flag and is joined on drop.
//!
//! Server worker threads run under `SCHED_BATCH` on Linux; each sets it
//! on itself as it starts, which needs no privilege and leaves every other
//! thread alone. A woken `SCHED_BATCH` thread does not preempt the thread
//! on its CPU, so the soft switch finishes the `sendmmsg` that wakes a
//! server, and the server then takes the whole batch in one `recvmmsg`
//! instead of being handed it a datagram at a time. The switch thread and
//! every client thread keep the default policy: a reply that wakes the
//! switch is forwarded at once. There is no option.
//!
//! Client and server workers keep one crash rule, `supervise`: a
//! worker's state — its core, fault shim, RNG, clocks and batches — lives
//! outside the loop a panic unwinds, and the loop is re-entered with it,
//! so a crash loses only the datagrams in flight and no counter.
//!
//! Every datagram uses one encoding, [`codec`]: a 10-byte virtual-L3
//! preheader followed by the NetClone header and op of
//! [`netclone-proto::wire`], encoded into caller-owned buffers and decoded
//! in place.
//!
//! [`netclone-core`]: ../netclone_core/index.html
//! [`netclone-hostcore`]: ../netclone_hostcore/index.html
//! [`netclone-proto::wire`]: ../netclone_proto/wire/index.html

pub mod batch;
pub mod client;
pub mod codec;
pub mod openloop;
pub mod server;
pub mod shim;
pub mod switch;
pub mod testbed;
pub mod work;

pub use batch::{path_counters, PathCounters, RecvBatch, SendBatch};
pub use client::{CallError, CallReply, UdpClient};
pub use codec::{decode_packet_borrowed, encode_packet_into};
pub use openloop::{OpenLoopClient, OpenLoopReport, OpenLoopSpec, WorkerReport};
pub use server::{ServerHandle, UdpServerConfig};
pub use shim::{FaultAction, FaultDirection, FaultPlan, FaultShim, FaultWindow};
pub use switch::{SoftSwitch, SwitchHandle};
pub use testbed::Testbed;
pub use work::WorkExecutor;

use std::sync::atomic::{AtomicU32, Ordering};

/// Runs a worker loop until it returns, re-entering it after every panic.
/// Each panic bumps `restarts`; the loop's value comes back with the last
/// panic's message.
pub(crate) fn supervise<T>(
    restarts: &AtomicU32,
    mut worker_loop: impl FnMut() -> T,
) -> (T, Option<String>) {
    let mut last_panic = None;
    loop {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut worker_loop)) {
            Ok(value) => return (value, last_panic),
            Err(panic) => {
                restarts.fetch_add(1, Ordering::SeqCst);
                last_panic = Some(
                    panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic".into()),
                );
            }
        }
    }
}
