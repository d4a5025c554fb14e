//! # netclone-des
//!
//! A small, deterministic discrete-event simulation kernel.
//!
//! The NetClone evaluation (paper §5) is a queueing study: open-loop clients,
//! a switch, and multi-worker servers exchanging microsecond-scale RPCs.
//! This crate provides the three primitives every such study needs:
//!
//! * [`SimTime`] — nanosecond-resolution simulated time,
//! * [`EventQueue`] — a priority queue of timestamped events with
//!   deterministic FIFO tie-breaking (two events at the same instant pop in
//!   push order, so runs are bit-for-bit reproducible),
//! * [`SeedFactory`] — a SplitMix64-based fan-out of independent RNG seeds,
//!   one stream per simulated entity, so adding an entity never perturbs the
//!   random draws of the others.
//!
//! For sharded (multi-queue) simulations, [`sync`] adds the conservative
//! lookahead round — one barrier per window over a parity-buffered
//! horizon board and mailboxes — and the per-domain tie-break keys that
//! keep the merged execution order machine-independent.
//!
//! Design follows the event-driven style of smoltcp: no global registries,
//! no trait-object callback soup — the simulation owns its entities and
//! dispatches popped events itself.

pub mod queue;
pub mod rng;
pub mod sync;
pub mod time;

pub use queue::EventQueue;
pub use rng::SeedFactory;
pub use sync::{HorizonBoard, SpinBarrier};
pub use time::SimTime;
