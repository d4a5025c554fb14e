//! # netclone-asic
//!
//! A behavioural model of a PISA programmable switch ASIC (Intel
//! Tofino-class), faithful to the constraints that shaped NetClone's design
//! (paper §2.3/§3.4):
//!
//! * **Static allocation** — every stateful object (register array,
//!   match-action table, hash unit) is bound to one pipeline stage at build
//!   time; memory cannot be allocated dynamically.
//! * **Forward-only, single-access passes** — a packet traverses the
//!   stages in order. Accessing a resource in an *earlier* stage than the
//!   current one, or accessing the same resource twice in one pass, is a
//!   hardware impossibility. [`PacketPass`] enforces both as errors, which
//!   is exactly why NetClone needs a *shadow* copy of its state table to
//!   read two server states for one request (§3.4) — the naive
//!   double-read design fails validation here, as on real silicon (see
//!   `tests/prop_pass.rs`).
//! * **Bounded resources** — stage count, per-stage SRAM, hash-distribution
//!   bits, stateful ALUs, and match crossbar bytes are budgeted; the
//!   [`ResourceReport`] reproduces the utilisation metrics of §4.1.
//!
//! The model also provides the two packet-replication mechanisms the paper
//! uses: **multicast** groups and **recirculation** through a loopback port
//! ([`spec::AsicSpec::recirc_latency_ns`]), plus the packet-path types of
//! the switch contract ([`Emission`], [`EmissionSink`], [`PortId`]). The
//! contract itself is `netclone-core`'s `SwitchEngine` (packet path,
//! registration, failure handling, counters); every frontend — the
//! discrete-event simulator and the real-socket soft switch — holds a
//! `Box<dyn SwitchEngine>` and therefore drives the identical program.

pub mod dataplane;
pub mod error;
pub mod hash;
pub mod pass;
pub mod register;
pub mod resources;
pub mod spec;
pub mod table;

pub use dataplane::{Emission, EmissionSink, PortId};
pub use error::AsicError;
pub use hash::{crc32, CrcSlotOrder, HashUnit};
pub use pass::PacketPass;
pub use register::RegisterArray;
pub use resources::{Layout, ResourceReport};
pub use spec::AsicSpec;
pub use table::{DenseTable, MatchTable};
