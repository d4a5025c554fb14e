//! # netclone-core
//!
//! The paper's primary contribution: the **NetClone switch data plane**,
//! implemented over the PISA constraints of `netclone-asic`.
//!
//! The program ([`NetCloneSwitch`]) realises Algorithm 1 of the paper:
//!
//! * **Request cloning** — a fresh request gets a switch-assigned request
//!   ID, its group is resolved to a pair of candidate servers, and if *both*
//!   are tracked idle the request is multicast: the original egresses to
//!   server 1 while a copy recirculates through a loopback port to pick up
//!   server 2's address on a second pass (§3.4).
//! * **State tracking** — every response piggybacks its server's queue
//!   state; the switch writes it into the state table *and* its shadow copy
//!   (two tables because one pass cannot read the same table twice — the
//!   §3.4 constraint, enforced by the ASIC model).
//! * **Response filtering** — responses of cloned requests test-and-set a
//!   request-ID fingerprint in one of K hash-indexed filter tables (the
//!   client-chosen `IDX` selects the table, a CRC of `REQ_ID` the slot);
//!   the slower response finds its own ID and is dropped, and overwrites
//!   are permitted so hash collisions and lost responses can never wedge a
//!   slot (§3.5, §3.6).
//!
//! The §3.7 practical extensions are implemented too: RackSched integration
//! (queue-length state + JSQ power-of-two fallback), multi-rack `SWITCH_ID`
//! gating, multi-packet cloned-request affinity, and Lamport-style request
//! IDs for TCP retransmission safety.
//!
//! [`SwitchEngine`] is the one switch contract: the packet path plus the
//! control plane. The program implements it once; its control operations
//! install servers/clients and rebuild the group table on server failure
//! (§3.6), and [`control`] holds the group rebuild and the control plane's
//! views. [`ports`] is the port plan every frontend wires hosts to.

pub mod config;
pub mod control;
pub mod counters;
pub mod engine;
pub mod groups;
pub mod ports;
pub mod program;

pub use config::{CloneCondition, NetCloneConfig, RequestIdMode, Scheduling};
pub use counters::SwitchCounters;
pub use engine::{EngineError, SwitchEngine};
pub use groups::build_groups;
pub use program::NetCloneSwitch;
