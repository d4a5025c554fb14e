//! # netclone-cluster
//!
//! The evaluation testbed as a deterministic discrete-event simulation:
//! open-loop clients, a programmable switch fabric running any of the
//! compared schemes, and multi-worker servers — the §5.1 setup of the
//! paper (8 machines: 2 clients + 6 workers by default, one worker
//! donated to the coordinator for the LÆDGE comparison). The fabric
//! shape is a scenario dimension ([`topology::Topology`]): the default
//! single rack is the paper's testbed; multi-rack shapes build the §3.7
//! two-tier leaf/spine deployment with one engine per switch
//! ([`topology::Fabric`]).
//!
//! One simulation ([`sim::Sim`]) runs one (scheme, workload, offered-load)
//! point and yields a [`metrics::RunResult`];
//! [`sweep::run_sweeps`] runs schemes over offered load into panels of
//! those results;
//! [`experiments`] packages every figure and table of the paper's
//! evaluation as an [`harness::Experiment`] value producing a unified
//! [`netclone_stats::Report`]; [`harness::registry()`] lists them all
//! and [`harness::Runner`] fans their cells out across cores with
//! results bit-identical to serial execution.
//!
//! All physical constants live in [`calib`] — one set, used by every
//! experiment, documented with their rationale.

pub mod build;
pub mod calib;
pub mod experiments;
pub mod harness;
pub mod metrics;
pub mod scenario;
pub mod scheme;
pub(crate) mod shard;
pub mod sim;
pub mod sweep;
pub mod topology;

pub use build::{build_engine, build_fabric, build_upper_tier};
pub use harness::{registry, Experiment, RunCtx, Runner};
pub use metrics::RunResult;
pub use scenario::{Fault, FaultKind, FaultTimeline, RetryPolicy, Scenario, ServerSpec, Workload};
pub use scheme::Scheme;
pub use sim::Sim;
pub use topology::{Fabric, Hop, Placement, Topology};
