//! # netclone-stats
//!
//! Measurement plumbing for the NetClone reproduction: latency histograms
//! with microsecond-tail fidelity, streaming mean/σ summaries, per-second
//! throughput timeseries, and result rendering (markdown and CSV).
//!
//! The paper reports 99th-percentile latency against achieved throughput
//! for every figure; [`LatencyHistogram`] is the core type backing those
//! series. It is an HDR-style log-linear histogram: 64 linear sub-buckets
//! per power of two, giving ≤ 1.6 % relative bucket error across the whole
//! ns→minutes range while staying allocation-free after construction.

pub mod hist;
pub mod report;
pub mod summary;
pub mod table;
pub mod timeseries;

pub use hist::LatencyHistogram;
pub use report::{Report, Section};
pub use summary::Summary;
pub use table::Table;
pub use timeseries::TimeSeries;
