//! Spans around the calls the benchmark makes into each layer.
//!
//! A span is `(name, request id, parent, start, end)`. The buffer is
//! allocated once, before the timed window; recording a span is two clock
//! reads and one store, and a full buffer drops further spans (counted)
//! rather than growing. Nothing is written until the run is over. Probes
//! *inside* the program are ROADMAP item 1, a later change: here every
//! span starts and ends in the benchmark's own code.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Span names, fixed so a record is one small integer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// Parent of all others: send time to completion.
    Request = 0,
    WorkloadsSample,
    HostcoreClientTx,
    ProtoEncode,
    NetSend,
    NetRecv,
    ProtoDecode,
    HostcoreClientRx,
    StatsRecord,
    /// One whole `Sim::run` (DES workloads).
    ClusterRun,
}

pub const NAMES: [&str; 10] = [
    "request",
    "workloads.sample",
    "hostcore.client_tx",
    "proto.encode",
    "net.send",
    "net.recv",
    "proto.decode",
    "hostcore.client_rx",
    "stats.record",
    "cluster.run",
];

/// "No request": spans that serve a whole batch (one `sendmmsg`).
pub const NO_REQ: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: Name,
    req: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span buffer. `None`-like when disabled: every method is
/// a no-op, so the untraced pass runs the same code without the stores.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    pub dropped: u64,
}

impl Tracer {
    /// A tracer holding up to `cap` spans; `cap == 0` disables it.
    pub fn new(epoch: Instant, cap: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(cap),
            cap,
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Nanoseconds since the tracer's epoch; 0 when disabled, so the
    /// untraced pass does not pay for clock reads it would discard.
    #[inline]
    pub fn now(&self) -> u64 {
        if self.cap == 0 {
            0
        } else {
            self.epoch.elapsed().as_nanos() as u64
        }
    }

    #[inline]
    pub fn record(&mut self, name: Name, req: u32, start_ns: u64, end_ns: u64) {
        if self.cap == 0 {
            return;
        }
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                name,
                req,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name `(count, total ns, self ns)`. A span's self time is its
    /// duration minus what its children cover; here the only parent is
    /// `request`, whose children are the spans sharing its request id.
    /// Batch spans (`NO_REQ`) have no parent and are all self time.
    pub fn table(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut count = [0u64; NAMES.len()];
        let mut total = [0u64; NAMES.len()];
        let mut child_of_request = 0u64;
        for s in &self.spans {
            let d = s.end_ns.saturating_sub(s.start_ns);
            count[s.name as usize] += 1;
            total[s.name as usize] += d;
            if s.name != Name::Request && s.req != NO_REQ {
                child_of_request += d;
            }
        }
        (0..NAMES.len())
            .filter(|&i| count[i] > 0)
            .map(|i| {
                let self_ns = if i == Name::Request as usize {
                    total[i].saturating_sub(child_of_request)
                } else {
                    total[i]
                };
                (NAMES[i], count[i], total[i], self_ns)
            })
            .collect()
    }

    /// Writes one JSON object per span. The parent is implied by the
    /// vocabulary and spelled out anyway, so a reader needs no schema.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.name == Name::Request || s.req == NO_REQ {
                "null"
            } else {
                "\"request\""
            };
            let req = if s.req == NO_REQ {
                "null".to_string()
            } else {
                s.req.to_string()
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"req\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                NAMES[s.name as usize], req, parent, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_of_the_same_request() {
        let mut t = Tracer::new(Instant::now(), 16);
        t.record(Name::Request, 1, 0, 1_000);
        t.record(Name::ProtoEncode, 1, 10, 110);
        t.record(Name::HostcoreClientRx, 1, 900, 950);
        t.record(Name::NetSend, NO_REQ, 200, 500); // batch span: no parent
        let table = t.table();
        let row = |n: &str| *table.iter().find(|r| r.0 == n).unwrap();
        assert_eq!(row("request"), ("request", 1, 1_000, 850));
        assert_eq!(row("proto.encode"), ("proto.encode", 1, 100, 100));
        assert_eq!(row("net.send"), ("net.send", 1, 300, 300));
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let mut t = Tracer::new(Instant::now(), 2);
        for i in 0..5 {
            t.record(Name::NetRecv, NO_REQ, i, i + 1);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped, 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 0);
        assert!(!t.enabled());
        assert_eq!(t.now(), 0);
        t.record(Name::NetRecv, 0, 0, 1);
        assert_eq!(t.len(), 0);
        assert!(t.table().is_empty());
    }

    #[test]
    fn names_line_up_with_the_enum() {
        assert_eq!(NAMES[Name::Request as usize], "request");
        assert_eq!(NAMES[Name::StatsRecord as usize], "stats.record");
        assert_eq!(NAMES[Name::ClusterRun as usize], "cluster.run");
    }
}
