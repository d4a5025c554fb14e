//! Conservative shard execution and result merging.
//!
//! [`ShardCoordinator`] drives the [`Shard`]s built by
//! `build::build_shards`: serially when there is one shard
//! (the default, and any single-rack scenario), or on one thread per
//! shard under the conservative lookahead protocol from
//! [`netclone_des::sync`]. A shard owns whole racks — whole pods when the
//! fabric has at least as many pods as shards — split by traffic share
//! (`build::partition`).
//!
//! ## The window protocol
//!
//! The only cross-shard interaction is an upper-tier-forwarded packet
//! landing on a foreign leaf (or its downlink queue), and that takes at
//! least
//!
//! ```text
//! lookahead = pass + h × (inter-rack link + pass)                   (congestion-aware links)
//! lookahead = pass + h × (inter-rack link + pass) + inter-rack link (fixed-latency hops)
//! ```
//!
//! of simulated time after the event that emits it: a pass at the leaf,
//! then a link up to and a pass at each of the `h` upper switches, where
//! `h` is the fewest any two racks on different shards cross (1 through
//! the spine or a same-pod aggregation switch, 3 between fat-tree pods).
//! With links the packet is handed to the foreign rack *at* its downlink
//! head, without them one propagation later; queueing only adds delay.
//! So the shards advance in rounds of one barrier each ([`WindowRounds`];
//! every shard drives a `Port`):
//!
//! 1. *open*: publish `min(own next event, earliest message posted last
//!    round)`, cross the barrier, read the board minimum `m` (all idle →
//!    done; everybody sees that in the same round);
//! 2. *take* the mail peers posted last round and schedule it — every
//!    message is due at or after the window end it was sent from
//!    (asserted in every build);
//! 3. execute the events with `time < m + lookahead`, buffering outbound
//!    cross-shard messages in per-destination outboxes;
//! 4. *post* the outboxes for the peers' next round, and repeat.
//!
//! No second barrier separates posting from taking. The sender's
//! published horizon stands in for mail the receiver has not seen yet,
//! so `m` is the minimum over every queue as if all mail were delivered;
//! and the board and mailboxes are double-buffered by round parity, so a
//! shard one round ahead (the barrier allows no more) writes the halves
//! its slow peer is not reading. The shard owning `m` executes at least
//! one event per round — or, when `m` is a message in flight, its
//! receiver does — so the protocol makes progress; the barrier yields
//! after a brief spin, so shard counts above the machine's core count
//! degrade into time-slicing instead of livelock, and a shard that panics
//! poisons it, so the run fails — with that shard's panic — instead of
//! hanging.
//!
//! Bit-identity of the merged result is a property of the event *keys*,
//! not of the schedule — see [`crate::sim`] and [`netclone_des::sync`] —
//! so none of this depends on thread timing.

use std::sync::atomic::{AtomicUsize, Ordering};

use netclone_core::SwitchCounters;
use netclone_des::sync::WindowRounds;
use netclone_stats::LatencyHistogram;

use crate::build::build_shards;
use crate::metrics::{LinkStat, LinkTotals, RunResult};
use crate::scenario::Scenario;
use crate::sim::{CrossMsg, Shard};
use crate::topology::HostKind;

/// Owns a run's shards from build to merged [`RunResult`].
pub(crate) struct ShardCoordinator {
    pub(crate) shards: Vec<Shard>,
    /// The conservative window extension: the minimum simulated time
    /// between a cross-shard send and its delivery.
    pub(crate) lookahead_ns: u64,
}

/// Records, while its thread unwinds, which shard panicked first. It is
/// dropped before the shard's `Port`, whose drop poisons the barrier, so
/// the shard that fails first records itself before any peer can fail.
struct FirstPanic<'a>(&'a AtomicUsize, usize);

impl Drop for FirstPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self
                .0
                .compare_exchange(usize::MAX, self.1, Ordering::SeqCst, Ordering::SeqCst);
        }
    }
}

impl ShardCoordinator {
    /// Builds the testbed partitioned into (up to) `shards` shards;
    /// `traced` additionally records every executed event's `(time, key)`.
    pub(crate) fn new(scenario: Scenario, shards: usize, traced: bool) -> Self {
        let (shards, lookahead_ns) = build_shards(scenario, shards, traced);
        ShardCoordinator {
            shards,
            lookahead_ns,
        }
    }

    /// Runs the simulation to completion and merges the results.
    pub(crate) fn run(mut self) -> (RunResult, Option<Vec<(u64, u64)>>) {
        if self.shards.len() == 1 {
            // The serial path: one queue, drained in key order. No
            // barriers, no atomics — the pre-sharding event loop.
            let shard = &mut self.shards[0];
            while let Some((t, tie, ev)) = shard.q.pop_keyed() {
                if let Some(trace) = &mut shard.trace {
                    trace.push((t.as_ns(), tie));
                }
                shard.handle(t.as_ns(), ev);
            }
        } else {
            self.run_windowed();
        }
        self.merge()
    }

    /// One thread per shard, advancing in conservative windows. A shard
    /// that panics fails its peers at the barrier; the run then panics
    /// with the first shard's payload, not a peer's poisoned barrier.
    fn run_windowed(&mut self) {
        let rounds: WindowRounds<CrossMsg> =
            WindowRounds::new(self.shards.len(), self.lookahead_ns);
        let first_panic = AtomicUsize::new(usize::MAX);
        let mut panics: Vec<_> = std::thread::scope(|s| {
            let mut threads = Vec::with_capacity(self.shards.len());
            for (k, shard) in self.shards.iter_mut().enumerate() {
                let port = rounds.port(k);
                let first_panic = &first_panic;
                threads.push(s.spawn(move || {
                    let mut port = port;
                    let _first = FirstPanic(first_panic, k);
                    // Swapped with the mailbox every round, so both
                    // buffers keep their capacity and no round allocates.
                    let mut inbound: Vec<CrossMsg> = Vec::new();
                    // The end of the window the taken mail was sent from.
                    let mut sent_window_end = 0;
                    while let Some(w_end) = port.open(shard.q.peek_time()) {
                        port.take(&mut inbound);
                        shard.deliver(sent_window_end, &mut inbound);
                        while let Some((t, tie, ev)) = shard.q.pop_keyed_before(w_end) {
                            if let Some(trace) = &mut shard.trace {
                                trace.push((t.as_ns(), tie));
                            }
                            shard.handle(t.as_ns(), ev);
                        }
                        for (dst, out) in shard.outbox.iter_mut().enumerate() {
                            port.post(dst, out, |m| m.at);
                        }
                        sent_window_end = w_end;
                    }
                }));
            }
            threads.into_iter().map(|t| t.join().err()).collect()
        });
        if let Some(first) = panics.get_mut(first_panic.into_inner()) {
            std::panic::resume_unwind(first.take().expect("the first shard to fail panicked"));
        }
        // Checked in every build: mail carries whole packets, so a
        // message left in a mailbox is a request lost without a counter.
        assert_eq!(
            rounds.undelivered(),
            0,
            "undelivered cross-shard messages at termination"
        );
    }

    /// Assembles the [`RunResult`] — deterministically: every vector is
    /// walked in global index order, every scalar is a sum, and the one
    /// order-sensitive-looking piece (each shard's upper-tier counters)
    /// is a `SwitchCounters::merge`, which is field-wise addition.
    ///
    /// It first checks, in every build, what a finished run must hold: no
    /// event left queued, and every client's `generated == completed +
    /// lost + outstanding`. A run that breaks one panics here rather than
    /// report counts that do not add up.
    fn merge(mut self) -> (RunResult, Option<Vec<(u64, u64)>>) {
        let shards = &mut self.shards;
        let nshards = shards.len();
        let scenario = shards[0].scenario.clone();
        let racks = shards[0].racks.len();
        let rack_shard = shards[0].rack_shard.clone();
        let hosts = &shards[0].hosts;
        let owner = |h: usize| &shards[rack_shard[hosts[h].leaf]];
        let rack = |r: usize| shards[rack_shard[r]].racks[r].as_ref().expect("rack owner");
        for sh in shards.iter() {
            assert!(
                sh.q.is_empty(),
                "shard {} stopped with queued events",
                sh.id
            );
        }

        let mut latency = LatencyHistogram::new();
        let mut stats = netclone_hosts::ClientStats::default();
        let mut lifetime = netclone_hosts::ClientStats::default();
        let mut outstanding = 0u64;
        for cid in 0..scenario.n_clients {
            let c = &owner(hosts.client(cid)).clients[cid];
            let core = &c.as_ref().expect("client owner").sim.core;
            let lt = core.lifetime();
            latency.merge(core.latencies());
            stats.merge(&core.stats());
            assert_eq!(
                lt.generated,
                lt.completed + lt.lost + core.outstanding() as u64,
                "client {cid} lost track of a request: generated != completed + lost + outstanding"
            );
            lifetime.merge(&lt);
            outstanding += core.outstanding() as u64;
        }

        // Per-switch windows in fabric index order (leaves, then the
        // upper tier): each leaf's from its owner, each upper switch's as
        // the merge of every shard's delta.
        let upper_count = shards[0].upper_counters_at_warmup.len();
        let mut per_switch = vec![SwitchCounters::default(); racks + upper_count];
        for (r, merged) in per_switch[..racks].iter_mut().enumerate() {
            *merged = rack(r).engine.counters().since(&rack(r).at_warmup);
        }
        for sh in shards.iter() {
            let windows = sh.tier.counters().iter().zip(&sh.upper_counters_at_warmup);
            for (merged, (c, at_warmup)) in per_switch[racks..].iter_mut().zip(windows) {
                merged.merge(&c.since(at_warmup));
            }
        }
        let switch: SwitchCounters = per_switch.iter().sum();

        // Link stats, in deterministic fabric order: host access links (in
        // the host table's order: clients, servers, coordinator), then
        // each leaf's uplinks and downlinks. Only congested links (a drop
        // or an ECN mark) get a row; the totals cover every link. Counters
        // are whole-run — the conservation identities (offered ==
        // forwarded + dropped) only hold unwindowed.
        let mut link_stats: Vec<LinkStat> = Vec::new();
        let mut link_totals: Option<LinkTotals> = None;
        if scenario.links.is_some() {
            let mut totals = LinkTotals::default();
            {
                let mut take =
                    |name: String,
                     c: netclone_linksim::LinkCounters,
                     tier: &mut netclone_linksim::LinkCounters| {
                        tier.add(&c);
                        if c.dropped > 0 || c.ecn_marked > 0 {
                            link_stats.push(LinkStat {
                                link: name,
                                forwarded: c.forwarded,
                                dropped: c.dropped,
                                ecn_marked: c.ecn_marked,
                            });
                        }
                    };
                for (h, host) in hosts.iter().enumerate() {
                    let access = owner(h).access.as_ref().expect("links enabled");
                    let [up, down] = access[h].as_ref().expect("host owner");
                    let name = match host.kind {
                        HostKind::Client(cid) => format!("client{cid}"),
                        HostKind::Server(sid) => format!("server{sid}"),
                        HostKind::Coord => "coord".into(),
                    };
                    take(format!("{name}.up"), up.counters(), &mut totals.edge);
                    take(format!("{name}.down"), down.counters(), &mut totals.edge);
                }
                for r in 0..racks {
                    for (j, l) in rack(r).uplinks.iter().enumerate() {
                        take(format!("leaf{r}.up{j}"), l.counters(), &mut totals.up);
                    }
                    for (j, l) in rack(r).downlinks.iter().enumerate() {
                        take(format!("leaf{r}.down{j}"), l.counters(), &mut totals.down);
                    }
                }
            }
            link_totals = Some(totals);
        }

        let mut clone_drops = 0;
        let mut idle_reports = 0;
        let mut responses = 0;
        let mut per_server_served = Vec::with_capacity(scenario.servers.len());
        for idx in 0..scenario.servers.len() {
            let s = &owner(hosts.server(idx)).servers[idx];
            let s = s.as_ref().expect("server owner");
            let (st, b) = (s.sim.stats(), s.at_warmup);
            clone_drops += st.clones_dropped - b.clones_dropped;
            idle_reports += st.idle_reports - b.idle_reports;
            responses += st.responses - b.responses;
            per_server_served.push(st.served - b.served);
        }

        let mut throughput = shards[0].throughput.clone();
        for sh in &shards[1..] {
            throughput.merge(&sh.throughput);
        }
        let completed: u64 = shards.iter().map(|s| s.completed_in_window).sum();
        let packets_lost: u64 = shards.iter().map(|s| s.packets_lost).sum();
        let events: u64 = shards.iter().map(|s| s.events_scheduled).sum();
        let measure_secs = scenario.measure_ns as f64 / 1e9;

        let trace = shards[0].trace.is_some().then(|| {
            let mut t: Vec<(u64, u64)> = shards
                .iter_mut()
                .flat_map(|s| s.trace.take().expect("traced shard"))
                .collect();
            if nshards > 1 {
                // A serial trace is already in execution order; a merged
                // one is sorted into the global key order, with the
                // broadcast control events (one identically-keyed replica
                // per shard) collapsed.
                t.sort_unstable();
                t.dedup();
            }
            t
        });

        let result = RunResult {
            scheme: scenario.scheme.label(),
            workload: scenario.workload.label(),
            offered_rps: scenario.offered_rps,
            achieved_rps: completed as f64 / measure_secs,
            latency,
            generated: stats.generated,
            completed,
            client_redundant: stats.redundant,
            client_clone_wins: stats.clone_wins,
            client_lost: stats.lost,
            client_retried: stats.retried,
            client_retry_wins: stats.retry_wins,
            client_budget_exhausted: stats.budget_exhausted,
            lifetime,
            client_outstanding: outstanding,
            switch,
            server_clone_drops: clone_drops,
            server_idle_reports: idle_reports,
            server_responses: responses,
            throughput_series: throughput,
            packets_lost,
            per_server_served,
            per_switch,
            events,
            link_stats,
            link_totals,
        };
        (result, trace)
    }
}
