//! Property tests for the client protocol core: under *any* interleaving
//! of responses, duplicate deliveries, and timeout sweeps, the accounting
//! is conserved — every generated request ends up exactly once in
//! `completed` or `lost`, and redundant replies are never double-counted
//! as completions.

use std::collections::BTreeMap;

use netclone_hostcore::{ClientCore, ClientMode, RetryPolicy, RxEvent};
use netclone_proto::{CloneStatus, NetCloneHdr, PacketMeta, RpcOp, ServerState};
use proptest::prelude::*;

const TIMEOUT_NS: u64 = 50_000;

fn nc_core(seed: u64) -> ClientCore {
    ClientCore::new(
        0,
        ClientMode::NetClone {
            num_groups: 30,
            num_filter_tables: 2,
        },
        seed,
    )
    .with_timeout(TIMEOUT_NS)
}

fn response_to(meta: &PacketMeta, from_clone: bool) -> NetCloneHdr {
    let mut req = meta.nc;
    req.clo = if from_clone {
        CloneStatus::Clone
    } else {
        CloneStatus::ClonedOriginal
    };
    NetCloneHdr::response_to(&req, 1, ServerState::IDLE)
}

/// One scripted action against the core.
#[derive(Clone, Debug)]
enum Action {
    /// Generate a new request.
    Generate,
    /// Deliver a response for the request with this script index (modulo
    /// the number generated so far); `clone` selects the `CLO=2` copy.
    Deliver { target: usize, clone: bool },
    /// Advance time past the timeout horizon and sweep.
    TickFar,
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Generate),
        (any::<usize>(), any::<bool>())
            .prop_map(|(target, clone)| Action::Deliver { target, clone }),
        (any::<usize>(), any::<bool>())
            .prop_map(|(target, clone)| Action::Deliver { target, clone }),
        Just(Action::TickFar),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// For any interleaving: `sent == completed + lost` once everything
    /// has been drained, each request completes at most once (extra
    /// deliveries are redundant), and clone wins never exceed completions.
    #[test]
    fn accounting_is_conserved_under_arbitrary_interleavings(
        script in proptest::collection::vec(arb_action(), 1..120),
        seed in any::<u64>(),
    ) {
        let mut c = nc_core(seed);
        let mut now = 0u64;
        let mut sent: Vec<PacketMeta> = Vec::new();
        let mut completions = std::collections::HashSet::new();
        let mut expect_redundant = 0u64;

        for action in script {
            now += 1_000;
            match action {
                Action::Generate => {
                    c.generate(RpcOp::Echo { class_ns: 10_000 }, now);
                    sent.push(c.poll().expect("NetClone mode emits one packet"));
                    prop_assert!(c.poll().is_none());
                }
                Action::Deliver { target, clone } => {
                    if sent.is_empty() {
                        continue;
                    }
                    let meta = &sent[target % sent.len()];
                    let resp = response_to(meta, clone);
                    match c.on_packet(&resp, now) {
                        RxEvent::Completed { from_clone, .. } => {
                            prop_assert!(
                                completions.insert(meta.nc.client_seq),
                                "request {} completed twice",
                                meta.nc.client_seq
                            );
                            prop_assert_eq!(from_clone, clone);
                        }
                        RxEvent::Redundant => {
                            expect_redundant += 1;
                        }
                        RxEvent::Ignored => {
                            prop_assert!(false, "own responses are never ignored");
                        }
                    }
                }
                Action::TickFar => {
                    now += TIMEOUT_NS;
                    c.on_tick(now);
                }
            }
        }

        // Outstanding requests will never be answered once the run ends.
        c.drain_outstanding();

        let st = c.stats();
        prop_assert_eq!(st.generated, sent.len() as u64);
        prop_assert_eq!(st.packets_sent, sent.len() as u64);
        prop_assert_eq!(st.completed, completions.len() as u64);
        prop_assert_eq!(
            st.completed + st.lost,
            st.generated,
            "every request resolves exactly once"
        );
        prop_assert_eq!(st.redundant, expect_redundant);
        prop_assert!(st.clone_wins <= st.completed);
        prop_assert_eq!(c.outstanding(), 0);
        prop_assert_eq!(c.latencies().count(), st.completed);
    }

    /// A request that timed out and is answered late is redundant — the
    /// late reply must not resurrect it as a completion.
    #[test]
    fn late_replies_to_evicted_requests_stay_redundant(
        n in 1usize..30,
        seed in any::<u64>(),
    ) {
        let mut c = nc_core(seed);
        let mut metas = Vec::new();
        for i in 0..n {
            c.generate(RpcOp::Echo { class_ns: 1 }, i as u64);
            metas.push(c.poll().unwrap());
        }
        let far = TIMEOUT_NS + n as u64 + 1;
        prop_assert_eq!(c.on_tick(far), n as u64);
        for meta in &metas {
            let resp = response_to(meta, false);
            prop_assert_eq!(c.on_packet(&resp, far + 1), RxEvent::Redundant);
        }
        let st = c.stats();
        prop_assert_eq!(st.completed, 0);
        prop_assert_eq!(st.lost, n as u64);
        prop_assert_eq!(st.redundant, n as u64);
    }
}

/// Scripted per-request fate for the sharding/merge property below.
#[derive(Clone, Copy, Debug)]
enum Fate {
    /// One response arrives (`clone` selects the CLO=2 copy).
    Complete { clone: bool },
    /// The response arrives twice — the second must count as redundant.
    Duplicate,
    /// No response ever arrives — the final drain reports it lost.
    Lose,
}

fn arb_fate() -> impl Strategy<Value = Fate> {
    prop_oneof![
        Just(Fate::Complete { clone: false }),
        Just(Fate::Complete { clone: true }),
        Just(Fate::Duplicate),
        Just(Fate::Lose),
    ]
}

/// Drives `cores[pick(i)]` through request `i`'s scripted fate and
/// returns the merged stats plus total completed-latency samples.
fn run_partitioned(
    fates: &[Fate],
    cores: &mut [ClientCore],
    pick: impl Fn(usize) -> usize,
) -> (netclone_hostcore::ClientStats, u64) {
    let mut now = 0u64;
    for (i, fate) in fates.iter().enumerate() {
        now += 1_000;
        let c = &mut cores[pick(i)];
        c.generate(RpcOp::Echo { class_ns: 10_000 }, now);
        let meta = c.poll().expect("NetClone mode emits one packet");
        match fate {
            Fate::Complete { clone } => {
                c.on_packet(&response_to(&meta, *clone), now + 500);
            }
            Fate::Duplicate => {
                c.on_packet(&response_to(&meta, false), now + 500);
                c.on_packet(&response_to(&meta, false), now + 600);
            }
            Fate::Lose => {}
        }
    }
    let mut merged = netclone_hostcore::ClientStats::default();
    let mut samples = 0u64;
    for c in cores.iter_mut() {
        c.drain_outstanding();
        merged.merge(&c.stats());
        samples += c.latencies().count();
    }
    (merged, samples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The sharded open-loop frontend's merge contract: partitioning a
    /// request set across N worker cores (disjoint cids, any assignment)
    /// and summing per-worker stats yields exactly the stats of a single
    /// core running the same request set with the same per-request fates.
    #[test]
    fn merged_worker_stats_equal_a_single_core_run(
        fates in proptest::collection::vec(arb_fate(), 1..200),
        workers in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut single = [nc_core(seed)];
        let (single_stats, single_samples) = run_partitioned(&fates, &mut single, |_| 0);

        let mut cores: Vec<ClientCore> = (0..workers as u16)
            .map(|w| {
                ClientCore::new(
                    w,
                    ClientMode::NetClone { num_groups: 30, num_filter_tables: 2 },
                    seed ^ u64::from(w),
                )
                .with_timeout(TIMEOUT_NS)
            })
            .collect();
        let (merged, samples) = run_partitioned(&fates, &mut cores, |i| i % workers);

        prop_assert_eq!(merged, single_stats);
        prop_assert_eq!(samples, single_samples);
        prop_assert_eq!(merged.generated, fates.len() as u64);
        prop_assert_eq!(merged.completed + merged.lost, merged.generated);
    }
}

/// One step against a retrying core and its full-scan reference model.
#[derive(Clone, Debug)]
enum TickStep {
    Generate,
    /// Answer the `n`-th (mod len) outstanding request.
    Answer(usize),
    /// Advance the clock by this much, then sweep.
    Tick(u64),
    /// Generate `n` requests at one instant, then answer every one of them
    /// (in generation order, or reversed) except the burst positions in
    /// `keep` (mod `n`), which stay outstanding as stragglers.
    Burst {
        n: usize,
        keep: Vec<usize>,
        reverse: bool,
    },
}

fn arb_tick_step() -> impl Strategy<Value = TickStep> {
    prop_oneof![
        Just(TickStep::Generate),
        any::<usize>().prop_map(TickStep::Answer),
        // Mostly ticks that land before any deadline (the early-out), some
        // that cross one or several.
        (0u64..TIMEOUT_NS / 4).prop_map(TickStep::Tick),
        (0u64..TIMEOUT_NS / 4).prop_map(TickStep::Tick),
        (0u64..TIMEOUT_NS * 3).prop_map(TickStep::Tick),
        // Enough requests at once to outgrow any small outstanding table,
        // and stragglers for later sequence numbers to collide with.
        (
            100usize..=300,
            proptest::collection::vec(any::<usize>(), 0..=3),
            any::<bool>(),
        )
            .prop_map(|(n, keep, reverse)| TickStep::Burst { n, keep, reverse }),
    ]
}

/// Where a core's sequence numbers start: at zero, just below the `u32`
/// wrap, or at a high-byte offset `k << 24`.
fn arb_seq_base() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        (u32::MAX - 64)..=u32::MAX,
        (0u32..=255).prop_map(|k| k << 24),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `on_tick` skips its scan while `now` is below a lower bound on the
    /// earliest deadline. That must be a pure early-out: against a model
    /// that scans every outstanding request on every tick, the evictions
    /// and the retransmitted sequence numbers (in order) are identical,
    /// whatever mix of completions, backoffs and quiet ticks came before —
    /// including bursts that grow the outstanding table, stragglers that
    /// later sequence numbers displace, and sequence numbers that wrap.
    #[test]
    fn tick_early_out_matches_a_full_scan(
        steps in proptest::collection::vec(arb_tick_step(), 1..200),
        seed in any::<u64>(),
        seq_base in arb_seq_base(),
    ) {
        let policy = RetryPolicy {
            timeout_ns: TIMEOUT_NS,
            backoff_cap_ns: TIMEOUT_NS * 3,
            max_retries: 2,
            budget: u64::MAX,
        };
        let mut c = ClientCore::new(
            0,
            ClientMode::NetClone { num_groups: 30, num_filter_tables: 2 },
            seed,
        )
        .with_retry(policy)
        .with_seq_base(seq_base);
        // seq → (deadline, current timeout, tries, last transmitted packet)
        let mut model: BTreeMap<u32, (u64, u64, u32, PacketMeta)> = BTreeMap::new();
        let mut now = 0u64;
        for step in steps {
            match step {
                TickStep::Generate => {
                    let seq = c.generate(RpcOp::Echo { class_ns: 10_000 }, now);
                    let meta = c.poll().expect("one packet per request");
                    model.insert(seq, (now + TIMEOUT_NS, TIMEOUT_NS, 0, meta));
                }
                TickStep::Answer(n) => {
                    if let Some(&seq) = model.keys().nth(n % model.len().max(1)) {
                        let (.., meta) = model.remove(&seq).expect("picked from the model");
                        let completed = matches!(
                            c.on_packet(&response_to(&meta, false), now),
                            RxEvent::Completed { .. }
                        );
                        prop_assert!(completed);
                    }
                }
                TickStep::Burst { n, keep, reverse } => {
                    let mut burst: Vec<u32> = (0..n)
                        .map(|_| {
                            let seq = c.generate(RpcOp::Echo { class_ns: 10_000 }, now);
                            let meta = c.poll().expect("one packet per request");
                            model.insert(seq, (now + TIMEOUT_NS, TIMEOUT_NS, 0, meta));
                            seq
                        })
                        .collect();
                    if reverse {
                        burst.reverse();
                    }
                    for (i, seq) in burst.into_iter().enumerate() {
                        if keep.iter().any(|k| k % n == i) {
                            continue;
                        }
                        let (.., meta) = model.remove(&seq).expect("generated above");
                        let completed = matches!(
                            c.on_packet(&response_to(&meta, false), now),
                            RxEvent::Completed { .. }
                        );
                        prop_assert!(completed);
                    }
                }
                TickStep::Tick(dt) => {
                    now += dt;
                    let mut want_evicted = 0u64;
                    let mut want_retx = Vec::new();
                    for seq in model.keys().copied().collect::<Vec<_>>() {
                        let (deadline, timeout, tries, _) = model.get_mut(&seq).expect("key");
                        if *deadline > now {
                            continue;
                        }
                        if *tries < policy.max_retries {
                            *tries += 1;
                            *timeout = (*timeout * 2).min(policy.backoff_cap_ns);
                            *deadline = now + *timeout;
                            want_retx.push(seq);
                        } else {
                            model.remove(&seq);
                            want_evicted += 1;
                        }
                    }
                    prop_assert_eq!(c.on_tick(now), want_evicted);
                    let retx: Vec<u32> = std::iter::from_fn(|| c.poll())
                        .map(|meta| meta.nc.client_seq)
                        .collect();
                    prop_assert_eq!(retx, want_retx);
                }
            }
            prop_assert_eq!(c.outstanding(), model.len());
        }
    }
}
