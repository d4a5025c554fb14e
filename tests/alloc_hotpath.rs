//! The per-packet fast path performs **zero heap allocations** in steady
//! state — counted by the allocator itself, not by a buffer-growth
//! counter: every `NetCloneSwitch::process` path, `PlainL3Switch::process`,
//! and `EventQueue` schedule+pop at a fixed depth.
//!
//! The count is per thread, and each test body keeps its warm-up and its
//! measurement on its own thread. The per-function test cannot see the
//! code between the functions, so a second one counts a whole serial run
//! of the congested fat-tree — the cross-rack walk, `send_to_leaf`, the
//! link path, the host models — and requires that a longer run allocates
//! (almost) nothing more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netclone::asic::{AsicSpec, EmissionSink};
use netclone::cluster::experiments::{fattree, Scale};
use netclone::cluster::harness::RunCtx;
use netclone::cluster::{build_engine, Scenario, Scheme, Sim};
use netclone::core::SwitchEngine;
use netclone::des::{EventQueue, SimTime};
use netclone::hostcore::{ClientCore, ClientMode};
use netclone::policies::PlainL3Switch;
use netclone::proto::{Ipv4, NetCloneHdr, PacketMeta, RpcOp, ServerState};
use netclone::workloads::exp25;

thread_local! {
    /// Allocations (`alloc` + `realloc`) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it neither allocates
// nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `alloc` obligations are passed on as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via the methods of this impl.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; size obligations are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const CALLS: usize = 10_000;
/// Cloned requests in flight at once: few enough that their fingerprints
/// do not collide in the filter tables (as in a real run).
const IN_FLIGHT: usize = 64;

/// Feeds `reqs` through `engine` and appends the response each emission
/// would draw from its server to `first` (original) / `second` (clone).
fn run_requests<E: SwitchEngine + ?Sized>(
    engine: &mut E,
    reqs: &[PacketMeta],
    sink: &mut EmissionSink,
    first: &mut Vec<PacketMeta>,
    second: &mut Vec<PacketMeta>,
) {
    for &meta in reqs {
        engine.process(meta, 0, 0, sink);
        for (i, e) in sink.drain().enumerate() {
            let sid = e.port - 10;
            let nc = NetCloneHdr::response_to(&e.pkt.nc, sid, ServerState::IDLE);
            let resp = PacketMeta::netclone_response(Ipv4::server(sid), e.pkt.src_ip, nc, 84);
            if i == 0 { &mut *first } else { &mut *second }.push(resp);
        }
    }
}

/// Feeds `metas` through `engine`, discarding what it emits.
fn run_discarding<E: SwitchEngine + ?Sized>(
    engine: &mut E,
    metas: &[PacketMeta],
    sink: &mut EmissionSink,
) {
    for &meta in metas {
        engine.process(meta, 0, 0, sink);
        sink.clear();
    }
}

#[test]
fn steady_state_fast_path_allocates_nothing() {
    // ---- NetCloneSwitch::process, all four paths --------------------
    let scenario = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 1.0);
    let mut engine = build_engine(&scenario);
    let mut client = ClientCore::new(
        0,
        ClientMode::NetClone {
            num_groups: engine.num_groups(),
            num_filter_tables: scenario.n_filter_tables as u8,
        },
        7,
    );
    // The leading IN_FLIGHT inputs of every path are its warm-up (sink
    // growth, lazily sized state); the CALLS after them are counted.
    let mut requests = |uncloneable: bool| -> Vec<PacketMeta> {
        (0..IN_FLIGHT + CALLS)
            .map(|_| {
                client.generate(RpcOp::Echo { class_ns: 25_000 }, 0);
                let mut meta = client.poll().expect("one packet per request");
                if uncloneable {
                    meta.nc.state = ServerState(1);
                }
                meta
            })
            .collect()
    };
    let cloneable = requests(false);
    let uncloneable = requests(true);
    let mut sink = EmissionSink::new();
    let mut first: Vec<PacketMeta> = Vec::with_capacity(cloneable.len());
    let mut second: Vec<PacketMeta> = Vec::with_capacity(cloneable.len());
    let mut unused: Vec<PacketMeta> = Vec::with_capacity(uncloneable.len());

    let (warm, counted) = cloneable.split_at(IN_FLIGHT);
    run_requests(&mut *engine, warm, &mut sink, &mut first, &mut second);
    let before = engine.counters();
    let req_clone =
        allocs_during(|| run_requests(&mut *engine, counted, &mut sink, &mut first, &mut second));
    assert_eq!(engine.counters().since(&before).cloned as usize, CALLS);
    assert_eq!(second.len(), cloneable.len());

    let (warm, counted) = uncloneable.split_at(IN_FLIGHT);
    run_requests(&mut *engine, warm, &mut sink, &mut unused, &mut second);
    let before = engine.counters();
    let req_noclone =
        allocs_during(|| run_requests(&mut *engine, counted, &mut sink, &mut unused, &mut second));
    assert_eq!(engine.counters().since(&before).cloned, 0);
    assert_eq!(second.len(), cloneable.len());

    // Responses, IN_FLIGHT requests at a time: each first response passes
    // and arms the filter, each second one is filtered.
    let (mut resp_pass, mut resp_filtered) = (0, 0);
    let before = engine.counters();
    for (i, (firsts, seconds)) in first
        .chunks(IN_FLIGHT)
        .zip(second.chunks(IN_FLIGHT))
        .enumerate()
    {
        let pass = allocs_during(|| run_discarding(&mut *engine, firsts, &mut sink));
        let filtered = allocs_during(|| run_discarding(&mut *engine, seconds, &mut sink));
        if i > 0 {
            resp_pass += pass;
            resp_filtered += filtered;
        }
    }
    let filtered = engine.counters().since(&before).responses_filtered as usize;
    assert!(
        filtered * 100 >= second.len() * 99,
        "only {filtered} of {} second responses took the filtered path",
        second.len()
    );

    // ---- PlainL3Switch::process -------------------------------------
    let mut plain = PlainL3Switch::new(AsicSpec::tofino());
    for sid in 0..16 {
        plain.register_route(Ipv4::server(sid), 10 + sid).unwrap();
    }
    let routed: Vec<PacketMeta> = (0..IN_FLIGHT + CALLS)
        .map(|i| {
            let mut meta = cloneable[i];
            meta.dst_ip = Ipv4::server(i as u16 % 16);
            meta
        })
        .collect();
    let (warm, counted) = routed.split_at(IN_FLIGHT);
    run_discarding(&mut plain, warm, &mut sink);
    let plain_l3 = allocs_during(|| run_discarding(&mut plain, counted, &mut sink));
    assert_eq!(plain.counters().routed_plain as usize, routed.len());

    // ---- EventQueue schedule + pop at a fixed depth ------------------
    // Payload the size of the simulator's packet events: an index, the
    // switch-visible metadata, an interned-payload id.
    type EvSized = (usize, PacketMeta, u32);
    const DEPTH: usize = 1024;
    let mut q: EventQueue<EvSized> = EventQueue::new();
    for i in 0..DEPTH {
        q.schedule(
            SimTime::from_ns(i as u64 * 37 % 1_000),
            (i, cloneable[0], 0),
        );
    }
    // The hold model: pop the earliest, reschedule it some way ahead.
    let hold = |q: &mut EventQueue<EvSized>, calls: usize, delay: fn(u64) -> u64| {
        for i in 0..calls as u64 {
            let (t, ev) = q.pop().expect("hold model never drains");
            q.schedule(t + delay(i), ev);
        }
    };
    let near: fn(u64) -> u64 = |i| i * 7919 % 2_000 + 1;
    hold(&mut q, IN_FLIGHT, near);
    let mut queue = allocs_during(|| hold(&mut q, CALLS, near));
    // Again with delays spread over 0..2^30 ns: events park on the wheel's
    // upper levels and are re-placed downwards as the clock reaches them.
    queue += allocs_during(|| {
        hold(&mut q, CALLS, |i| {
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 34
        })
    });
    assert_eq!(q.len(), DEPTH);

    assert_eq!(
        [
            req_clone,
            req_noclone,
            resp_pass,
            resp_filtered,
            plain_l3,
            queue
        ],
        [0; 6],
        "allocations per 10k calls: [request-clone, request-no-clone, \
         response-pass, response-filtered, plain-L3, queue schedule+pop]"
    );
}

/// A run's allocations are its set-up plus buffers growing to their peak
/// depth; none of it is per event. The run is deterministic, so the count
/// is exact for a seed: 10 ms and 40 ms of measurement (332k and 999k
/// events) allocate within a handful of each other.
#[test]
fn whole_run_allocations_do_not_grow_with_the_window() {
    let run = |measure_ns: u64| {
        let mut s = fattree::scenario(4, 3.0, Scheme::NETCLONE, &RunCtx::new(Scale::Smoke));
        s.warmup_ns = 5_000_000;
        s.measure_ns = measure_ns;
        let mut events = 0;
        let allocs = allocs_during(|| events = Sim::run(s).events);
        (allocs, events)
    };
    let (short, short_events) = run(10_000_000);
    let (long, long_events) = run(40_000_000);
    assert!(long_events > 3 * short_events - short_events / 2);
    assert!(
        long <= short + 8,
        "{short} allocations over {short_events} events, {long} over {long_events}"
    );
}
