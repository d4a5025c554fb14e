//! Loopback smoke test of the steady-state hot-path contract: across a
//! full open-loop run — client workers, soft switch, and sharded servers
//! all in this process — and across a run of blocking `UdpClient` calls,
//! the per-packet path performs **zero** buffer-growth allocations and
//! **zero** `set_read_timeout` syscalls, as counted by the debug counters
//! in `netclone_net::batch`.
//!
//! This file holds exactly one test on purpose: the counters are
//! process-wide, so a sibling test setting up a socket would pollute the
//! deltas.

use std::time::Duration;

use netclone_core::NetCloneConfig;
use netclone_net::{path_counters, OpenLoopSpec, Testbed, WorkExecutor};
use netclone_proto::RpcOp;

#[test]
fn open_loop_steady_state_is_alloc_and_timeout_syscall_free() {
    let mut tb =
        Testbed::spawn(NetCloneConfig::default(), 2, 2, WorkExecutor::Synthetic).expect("testbed");
    let handle = tb.switch_handle();
    let client = tb.open_loop_client(2).expect("open-loop client");

    let before = path_counters();
    let report = client
        .run(OpenLoopSpec {
            rate_rps: 2_000.0,
            duration: Duration::from_millis(250),
            op: RpcOp::Echo { class_ns: 20_000 },
            drain: Duration::from_millis(150),
            request_timeout: Duration::from_millis(100),
            num_groups: handle.num_groups(),
            num_filter_tables: 2,
            seed: 3,
            workers: 2,
            retry: None,
            faults: None,
            crash_worker: None,
        })
        .expect("open-loop run");
    let after = path_counters();

    assert!(
        report.stats.completed > 0,
        "the run must actually move traffic"
    );
    assert_eq!(
        after.buffer_grow_allocs - before.buffer_grow_allocs,
        0,
        "a hot-path buffer grew past its preallocation during the run"
    );
    assert_eq!(
        after.timeout_syscalls - before.timeout_syscalls,
        0,
        "the per-packet path issued set_read_timeout syscalls"
    );

    // The blocking client sets its read timeout once, at bind; its calls
    // set none.
    let mut client = tb.client(4).expect("blocking client");
    let before = path_counters();
    for _ in 0..50 {
        client
            .call(RpcOp::Echo { class_ns: 20_000 }, Duration::from_secs(2))
            .expect("call");
    }
    client.drain_late_responses();
    let after = path_counters();
    assert_eq!(client.stats().completed, 50);
    assert_eq!(
        after.timeout_syscalls - before.timeout_syscalls,
        0,
        "UdpClient::call issued set_read_timeout syscalls"
    );
    assert_eq!(
        after.buffer_grow_allocs - before.buffer_grow_allocs,
        0,
        "a UdpClient call grew a buffer past its preallocation"
    );
    tb.shutdown();
}
