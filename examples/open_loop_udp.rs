//! Open-loop load over the real-socket fabric: sharded worker threads
//! (the paper's §4.2 client) against the soft switch, with batched UDP
//! I/O — doubles as a manual smoke test for the sharded frontend.
//!
//! ```text
//! cargo run --release --example open_loop_udp [rate_rps] [duration_ms] [workers]
//! ```

use std::time::Duration;

use netclone::core::NetCloneConfig;
use netclone::net::{path_counters, OpenLoopSpec, Testbed, WorkExecutor};
use netclone::proto::RpcOp;

fn main() -> std::io::Result<()> {
    let mut args = std::env::args().skip(1);
    let rate: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(5_000.0);
    let dur_ms: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(500);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);

    let mut tb = Testbed::spawn(NetCloneConfig::default(), 4, 2, WorkExecutor::Synthetic)?;
    let handle = tb.switch_handle();
    let client = tb.open_loop_client(workers)?;

    println!(
        "open loop: {rate} rps across {workers} workers for {dur_ms} ms \
         against 4 servers (Echo 50us)\n"
    );
    let before = path_counters();
    let report = client.run(OpenLoopSpec {
        rate_rps: rate,
        duration: Duration::from_millis(dur_ms),
        op: RpcOp::Echo { class_ns: 50_000 },
        drain: Duration::from_millis(200),
        request_timeout: Duration::from_millis(150),
        num_groups: handle.num_groups(),
        num_filter_tables: 2,
        seed: 1,
        workers,
        retry: None,
        faults: None,
        crash_worker: None,
    })?;
    let after = path_counters();

    let (lat, st) = (&report.latencies, &report.stats);
    println!(
        "sent {}  completed {} ({:.1}%)  redundant {}  lost {}  clone-wins {} ({:.1}%)",
        st.generated,
        st.completed,
        report.completion_rate() * 100.0,
        st.redundant,
        st.lost,
        st.clone_wins,
        st.clone_win_ratio() * 100.0
    );
    println!(
        "latency: p50 {:.0} us   p99 {:.0} us   max {:.0} us",
        lat.quantile(0.50) as f64 / 1e3,
        lat.quantile(0.99) as f64 / 1e3,
        lat.max() as f64 / 1e3
    );
    println!("\nper-worker breakdown:");
    for w in &report.per_worker {
        println!(
            "  cid {:>3}: sent {:>6}  completed {:>6}  lost {:>4}  \
             clone-wins {:>5}  p99 {:.0} us",
            w.cid,
            w.stats.generated,
            w.stats.completed,
            w.stats.lost,
            w.stats.clone_wins,
            w.latencies.quantile(0.99) as f64 / 1e3
        );
    }
    let c = handle.counters();
    println!(
        "\nswitch: cloned {:.0}% of {} requests, filtered {} slower responses",
        c.clone_rate() * 100.0,
        c.requests,
        c.responses_filtered
    );
    println!(
        "hot path: {} buffer-growth allocs, {} timeout syscalls during the run",
        after.buffer_grow_allocs - before.buffer_grow_allocs,
        after.timeout_syscalls - before.timeout_syscalls
    );
    tb.shutdown();
    Ok(())
}
