//! Open-loop load generation against the real-socket testbed.

use std::time::Duration;

use netclone_core::NetCloneConfig;
use netclone_net::{OpenLoopClient, OpenLoopSpec, Testbed, WorkExecutor};
use netclone_proto::{Ipv4, RpcOp};

#[test]
fn open_loop_sustains_a_modest_rate() {
    let tb =
        Testbed::spawn(NetCloneConfig::default(), 3, 2, WorkExecutor::Synthetic).expect("testbed");
    let handle = tb.switch_handle();
    let client = OpenLoopClient::bind(0, tb.switch_addr()).expect("bind");
    handle
        .register_client(0, Ipv4::client(0), client.addr().unwrap())
        .expect("register");

    let report = client
        .run(OpenLoopSpec {
            rate_rps: 2_000.0,
            duration: Duration::from_millis(400),
            op: RpcOp::Echo { class_ns: 30_000 },
            drain: Duration::from_millis(150),
            request_timeout: Duration::from_millis(100),
            num_groups: handle.num_groups(),
            num_filter_tables: 2,
            seed: 11,
            workers: 1,
            retry: None,
            faults: None,
            crash_worker: None,
        })
        .expect("run");

    // ~800 requests expected at 2 kRPS over 400 ms.
    let st = report.stats;
    assert!(
        st.generated > 500 && st.generated < 1_200,
        "sent {} — pacing is off",
        st.generated
    );
    assert!(
        report.completion_rate() > 0.95,
        "completion rate {} (completed {} of {})",
        report.completion_rate(),
        st.completed,
        st.generated
    );
    assert_eq!(st.redundant, 0, "filtering must hold under open loop");
    assert_eq!(
        st.generated,
        st.completed + st.lost,
        "every request is accounted for exactly once"
    );
    assert!(
        st.clone_wins <= st.completed,
        "clone wins are a subset of completions"
    );
    let p50 = report.latencies.quantile(0.5);
    assert!(
        p50 > 30_000 && p50 < 5_000_000,
        "p50 {} ns outside plausible loopback range",
        p50
    );
    // The switch cloned under light open-loop load.
    let c = handle.counters();
    assert!(c.cloned > 0);
    tb.shutdown();
}
