//! Loopback smoke of the fault-injection path: open-loop runs over real
//! UDP sockets with a deterministic [`FaultShim`] between codec and
//! socket, client-side retries recovering the induced loss, and
//! supervised workers surviving injected crashes on both ends.

use std::time::Duration;

use netclone_core::NetCloneConfig;
use netclone_hostcore::RetryPolicy;
use netclone_net::shim::{FaultDirection, FaultPlan, FaultWindow};
use netclone_net::{OpenLoopSpec, Testbed, WorkExecutor};
use netclone_proto::RpcOp;

/// A whole-run window injecting the given drop/duplicate probabilities
/// on the client's transmit side.
fn droppy_plan(seed: u64, drop_prob: f64, dup_prob: f64) -> FaultPlan {
    FaultPlan {
        seed,
        windows: vec![FaultWindow {
            from: Duration::ZERO,
            until: Duration::from_secs(3600),
            direction: FaultDirection::Tx,
            drop_prob,
            dup_prob,
            delay: Duration::ZERO,
        }],
    }
}

fn spec(handle: &netclone_net::SwitchHandle) -> OpenLoopSpec {
    OpenLoopSpec {
        rate_rps: 2_000.0,
        duration: Duration::from_millis(400),
        op: RpcOp::Echo { class_ns: 30_000 },
        drain: Duration::from_millis(300),
        request_timeout: Duration::from_millis(100),
        num_groups: handle.num_groups(),
        num_filter_tables: 2,
        seed: 7,
        workers: 2,
        retry: None,
        faults: None,
        crash_worker: None,
    }
}

#[test]
fn retries_recover_shim_drops_and_a_crashed_client_worker_restarts() {
    let mut tb =
        Testbed::spawn(NetCloneConfig::default(), 3, 2, WorkExecutor::Synthetic).expect("testbed");
    let handle = tb.switch_handle();
    let client = tb.open_loop_client(2).expect("open-loop client");

    let mut spec = spec(&handle);
    // Drop a fifth of the requests on the way out, duplicate a few (the
    // switch-side filter and the server-side clone-drop rule absorb
    // them), and retransmit what times out.
    spec.faults = Some(droppy_plan(99, 0.2, 0.05));
    spec.retry = Some(RetryPolicy::new(30_000_000));
    // Worker 0 panics mid-run; the supervisor re-enters its loop with the
    // same core, shim and pacing clock, and the run still completes.
    spec.crash_worker = Some((0, Duration::from_millis(150)));
    let report = client.run(spec).expect("open-loop run");

    assert!(
        report.stats.completed > 0,
        "the faulted run moved no traffic"
    );
    assert!(
        report.stats.retried > 0,
        "a 20% drop rate with retries armed must retransmit something"
    );
    assert!(
        report.stats.retry_wins > 0,
        "some retransmission must have recovered a completion"
    );
    assert!(
        report.restarts >= 1,
        "the injected crash was never supervised"
    );
    let errors = report.worker_errors();
    assert!(
        errors.iter().any(|(_, e)| e.contains("restarted")),
        "the crash was not reported: {errors:?}"
    );
    tb.shutdown();
}

#[test]
fn a_crashed_server_worker_restarts_without_losing_counters() {
    // Server 0's worker 1 panics once it has served 50 requests; its core
    // lives in the handle, so the counters survive and the supervisor
    // re-enters the loop.
    let mut tb = Testbed::spawn_faulty(
        NetCloneConfig::default(),
        3,
        2,
        WorkExecutor::Synthetic,
        Some(droppy_plan(5, 0.02, 0.0)),
        Some((1, 50)),
    )
    .expect("testbed");
    let handle = tb.switch_handle();
    let client = tb.open_loop_client(2).expect("open-loop client");

    let mut spec = spec(&handle);
    spec.retry = Some(RetryPolicy::new(30_000_000));
    let report = client.run(spec).expect("open-loop run");

    assert!(
        report.completion_rate() > 0.5,
        "completion rate {} — the fleet never recovered",
        report.completion_rate()
    );
    let crashed = &tb.servers()[0];
    assert!(
        crashed.restarts() >= 1,
        "the injected server crash was never supervised"
    );
    let served = crashed.stats().served;
    assert!(
        served > 50,
        "server 0 served {served} — it never came back after the crash"
    );
    tb.shutdown();
}

#[test]
fn a_crashed_client_worker_keeps_every_request_it_sent() {
    // No faults and no retry: every request the switch saw came from a
    // worker's core, so the report must count it, the crashed worker's
    // requests from before the crash included.
    let mut tb =
        Testbed::spawn(NetCloneConfig::default(), 3, 2, WorkExecutor::Synthetic).expect("testbed");
    let handle = tb.switch_handle();
    let client = tb.open_loop_client(2).expect("open-loop client");

    let mut spec = spec(&handle);
    spec.crash_worker = Some((0, Duration::from_millis(150)));
    let report = client.run(spec).expect("open-loop run");

    assert!(
        report.restarts >= 1,
        "the injected crash was never supervised"
    );
    let st = report.stats;
    let requests = handle.counters().requests;
    assert!(
        st.generated >= requests,
        "the report holds {} requests but the switch saw {requests}",
        st.generated
    );
    assert_eq!(st.generated, st.completed + st.lost);
    assert_eq!(st.redundant, 0, "a restart must not orphan a response");
    tb.shutdown();
}
