//! The benchmark's vocabulary: workload names and every metric it emits,
//! with unit, direction and (end-to-end only) regression bound.
//! `BENCHMARK.json` at the repo root says the same thing for the driver;
//! a unit test holds the two together.

/// `(name, why)` in run order.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "des_rack",
        "one rack, no links: event queue, switch program and host cores do all the work; linksim and Fabric::route are bypassed",
    ),
    (
        "des_fattree",
        "k=4 fat-tree with 3:1 oversubscribed links, serial: Link::offer, ECMP routing and plain-L3 upper tiers on every packet",
    ),
    (
        "des_fattree_s2",
        "the same fat-tree model through the 2-shard conservative loop (cluster::shard + des::sync): what ROADMAP item 3 must make pay",
    ),
    (
        "des_chaos",
        "4-rack rolling drain against retrying clients: ClientTick sweeps, retransmissions, control events, the leaf drop gate",
    ),
    (
        "udp_echo0_pingpong",
        "loopback UDP, one zero-work echo at a time: smallest packet, every request cloned, so codec, process, syscall and wake-up cost is the whole latency",
    ),
    (
        "udp_kv_closed",
        "loopback UDP, closed loop with 8 outstanding over a 94/1/5 GET/SCAN/PUT Zipf mix: capacity, 6.4 KB replies, uncloneable writes, the shared store lock",
    ),
];

/// How long one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 15;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// Every end-to-end metric is defined on every workload (the driver
/// gates each pair), with one meaning per frontend:
///
/// * DES: host-side cost of simulating a fixed scenario, and the
///   scenario's simulated latency (exact for a seed);
/// * UDP: what a client of the soft switch sees on the wall clock.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("goodput_rps", "1/s", "higher", 0.25),
    e2e("cpu_us_per_req", "us", "lower", 0.25),
    e2e("lat_p50_us", "us", "lower", 0.25),
    e2e("lat_p99_us", "us", "lower", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Per-layer metrics, layer = crate. A metric that does not apply to a
/// workload (no links on `des_rack`, no sockets on `des_*`) reads 0.
pub const PER_LAYER: [Metric; 65] = [
    layer("des.queue_op_ns", "ns", "lower"),
    layer("des.queue_op_deep_ns", "ns", "lower"),
    layer("des.barrier_ns", "ns", "lower"),
    layer("core.process_req_clone_ns", "ns", "lower"),
    layer("core.process_req_noclone_ns", "ns", "lower"),
    layer("core.process_resp_pass_ns", "ns", "lower"),
    layer("core.process_resp_filtered_ns", "ns", "lower"),
    layer("core.clone_rate", "fraction", "higher"),
    layer("core.filter_rate", "fraction", "higher"),
    layer("core.filter_overwrites", "count", "lower"),
    layer("hostcore.client_tx_ns", "ns", "lower"),
    layer("hostcore.client_rx_ns", "ns", "lower"),
    layer("hostcore.server_ns", "ns", "lower"),
    layer("hostcore.client_tick_ns", "ns", "lower"),
    layer("hostcore.clone_win_frac", "fraction", "higher"),
    layer("hostcore.redundant_frac", "fraction", "lower"),
    layer("hostcore.retry_frac", "fraction", "lower"),
    layer("hosts.client_ns", "ns", "lower"),
    layer("hosts.server_ns", "ns", "lower"),
    layer("hosts.server_clone_drop_frac", "fraction", "lower"),
    layer("hosts.empty_queue_frac", "fraction", "higher"),
    layer("linksim.offer_ns", "ns", "lower"),
    layer("linksim.offers_per_req", "count", "lower"),
    layer("linksim.drop_frac", "fraction", "lower"),
    layer("linksim.ecn_frac", "fraction", "lower"),
    layer("cluster.ns_per_event", "ns", "lower"),
    layer("cluster.events_per_sec", "1/s", "higher"),
    layer("cluster.events_per_req", "count", "lower"),
    layer("cluster.route_ns", "ns", "lower"),
    layer("cluster.build_ms", "ms", "lower"),
    layer("cluster.cpu_s", "s", "lower"),
    layer("cluster.shard_speedup", "ratio", "higher"),
    layer("cluster.explained_share", "fraction", "higher"),
    layer("workloads.sample_ns", "ns", "lower"),
    layer("stats.record_ns", "ns", "lower"),
    layer("proto.encode_ns", "ns", "lower"),
    layer("proto.decode_ns", "ns", "lower"),
    layer("proto.bytes_per_req", "bytes", "lower"),
    layer("kvstore.get_ns", "ns", "lower"),
    layer("kvstore.scan_ns", "ns", "lower"),
    layer("kvstore.put_ns", "ns", "lower"),
    layer("kvstore.exec_locked_ns", "ns", "lower"),
    layer("net.switch_cpu_us_per_req", "us", "lower"),
    layer("net.server_cpu_us_per_req", "us", "lower"),
    layer("net.client_cpu_us_per_req", "us", "lower"),
    layer("net.switch_runq_wait_frac", "fraction", "lower"),
    layer("net.server_runq_wait_frac", "fraction", "lower"),
    layer("net.switch_wakeups_per_req", "count", "lower"),
    layer("net.send_ns_per_dgram", "ns", "lower"),
    layer("net.recv_ns_per_dgram", "ns", "lower"),
    layer("net.send_batch_mean", "count", "higher"),
    layer("net.recv_batch_mean", "count", "higher"),
    layer("net.recv_empty_frac", "fraction", "lower"),
    layer("net.inflight_p50_us", "us", "lower"),
    layer("net.rpc_p99_us", "us", "lower"),
    layer("net.rpc_p999_us", "us", "lower"),
    layer("net.server_clone_drop_frac", "fraction", "lower"),
    layer("net.alloc_grow", "count", "lower"),
    layer("net.timeout_syscalls", "count", "lower"),
    layer("net.spawn_ms", "ms", "lower"),
    layer("net.openloop_p50_us", "us", "lower"),
    layer("net.udpclient_call_p50_us", "us", "lower"),
    layer("net.explained_share", "fraction", "higher"),
    layer("proc.peak_rss_mb", "MiB", "lower"),
    layer("trace.overhead_frac", "fraction", "lower"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for (w, why) in WORKLOADS {
            assert!(name_ok(w));
            assert!(seen.insert(w), "{w} collides");
            assert!(why.len() <= 200 && !why.contains('\n'), "{w}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    fn listed(v: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        v.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    /// The emitted set equals the set `BENCHMARK.json` lists, field for
    /// field: the driver refuses a run that prints anything else.
    #[test]
    fn benchmark_json_lists_exactly_this_vocabulary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = json::parse(&text).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let want = |ms: &[Metric], bounded: bool| -> Vec<_> {
            ms.iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.to_string(),
                        bounded.then_some(m.bound),
                    )
                })
                .collect()
        };
        assert_eq!(listed(&v, "end_to_end"), want(&END_TO_END, true));
        assert_eq!(listed(&v, "per_layer"), want(&PER_LAYER, false));

        let workloads: Vec<(String, String)> = v
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let secs = v.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert_eq!(secs, f64::from(RUN_SECONDS));
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
