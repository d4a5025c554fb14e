//! Calibration constants for the simulated testbed.
//!
//! One set of constants drives **every** experiment — nothing is tuned
//! per-figure. Values are chosen to match the paper's testbed class
//! (100 GbE, VMA kernel bypass, i5-12600K hosts, Tofino ToR):
//!
//! * Switch pass/recirculation latency comes from [`netclone_asic::AsicSpec`]
//!   ("hundreds of nanoseconds", §2.3).
//! * One-way link+NIC latency ≈ 1 μs: wire + serialisation + PCIe/NIC for
//!   a ~100 B frame on 100 GbE with kernel bypass.
//! * Host RX stack ≈ 1 μs before the dispatcher sees a request (VMA
//!   userspace delivery).
//! * Client per-packet sender/receiver CPU ≈ 350/670 ns: VMA-class packet
//!   handling plus app bookkeeping; the receiver is the pricier side
//!   (latency recording, dedup). These give a per-client RX ceiling of
//!   1.49 Mpps, which is what lets redundant responses hurt at high load
//!   (Fig. 15) while leaving the baseline unconstrained (§2.2).
//! * Dispatcher enqueue ≈ 300 ns and clone-drop ≈ 200 ns per packet
//!   (§5.3.2's "processing cost" of dropped clones).
//! * LÆDGE coordinator ≈ 800 ns CPU per packet: an optimised kernel-bypass
//!   relay still handles ~1.25 Mpps, and every RPC costs it ≥ 2 packets
//!   (request + response) plus clone copies — capping it near 0.4–0.5 MRPS
//!   as in Fig. 8.
//! * Worker threads: 15 + 1 dispatcher for synthetic workloads, 8 for KV
//!   (§5.4, §5.5).

/// One-way link + NIC traversal for one hop (host↔switch), ns.
pub const LINK_ONE_WAY_NS: u64 = 1_000;

/// One-way traversal of a leaf↔spine fabric link (§3.7 multi-rack), ns.
/// No NIC/PCIe on a switch-to-switch hop, but the runs are longer and
/// optics add serialisation — 500 ns is a typical intra-DC leaf/spine
/// figure at 100 GbE. Cross-rack RPCs therefore pay 2 × 2 × 500 ns extra
/// round trip versus rack-local ones.
pub const INTER_RACK_ONE_WAY_NS: u64 = 500;

/// Userspace RX delivery inside a server before the dispatcher, ns.
pub const HOST_RX_STACK_NS: u64 = 1_000;

/// Client sender-thread CPU per packet, ns.
pub const CLIENT_TX_NS: u64 = 350;

/// Client receiver-thread CPU per packet, ns.
///
/// This sets the fleet's receive ceiling at 2 clients × 1.49 Mpps ≈
/// 2.99 MRPS of responses — just below the workers' ≈ 3.16 MRPS
/// saturation. That relationship is what reproduces three observations at
/// once: the baseline's tail kicks up at its very last load point
/// (Fig. 7), C-Clone's achieved throughput ceilings out near ≈ 1.4 MRPS
/// (its duplicate responses hit the same ceiling at half the goodput,
/// Fig. 7/8), and unfiltered redundant responses push the receivers past
/// saturation at high load (Fig. 15).
pub const CLIENT_RX_NS: u64 = 670;

/// Server dispatcher enqueue cost per request, ns.
pub const DISPATCH_NS: u64 = 300;

/// Server dispatcher cost to drop a cloned request, ns.
pub const CLONE_DROP_NS: u64 = 200;

/// LÆDGE coordinator CPU per received/sent packet, ns.
pub const COORD_PKT_NS: u64 = 800;

/// Worker threads per server for synthetic workloads (15 workers + 1
/// dispatcher on a 16-hyperthread CPU, §5.4).
pub const SYNTHETIC_WORKERS: usize = 15;

/// Worker threads per server for the KV experiments (§5.5).
pub const KV_WORKERS: usize = 8;

/// Switch pipeline bring-up time after a power cycle, ns (Fig. 16: stopped
/// at 5 s, reactivated at 7 s, traffic recovers ≈ 10 s — "the downtime …
/// depends on the switch architecture").
pub const SWITCH_BRINGUP_NS: u64 = 3_000_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_rx_ceiling_sits_at_the_server_saturation_point() {
        // The fleet's receive ceiling must sit just below the workers'
        // ≈ 3.16 MRPS saturation: redundant responses then tip the
        // receivers over (Fig. 15) while the baseline only grazes it.
        let fleet_rx_pps = 2.0 * 1e9 / CLIENT_RX_NS as f64;
        assert!(fleet_rx_pps > 2.8e6);
        assert!(fleet_rx_pps < 3.16e6);
    }

    #[test]
    fn coordinator_cap_is_below_half_mrps() {
        // Each RPC costs the coordinator ≥ 2 packet times even without
        // cloning (§2.2). This must cap it below C-Clone's knee.
        let cap_rps = 1e9 / (2.0 * COORD_PKT_NS as f64);
        assert!(cap_rps < 700_000.0);
        assert!(cap_rps > 300_000.0);
    }

    #[test]
    fn end_to_end_floor_is_tens_of_microseconds() {
        // request: TX + link + switch + link + stack + dispatch, response
        // symmetric — the floor before service must stay well under the
        // 25 μs service time.
        let floor = CLIENT_TX_NS
            + 2 * LINK_ONE_WAY_NS
            + 600
            + HOST_RX_STACK_NS
            + DISPATCH_NS
            + 2 * LINK_ONE_WAY_NS
            + 600
            + CLIENT_RX_NS;
        assert!(floor < 10_000, "network floor {floor} ns");
    }
}
