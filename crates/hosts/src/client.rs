//! The open-loop client model: the shared [`ClientCore`] protocol state
//! machine plus the timing the simulator models that real hosts get for
//! free from the OS — per-packet CPU costs on the sender and receiver
//! threads (§4.2's VMA path).
//!
//! All protocol logic — request addressing for every compared scheme,
//! response dedup, clone-win/redundant accounting, retries, latency
//! recording — lives in [`netclone_hostcore::ClientCore`] and is shared
//! verbatim with the real-socket clients in `netclone-net`. A
//! [`ClientSim`] exposes it as its public `core` field: its counters, its
//! addressing mode and its retry policy are read and set there.
//!
//! [`ClientSim::generate_each`] is the simulator's send path: it hands each
//! emitted packet's metadata to a callback, which builds the packet where
//! it is stored (the simulator, straight into its event), so no burst is
//! collected and copied. [`ClientSim::generate`] collects the same
//! emissions into a [`TxBurst`], a fixed array rather than a `Vec`, for
//! callers that want them as values without an allocation per request.

use netclone_hostcore::ClientCore;
use netclone_proto::{ClientId, PacketMeta, RpcOp};

pub use netclone_hostcore::{ClientMode, ClientStats, RetryPolicy};

use crate::packet::AppPacket;

/// The packets one [`ClientSim::generate`] call emits, each stamped with
/// its TX-completion time.
///
/// A fixed-size burst — no addressing scheme emits more than two packets
/// per request (C-Clone duplicates) — so the per-request path allocates
/// nothing. Index it or iterate it by value.
#[derive(Clone, Copy, Debug)]
pub struct TxBurst {
    buf: [Option<(AppPacket, u64)>; 2],
    len: usize,
}

impl TxBurst {
    fn new() -> Self {
        TxBurst {
            buf: [None, None],
            len: 0,
        }
    }

    fn push(&mut self, item: (AppPacket, u64)) {
        assert!(
            self.len < 2,
            "a client emits at most two packets per request"
        );
        self.buf[self.len] = Some(item);
        self.len += 1;
    }

    /// Number of packets in the burst.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the burst holds no packets.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Index<usize> for TxBurst {
    type Output = (AppPacket, u64);
    fn index(&self, i: usize) -> &Self::Output {
        self.buf[i].as_ref().expect("index past burst length")
    }
}

impl IntoIterator for TxBurst {
    type Item = (AppPacket, u64);
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<(AppPacket, u64)>, 2>>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().flatten()
    }
}

/// Outcome of the receiver thread processing one response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RxOutcome {
    /// When the receiver thread finished with the packet (≥ arrival; the
    /// receiver is a serial resource).
    pub done_at: u64,
    /// The end-to-end latency recorded, if this was the *first* response
    /// for its request. `None` for redundant/unknown responses.
    pub latency_ns: Option<u64>,
}

/// One simulated client host: the shared protocol core plus the two
/// serial thread resources (sender, receiver) the paper's client runs on.
pub struct ClientSim {
    /// The protocol core: addressing, dedup, retries and every counter.
    pub core: ClientCore,
    tx_cost_ns: u64,
    rx_cost_ns: u64,
    tx_free_at: u64,
    rx_free_at: u64,
}

impl ClientSim {
    /// Builds a client.
    ///
    /// `tx_cost_ns`/`rx_cost_ns` are the per-packet CPU costs of the sender
    /// and receiver threads (§4.2's VMA path; see the cluster's calibration
    /// module for the values used in experiments).
    pub fn new(
        cid: ClientId,
        mode: ClientMode,
        tx_cost_ns: u64,
        rx_cost_ns: u64,
        seed: u64,
    ) -> Self {
        ClientSim {
            core: ClientCore::new(cid, mode, seed),
            tx_cost_ns,
            rx_cost_ns,
            tx_free_at: 0,
            rx_free_at: 0,
        }
    }

    /// Generates one request at time `now` and returns the packet(s) the
    /// sender thread emits, each stamped with its TX-completion time.
    ///
    /// The open-loop generator never blocks: packets queue behind the
    /// sender thread's per-packet cost (`tx_free_at`), exactly like an
    /// application handing buffers to a userspace NIC queue.
    pub fn generate(&mut self, op: RpcOp, now: u64) -> TxBurst {
        let mut out = TxBurst::new();
        self.generate_each(op, now, |meta, tx_done| {
            out.push((
                AppPacket {
                    meta,
                    op,
                    born_ns: now,
                },
                tx_done,
            ))
        });
        out
    }

    /// [`Self::generate`] without the burst: hands each emitted packet's
    /// metadata and TX-completion time to `emit`, in send order. The
    /// payload of every packet is `op`, born at `now`, which the caller
    /// already holds.
    pub fn generate_each(&mut self, op: RpcOp, now: u64, mut emit: impl FnMut(PacketMeta, u64)) {
        self.core.generate(op, now);
        while let Some(meta) = self.core.poll() {
            emit(meta, self.tx_slot(now));
        }
    }

    /// Drives the core's timeout wheel at `now`.
    ///
    /// With a [`RetryPolicy`] armed, expired requests are retransmitted
    /// and returned as packets stamped with TX-completion times (they
    /// queue behind the sender thread like any generated packet); without
    /// one, expired requests are evicted as lost and the result is empty.
    pub fn tick(&mut self, now: u64) -> Vec<(AppPacket, u64)> {
        self.core.on_tick(now);
        let mut out = Vec::new();
        while let Some(meta) = self.core.poll() {
            let op = self
                .core
                .pending_op(meta.nc.client_seq)
                .expect("a retransmitted request is still outstanding");
            let tx_done = self.tx_slot(now);
            out.push((
                AppPacket {
                    meta,
                    op,
                    born_ns: now,
                },
                tx_done,
            ));
        }
        out
    }

    /// The sender thread takes one packet handed to it at `now`: returns
    /// its TX-completion time, behind every packet already queued.
    fn tx_slot(&mut self, now: u64) -> u64 {
        self.tx_free_at = now.max(self.tx_free_at) + self.tx_cost_ns;
        self.tx_free_at
    }

    /// Receiver thread handles one response arriving at `now`.
    ///
    /// Every response — wanted or redundant — occupies the receiver for
    /// `rx_cost_ns` (this is the client-side redundancy overhead of §2.2
    /// and the mechanism behind Fig. 15). Latency is recorded at receiver
    /// completion for the first response of each request.
    pub fn on_response(&mut self, pkt: &AppPacket, now: u64) -> RxOutcome {
        let done_at = now.max(self.rx_free_at) + self.rx_cost_ns;
        self.rx_free_at = done_at;
        RxOutcome {
            done_at,
            latency_ns: self.core.on_packet(&pkt.meta.nc, done_at).latency_ns(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclone_proto::{Ipv4, NetCloneHdr, ServerState};

    fn echo() -> RpcOp {
        RpcOp::Echo { class_ns: 25_000 }
    }

    /// The response a server would send for `pkt` (echoing its identity).
    fn response_to(pkt: &AppPacket) -> AppPacket {
        let nc = NetCloneHdr::response_to(&pkt.meta.nc, 0, ServerState::IDLE);
        AppPacket {
            meta: netclone_proto::PacketMeta::netclone_response(
                Ipv4::server(0),
                pkt.meta.src_ip,
                nc,
                84,
            ),
            op: pkt.op,
            born_ns: pkt.born_ns,
        }
    }

    #[test]
    fn netclone_mode_leaves_destination_to_the_switch() {
        let mut c = ClientSim::new(
            0,
            ClientMode::NetClone {
                num_groups: 30,
                num_filter_tables: 2,
            },
            350,
            500,
            1,
        );
        let out = c.generate(echo(), 1_000);
        assert_eq!(out.len(), 1);
        let (pkt, tx_done) = out[0];
        assert!(pkt.meta.dst_ip.is_unspecified());
        assert!(pkt.meta.nc.grp < 30);
        assert!(pkt.meta.nc.idx < 2);
        assert_eq!(tx_done, 1_350);
        assert_eq!(pkt.born_ns, 1_000);
    }

    #[test]
    fn cclone_mode_duplicates_to_distinct_servers() {
        let servers: Vec<Ipv4> = (0..6).map(Ipv4::server).collect();
        let mut c = ClientSim::new(0, ClientMode::DirectDuplicate { servers }, 350, 500, 2);
        for _ in 0..100 {
            let out = c.generate(echo(), 0);
            assert_eq!(out.len(), 2);
            assert_ne!(out[0].0.meta.dst_ip, out[1].0.meta.dst_ip);
            assert_eq!(out[0].0.meta.nc.client_seq, out[1].0.meta.nc.client_seq);
        }
        assert_eq!(c.core.stats().packets_sent, 200);
    }

    #[test]
    fn sender_thread_serialises_packets() {
        let servers: Vec<Ipv4> = (0..4).map(Ipv4::server).collect();
        let mut c = ClientSim::new(0, ClientMode::DirectDuplicate { servers }, 350, 500, 3);
        let out = c.generate(echo(), 0);
        assert_eq!(out[0].1, 350);
        assert_eq!(out[1].1, 700, "second copy queues behind the first");
    }

    #[test]
    fn first_response_records_latency_second_is_redundant() {
        let mut c = ClientSim::new(
            0,
            ClientMode::NetClone {
                num_groups: 30,
                num_filter_tables: 2,
            },
            0,
            500,
            4,
        );
        let out = c.generate(echo(), 0);
        let resp = response_to(&out[0].0);
        let r1 = c.on_response(&resp, 40_000);
        assert_eq!(r1.latency_ns, Some(40_500));
        let r2 = c.on_response(&resp, 41_000);
        assert_eq!(r2.latency_ns, None);
        let st = c.core.stats();
        assert_eq!(st.completed, 1);
        assert_eq!(st.redundant, 1);
        assert_eq!(c.core.latencies().count(), 1);
    }

    #[test]
    fn receiver_thread_backpressure_inflates_latency() {
        let mut c = ClientSim::new(
            0,
            ClientMode::NetClone {
                num_groups: 30,
                num_filter_tables: 2,
            },
            0,
            1_000,
            5,
        );
        let a = response_to(&c.generate(echo(), 0)[0].0);
        let b = response_to(&c.generate(echo(), 0)[0].0);
        // Both responses arrive at t=10_000; the second waits for the
        // receiver.
        let r1 = c.on_response(&a, 10_000);
        let r2 = c.on_response(&b, 10_000);
        assert_eq!(r1.done_at, 11_000);
        assert_eq!(r2.done_at, 12_000);
        assert_eq!(r2.latency_ns, Some(12_000));
    }

    #[test]
    fn writes_are_marked_uncloneable() {
        let mut c = ClientSim::new(
            0,
            ClientMode::NetClone {
                num_groups: 30,
                num_filter_tables: 2,
            },
            0,
            0,
            6,
        );
        let put = RpcOp::Put {
            key: netclone_proto::KvKey::from_index(1),
            value_len: 64,
        };
        let out = c.generate(put, 0);
        assert_eq!(out[0].0.meta.nc.state, ServerState(1));
        let get = c.generate(echo(), 0);
        assert_eq!(get[0].0.meta.nc.state, ServerState(0));
    }

    #[test]
    fn coordinator_mode_targets_the_coordinator() {
        let coord = Ipv4::new(10, 0, 3, 1);
        let mut c = ClientSim::new(0, ClientMode::Coordinator { ip: coord }, 0, 0, 7);
        let out = c.generate(echo(), 0);
        assert_eq!(out[0].0.meta.dst_ip, coord);
    }

    #[test]
    fn reset_measurements_keeps_outstanding() {
        let mut c = ClientSim::new(
            0,
            ClientMode::NetClone {
                num_groups: 30,
                num_filter_tables: 2,
            },
            0,
            0,
            8,
        );
        let pkt = c.generate(echo(), 0)[0].0;
        c.core.reset_measurements();
        assert_eq!(c.core.stats().generated, 0);
        // The in-flight request still completes after the reset.
        let r = c.on_response(&response_to(&pkt), 50_000);
        assert!(r.latency_ns.is_some());
    }

    #[test]
    fn tick_retransmits_under_the_retry_policy() {
        let mut c = ClientSim::new(
            0,
            ClientMode::NetClone {
                num_groups: 30,
                num_filter_tables: 2,
            },
            350,
            0,
            10,
        );
        c.core = c.core.with_retry(RetryPolicy::new(10_000));
        let pkt = c.generate(echo(), 0)[0].0;
        assert!(c.tick(9_999).is_empty());
        let rt = c.tick(10_000);
        assert_eq!(rt.len(), 1);
        assert_eq!(rt[0].0.meta.nc.client_seq, pkt.meta.nc.client_seq);
        assert_eq!(rt[0].1, 10_350, "retransmit pays the sender-thread cost");
        assert_eq!(c.core.stats().retried, 1);
        // The retransmission's response completes the original request.
        let r = c.on_response(&response_to(&rt[0].0), 15_000);
        assert!(r.latency_ns.is_some());
        assert_eq!(c.core.stats().retry_wins, 1);
        let lt = c.core.lifetime();
        assert_eq!(
            lt.generated,
            lt.completed + lt.lost + c.core.outstanding() as u64
        );
    }

    #[test]
    fn clone_wins_surface_through_the_sim() {
        let mut c = ClientSim::new(
            0,
            ClientMode::NetClone {
                num_groups: 30,
                num_filter_tables: 2,
            },
            0,
            0,
            9,
        );
        let pkt = c.generate(echo(), 0)[0].0;
        let mut resp = response_to(&pkt);
        resp.meta.nc.clo = netclone_proto::CloneStatus::Clone;
        c.on_response(&resp, 1_000);
        assert_eq!(c.core.stats().clone_wins, 1);
    }
}
