//! The real-socket client: a blocking UDP driver over the shared
//! [`ClientCore`] protocol state machine.
//!
//! Addressing (random group + filter-table index, destination left to the
//! switch), duplicate filtering, latency measurement, and clone-win /
//! redundant / lost accounting all live in
//! [`netclone_hostcore::ClientCore`] — this type only moves datagrams and
//! converts wall-clock time to the core's explicit nanoseconds.
//!
//! It moves them the way every other loop of the crate does: requests
//! through a [`SendBatch`], replies through a [`RecvBatch`], on a socket
//! connected to the switch whose read timeout, `POLL`, is set once at
//! bind. A call wakes at least once per poll and checks its own deadline,
//! so it returns at most one poll past its timeout, and a call issues no
//! timeout syscall at all.

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use netclone_hostcore::{ClientCore, ClientMode, ClientStats, RxEvent};
use netclone_proto::{ClientId, Ipv4, RpcOp, ServerState};
use netclone_stats::LatencyHistogram;

use crate::batch::{set_timeout, RecvBatch, SendBatch};
use crate::codec::{decode_packet_borrowed, encode_packet_into};

/// The client socket's read timeout: the longest a call or a drain
/// sleeps before it looks at its clock again.
const POLL: Duration = Duration::from_millis(5);

/// Errors from a blocking call.
#[derive(Debug, PartialEq, Eq)]
pub enum CallError {
    /// No response within the timeout.
    Timeout,
    /// Socket error (description).
    Io(String),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Timeout => write!(f, "request timed out"),
            CallError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for CallError {}

/// One response as the client application sees it.
#[derive(Debug, Clone)]
pub struct CallReply {
    /// Which server answered.
    pub sid: u16,
    /// The piggybacked server state.
    pub state: ServerState,
    /// Whether the winning response came from the clone (`CLO=2`).
    pub from_clone: bool,
    /// The response value bytes.
    pub value: Vec<u8>,
    /// Measured round-trip latency.
    pub latency: Duration,
}

/// A real-socket NetClone client.
pub struct UdpClient {
    core: ClientCore,
    socket: UdpSocket,
    epoch: Instant,
    send: SendBatch,
    recv: RecvBatch,
}

impl UdpClient {
    /// Binds a client on `127.0.0.1`, connected to the switch. Register
    /// the returned socket address with the switch before calling.
    pub fn bind(
        cid: ClientId,
        switch_addr: SocketAddr,
        num_groups: u16,
        num_filter_tables: u8,
        seed: u64,
    ) -> std::io::Result<UdpClient> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.connect(switch_addr)?;
        set_timeout(&socket, POLL)?;
        Ok(UdpClient {
            core: ClientCore::new(
                cid,
                ClientMode::NetClone {
                    num_groups,
                    num_filter_tables,
                },
                seed,
            ),
            socket,
            epoch: Instant::now(),
            send: SendBatch::new(),
            recv: RecvBatch::new(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The client's socket address.
    pub fn addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// The client's virtual address.
    pub fn vip(&self) -> Ipv4 {
        self.core.ip()
    }

    /// Latency histogram of completed calls.
    pub fn latencies(&self) -> &LatencyHistogram {
        self.core.latencies()
    }

    /// Statistics so far (same counters as every other frontend).
    pub fn stats(&self) -> ClientStats {
        self.core.stats()
    }

    /// Issues one request and blocks for its first response.
    ///
    /// Late/redundant datagrams from *earlier* requests encountered while
    /// waiting are counted and discarded, mirroring the client-side
    /// redundancy handling the paper requires of RPC frameworks (§3.7).
    pub fn call(&mut self, op: RpcOp, timeout: Duration) -> Result<CallReply, CallError> {
        let seq = self.core.generate(op, self.now_ns());
        let meta = self.core.poll().expect("NetClone mode emits one packet");
        debug_assert!(self.core.poll().is_none());
        encode_packet_into(&meta, &op, &[], self.send.slot());
        self.send.commit();
        let start = Instant::now();
        let io = |e: std::io::Error| CallError::Io(e.to_string());
        let reply = self
            .send
            .flush(&self.socket)
            .map_err(io)
            .and_then(|_| loop {
                if start.elapsed() >= timeout {
                    break Err(CallError::Timeout);
                }
                if let Err(e) = self.recv.recv_timeout_then_drain(&self.socket) {
                    break Err(io(e));
                }
                if let (_, Some(reply)) = self.take_batch() {
                    break Ok(reply);
                }
            });
        // A failed call abandons `seq`, or the entry would linger in the
        // outstanding map and let a stray late datagram complete it
        // during a *later* call with a nonsense latency.
        if reply.is_err() {
            self.core.abandon(seq);
        }
        reply
    }

    /// Hands the last receive batch to the core: returns how many of its
    /// datagrams were responses to this client, and the reply that
    /// completed a call, if one did. At most one call is outstanding (a
    /// failed one is abandoned), so that is the caller's; a response to an
    /// abandoned or answered call counts as redundant.
    fn take_batch(&mut self) -> (u64, Option<CallReply>) {
        let now = self.now_ns();
        let (mut seen, mut reply) = (0, None);
        for dg in self.recv.iter() {
            let Ok((m, _op, value)) = decode_packet_borrowed(dg) else {
                continue;
            };
            match self.core.on_packet(&m.nc, now) {
                RxEvent::Ignored => continue,
                RxEvent::Completed {
                    latency_ns,
                    from_clone,
                } => {
                    reply = Some(CallReply {
                        sid: m.nc.sid,
                        state: m.nc.state,
                        from_clone,
                        value: value.to_vec(),
                        latency: Duration::from_nanos(latency_ns),
                    });
                }
                RxEvent::Redundant => {}
            }
            seen += 1;
        }
        (seen, reply)
    }

    /// Drains any late datagrams sitting in the socket buffer, counting
    /// responses to this client as redundant, until one poll passes with
    /// nothing. Returns how many responses were drained.
    pub fn drain_late_responses(&mut self) -> u64 {
        let mut n = 0;
        while let Ok(1..) = self.recv.recv_timeout_then_drain(&self.socket) {
            n += self.take_batch().0;
        }
        n
    }
}
