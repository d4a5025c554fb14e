//! The soft switch: a switch engine behind a UDP socket.
//!
//! One thread receives datagrams, decodes the virtual-L3 preheader, runs
//! the switch program — any [`netclone_core::SwitchEngine`]; by default
//! the genuine `NetCloneSwitch` (cloning, state tracking, filtering —
//! recirculation happens inside the program, exactly like the inline
//! model the simulator uses) — and transmits every emission to the socket
//! address registered for its egress port. It works a burst at a time: one
//! `recvmmsg` takes everything queued, and every emission of that receive
//! batch leaves in one `sendmmsg`, each datagram addressed to its own
//! port's socket; the emissions bound for one socket (a burst of replies
//! to a client, the requests and clones for one server) leave as
//! segmented runs, one message each ([`SendBatch::flush`]). Because both frontends drive the same trait object, the
//! soft switch and the DES simulator execute the identical program
//! (asserted by `tests/equivalence.rs` at the workspace root). The
//! forwarding thread keeps the default scheduling policy, so a reply that
//! wakes it preempts the server that sent it and is forwarded at once,
//! while the `SCHED_BATCH` servers it wakes let its `sendmmsg` finish.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use netclone_asic::{EmissionSink, PortId};
use netclone_core::ports::{client_port, server_port};
use netclone_core::{NetCloneConfig, NetCloneSwitch, SwitchCounters, SwitchEngine};
use netclone_proto::{Ipv4, ServerId};
use parking_lot::Mutex;

use crate::batch::{set_timeout, RecvBatch, SendBatch};
use crate::codec::{decode_packet_borrowed, encode_packet_into};

/// Egress ports the switch can map to a socket.
const PORTS: usize = 512;

/// Shared state between the switch thread and the control plane.
struct Shared {
    program: Box<dyn SwitchEngine>,
    /// Egress port → where to send the datagram.
    port_map: Vec<Option<SocketAddr>>,
}

impl Shared {
    /// Port `first + id`, checked against the port map *before* any
    /// engine table is touched, so a refused registration leaves the
    /// engine with no route the switch cannot resolve.
    fn port(&self, first: PortId, id: u16) -> Result<PortId, String> {
        first
            .checked_add(id)
            .filter(|&p| usize::from(p) < self.port_map.len())
            .ok_or_else(|| {
                format!(
                    "port {first} + {id} outside the switch's {} ports",
                    self.port_map.len()
                )
            })
    }
}

/// A running soft switch.
pub struct SoftSwitch {
    addr: SocketAddr,
    shared: Arc<Mutex<Shared>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// A cheap handle for registering endpoints and reading counters.
#[derive(Clone)]
pub struct SwitchHandle {
    addr: SocketAddr,
    shared: Arc<Mutex<Shared>>,
}

impl SoftSwitch {
    /// Binds a soft switch running the NetClone program on `127.0.0.1`
    /// (ephemeral port) and starts its forwarding thread.
    pub fn spawn(cfg: NetCloneConfig) -> std::io::Result<SoftSwitch> {
        Self::spawn_engine(Box::new(NetCloneSwitch::new(cfg)))
    }

    /// Binds a soft switch running an arbitrary [`SwitchEngine`] — the
    /// same trait object the DES simulator drives.
    pub fn spawn_engine(engine: Box<dyn SwitchEngine>) -> std::io::Result<SoftSwitch> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        set_timeout(&socket, Duration::from_millis(20))?;
        let addr = socket.local_addr()?;
        let shared = Arc::new(Mutex::new(Shared {
            program: engine,
            port_map: vec![None; PORTS],
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("soft-switch".into())
                .spawn(move || switch_loop(socket, shared, stop))?
        };
        Ok(SoftSwitch {
            addr,
            shared,
            stop,
            thread: Some(thread),
        })
    }

    /// The switch's socket address (endpoints send here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable control-plane handle.
    pub fn handle(&self) -> SwitchHandle {
        SwitchHandle {
            addr: self.addr,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops the forwarding thread and joins it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SoftSwitch {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl SwitchHandle {
    /// The switch's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers a worker server: virtual address + socket address.
    pub fn register_server(
        &self,
        sid: ServerId,
        vip: Ipv4,
        sock: SocketAddr,
    ) -> Result<(), String> {
        let mut s = self.shared.lock();
        let port = s.port(server_port(0), sid)?;
        s.program
            .register_server(sid, vip, port)
            .map_err(|e| e.to_string())?;
        s.port_map[usize::from(port)] = Some(sock);
        Ok(())
    }

    /// Maps an egress port to a socket address without touching the
    /// engine's tables — for engines that were programmed *before*
    /// [`SoftSwitch::spawn_engine`] (e.g. one built by
    /// `netclone-cluster`'s scenario builder, which wires hosts by the
    /// same [`netclone_core::ports`] plan used here).
    pub fn map_port(&self, port: PortId, sock: SocketAddr) -> Result<(), String> {
        let mut s = self.shared.lock();
        let port = s.port(port, 0)?;
        s.port_map[usize::from(port)] = Some(sock);
        Ok(())
    }

    /// Removes a failed server (§3.6).
    pub fn remove_server(&self, sid: ServerId) -> Result<(), String> {
        let mut s = self.shared.lock();
        let port = s.port(server_port(0), sid)?;
        s.program
            .deregister_server(sid)
            .map_err(|e| e.to_string())?;
        s.port_map[usize::from(port)] = None;
        Ok(())
    }

    /// Registers a client endpoint.
    pub fn register_client(&self, cid: u16, vip: Ipv4, sock: SocketAddr) -> Result<(), String> {
        let mut s = self.shared.lock();
        let port = s.port(client_port(0), cid)?;
        s.program
            .register_route(vip, port)
            .map_err(|e| e.to_string())?;
        s.port_map[usize::from(port)] = Some(sock);
        Ok(())
    }

    /// Number of installed groups (clients need this to draw `GRP`).
    pub fn num_groups(&self) -> u16 {
        self.shared.lock().program.num_groups()
    }

    /// Data-plane counters snapshot.
    pub fn counters(&self) -> SwitchCounters {
        self.shared.lock().program.counters()
    }

    /// §3.6 power-cycle: clears soft state.
    pub fn reset_soft_state(&self) {
        self.shared.lock().program.reset_soft_state();
    }
}

fn now_ns() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

fn switch_loop(socket: UdpSocket, shared: Arc<Mutex<Shared>>, stop: Arc<AtomicBool>) {
    // Drain, then flush: one `recvmmsg` wakes the thread for everything
    // queued, each datagram is decoded straight out of the receive buffer,
    // and every emission of the batch is encoded into a send slot addressed
    // to its egress port's socket. The slots leave in one `sendmmsg` after
    // the batch (or when the send batch fills), so a burst costs one
    // wake-up and two syscalls rather than one `send_to` per emission, and
    // each socket's equal-size emissions cross the kernel as one segmented
    // send.
    // Together with the `EmissionSink` contract from
    // `netclone_asic::dataplane`, the per-datagram path allocates nothing
    // and the pipeline lock is taken once per batch, not once per packet.
    let mut batch = RecvBatch::new();
    let mut send = SendBatch::new();
    let mut sink = EmissionSink::new();
    while !stop.load(Ordering::SeqCst) {
        let n = match batch.recv_timeout_then_drain(&socket) {
            Ok(n) => n,
            Err(_) => break,
        };
        if n == 0 {
            continue;
        }
        let now = now_ns();
        let mut s = shared.lock();
        for i in 0..n {
            let Ok((meta, op, value)) = decode_packet_borrowed(batch.datagram(i)) else {
                continue; // malformed datagrams are dropped, never crash the fabric
            };
            // Ingress port 0: the loopback fabric cannot tell us which wire
            // the packet came in on, and the program only needs the
            // recirculation port to be distinguishable (recirculation is
            // internal here).
            s.program.process(meta, 0, now, &mut sink);
            for e in sink.drain() {
                if let Some(Some(dst)) = s.port_map.get(e.port as usize) {
                    if send.is_full() {
                        let _ = send.flush(&socket);
                    }
                    encode_packet_into(&e.pkt, &op, value, send.slot());
                    send.commit_to(*dst);
                }
            }
        }
        // Flush outside the pipeline lock. A datagram the kernel refuses
        // is lost like any dropped packet; the rest still go.
        drop(s);
        let _ = send.flush(&socket);
    }
}
