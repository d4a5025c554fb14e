//! Batched UDP I/O for the real-socket hot paths.
//!
//! [`SendBatch`] and [`RecvBatch`] amortize the syscall-per-packet cost
//! that dominates microsecond-scale RPC stacks (the Dagger/NotNets
//! argument): on Linux they drive `sendmmsg`/`recvmmsg` directly (raw
//! libc syscalls declared here — the vendored dependency set is offline,
//! so no `libc` crate), moving up to [`BATCH`] datagrams per kernel
//! crossing. Everywhere else a portable loop over `send`/`recv` keeps the
//! exact same API.
//!
//! A send batch may mix destinations: a slot staged with
//! [`SendBatch::commit_to`] carries its own address (the soft switch fans
//! one receive batch out to many servers and clients in one flush), one
//! staged with [`SendBatch::commit`] goes to the connected peer. A
//! blocking receive is one `recvmmsg(MSG_WAITFORONE)`: it sleeps for the
//! first datagram and takes whatever else is queued in the same call.
//!
//! On Linux a flush also removes most of the kernel's per-datagram send
//! work, with UDP generic segmentation offload (`UDP_SEGMENT`): it groups
//! the staged datagrams by destination, each destination's own order
//! kept, and sends each run of equal-size datagrams (one shorter one may
//! close it) as one message whose segment size the kernel splits it by,
//! so the run crosses the stack as one packet and the receiver still
//! reads the same datagrams. A process whose kernel does not answer the
//! `UDP_SEGMENT` probe never segments, and a run the kernel refuses to
//! segment is sent again a datagram per message.
//!
//! Both batchers own their buffers for their whole lifetime: every slot
//! is allocated once at construction ([`MAX_DATAGRAM`] bytes, one more on
//! the receive side) and reused for every packet after, so the
//! steady-state per-packet path performs **zero allocations** — any
//! growth past the preallocated capacity is recorded in
//! [`path_counters`], which the loopback smoke tests pin to zero. The
//! same counters record every read timeout the crate sets, each once at
//! socket setup (the switch, each server, each [`crate::UdpClient`]): a
//! blocking receive is one `recvmmsg` under that fixed timeout, and its
//! caller checks its own deadline after each wake.
//!
//! A [`RecvBatch`] never hands on a datagram longer than
//! [`MAX_DATAGRAM`]: such a datagram fills its slot, may have been cut
//! there, and is dropped before any caller sees it.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Datagrams moved per kernel crossing (and the slot count of each batch).
pub const BATCH: usize = 32;

/// The datagram envelope, and the size of each send slot. Larger
/// datagrams are legal UDP but outside this fabric's envelope (a codec
/// frame plus KV values): a [`RecvBatch`] drops them on receipt, since
/// the codec reads a value as the frame's trailing bytes and could not
/// tell a cut one.
pub const MAX_DATAGRAM: usize = 8192;

/// Snapshot of the hot-path instrumentation counters.
///
/// Monotonic process-wide totals (relaxed atomics): diff two snapshots
/// around a run to assert the steady-state contract — no buffer-growth
/// allocations and no timeout syscalls on the per-packet path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathCounters {
    /// Times a batch slot (or reusable encode buffer) had to grow past
    /// its preallocated capacity — an allocation on the packet path.
    pub buffer_grow_allocs: u64,
    /// Read timeouts the crate set on a socket, each at its setup.
    pub timeout_syscalls: u64,
}

static BUFFER_GROW_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TIMEOUT_SYSCALLS: AtomicU64 = AtomicU64::new(0);

/// Reads the process-wide [`PathCounters`].
pub fn path_counters() -> PathCounters {
    PathCounters {
        buffer_grow_allocs: BUFFER_GROW_ALLOCS.load(Ordering::Relaxed),
        timeout_syscalls: TIMEOUT_SYSCALLS.load(Ordering::Relaxed),
    }
}

fn note_buffer_grow() {
    BUFFER_GROW_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// Sets `sock`'s read timeout: the crate's one way to, so
/// [`PathCounters::timeout_syscalls`] counts every such syscall.
pub(crate) fn set_timeout(sock: &UdpSocket, timeout: Duration) -> io::Result<()> {
    TIMEOUT_SYSCALLS.fetch_add(1, Ordering::Relaxed);
    sock.set_read_timeout(Some(timeout))
}

/// A reusable outgoing batch.
///
/// Stage up to [`BATCH`] datagrams by encoding into [`SendBatch::slot`]
/// and calling [`SendBatch::commit`] (to the socket's connected peer) or
/// [`SendBatch::commit_to`] (to an explicit address), then
/// [`SendBatch::flush`] moves them with one `sendmmsg` (Linux, each
/// destination's runs of equal-size datagrams segmented by the kernel) or
/// a `send`/`send_to` loop (portable path).
pub struct SendBatch {
    slots: Vec<Vec<u8>>,
    caps: Vec<usize>,
    /// Per staged slot: its address, or `None` for the connected peer.
    dests: [Option<SocketAddr>; BATCH],
    used: usize,
}

impl Default for SendBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl SendBatch {
    /// Allocates the batch's slots (the only allocation it ever makes).
    pub fn new() -> Self {
        SendBatch {
            slots: (0..BATCH)
                .map(|_| Vec::with_capacity(MAX_DATAGRAM))
                .collect(),
            caps: vec![MAX_DATAGRAM; BATCH],
            dests: [None; BATCH],
            used: 0,
        }
    }

    /// The next free slot to encode into. Panics if the batch is full —
    /// check [`SendBatch::is_full`] first.
    pub fn slot(&mut self) -> &mut Vec<u8> {
        &mut self.slots[self.used]
    }

    /// Marks the current slot as staged for the socket's connected peer.
    pub fn commit(&mut self) {
        self.stage(None);
    }

    /// Marks the current slot as staged for `dst`.
    pub fn commit_to(&mut self, dst: SocketAddr) {
        self.stage(Some(dst));
    }

    /// Stages the current slot `copies` times for the connected peer (a
    /// fault shim's transmit verdict: none when dropped or parked, two
    /// when duplicated), each further copy the bytes of the one before it
    /// copied into the next slot. Flushes to `sock` whenever the batch
    /// fills, so it is never left full and a caller may stage an unbounded
    /// stream (a retransmission sweep after a stall) through here.
    pub(crate) fn commit_copies(&mut self, copies: usize, sock: &UdpSocket) -> io::Result<()> {
        for c in 0..copies {
            if c > 0 {
                // The copy before sits in the previous slot, or in the
                // last one when staging it filled and flushed the batch.
                let from = (self.used + BATCH - 1) % BATCH;
                let src = std::mem::take(&mut self.slots[from]);
                self.slots[self.used].clone_from(&src);
                self.slots[from] = src;
            }
            self.commit();
            if self.is_full() {
                self.flush(sock)?;
            }
        }
        Ok(())
    }

    fn stage(&mut self, dst: Option<SocketAddr>) {
        let i = self.used;
        let cap = self.slots[i].capacity();
        if cap > self.caps[i] {
            self.caps[i] = cap;
            note_buffer_grow();
        }
        self.dests[i] = dst;
        self.used += 1;
    }

    /// Staged datagrams.
    pub fn len(&self) -> usize {
        self.used
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// True when every slot is staged.
    pub fn is_full(&self) -> bool {
        self.used == BATCH
    }

    /// Sends every staged datagram and clears the batch. A datagram the
    /// kernel refuses (a bad address, a pending `ECONNREFUSED`, a full
    /// buffer) is skipped and the rest still go out. Returns how many were
    /// sent, or the last error when none were.
    pub fn flush(&mut self, sock: &UdpSocket) -> io::Result<usize> {
        let n = self.used;
        if n == 0 {
            return Ok(0);
        }
        self.used = 0;
        let (slots, dests) = (&self.slots[..n], &self.dests[..n]);
        let (sent, err) = match n {
            #[cfg(target_os = "linux")]
            2.. => mmsg::send_all(sock, slots, dests),
            // A lone datagram (and the portable path) goes out with plain
            // `send`/`send_to` calls.
            _ => {
                let (mut sent, mut err) = (0, None);
                for (s, d) in slots.iter().zip(dests) {
                    let r = match d {
                        Some(a) => sock.send_to(s, a),
                        None => sock.send(s),
                    };
                    match r {
                        Ok(_) => sent += 1,
                        Err(e) => err = Some(e),
                    }
                }
                (sent, err)
            }
        };
        match err {
            Some(e) if sent == 0 => Err(e),
            _ => Ok(sent),
        }
    }
}

/// The errors a receive treats as "nothing arrived": a time-out, an empty
/// non-blocking socket, or a signal.
fn is_quiet(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// A reusable incoming batch.
///
/// One call fills up to [`BATCH`] slots; [`RecvBatch::datagram`] /
/// [`RecvBatch::iter`] then borrow the received bytes in place — pair
/// with [`crate::codec::decode_packet_borrowed`] for a copy-free,
/// allocation-free receive path.
pub struct RecvBatch {
    bufs: Vec<Vec<u8>>,
    lens: [usize; BATCH],
    count: usize,
}

impl Default for RecvBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl RecvBatch {
    /// Allocates the batch's buffers (the only allocation it ever makes).
    pub fn new() -> Self {
        RecvBatch {
            // One byte past the envelope: a datagram that fills its slot
            // is longer than `MAX_DATAGRAM`.
            bufs: (0..BATCH).map(|_| vec![0u8; MAX_DATAGRAM + 1]).collect(),
            lens: [0; BATCH],
            count: 0,
        }
    }

    /// Datagrams received by the last call.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the last call received nothing.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `i`-th received datagram of the last call.
    pub fn datagram(&self, i: usize) -> &[u8] {
        &self.bufs[i][..self.lens[i]]
    }

    /// Iterates the datagrams of the last call.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.count).map(|i| self.datagram(i))
    }

    /// Receives without blocking: fills as many slots as the socket
    /// already holds and returns the count (0 when none are pending).
    /// The socket must be in non-blocking mode on the portable path;
    /// the Linux path forces `MSG_DONTWAIT` either way.
    pub fn recv_nonblocking(&mut self, sock: &UdpSocket) -> io::Result<usize> {
        self.count = 0;
        #[cfg(target_os = "linux")]
        let got = mmsg::recv(sock, &mut self.bufs, &mut self.lens, mmsg::MSG_DONTWAIT)?;
        #[cfg(not(target_os = "linux"))]
        let got = {
            let mut n = 0;
            while n < BATCH && self.recv_one(sock, n)? {
                n += 1;
            }
            n
        };
        Ok(self.keep_envelope(got))
    }

    /// Blocks (honoring the socket's read timeout) for the first
    /// datagram, then takes whatever else is already queued without
    /// blocking again — one `recvmmsg(MSG_WAITFORONE)` on Linux. Returns 0
    /// on a time-out or a signal.
    pub fn recv_timeout_then_drain(&mut self, sock: &UdpSocket) -> io::Result<usize> {
        self.count = 0;
        #[cfg(target_os = "linux")]
        let got = mmsg::recv(sock, &mut self.bufs, &mut self.lens, mmsg::MSG_WAITFORONE)?;
        // Portable path: a blocking socket cannot drain more without
        // risking a second block — batch size degrades to 1.
        #[cfg(not(target_os = "linux"))]
        let got = usize::from(self.recv_one(sock, 0)?);
        Ok(self.keep_envelope(got))
    }

    /// Keeps, in order, those of the `got` datagrams just received that
    /// fit [`MAX_DATAGRAM`], and returns how many: one that filled its
    /// slot is over the envelope and is dropped here.
    fn keep_envelope(&mut self, got: usize) -> usize {
        for i in 0..got {
            if self.lens[i] <= MAX_DATAGRAM {
                self.bufs.swap(self.count, i);
                self.lens[self.count] = self.lens[i];
                self.count += 1;
            }
        }
        self.count
    }

    /// Portable path: one `recv` into slot `i`. `Ok(false)` when nothing
    /// arrived.
    #[cfg(not(target_os = "linux"))]
    fn recv_one(&mut self, sock: &UdpSocket, i: usize) -> io::Result<bool> {
        match sock.recv(&mut self.bufs[i]) {
            Ok(len) => {
                self.lens[i] = len;
                Ok(true)
            }
            Err(e) if is_quiet(&e) => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// Puts the calling thread under `SCHED_BATCH` (Linux; a no-op elsewhere).
///
/// A `SCHED_BATCH` thread that wakes does not preempt the thread on its
/// CPU, so a forwarding thread that wakes it finishes its `sendmmsg`
/// first and the woken thread drains the whole batch in one `recvmmsg`.
/// The policy is an attribute of the calling thread alone: any thread may
/// move itself from the default policy to this one without privilege.
pub(crate) fn run_as_batch() -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct SchedParam {
            sched_priority: i32,
        }
        const SCHED_BATCH: i32 = 3;
        extern "C" {
            fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        }
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: pid 0 names the calling thread, and the kernel only
        // reads `param`, which outlives the call.
        if unsafe { sched_setscheduler(0, SCHED_BATCH, &param) } != 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

// The flush planner below serves the Linux `sendmmsg` path alone; the
// portable path sends datagram by datagram.

/// The most payload one segmented send may carry: an IPv4 datagram's
/// 65,535 bytes less its IP and UDP headers. (32 full slots hold 256 KiB.)
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
const MAX_RUN_BYTES: usize = 65_507;

/// One message of a planned flush: `count` datagrams, from `start` in the
/// plan's send order, to one destination. `seg` is the first datagram's
/// length, the segment size when `count > 1`; `bytes` the total payload.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Run {
    start: usize,
    count: usize,
    seg: usize,
    bytes: usize,
}

#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
impl Run {
    /// Whether a datagram of `len` bytes may join the run: every segment
    /// but the last is exactly `seg` bytes, so a non-empty shorter one
    /// closes it, and the run stays within [`BATCH`] segments and
    /// [`MAX_RUN_BYTES`].
    fn takes(&self, len: usize) -> bool {
        let open = self.bytes == self.count * self.seg;
        open && 0 < len
            && len <= self.seg
            && self.count < BATCH
            && self.bytes + len <= MAX_RUN_BYTES
    }
}

/// Plans one flush of the datagrams of lengths `lens` to `dests` (at most
/// [`BATCH`]): writes the slot indices in send order to `order` — grouped
/// by destination, each destination's own order kept, the destinations in
/// order of first appearance — and the messages to `runs`, returning how
/// many messages there are. Without `segment` every datagram is a message
/// of its own. O(n·d) for d distinct destinations: no receiver can observe
/// the order across destinations, so only each destination's is kept.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn plan(
    lens: &[usize],
    dests: &[Option<SocketAddr>],
    segment: bool,
    order: &mut [usize; BATCH],
    runs: &mut [Run; BATCH],
) -> usize {
    let n = lens.len().min(BATCH);
    let mut placed = [false; BATCH];
    let (mut k, mut m) = (0, 0);
    for first in 0..n {
        if placed[first] {
            continue;
        }
        // A new destination: its slots are all still unplaced, and its
        // runs start at `m`, of which only the last may be open.
        let dst = dests[first];
        let own = m;
        for i in first..n {
            if dests[i] != dst {
                continue;
            }
            placed[i] = true;
            order[k] = i;
            let len = lens[i];
            match runs[own..m].last_mut() {
                Some(run) if segment && run.takes(len) => {
                    run.count += 1;
                    run.bytes += len;
                }
                _ => {
                    runs[m] = Run {
                        start: k,
                        count: 1,
                        seg: len,
                        bytes: len,
                    };
                    m += 1;
                }
            }
            k += 1;
        }
    }
    m
}

/// Direct `sendmmsg`/`recvmmsg` bindings (Linux only).
///
/// The msghdr, cmsghdr and sockaddr layouts match the 64-bit System V ABI
/// glibc/musl both use; the syscall-array scratch space (headers, iovecs,
/// addresses, `UDP_SEGMENT` cmsgs) lives on the stack ([`BATCH`] entries,
/// of which only those in use are written), so batching adds no
/// allocations and the batch structs stay `Send`.
#[cfg(target_os = "linux")]
mod mmsg {
    use super::{is_quiet, plan, Run, BATCH};
    use std::io;
    use std::mem::{size_of, MaybeUninit};
    use std::net::{SocketAddr, UdpSocket};
    use std::os::fd::AsRawFd;
    use std::ptr::null_mut;
    use std::sync::OnceLock;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MsgHdr {
        name: *mut u8,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    /// A `sockaddr_in` or `sockaddr_in6`, byte for byte.
    #[repr(C, align(4))]
    #[derive(Clone, Copy)]
    struct SockAddr([u8; 28]);

    pub(super) const MSG_DONTWAIT: i32 = 0x40;
    pub(super) const MSG_WAITFORONE: i32 = 0x10000;
    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;

    extern "C" {
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn recvmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32, timeout: *mut u8) -> i32;
    }

    fn header(name: *mut u8, namelen: u32, iov: *mut IoVec) -> MMsgHdr {
        MMsgHdr {
            hdr: MsgHdr {
                name,
                namelen,
                iov,
                iovlen: 1,
                control: null_mut(),
                controllen: 0,
                flags: 0,
            },
            len: 0,
        }
    }

    /// `a` in the kernel's layout (fields as `std` itself fills them),
    /// with its length.
    fn sockaddr(a: &SocketAddr) -> (SockAddr, u32) {
        let mut b = [0u8; 28];
        b[2..4].copy_from_slice(&a.port().to_be_bytes());
        let len = match a {
            SocketAddr::V4(v4) => {
                b[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                b[4..8].copy_from_slice(&v4.ip().octets());
                16
            }
            SocketAddr::V6(v6) => {
                b[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                b[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
                b[8..24].copy_from_slice(&v6.ip().octets());
                b[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                28
            }
        };
        (SockAddr(b), len)
    }

    /// A `cmsghdr` carrying `UDP_SEGMENT`'s `u16` segment size, padded to
    /// `CMSG_SPACE(2)`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SegmentCmsg {
        len: usize,
        level: i32,
        kind: i32,
        seg: u16,
    }

    /// `CMSG_SPACE(2)`, the control length the kernel walks.
    const _: () = assert!(size_of::<SegmentCmsg>() == 24);

    const SOL_UDP: i32 = 17;
    const UDP_SEGMENT: i32 = 103;
    /// `CMSG_LEN(2)`: the header and the `u16`, unpadded.
    const SEGMENT_CMSG_LEN: usize = 18;
    const EIO: i32 = 5;
    const EINVAL: i32 = 22;

    extern "C" {
        fn getsockopt(fd: i32, level: i32, name: i32, val: *mut u8, len: *mut u32) -> i32;
    }

    /// Whether this kernel segments UDP sends, asked once per process: a
    /// kernel without `UDP_SEGMENT` ignores the cmsg and would send a run
    /// as one concatenated datagram, so no run is segmented unless the
    /// option answers.
    fn segments(fd: i32) -> bool {
        static SEGMENTS: OnceLock<bool> = OnceLock::new();
        *SEGMENTS.get_or_init(|| {
            let (mut val, mut len) = (0i32, 4u32);
            // SAFETY: the kernel writes at most `len` (4) bytes to `val`.
            let r = unsafe {
                getsockopt(
                    fd,
                    SOL_UDP,
                    UDP_SEGMENT,
                    (&mut val as *mut i32).cast(),
                    &mut len,
                )
            };
            r == 0
        })
    }

    /// Sends `slots` (at most [`BATCH`]), each to its `dests` entry or, for
    /// `None`, the connected peer, as the messages [`plan`] groups them
    /// into: a run of several datagrams is one message with an iovec per
    /// datagram and a `UDP_SEGMENT` cmsg. Returns how many datagrams went
    /// out and the last refusal.
    pub(super) fn send_all(
        sock: &UdpSocket,
        slots: &[Vec<u8>],
        dests: &[Option<SocketAddr>],
    ) -> (usize, Option<io::Error>) {
        let fd = sock.as_raw_fd();
        let n = slots.len().min(BATCH);
        let mut lens = [0; BATCH];
        for (len, s) in lens.iter_mut().zip(slots) {
            *len = s.len();
        }
        let (mut order, mut runs) = ([0; BATCH], [Run::default(); BATCH]);
        let m = plan(&lens[..n], &dests[..n], segments(fd), &mut order, &mut runs);
        let mut iovs = [MaybeUninit::<IoVec>::uninit(); BATCH];
        for (iov, &i) in iovs.iter_mut().zip(&order[..n]) {
            iov.write(IoVec {
                base: slots[i].as_ptr() as *mut u8,
                len: slots[i].len(),
            });
        }
        let iovs: *mut IoVec = iovs.as_mut_ptr().cast();
        let mut names = [MaybeUninit::<SockAddr>::uninit(); BATCH];
        let mut cmsgs = [MaybeUninit::<SegmentCmsg>::uninit(); BATCH];
        let mut hdrs = [MaybeUninit::<MMsgHdr>::uninit(); BATCH];
        for (r, run) in runs[..m].iter().enumerate() {
            let (name, namelen) = match &dests[order[run.start]] {
                Some(a) => {
                    let (raw, len) = sockaddr(a);
                    (names[r].write(raw) as *mut SockAddr as *mut u8, len)
                }
                None => (null_mut(), 0),
            };
            // SAFETY: `run.start + run.count <= n`, and iovecs 0..n were
            // written above.
            let mut h = header(name, namelen, unsafe { iovs.add(run.start) });
            if run.count > 1 {
                let cmsg = cmsgs[r].write(SegmentCmsg {
                    len: SEGMENT_CMSG_LEN,
                    level: SOL_UDP,
                    kind: UDP_SEGMENT,
                    // A run holds at most MAX_RUN_BYTES, so a segment fits.
                    seg: run.seg as u16,
                });
                h.hdr.iovlen = run.count;
                h.hdr.control = cmsg as *mut SegmentCmsg as *mut u8;
                h.hdr.controllen = size_of::<SegmentCmsg>();
            }
            hdrs[r].write(h);
        }
        let mut counts = [0; BATCH];
        for (c, run) in counts.iter_mut().zip(&runs[..m]) {
            *c = run.count;
        }
        // SAFETY: headers 0..m were written above; each points into
        // `names`, `iovs`, `cmsgs` and `slots`, which outlive the call.
        unsafe { send_msgs(fd, hdrs.as_mut_ptr().cast(), &counts[..m]) }
    }

    /// `sendmmsg` over `hdrs[..counts.len()]`, message `k` carrying
    /// `counts[k]` datagrams, until every message went out or was refused.
    /// A message the kernel refuses is dropped, as a lone `send` would
    /// have been, and the call resumes behind it — unless it is a run the
    /// kernel refused to segment (no checksum offload on the route, an MTU
    /// below the segment, `SO_NO_CHECK`), which goes out again a datagram
    /// per message. Returns how many datagrams went out and the last
    /// refusal.
    ///
    /// # Safety
    ///
    /// `hdrs[..counts.len()]` must be initialized, each with `counts[k]`
    /// iovecs, pointing at memory that outlives the call.
    unsafe fn send_msgs(
        fd: i32,
        hdrs: *mut MMsgHdr,
        counts: &[usize],
    ) -> (usize, Option<io::Error>) {
        let m = counts.len();
        let (mut done, mut sent, mut err) = (0usize, 0usize, None);
        while done < m {
            // SAFETY: the caller initialized entries done..m (m <= BATCH),
            // and the kernel only reads what they point at.
            let r = unsafe { sendmmsg(fd, hdrs.add(done), (m - done) as u32, 0) };
            if r > 0 {
                let r = r as usize;
                sent += counts[done..done + r].iter().sum::<usize>();
                done += r;
                continue;
            }
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            if counts[done] > 1 && matches!(e.raw_os_error(), Some(EINVAL | EIO)) {
                // SAFETY: entry `done` was initialized by the caller.
                let run = unsafe { (*hdrs.add(done)).hdr };
                let mut one = [MaybeUninit::<MMsgHdr>::uninit(); BATCH];
                for (j, h) in one.iter_mut().take(run.iovlen).enumerate() {
                    // SAFETY: the run's iovecs are `iovlen` in a row.
                    h.write(header(run.name, run.namelen, unsafe { run.iov.add(j) }));
                }
                // SAFETY: entries 0..iovlen were written above and point
                // where the run's header did.
                let (s, e) =
                    unsafe { send_msgs(fd, one.as_mut_ptr().cast(), &[1; BATCH][..run.iovlen]) };
                sent += s;
                err = e.or(err);
            } else {
                err = Some(e);
            }
            done += 1;
        }
        (sent, err)
    }

    /// One `recvmmsg` under `flags` into `bufs` (at most [`BATCH`]),
    /// recording each datagram's length. A time-out, an empty
    /// non-blocking socket or a signal reads as 0 datagrams.
    pub(super) fn recv(
        sock: &UdpSocket,
        bufs: &mut [Vec<u8>],
        lens: &mut [usize; BATCH],
        flags: i32,
    ) -> io::Result<usize> {
        let fd = sock.as_raw_fd();
        let n = bufs.len().min(BATCH);
        let mut iovs = [MaybeUninit::<IoVec>::uninit(); BATCH];
        let mut hdrs = [MaybeUninit::<MMsgHdr>::uninit(); BATCH];
        for (i, buf) in bufs.iter_mut().take(n).enumerate() {
            let iov = iovs[i].write(IoVec {
                base: buf.as_mut_ptr(),
                len: buf.len(),
            });
            hdrs[i].write(header(null_mut(), 0, iov));
        }
        // SAFETY: entries 0..n (n <= BATCH) were written above; each points
        // into `iovs` and into a buffer of `bufs` whose length the iovec
        // carries, and both outlive the call.
        let got = unsafe { recvmmsg(fd, hdrs.as_mut_ptr().cast(), n as u32, flags, null_mut()) };
        if got < 0 {
            let e = io::Error::last_os_error();
            return if is_quiet(&e) { Ok(0) } else { Err(e) };
        }
        for (len, hdr) in lens.iter_mut().zip(&hdrs).take(got as usize) {
            // SAFETY: every entry below `got <= n` was written above (the
            // kernel only filled in its `len`).
            *len = unsafe { hdr.assume_init_ref() }.len as usize;
        }
        Ok(got as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by the tests that read the process-wide growth counter, so no
    /// other test grows a slot between their snapshots.
    static GROWTH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.connect(b.local_addr().unwrap()).unwrap();
        b.connect(a.local_addr().unwrap()).unwrap();
        (a, b)
    }

    #[test]
    fn send_batch_round_trips_through_recv_batch() {
        let (tx, rx) = pair();
        rx.set_nonblocking(true).unwrap();
        let mut send = SendBatch::new();
        for i in 0u8..5 {
            let slot = send.slot();
            slot.clear();
            slot.extend_from_slice(&[i; 7]);
            send.commit();
        }
        assert_eq!(send.len(), 5);
        assert_eq!(send.flush(&tx).unwrap(), 5);
        assert!(send.is_empty());

        let mut recv = RecvBatch::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let mut got = 0;
        let mut seen = Vec::new();
        while got < 5 && std::time::Instant::now() < deadline {
            got += recv.recv_nonblocking(&rx).unwrap();
            for dg in recv.iter() {
                seen.push(dg.to_vec());
            }
        }
        assert_eq!(got, 5);
        // UDP on loopback preserves order.
        for (i, dg) in seen.iter().enumerate() {
            assert_eq!(dg, &vec![i as u8; 7]);
        }
    }

    #[test]
    fn recv_timeout_then_drain_times_out_cleanly() {
        let (_tx, rx) = pair();
        set_timeout(&rx, Duration::from_millis(5)).unwrap();
        let mut recv = RecvBatch::new();
        assert_eq!(recv.recv_timeout_then_drain(&rx).unwrap(), 0);
        assert!(recv.is_empty());
    }

    #[test]
    fn recv_timeout_then_drain_batches_queued_datagrams() {
        let (tx, rx) = pair();
        set_timeout(&rx, Duration::from_millis(200)).unwrap();
        let mut send = SendBatch::new();
        for i in 0u8..9 {
            let slot = send.slot();
            slot.clear();
            slot.push(i);
            send.commit();
        }
        assert_eq!(send.flush(&tx).unwrap(), 9);
        // Give loopback a moment to queue everything behind one wakeup.
        std::thread::sleep(Duration::from_millis(20));
        let mut recv = RecvBatch::new();
        // One call takes the whole queue (the portable path's blocking
        // receive takes one datagram per call).
        let expect = if cfg!(target_os = "linux") { 9 } else { 1 };
        assert_eq!(recv.recv_timeout_then_drain(&rx).unwrap(), expect);
        for (i, dg) in recv.iter().enumerate() {
            assert_eq!(dg, [i as u8]);
        }
    }

    /// Stages `datagrams[i]` for `dests[i]` (`None`: the connected peer).
    fn stage(send: &mut SendBatch, datagrams: &[&[u8]], dests: &[Option<SocketAddr>]) {
        for (p, d) in datagrams.iter().zip(dests) {
            let slot = send.slot();
            slot.clear();
            slot.extend_from_slice(p);
            match d {
                Some(a) => send.commit_to(*a),
                None => send.commit(),
            }
        }
    }

    /// Everything `sock` holds, waiting up to 200 ms for the first.
    fn drain(sock: &UdpSocket) -> Vec<Vec<u8>> {
        set_timeout(sock, Duration::from_millis(200)).unwrap();
        let mut recv = RecvBatch::new();
        let mut out = Vec::new();
        while recv.recv_timeout_then_drain(sock).unwrap() > 0 {
            out.extend(recv.iter().map(<[u8]>::to_vec));
            set_timeout(sock, Duration::from_millis(20)).unwrap();
        }
        out
    }

    #[test]
    fn addressed_slots_to_two_receivers_leave_in_one_flush() {
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (aa, ba) = (a.local_addr().unwrap(), b.local_addr().unwrap());
        let mut send = SendBatch::new();
        let datagrams: Vec<Vec<u8>> = (0u8..6).map(|i| vec![i; 3 + i as usize]).collect();
        let refs: Vec<&[u8]> = datagrams.iter().map(Vec::as_slice).collect();
        let dests: Vec<_> = (0..6)
            .map(|i| Some(if i % 2 == 0 { aa } else { ba }))
            .collect();
        stage(&mut send, &refs, &dests);
        assert_eq!(send.flush(&tx).unwrap(), 6);
        assert!(send.is_empty());
        assert_eq!(drain(&a), [0, 2, 4].map(|i| datagrams[i].clone()));
        assert_eq!(drain(&b), [1, 3, 5].map(|i| datagrams[i].clone()));
    }

    #[test]
    fn plain_commits_go_to_the_connected_peer_beside_addressed_ones() {
        let (tx, peer) = pair();
        let other = UdpSocket::bind("127.0.0.1:0").unwrap();
        let oa = Some(other.local_addr().unwrap());
        let mut send = SendBatch::new();
        stage(&mut send, &[b"p0", b"o0", b"p1"], &[None, oa, None]);
        assert_eq!(send.flush(&tx).unwrap(), 3);
        assert_eq!(drain(&peer), [b"p0", b"p1"]);
        assert_eq!(drain(&other), [b"o0"]);
    }

    #[test]
    fn one_slot_flush_works() {
        let (tx, peer) = pair();
        let mut send = SendBatch::new();
        stage(&mut send, &[b"lone"], &[None]);
        assert_eq!(send.flush(&tx).unwrap(), 1);
        assert_eq!(drain(&peer), [b"lone"]);

        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        stage(
            &mut send,
            &[b"addressed"],
            &[Some(rx.local_addr().unwrap())],
        );
        assert_eq!(send.flush(&tx).unwrap(), 1);
        assert_eq!(drain(&rx), [b"addressed"]);
    }

    #[test]
    fn a_refused_datagram_does_not_sink_the_rest_of_the_batch() {
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let good = Some(rx.local_addr().unwrap());
        // Port 0 is not a destination: the kernel refuses it (EINVAL).
        let bad = Some("127.0.0.1:0".parse().unwrap());
        let mut send = SendBatch::new();
        stage(&mut send, &[b"first", b"void", b"last"], &[good, bad, good]);
        assert_eq!(send.flush(&tx).unwrap(), 2);
        assert!(send.is_empty());
        assert_eq!(drain(&rx), [b"first".as_slice(), b"last"]);
        // Nothing sent at all is an error, not a silent zero.
        stage(&mut send, &[b"void"], &[bad]);
        assert!(send.flush(&tx).is_err());
        stage(&mut send, &[b"void", b"void"], &[bad, bad]);
        assert!(send.flush(&tx).is_err());
        assert!(send.is_empty());
    }

    #[test]
    fn slot_growth_is_counted() {
        let _counter = GROWTH.lock().unwrap_or_else(|e| e.into_inner());
        let before = path_counters().buffer_grow_allocs;
        let mut send = SendBatch::new();
        let slot = send.slot();
        slot.clear();
        slot.resize(MAX_DATAGRAM + 1, 0xAB); // force growth past prealloc
        send.commit();
        let after_commit = path_counters().buffer_grow_allocs;
        assert!(after_commit > before);
        // An addressed slot is accounted the same way.
        let slot = send.slot();
        slot.clear();
        slot.resize(MAX_DATAGRAM + 1, 0xCD);
        send.commit_to("127.0.0.1:9".parse().unwrap());
        assert!(path_counters().buffer_grow_allocs > after_commit);
    }

    #[test]
    fn a_datagram_over_the_envelope_is_never_handed_on() {
        let (tx, rx) = pair();
        set_timeout(&rx, Duration::from_millis(200)).unwrap();
        let big = vec![0xEE; 12_000];
        let edge = vec![0xAA; MAX_DATAGRAM];
        let mut recv = RecvBatch::new();
        // The blocking receive: the oversized datagram between two that
        // fit is dropped, and the rest keep their order.
        for dg in [&b"before"[..], &big[..], &edge[..], &b"after"[..]] {
            tx.send(dg).unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        let mut seen = Vec::new();
        while seen.len() < 3 && recv.recv_timeout_then_drain(&rx).unwrap() > 0 {
            seen.extend(recv.iter().map(<[u8]>::to_vec));
        }
        assert_eq!(seen, [b"before".to_vec(), edge.clone(), b"after".to_vec()]);
        // The non-blocking receive, and a batch of nothing but the
        // oversized datagram.
        rx.set_nonblocking(true).unwrap();
        tx.send(&big).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(recv.recv_nonblocking(&rx).unwrap(), 0);
        assert!(recv.is_empty());
        tx.send(&big[..MAX_DATAGRAM + 1]).unwrap();
        tx.send(b"small").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(recv.recv_nonblocking(&rx).unwrap(), 1);
        assert_eq!(recv.datagram(0), b"small");
    }

    /// Stages datagram `i` (a distinct payload) through `commit_copies`
    /// for every `(i, copies)`, checking the batch is never left full,
    /// and returns the datagrams the peer should read, in order.
    fn stage_copies(send: &mut SendBatch, tx: &UdpSocket, plan: &[(usize, usize)]) -> Vec<Vec<u8>> {
        let mut expect = Vec::new();
        for &(i, copies) in plan {
            let dg: Vec<u8> = (0..3 + i % 7).map(|j| (i * 13 + j) as u8).collect();
            let slot = send.slot();
            slot.clear();
            slot.extend_from_slice(&dg);
            let staged = send.len();
            send.commit_copies(copies, tx).unwrap();
            assert!(!send.is_full(), "a full batch is flushed, not left");
            assert_eq!(send.len(), (staged + copies) % BATCH);
            expect.extend((0..copies).map(|_| dg.clone()));
        }
        send.flush(tx).unwrap();
        expect
    }

    #[test]
    fn commit_copies_flushes_as_the_batch_fills_and_copies_byte_for_byte() {
        let _counter = GROWTH.lock().unwrap_or_else(|e| e.into_inner());
        let grown = path_counters().buffer_grow_allocs;
        let (tx, rx) = pair();
        let mut send = SendBatch::new();
        // 3 × 32 + 5 single copies: three full batches flush on the way.
        let singles: Vec<_> = (0..3 * BATCH + 5).map(|i| (i, 1)).collect();
        let expect = stage_copies(&mut send, &tx, &singles);
        assert_eq!(drain(&rx), expect);
        // 2 × 32 duplicated datagrams: every second batch ends on a
        // duplicate in the last free slot.
        let dups: Vec<_> = (0..2 * BATCH).map(|i| (i, 2)).collect();
        let expect = stage_copies(&mut send, &tx, &dups);
        assert_eq!(drain(&rx), expect);
        // One single first, so an original fills the last free slot and
        // its duplicate opens the next batch, copied from the flushed one.
        let mut shifted = vec![(0, 1)];
        shifted.extend((1..=BATCH).map(|i| (i, 2)));
        let expect = stage_copies(&mut send, &tx, &shifted);
        assert_eq!(drain(&rx), expect);
        // A dropped or parked datagram stages nothing.
        assert!(stage_copies(&mut send, &tx, &[(9, 0)]).is_empty());
        assert!(send.is_empty());
        assert_eq!(path_counters().buffer_grow_allocs, grown);
    }

    /// [`plan`]'s messages as `(slots in send order, segment size)`.
    fn planned(lens: &[usize], dests: &[Option<SocketAddr>]) -> Vec<(Vec<usize>, usize)> {
        let (mut order, mut runs) = ([0; BATCH], [Run::default(); BATCH]);
        let m = plan(lens, dests, true, &mut order, &mut runs);
        let mut seen = 0;
        let msgs = runs[..m]
            .iter()
            .map(|r| {
                let slots = order[r.start..r.start + r.count].to_vec();
                assert_eq!(r.bytes, slots.iter().map(|&i| lens[i]).sum::<usize>());
                seen += r.count;
                (slots, r.seg)
            })
            .collect();
        assert_eq!(seen, lens.len(), "every datagram is planned once");
        msgs
    }

    #[test]
    fn plan_closes_a_run_with_one_shorter_datagram() {
        let one = [None; 4];
        assert_eq!(planned(&[64, 64, 64, 20], &one), [(vec![0, 1, 2, 3], 64)]);
        // Nothing may follow the shorter datagram in its run, nor may a
        // longer one join: the kernel cuts every segment but the last at
        // the first's size.
        assert_eq!(
            planned(&[64, 20, 64], &one[..3]),
            [(vec![0, 1], 64), (vec![2], 64)]
        );
        assert_eq!(
            planned(&[20, 64], &one[..2]),
            [(vec![0], 20), (vec![1], 64)]
        );
        // An empty datagram neither opens nor closes a run.
        assert_eq!(
            planned(&[0, 0, 8, 0], &one),
            [(vec![0], 0), (vec![1], 0), (vec![2], 8), (vec![3], 0)]
        );
        // Without segmentation every datagram is a message of its own.
        let (mut order, mut runs) = ([0; BATCH], [Run::default(); BATCH]);
        assert_eq!(plan(&[64; 4], &one, false, &mut order, &mut runs), 4);
        assert_eq!(order[..4], [0, 1, 2, 3]);
    }

    #[test]
    fn plan_groups_interleaved_destinations_keeping_each_ones_order() {
        let a = Some("127.0.0.1:1000".parse().unwrap());
        let b = Some("127.0.0.1:2000".parse().unwrap());
        assert_eq!(
            planned(&[64, 64, 64, 64, 64, 9], &[a, b, a, b, None, a]),
            [(vec![0, 2, 5], 64), (vec![1, 3], 64), (vec![4], 64)]
        );
    }

    #[test]
    fn plan_caps_a_run_at_the_largest_udp_payload() {
        // Eight 8 KiB segments are 65,536 bytes, past 65,507: seven fit.
        let msgs = planned(&[MAX_DATAGRAM; BATCH], &[None; BATCH]);
        let counts: Vec<usize> = msgs.iter().map(|(slots, _)| slots.len()).collect();
        assert_eq!(counts, [7, 7, 7, 7, 4]);
        assert!(msgs.iter().all(|(_, seg)| *seg == MAX_DATAGRAM));
        // Small datagrams stop at BATCH segments, all in one message.
        assert_eq!(planned(&[8; BATCH], &[None; BATCH]).len(), 1);
    }

    /// Sets an integer socket option on `sock` (Linux).
    #[cfg(target_os = "linux")]
    fn set_int_opt(sock: &UdpSocket, level: i32, name: i32, val: i32) {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, val: *const i32, len: u32) -> i32;
        }
        // SAFETY: the kernel reads 4 bytes from `val`, which outlives the call.
        let r = unsafe { setsockopt(sock.as_raw_fd(), level, name, &val, 4) };
        assert_eq!(r, 0, "setsockopt: {}", io::Error::last_os_error());
    }

    /// Flushes `datagrams` to `tx`'s connected peer and checks `rx` reads
    /// the same datagrams, in order.
    fn round_trip(tx: &UdpSocket, rx: &UdpSocket, datagrams: &[Vec<u8>]) {
        let mut send = SendBatch::new();
        let refs: Vec<&[u8]> = datagrams.iter().map(Vec::as_slice).collect();
        stage(&mut send, &refs, &vec![None; refs.len()]);
        assert_eq!(send.flush(tx).unwrap(), datagrams.len());
        assert_eq!(drain(rx), datagrams);
    }

    #[test]
    fn mixed_sizes_to_one_peer_arrive_as_the_same_datagrams_in_order() {
        let (tx, rx) = pair();
        let lens = [100, 100, 100, 40, 100, 100, 7, 7, 0, 7, 300, 300, 1, 300];
        let datagrams: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        round_trip(&tx, &rx, &datagrams);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_full_batch_of_the_largest_datagrams_arrives_whole() {
        const SOL_SOCKET: i32 = 1;
        const SO_RCVBUF: i32 = 8;
        let (tx, rx) = pair();
        // Room for 256 KiB of payload, past the common 208 KiB default.
        set_int_opt(&rx, SOL_SOCKET, SO_RCVBUF, 1 << 20);
        let datagrams: Vec<Vec<u8>> = (0..BATCH).map(|i| vec![i as u8; MAX_DATAGRAM]).collect();
        round_trip(&tx, &rx, &datagrams);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_run_the_kernel_will_not_segment_goes_out_a_datagram_at_a_time() {
        const SOL_SOCKET: i32 = 1;
        const SO_NO_CHECK: i32 = 11;
        let (tx, rx) = pair();
        // Without UDP checksums the kernel refuses a segmented send
        // (EINVAL) and still takes plain ones.
        set_int_opt(&tx, SOL_SOCKET, SO_NO_CHECK, 1);
        let datagrams: Vec<Vec<u8>> = (0..12u8)
            .map(|i| vec![i; if i == 5 { 16 } else { 64 }])
            .collect();
        round_trip(&tx, &rx, &datagrams);
    }
}
