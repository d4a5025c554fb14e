//! # netclone-proto
//!
//! Packet formats for the NetClone reproduction.
//!
//! This crate defines the NetClone header exactly as in Fig. 3 of the paper
//! (TYPE, REQ_ID, GRP, SID, STATE, CLO, IDX), together with the extensions
//! described in §3.7:
//!
//! * `SWITCH_ID` — multi-rack deployments gate NetClone processing on the
//!   client-side ToR switch,
//! * `CLIENT_ID` / `CLIENT_SEQ` — Lamport-clock style request identifiers so
//!   TCP retransmissions keep a stable request ID.
//!
//! It also defines:
//!
//! * [`PacketMeta`] — the slice of a packet a programmable switch reads and
//!   rewrites (L3 addresses, L4 destination port, NetClone header). The
//!   simulator, the data-plane program ([`netclone-core`]), and the real
//!   UDP runtime ([`netclone-net`]) all exchange this type, so the exact
//!   same switch program runs in both worlds.
//! * [`RpcOp`] — the application payload carried by a request (synthetic
//!   echo with a service class, or KV GET/SCAN/PUT).
//! * [`wire`] — a fixed-layout binary codec (20-byte header plus op) used
//!   on real sockets, with exhaustive round-trip tests. It is the only
//!   encoding of a packet in the workspace: `netclone-net`'s datagram
//!   codec prefixes it with a 10-byte virtual-L3 preheader, and the
//!   simulator never serialises at all.
//!
//! [`netclone-core`]: ../netclone_core/index.html
//! [`netclone-net`]: ../netclone_net/index.html

pub mod addr;
pub mod header;
pub mod inthash;
pub mod op;
pub mod packet;
pub mod wire;

pub use addr::Ipv4;
pub use header::{CloneStatus, MsgType, NetCloneHdr, ServerState};
pub use inthash::{mix64, IntHasher, IntMap, GOLDEN};
pub use op::{KvKey, RpcOp};
pub use packet::PacketMeta;

/// L4 (UDP) destination port reserved for NetClone traffic (§3.2).
///
/// The switch applies the NetClone modules only to packets addressed to this
/// port; everything else takes the traditional L2/L3 path.
pub const NETCLONE_UDP_PORT: u16 = 0xC10E;

/// Identifier of a worker server, used as the index into the switch's
/// address and state tables (`SID` field).
pub type ServerId = u16;

/// Identifier of a candidate-server pair (`GRP` field). Groups are the
/// ordered 2-permutations of the server set (§3.3).
pub type GroupId = u16;

/// Switch-assigned monotonically increasing request identifier
/// (`REQ_ID` field).
pub type ReqId = u32;

/// Identifier of a ToR switch for multi-rack deployments (§3.7). The value
/// `0` means "not yet stamped by any client-side ToR".
pub type SwitchId = u8;

/// Identifier of a client host, used by the TCP-mode request-ID scheme
/// (§3.7).
pub type ClientId = u16;
