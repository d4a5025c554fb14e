//! Binary wire codec for the NetClone header and the RPC operation.
//!
//! Layout (network byte order), 20 bytes total for the header:
//!
//! ```text
//!  0      1          5      7      9      11    12    13          14
//!  +------+----------+------+------+------+-----+-----+-----------+-----------+------------+
//!  | TYPE | REQ_ID   | GRP  | SID  | STATE| CLO | IDX | SWITCH_ID | CLIENT_ID | CLIENT_SEQ |
//!  | u8   | u32      | u16  | u16  | u16  | u8  | u8  | u8        | u16       | u32        |
//!  +------+----------+------+------+------+-----+-----+-----------+-----------+------------+
//! ```
//!
//! followed by an operation payload (tag byte + fields). The codec is used
//! by the real-socket runtime (`netclone-net`); the simulator exchanges the
//! parsed structs directly, exactly like a switch pipeline operates on
//! parsed metadata rather than raw bytes.

use bytes::{Buf, BufMut};

use crate::{CloneStatus, KvKey, MsgType, NetCloneHdr, RpcOp, ServerState};

/// Size of the encoded NetClone header in bytes.
pub const HEADER_LEN: usize = 20;

/// Errors produced when decoding NetClone frames.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The buffer is shorter than the fixed header or a declared field.
    Truncated {
        /// Bytes required by the field being decoded.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The `TYPE` field held an unknown value.
    BadMsgType(u8),
    /// The `CLO` field held an unknown value.
    BadCloneStatus(u8),
    /// The operation tag byte held an unknown value.
    BadOpTag(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            WireError::BadMsgType(v) => write!(f, "unknown TYPE value {v}"),
            WireError::BadCloneStatus(v) => write!(f, "unknown CLO value {v}"),
            WireError::BadOpTag(v) => write!(f, "unknown op tag {v}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Serializes a header into `dst` (any [`BufMut`], e.g. `BytesMut` or a
/// reusable `Vec<u8>` for allocation-free encode paths).
pub fn encode_header<B: BufMut>(h: &NetCloneHdr, dst: &mut B) {
    dst.put_u8(h.msg_type as u8);
    dst.put_u32(h.req_id);
    dst.put_u16(h.grp);
    dst.put_u16(h.sid);
    dst.put_u16(h.state.0);
    dst.put_u8(h.clo as u8);
    dst.put_u8(h.idx);
    dst.put_u8(h.switch_id);
    dst.put_u16(h.client_id);
    dst.put_u32(h.client_seq);
}

/// Deserializes a header from the front of `src` (any [`Buf`], e.g.
/// `Bytes` or a borrowed `&[u8]` cursor), advancing it.
pub fn decode_header<B: Buf>(src: &mut B) -> Result<NetCloneHdr, WireError> {
    if src.remaining() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            have: src.remaining(),
        });
    }
    let ty_raw = src.get_u8();
    let msg_type = MsgType::from_u8(ty_raw).ok_or(WireError::BadMsgType(ty_raw))?;
    let req_id = src.get_u32();
    let grp = src.get_u16();
    let sid = src.get_u16();
    let state = ServerState(src.get_u16());
    let clo_raw = src.get_u8();
    let clo = CloneStatus::from_u8(clo_raw).ok_or(WireError::BadCloneStatus(clo_raw))?;
    let idx = src.get_u8();
    let switch_id = src.get_u8();
    let client_id = src.get_u16();
    let client_seq = src.get_u32();
    Ok(NetCloneHdr {
        msg_type,
        req_id,
        grp,
        sid,
        state,
        clo,
        idx,
        switch_id,
        client_id,
        client_seq,
    })
}

const OP_ECHO: u8 = 0;
const OP_GET: u8 = 1;
const OP_SCAN: u8 = 2;
const OP_PUT: u8 = 3;

/// Serializes an operation payload into `dst`.
pub fn encode_op<B: BufMut>(op: &RpcOp, dst: &mut B) {
    match op {
        RpcOp::Echo { class_ns } => {
            dst.put_u8(OP_ECHO);
            dst.put_u64(*class_ns);
        }
        RpcOp::Get { key } => {
            dst.put_u8(OP_GET);
            dst.put_slice(&key.0);
        }
        RpcOp::Scan { key, count } => {
            dst.put_u8(OP_SCAN);
            dst.put_slice(&key.0);
            dst.put_u16(*count);
        }
        RpcOp::Put { key, value_len } => {
            dst.put_u8(OP_PUT);
            dst.put_slice(&key.0);
            dst.put_u16(*value_len);
        }
    }
}

fn need<B: Buf>(src: &B, n: usize) -> Result<(), WireError> {
    if src.remaining() < n {
        Err(WireError::Truncated {
            needed: n,
            have: src.remaining(),
        })
    } else {
        Ok(())
    }
}

fn get_key<B: Buf>(src: &mut B) -> KvKey {
    let mut k = [0u8; 16];
    src.copy_to_slice(&mut k);
    KvKey(k)
}

/// Deserializes an operation payload from the front of `src`.
pub fn decode_op<B: Buf>(src: &mut B) -> Result<RpcOp, WireError> {
    need(src, 1)?;
    let tag = src.get_u8();
    match tag {
        OP_ECHO => {
            need(src, 8)?;
            Ok(RpcOp::Echo {
                class_ns: src.get_u64(),
            })
        }
        OP_GET => {
            need(src, 16)?;
            Ok(RpcOp::Get { key: get_key(src) })
        }
        OP_SCAN => {
            need(src, 18)?;
            let key = get_key(src);
            let count = src.get_u16();
            Ok(RpcOp::Scan { key, count })
        }
        OP_PUT => {
            need(src, 18)?;
            let key = get_key(src);
            let value_len = src.get_u16();
            Ok(RpcOp::Put { key, value_len })
        }
        other => Err(WireError::BadOpTag(other)),
    }
}

/// Deserializes a full frame. Trailing bytes (e.g. a carried value) are
/// returned untouched in `src`.
pub fn decode_frame<B: Buf>(src: &mut B) -> Result<(NetCloneHdr, RpcOp), WireError> {
    let h = decode_header(src)?;
    let op = decode_op(src)?;
    Ok((h, op))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Bytes, BytesMut};

    fn sample_header() -> NetCloneHdr {
        NetCloneHdr {
            msg_type: MsgType::Resp,
            req_id: 0xDEAD_BEEF,
            grp: 29,
            sid: 5,
            state: ServerState(3),
            clo: CloneStatus::Clone,
            idx: 1,
            switch_id: 2,
            client_id: 7,
            client_seq: 123_456,
        }
    }

    #[test]
    fn header_round_trip() {
        let h = sample_header();
        let mut buf = BytesMut::new();
        encode_header(&h, &mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let mut bytes = buf.freeze();
        let back = decode_header(&mut bytes).unwrap();
        assert_eq!(back, h);
        assert!(bytes.is_empty());
    }

    #[test]
    fn op_round_trips() {
        let ops = [
            RpcOp::Echo { class_ns: 25_000 },
            RpcOp::Get {
                key: KvKey::from_index(9),
            },
            RpcOp::Scan {
                key: KvKey::from_index(100),
                count: 100,
            },
            RpcOp::Put {
                key: KvKey::from_index(3),
                value_len: 64,
            },
        ];
        for op in ops {
            let mut buf = BytesMut::new();
            encode_op(&op, &mut buf);
            let mut bytes = buf.freeze();
            assert_eq!(decode_op(&mut bytes).unwrap(), op);
            assert!(bytes.is_empty());
        }
    }

    #[test]
    fn frame_round_trip_preserves_trailing_bytes() {
        let h = sample_header();
        let op = RpcOp::Get {
            key: KvKey::from_index(1),
        };
        let mut framed = BytesMut::new();
        encode_header(&h, &mut framed);
        encode_op(&op, &mut framed);
        framed.put_slice(b"VALUEBYTES");
        let mut bytes = framed.freeze();
        let (h2, op2) = decode_frame(&mut bytes).unwrap();
        assert_eq!((h2, op2), (h, op));
        assert_eq!(&bytes[..], b"VALUEBYTES");
    }

    #[test]
    fn truncated_header_is_rejected() {
        let mut short = Bytes::from_static(&[1, 2, 3]);
        match decode_header(&mut short) {
            Err(WireError::Truncated { needed, have }) => {
                assert_eq!(needed, HEADER_LEN);
                assert_eq!(have, 3);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn bad_fields_are_rejected() {
        let h = sample_header();
        let mut buf = BytesMut::new();
        encode_header(&h, &mut buf);
        // The error must carry the actual on-wire byte, not a placeholder.
        let mut bad_type = buf.clone();
        bad_type[0] = 9;
        assert_eq!(
            decode_header(&mut bad_type.freeze()),
            Err(WireError::BadMsgType(9))
        );
        let mut bad_type2 = buf.clone();
        bad_type2[0] = 0xFF;
        assert_eq!(
            decode_header(&mut bad_type2.freeze()),
            Err(WireError::BadMsgType(0xFF))
        );
        let mut bad_clo = buf.clone();
        bad_clo[11] = 9;
        assert_eq!(
            decode_header(&mut bad_clo.freeze()),
            Err(WireError::BadCloneStatus(9))
        );
        let mut bad_op = Bytes::from_static(&[99]);
        assert_eq!(decode_op(&mut bad_op), Err(WireError::BadOpTag(99)));
    }

    #[test]
    fn error_display_is_informative() {
        let e = WireError::Truncated {
            needed: 20,
            have: 3,
        };
        assert!(e.to_string().contains("20"));
        assert!(WireError::BadOpTag(7).to_string().contains('7'));
    }
}
