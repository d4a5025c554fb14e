//! Hash units: CRC-based hash computation, the primitive behind the filter
//! tables' slot index (Algorithm 1 line 18: `Hidx ← Hash(pkt.req_id)`).
//!
//! Tofino's hash distribution units compute CRCs over selected header
//! fields; we implement CRC-32 (IEEE polynomial, reflected) with a small
//! table, and expose it both as a free function and as a stage-bound
//! [`HashUnit`] resource.
//!
//! [`CrcSlotOrder`] is a storage order for register arrays indexed by such
//! a hash: a simulator layout choice with no counterpart on the ASIC (see
//! its docs).

use crate::error::AsicError;
use crate::pass::PacketPass;
use crate::resources::{Allocation, Layout, ResourceId, ResourceKind};

/// Reflected CRC-32 (IEEE 802.3, polynomial 0xEDB88320) lookup table.
const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            k += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = build_table();

/// Computes CRC-32 (IEEE) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// A storage order for a table whose slot is the low `bits` of `crc32`
/// over a 4-byte big-endian key (NetClone's filter tables, indexed by
/// `CRC(REQ_ID)`).
///
/// CRC-32 is affine over GF(2): the slot of key `r` is `h = A·r ⊕ c`. Take
/// the lowest key bits whose columns of `A` are independent (one per slot
/// bit) and let `M` be that `bits × bits` submatrix. Storing logical slot
/// `h` at physical index `B·h`, with `B = M⁻¹`, gives
/// `B·h = s ⊕ B·(A'·r' ⊕ c)`, where `s` packs the selected key bits and
/// `r'` is the rest. Keys that differ only in their low bits therefore land
/// in neighbouring cells: at 17 bits, 256 consecutive keys touch 16 or 17
/// cache lines of a `u32` array instead of about 256.
///
/// `B` is a bijection of `0..2^bits`, so every cell is still addressed by
/// exactly one logical slot: an array stored in this order holds the same
/// values, slot for slot, as one stored in CRC order. `B·h` is evaluated
/// with one 256-entry XOR table per byte of `h`.
pub struct CrcSlotOrder {
    tables: Vec<[u32; 256]>,
}

impl CrcSlotOrder {
    /// Builds the order for slots of `bits` bits (`1..=32`).
    pub fn new(bits: u32) -> Self {
        assert!((1..=32).contains(&bits), "bits must be 1..=32");
        let mask = u32::MAX >> (32 - bits);
        let zero = crc32(&[0; 4]);
        // Echelon basis of the selected columns: (slot vector, its
        // preimage in physical coordinates), keyed by the vector's top bit.
        let mut basis: Vec<Option<(u32, u32)>> = vec![None; bits as usize];
        let mut selected = 0;
        for key_bit in 0..32 {
            if selected == bits {
                break;
            }
            let mut v = (crc32(&(1u32 << key_bit).to_be_bytes()) ^ zero) & mask;
            let mut pre = 1u32 << selected;
            while v != 0 {
                let top = 31 - v.leading_zeros();
                match basis[top as usize] {
                    Some((bv, bpre)) => {
                        v ^= bv;
                        pre ^= bpre;
                    }
                    None => {
                        basis[top as usize] = Some((v, pre));
                        selected += 1;
                        break;
                    }
                }
            }
        }
        // The 32 key bits map onto the slot bits surjectively (CRC-32 of a
        // 32-bit message is a bijection), so every slot bit has a pivot.
        // Back-substitute, lowest pivot first, until each basis vector is
        // a unit: `unit[b]` is then `B·e_b`.
        let mut unit = vec![0u32; bits as usize];
        for b in 0..bits as usize {
            let (mut v, mut pre) = basis[b].expect("CRC-32 spans every slot bit");
            v &= !(1 << b);
            while v != 0 {
                let low = v.trailing_zeros() as usize;
                v &= v - 1;
                pre ^= unit[low];
            }
            unit[b] = pre;
        }
        let tables = unit
            .chunks(8)
            .map(|cols| {
                let mut t = [0u32; 256];
                for (byte, cell) in t.iter_mut().enumerate() {
                    for (i, col) in cols.iter().enumerate() {
                        if byte & (1 << i) != 0 {
                            *cell ^= col;
                        }
                    }
                }
                t
            })
            .collect();
        CrcSlotOrder { tables }
    }

    /// The physical index `B·slot` of logical slot `slot` (`< 2^bits`).
    #[inline]
    pub fn physical(&self, slot: u32) -> u32 {
        let mut p = 0;
        for (i, t) in self.tables.iter().enumerate() {
            p ^= t[(slot >> (8 * i)) as u8 as usize];
        }
        p
    }
}

/// A stage-bound hash computation unit producing `out_bits`-wide indices.
pub struct HashUnit {
    name: String,
    id: ResourceId,
    stage: u8,
    mask: u32,
}

impl HashUnit {
    /// Allocates a hash unit in `stage` producing values in
    /// `0 .. 2^out_bits`.
    pub fn alloc(
        layout: &mut Layout,
        name: &str,
        stage: u8,
        in_bytes: u32,
        out_bits: u32,
    ) -> Result<Self, AsicError> {
        assert!((1..=32).contains(&out_bits), "out_bits must be 1..=32");
        let id = layout.allocate(Allocation {
            name: name.to_string(),
            stage,
            kind: ResourceKind::HashUnit,
            sram_bytes: 0,
            hash_bits: (in_bytes * 8 + out_bits) as u64,
            alus: 0,
            crossbar_bytes: in_bytes,
        })?;
        Ok(HashUnit {
            name: name.to_string(),
            id,
            stage,
            mask: if out_bits == 32 {
                u32::MAX
            } else {
                (1u32 << out_bits) - 1
            },
        })
    }

    /// The unit's name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Computes the masked CRC of `data` (one access per pass).
    pub fn hash(&self, pass: &mut PacketPass, data: &[u8]) -> Result<u32, AsicError> {
        pass.access(self.id, self.stage)?;
        Ok(crc32(data) & self.mask)
    }

    /// The output mask (`2^out_bits - 1`).
    pub fn mask(&self) -> u32 {
        self.mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AsicSpec;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_is_sensitive_to_every_byte() {
        let a = crc32(&[1, 2, 3, 4]);
        let b = crc32(&[1, 2, 3, 5]);
        assert_ne!(a, b);
    }

    #[test]
    fn unit_masks_to_out_bits() {
        let mut layout = Layout::new(AsicSpec::tofino());
        let h = HashUnit::alloc(&mut layout, "h", 4, 4, 17).unwrap();
        assert_eq!(h.mask(), (1 << 17) - 1);
        for req_id in 0u32..64 {
            let v = h
                .hash(&mut PacketPass::new(), &req_id.to_be_bytes())
                .unwrap();
            assert!(v < (1 << 17));
        }
    }

    #[test]
    fn unit_is_single_access() {
        let mut layout = Layout::new(AsicSpec::tofino());
        let h = HashUnit::alloc(&mut layout, "h", 4, 4, 16).unwrap();
        let mut pass = PacketPass::new();
        h.hash(&mut pass, &[0]).unwrap();
        assert!(h.hash(&mut pass, &[0]).is_err());
    }

    #[test]
    fn slot_order_is_a_bijection_at_every_width() {
        for bits in 1..=20u32 {
            let order = CrcSlotOrder::new(bits);
            let n = 1usize << bits;
            let mut seen = vec![false; n];
            for slot in 0..n as u32 {
                let p = order.physical(slot) as usize;
                assert!(p < n, "width {bits}: slot {slot} -> {p} out of range");
                assert!(!seen[p], "width {bits}: physical {p} hit twice");
                seen[p] = true;
            }
        }
    }

    /// Distinct 64-byte lines (16 `u32` cells) a run of keys touches.
    fn lines_touched(ids: &[u32], cell: impl Fn(u32) -> u32) -> usize {
        let mut lines: Vec<u32> = ids.iter().map(|&id| cell(id) / 16).collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len()
    }

    #[test]
    fn consecutive_request_ids_share_cache_lines() {
        let order = CrcSlotOrder::new(17);
        let slot = |id: u32| crc32(&id.to_be_bytes()) & ((1 << 17) - 1);
        // The switch's SEQ register, counting up from its reset value and
        // across its u32 wrap (the program maps 0 to 1).
        let from_one: Vec<u32> = (1..=256).collect();
        let seq_wrap: Vec<u32> = (0..256u32)
            .map(|i| (u32::MAX - 127).wrapping_add(i).max(1))
            .collect();
        // ClientLamport IDs, `(cid << 20) | seq`, across the 20-bit wrap.
        let lamport_wrap: Vec<u32> = (0..256u32)
            .map(|i| (5 << 20) | ((0xF_FF80 + i) & 0xF_FFFF))
            .collect();
        for (name, ids) in [
            ("from 1", &from_one),
            ("SEQ wrap", &seq_wrap),
            ("Lamport wrap", &lamport_wrap),
        ] {
            let ordered = lines_touched(ids, |id| order.physical(slot(id)));
            let raw = lines_touched(ids, slot);
            assert!(ordered <= 32, "{name}: {ordered} lines in slot order");
            assert!(raw > 200, "{name}: CRC order already local ({raw} lines)");
        }
    }

    #[test]
    fn full_width_unit_is_plain_crc() {
        let mut layout = Layout::new(AsicSpec::tofino());
        let h = HashUnit::alloc(&mut layout, "h", 0, 9, 32).unwrap();
        let mut pass = PacketPass::new();
        assert_eq!(h.hash(&mut pass, b"123456789").unwrap(), 0xCBF4_3926);
    }
}
