//! [`IntHasher`] — the hasher behind the per-packet maps (`netclone-asic`'s
//! `MatchTable`, `netclone-hostcore`'s outstanding-request map).
//!
//! Their keys are integers this program hands out itself (testbed
//! addresses, client sequence numbers), so SipHash's protection against
//! crafted collisions buys nothing there and costs more than the rest of a
//! table lookup. A key taken off the wire only *probes*: how far a lookup
//! walks is set by the installed keys. Keys *inserted* from outside the
//! program must keep the `std` default hasher. (Group and server ids need
//! no hasher at all: `DenseTable` indexes an array with them.)
//!
//! `std`'s `HashMap` picks the bucket from the low bits of the hash and the
//! in-bucket tag from the top 7, so both ends must depend on every key
//! bit. One folded multiply does that: in the 128-bit product `key × GOLDEN`
//! the low half's top bits and the high half's low bits each see the whole
//! key, and XOR-ing the halves puts both in one word.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, odd: splitmix64's increment, and the hasher's multiplier.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a bijection of `u64` in which every output
/// bit depends on every input bit; a splitmix64 step over `z` is
/// `mix64(z.wrapping_add(GOLDEN))`. The one mixer of the program's
/// derived hashes and seeds (the simulator's background ECMP hash and
/// loss verdict, the socket client's per-worker seeds).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A folded-multiply hasher for integer keys.
#[derive(Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(x.into());
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x.into());
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * u128::from(GOLDEN);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

/// A `HashMap` keyed by program-generated integers, hashed by
/// [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ipv4;
    use std::collections::HashSet;
    use std::hash::Hash;

    fn hash_of(key: impl Hash) -> u64 {
        let mut h = IntHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    /// Over `keys`, the bucket bits (low 10) and the tag bits (top 7) must
    /// each take at least half the values they could.
    fn assert_spreads<K: Hash>(family: &str, keys: impl Iterator<Item = K>) {
        let hashes: Vec<u64> = keys.map(hash_of).collect();
        for (end, bits, shift) in [("low 10", 10, 0), ("top 7", 7, 57)] {
            let distinct: HashSet<u64> = hashes
                .iter()
                .map(|h| (h >> shift) & ((1 << bits) - 1))
                .collect();
            let possible = hashes.len().min(1 << bits);
            assert!(
                distinct.len() * 2 >= possible,
                "{family}: {end} bits take {} of {possible} possible values",
                distinct.len()
            );
        }
    }

    #[test]
    fn both_ends_spread_on_the_real_key_families() {
        // `MatchTable` is generic, so small u16 keys (the group-id and
        // server-id shapes) must spread too.
        for n in [2u16, 6, 16, 64] {
            assert_spreads("small u16 keys", 0..n * (n - 1));
        }
        assert_spreads("u16 keys up to 4096", 0u16..4096);
        assert_spreads("server addresses", (0..1024).map(|i| Ipv4::server(i).0));
        assert_spreads("client addresses", (0..1024).map(|i| Ipv4::client(i).0));
        for base in [0u32, 1 << 20, u32::MAX - 5_000] {
            assert_spreads(
                "sequential client_seq",
                (0..10_000).map(|i| base.wrapping_add(i)),
            );
        }
    }

    #[test]
    fn every_key_bit_reaches_both_ends() {
        for bit in 0..64 {
            let (mut low, mut top) = (false, false);
            for base in 0u64..64 {
                let diff = hash_of(base) ^ hash_of(base ^ (1 << bit));
                low |= diff & 0x3FF != 0;
                top |= diff >> 57 != 0;
            }
            assert!(low && top, "key bit {bit} does not reach both ends");
        }
    }

    /// splitmix64's published first outputs from state 0.
    #[test]
    fn mix64_steps_are_splitmix64() {
        assert_eq!(mix64(GOLDEN), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(GOLDEN.wrapping_mul(2)), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn byte_slices_hash_like_their_words() {
        let mut a = IntHasher::default();
        a.write(&7u64.to_le_bytes());
        assert_eq!(a.finish(), hash_of(7u64));
        let mut b = IntHasher::default();
        b.write(&[1, 2, 3]);
        assert_eq!(b.finish(), hash_of(0x03_02_01u64));
    }
}
