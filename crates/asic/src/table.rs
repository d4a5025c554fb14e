//! Match-action tables.
//!
//! Entries are installed by the control plane (slow path) and matched by
//! packets in the data plane (one lookup per pass, like any stateful
//! resource). Two storage shapes share one resource accounting:
//!
//! * [`MatchTable`] hashes arbitrary keys (NetClone's L3 routing table,
//!   keyed by address);
//! * [`DenseTable`] is keyed by a 16-bit id and indexes an array with it
//!   (NetClone's group and address tables, keyed by `GRP` and `SID`). A
//!   lookup is one bounds-checked load, and keys taken off the wire never
//!   reach a hasher.

use std::hash::Hash;

use netclone_proto::IntMap;

use crate::error::AsicError;
use crate::pass::PacketPass;
use crate::resources::{Allocation, Layout, ResourceId, ResourceKind};

/// Records one exact-match table's footprint (see [`MatchTable::alloc`]).
fn allocate(
    layout: &mut Layout,
    name: &str,
    stage: u8,
    capacity: usize,
    key_bytes: u32,
    value_bytes: u32,
    action_alus: u32,
) -> Result<ResourceId, AsicError> {
    layout.allocate(Allocation {
        name: name.to_string(),
        stage,
        kind: ResourceKind::MatchTable,
        sram_bytes: capacity as u64 * (key_bytes + value_bytes + 8) as u64,
        hash_bits: 4 * key_bytes as u64 * 8,
        alus: action_alus,
        crossbar_bytes: key_bytes * 8,
    })
}

/// An exact-match match-action table bound to one stage.
pub struct MatchTable<K, V> {
    name: String,
    id: ResourceId,
    stage: u8,
    capacity: usize,
    /// Keys are installed by the control plane, never taken from packets,
    /// so the integer hasher is safe here (see `netclone_proto::inthash`).
    map: IntMap<K, V>,
}

impl<K: Eq + Hash + Copy, V: Copy> MatchTable<K, V> {
    /// Allocates a table with static `capacity` in `stage`.
    ///
    /// `key_bytes`/`value_bytes` are the accounting widths; SRAM is modeled
    /// as `capacity × (key + value + 8B overhead)` (pointers, action data,
    /// ECC), hash as a 4-way exact-match lookup, crossbar as the key bytes
    /// fanned across the ways.
    pub fn alloc(
        layout: &mut Layout,
        name: &str,
        stage: u8,
        capacity: usize,
        key_bytes: u32,
        value_bytes: u32,
        action_alus: u32,
    ) -> Result<Self, AsicError> {
        let id = allocate(
            layout,
            name,
            stage,
            capacity,
            key_bytes,
            value_bytes,
            action_alus,
        )?;
        Ok(MatchTable {
            name: name.to_string(),
            id,
            stage,
            capacity,
            map: IntMap::with_capacity_and_hasher(capacity.min(4096), Default::default()),
        })
    }

    /// The table's name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stage this table is bound to.
    pub fn stage(&self) -> u8 {
        self.stage
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Data-plane lookup (one access per pass).
    pub fn lookup(&self, pass: &mut PacketPass, key: K) -> Result<Option<V>, AsicError> {
        pass.access(self.id, self.stage)?;
        Ok(self.map.get(&key).copied())
    }

    /// Control-plane insert/update. Fails when the static capacity is
    /// exhausted (memory cannot grow at runtime).
    pub fn insert(&mut self, key: K, value: V) -> Result<(), AsicError> {
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            return Err(AsicError::TableFull {
                capacity: self.capacity,
            });
        }
        self.map.insert(key, value);
        Ok(())
    }

    /// Control-plane delete. Returns true if the entry existed.
    pub fn remove(&mut self, key: &K) -> bool {
        self.map.remove(key).is_some()
    }

    /// Control-plane wipe (e.g. rebuilding the group table after a server
    /// failure, §3.6).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Control-plane read (no pass constraints).
    pub fn peek(&self, key: &K) -> Option<V> {
        self.map.get(key).copied()
    }
}

/// An exact-match table keyed by a 16-bit id, stored densely: the key is
/// the slot index.
///
/// It behaves as a [`MatchTable<u16, V>`] with the same accounting and the
/// same static capacity, which bounds the number of *entries*, not the key
/// range. The slot array grows on insert to the largest key installed, so
/// a table of ids `0..n` holds `n` slots.
pub struct DenseTable<V> {
    id: ResourceId,
    stage: u8,
    capacity: usize,
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V: Copy> DenseTable<V> {
    /// Allocates a table with static `capacity` in `stage`; the arguments
    /// and the footprint are [`MatchTable::alloc`]'s.
    pub fn alloc(
        layout: &mut Layout,
        name: &str,
        stage: u8,
        capacity: usize,
        key_bytes: u32,
        value_bytes: u32,
        action_alus: u32,
    ) -> Result<Self, AsicError> {
        let id = allocate(
            layout,
            name,
            stage,
            capacity,
            key_bytes,
            value_bytes,
            action_alus,
        )?;
        Ok(DenseTable {
            id,
            stage,
            capacity,
            slots: Vec::new(),
            len: 0,
        })
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Data-plane lookup (one access per pass).
    #[inline]
    pub fn lookup(&self, pass: &mut PacketPass, key: u16) -> Result<Option<V>, AsicError> {
        pass.access(self.id, self.stage)?;
        Ok(self.peek(key))
    }

    /// Control-plane insert/update. Fails when the static capacity is
    /// exhausted (memory cannot grow at runtime).
    pub fn insert(&mut self, key: u16, value: V) -> Result<(), AsicError> {
        let k = usize::from(key);
        if self.peek(key).is_none() {
            if self.len >= self.capacity {
                return Err(AsicError::TableFull {
                    capacity: self.capacity,
                });
            }
            if k >= self.slots.len() {
                self.slots.resize(k + 1, None);
            }
            self.len += 1;
        }
        self.slots[k] = Some(value);
        Ok(())
    }

    /// Control-plane delete. Returns true if the entry existed.
    pub fn remove(&mut self, key: u16) -> bool {
        let removed = self
            .slots
            .get_mut(usize::from(key))
            .and_then(Option::take)
            .is_some();
        self.len -= usize::from(removed);
        removed
    }

    /// Control-plane wipe (e.g. rebuilding the group table after a server
    /// failure, §3.6).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// Control-plane read (no pass constraints).
    #[inline]
    pub fn peek(&self, key: u16) -> Option<V> {
        self.slots.get(usize::from(key)).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AsicSpec;

    fn mk(capacity: usize) -> (Layout, MatchTable<u16, u32>) {
        let mut layout = Layout::new(AsicSpec::tofino());
        let t = MatchTable::alloc(&mut layout, "t", 1, capacity, 2, 4, 1).unwrap();
        (layout, t)
    }

    #[test]
    fn lookup_finds_installed_entries() {
        let (_l, mut t) = mk(16);
        t.insert(5, 500).unwrap();
        let mut pass = PacketPass::new();
        assert_eq!(t.lookup(&mut pass, 5).unwrap(), Some(500));
        let mut pass2 = PacketPass::new();
        assert_eq!(t.lookup(&mut pass2, 6).unwrap(), None);
    }

    #[test]
    fn one_lookup_per_pass() {
        let (_l, mut t) = mk(16);
        t.insert(1, 1).unwrap();
        let mut pass = PacketPass::new();
        t.lookup(&mut pass, 1).unwrap();
        assert!(t.lookup(&mut pass, 1).is_err());
    }

    #[test]
    fn capacity_is_static() {
        let (_l, mut t) = mk(2);
        t.insert(1, 1).unwrap();
        t.insert(2, 2).unwrap();
        assert_eq!(t.insert(3, 3), Err(AsicError::TableFull { capacity: 2 }));
        // Updating an existing key is always allowed.
        t.insert(2, 22).unwrap();
        assert_eq!(t.peek(&2), Some(22));
    }

    #[test]
    fn remove_and_clear() {
        let (_l, mut t) = mk(4);
        t.insert(1, 1).unwrap();
        assert!(t.remove(&1));
        assert!(!t.remove(&1));
        t.insert(2, 2).unwrap();
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn dense_table_accounts_like_a_match_table() {
        let mut a = Layout::new(AsicSpec::tofino());
        let mut b = Layout::new(AsicSpec::tofino());
        MatchTable::<u16, u32>::alloc(&mut a, "t", 1, 4_096, 2, 6, 2).unwrap();
        DenseTable::<u32>::alloc(&mut b, "t", 1, 4_096, 2, 6, 2).unwrap();
        assert_eq!(
            format!("{:?}", a.allocations()),
            format!("{:?}", b.allocations())
        );
    }
}
