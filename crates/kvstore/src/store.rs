//! The object store: a flat, index-addressable map mirroring the paper's
//! "1 million objects with 16-byte keys and 64-byte values" (§5.5).
//!
//! Objects are addressed by [`KvKey`]s derived from dense indices
//! ([`KvKey::from_index`]), which makes SCAN-by-range well defined: a SCAN
//! starting at key *k* reads the `count` objects with consecutive indices,
//! wrapping at the population size — the natural analogue of scanning a
//! sorted keyspace.

use netclone_proto::{KvKey, RpcOp};

/// Result of executing one operation against the store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecResult {
    /// GET hit: the value bytes.
    Value(Vec<u8>),
    /// GET miss (key outside the population).
    Miss,
    /// SCAN result: concatenated values and the number of objects read.
    Range {
        /// Concatenated value bytes.
        bytes: Vec<u8>,
        /// Objects actually read.
        objects: u32,
    },
    /// PUT acknowledgement.
    Stored,
    /// Echo requests carry no store work.
    NoStoreWork,
}

/// A dense, index-backed object store.
pub struct KvStore {
    values: Vec<Box<[u8]>>,
}

impl KvStore {
    /// Builds a store with `n` objects whose values are `value_len` bytes,
    /// deterministically filled (object i's value starts with its index).
    pub fn populate(n: usize, value_len: usize) -> Self {
        let mut values = Vec::with_capacity(n);
        for i in 0..n {
            let mut v = vec![0u8; value_len];
            let tag = (i as u64).to_be_bytes();
            let take = tag.len().min(value_len);
            v[..take].copy_from_slice(&tag[..take]);
            values.push(v.into_boxed_slice());
        }
        KvStore { values }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn slot(&self, key: &KvKey) -> Option<usize> {
        let idx = key.index() as usize;
        (idx < self.values.len()).then_some(idx)
    }

    /// Reads one object.
    pub fn get(&self, key: &KvKey) -> Option<&[u8]> {
        self.slot(key).map(|i| &*self.values[i])
    }

    /// Writes one object; returns false for keys outside the population
    /// (the store is fixed-size, like the experiments').
    pub fn put(&mut self, key: &KvKey, value: &[u8]) -> bool {
        match self.slot(key) {
            Some(i) => {
                self.values[i] = value.to_vec().into_boxed_slice();
                true
            }
            None => false,
        }
    }

    /// Reads `count` consecutive objects starting at `key`, wrapping at the
    /// population boundary. Returns the concatenated bytes and the number
    /// of objects read (0 if the start key is out of range).
    pub fn scan(&self, key: &KvKey, count: u16) -> (Vec<u8>, u32) {
        let Some(start) = self.slot(key) else {
            return (Vec::new(), 0);
        };
        let n = self.values.len();
        let count = count as usize;
        let mut out = Vec::with_capacity(count * self.values[start].len());
        for off in 0..count {
            out.extend_from_slice(&self.values[(start + off) % n]);
        }
        (out, count as u32)
    }

    /// Executes one RPC operation.
    pub fn execute(&mut self, op: &RpcOp) -> ExecResult {
        match op {
            RpcOp::Echo { .. } => ExecResult::NoStoreWork,
            RpcOp::Get { key } => match self.get(key) {
                Some(v) => ExecResult::Value(v.to_vec()),
                None => ExecResult::Miss,
            },
            RpcOp::Scan { key, count } => {
                let (bytes, objects) = self.scan(key, *count);
                ExecResult::Range { bytes, objects }
            }
            RpcOp::Put { key, value_len } => {
                let value = vec![0xAB; *value_len as usize];
                if self.put(key, &value) {
                    ExecResult::Stored
                } else {
                    ExecResult::Miss
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populate_and_get() {
        let s = KvStore::populate(100, 64);
        assert_eq!(s.len(), 100);
        let v = s.get(&KvKey::from_index(42)).unwrap();
        assert_eq!(v.len(), 64);
        assert_eq!(&v[..8], &42u64.to_be_bytes());
    }

    #[test]
    fn get_out_of_population_misses() {
        let s = KvStore::populate(10, 64);
        assert!(s.get(&KvKey::from_index(10)).is_none());
    }

    #[test]
    fn put_overwrites() {
        let mut s = KvStore::populate(10, 64);
        let key = KvKey::from_index(3);
        assert!(s.put(&key, b"hello"));
        assert_eq!(s.get(&key).unwrap(), b"hello");
        assert!(!s.put(&KvKey::from_index(99), b"nope"));
    }

    #[test]
    fn scan_reads_count_objects_and_wraps() {
        let s = KvStore::populate(10, 4);
        let (bytes, objects) = s.scan(&KvKey::from_index(8), 5);
        assert_eq!(objects, 5);
        assert_eq!(bytes.len(), 20);
        // Objects 8, 9, 0, 1, 2 — check the wrap at object 0.
        assert_eq!(&bytes[8..12], &[0, 0, 0, 0]);
    }

    #[test]
    fn scan_from_invalid_start_is_empty() {
        let s = KvStore::populate(10, 4);
        let (bytes, objects) = s.scan(&KvKey::from_index(11), 5);
        assert!(bytes.is_empty());
        assert_eq!(objects, 0);
    }

    #[test]
    fn execute_covers_all_ops() {
        let mut s = KvStore::populate(10, 8);
        assert_eq!(
            s.execute(&RpcOp::Echo { class_ns: 1 }),
            ExecResult::NoStoreWork
        );
        assert!(matches!(
            s.execute(&RpcOp::Get {
                key: KvKey::from_index(1)
            }),
            ExecResult::Value(_)
        ));
        assert_eq!(
            s.execute(&RpcOp::Get {
                key: KvKey::from_index(999)
            }),
            ExecResult::Miss
        );
        match s.execute(&RpcOp::Scan {
            key: KvKey::from_index(0),
            count: 3,
        }) {
            ExecResult::Range { objects, bytes } => {
                assert_eq!(objects, 3);
                assert_eq!(bytes.len(), 24);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            s.execute(&RpcOp::Put {
                key: KvKey::from_index(2),
                value_len: 16
            }),
            ExecResult::Stored
        );
    }
}
