//! Server-side work execution: what a worker thread actually does with a
//! request in the real runtime.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netclone_kvstore::{store::ExecResult, KvStore};
use netclone_proto::RpcOp;
use parking_lot::RwLock;

/// Executes RPC operations on a worker thread.
#[derive(Clone)]
pub enum WorkExecutor {
    /// Synthetic dummy RPC: busy-spin for the request's class duration
    /// (like the paper's synthetic worker, §5.1.2).
    Synthetic,
    /// Serve from a shared in-memory KV store (§5.5).
    Kv(Arc<RwLock<KvStore>>),
}

impl WorkExecutor {
    /// Builds a KV executor over a freshly populated store.
    pub fn kv(objects: usize, value_len: usize) -> Self {
        WorkExecutor::Kv(Arc::new(RwLock::new(KvStore::populate(objects, value_len))))
    }

    /// Runs one operation, returning the response value bytes.
    pub fn execute(&self, op: &RpcOp) -> Vec<u8> {
        static NEVER: AtomicBool = AtomicBool::new(false);
        self.execute_until(op, &NEVER)
    }

    /// Whether executing `op` busy-spins: a synthetic echo naming a
    /// service time. A worker flushes its staged responses before one, so
    /// no response waits out another request's modelled service.
    pub(crate) fn spins(&self, op: &RpcOp) -> bool {
        matches!(
            (self, op),
            (WorkExecutor::Synthetic, RpcOp::Echo { class_ns }) if *class_ns > 0
        )
    }

    /// [`Self::execute`] on a worker that `stop` shuts down: a synthetic
    /// spin ends early once `stop` is set, so an echo naming any service
    /// time (a forged one included) cannot outlive its worker.
    pub(crate) fn execute_until(&self, op: &RpcOp, stop: &AtomicBool) -> Vec<u8> {
        match self {
            WorkExecutor::Synthetic => {
                if let RpcOp::Echo { class_ns } = op {
                    spin_for(Duration::from_nanos(*class_ns), stop);
                }
                Vec::new()
            }
            // Reads share the store; only a PUT takes it exclusively.
            WorkExecutor::Kv(store) => match op {
                RpcOp::Get { key } => store
                    .read()
                    .get(key)
                    .map_or_else(|| b"MISS".to_vec(), <[u8]>::to_vec),
                RpcOp::Scan { key, count } => store.read().scan(key, *count).0,
                RpcOp::Echo { .. } => Vec::new(),
                RpcOp::Put { .. } => match store.write().execute(op) {
                    ExecResult::Stored => b"STORED".to_vec(),
                    _ => b"MISS".to_vec(),
                },
            },
        }
    }
}

/// Busy-waits for approximately `d` (spin, not sleep: microsecond-scale
/// service times are far below timer resolution), or until `stop` is set.
fn spin_for(d: Duration, stop: &AtomicBool) {
    let start = Instant::now();
    while start.elapsed() < d && !stop.load(Ordering::Relaxed) {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclone_proto::KvKey;

    #[test]
    fn synthetic_spins_for_the_class() {
        let w = WorkExecutor::Synthetic;
        let start = Instant::now();
        let out = w.execute(&RpcOp::Echo { class_ns: 200_000 });
        assert!(out.is_empty());
        assert!(start.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn kv_executor_serves_store_content() {
        let w = WorkExecutor::kv(100, 16);
        let v = w.execute(&RpcOp::Get {
            key: KvKey::from_index(5),
        });
        assert_eq!(v.len(), 16);
        let scan = w.execute(&RpcOp::Scan {
            key: KvKey::from_index(0),
            count: 10,
        });
        assert_eq!(scan.len(), 160);
        let stored = w.execute(&RpcOp::Put {
            key: KvKey::from_index(1),
            value_len: 8,
        });
        assert_eq!(stored, b"STORED");
    }

    #[test]
    fn kv_misses_are_reported() {
        let w = WorkExecutor::kv(10, 16);
        let v = w.execute(&RpcOp::Get {
            key: KvKey::from_index(999),
        });
        assert_eq!(v, b"MISS");
    }

    #[test]
    fn kv_reads_share_the_store_lock() {
        let w = WorkExecutor::kv(10, 16);
        let WorkExecutor::Kv(store) = &w else {
            unreachable!()
        };
        let _held = store.read();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = w.clone();
        std::thread::spawn(move || {
            let v = reader.execute(&RpcOp::Get {
                key: KvKey::from_index(3),
            });
            let _ = tx.send(v);
        });
        let v = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a GET must not wait for another reader's guard");
        assert_eq!(v.len(), 16);
    }
}
