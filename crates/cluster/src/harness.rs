//! The evaluation harness: every paper artifact behind one API.
//!
//! * [`Experiment`] — a figure/table as a plain value: an id, a title,
//!   tags, a topology label, and a `run` function that yields a
//!   machine-readable [`Report`].
//! * [`registry()`] — every built-in experiment, in presentation order.
//!   Adding one is a new module that exports `pub const EXPERIMENT`
//!   plus one line here; the `repro` CLI and the JSON/CSV/markdown
//!   emitters need no edits.
//! * [`RunCtx`] — what an experiment may spend: the [`Scale`]
//!   (fidelity), a thread budget, and a progress callback.
//! * [`Runner`] — a deterministic scoped-thread worker pool. Every
//!   simulation cell ([`Sim::run`](crate::sim::Sim::run)) owns its
//!   seeded RNG and depends only on its `Scenario`, so fanning cells
//!   out across cores is bit-identical to running them serially —
//!   results are reassembled in submission order, asserted by
//!   `tests/harness_determinism.rs`. Load sweeps fan out through it via
//!   [`run_sweeps`](crate::sweep::run_sweeps).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use netclone_stats::Report;

use crate::experiments::scale::Scale;
use crate::scenario::Scenario;
use crate::sim::Sim;

/// One paper artifact (figure, table, or ablation suite) as a value:
/// what `repro --list` shows, and the function that runs it.
pub struct Experiment {
    /// Stable identifier (`fig07`, `tab01`, …) — the CLI name.
    pub id: &'static str,
    /// Human title (the paper caption).
    pub title: &'static str,
    /// Free-form labels for `repro --list` filtering and docs.
    pub tags: &'static [&'static str],
    /// Topology shape the experiment simulates (shown by `repro --list`).
    pub topology: &'static str,
    /// Runs the experiment and returns the unified artifact.
    pub run: fn(&RunCtx) -> Report,
}

/// A progress sink: receives `label: done/total` messages, possibly
/// from several worker threads at once.
type ProgressFn = Box<dyn Fn(&str) + Send + Sync>;

/// Execution budget and observability for one experiment run.
pub struct RunCtx {
    /// Simulation fidelity (windows, sweep points, repeats).
    pub scale: Scale,
    /// Worker-thread budget; 1 means run strictly serially.
    pub jobs: usize,
    /// Per-run shard budget: how many event-loop shards each simulation
    /// may use (`0` = auto, one per rack; `1` = serial, the default).
    /// Orthogonal to `jobs`: `jobs` fans *cells* (independent scenarios)
    /// across threads, `shards` parallelises *within* one cell, and both
    /// are bit-identical to serial execution, so they compose freely.
    pub shards: usize,
    /// Fat-tree radix override for topology experiments (`None` = the
    /// experiment's per-scale default).
    pub fattree_k: Option<usize>,
    /// Single-oversubscription override for topology experiments
    /// (`None` = sweep the experiment's default ratios).
    pub oversub: Option<f64>,
    progress: Option<ProgressFn>,
}

/// The machine's full parallelism (≥ 1) — the default thread budget
/// for the `repro` CLI.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl RunCtx {
    /// A serial context at the given scale.
    pub fn new(scale: Scale) -> Self {
        RunCtx {
            scale,
            jobs: 1,
            shards: 1,
            fattree_k: None,
            oversub: None,
            progress: None,
        }
    }

    /// Overrides the fat-tree radix (`k` even, ≥ 2) for topology
    /// experiments.
    pub fn with_fattree_k(mut self, k: usize) -> Self {
        self.fattree_k = Some(k);
        self
    }

    /// Pins topology experiments to a single oversubscription ratio
    /// instead of their default sweep.
    pub fn with_oversub(mut self, ratio: f64) -> Self {
        self.oversub = Some(ratio);
        self
    }

    /// Sets the worker-thread budget (clamped to ≥ 1).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets the per-run shard budget (`0` = auto, one shard per rack).
    /// Results are bit-identical at any setting; single-rack scenarios
    /// always run serially (the shard count clamps to the rack count).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Runs one simulation under this context's shard budget.
    pub fn run_sim(&self, scenario: Scenario) -> crate::metrics::RunResult {
        Sim::run_with_shards(scenario, self.effective_shards())
    }

    /// The shard count handed to [`Sim::run_with_shards`]: the budget,
    /// with `0` meaning "as many as the topology has racks".
    pub fn effective_shards(&self) -> usize {
        if self.shards == 0 {
            usize::MAX
        } else {
            self.shards
        }
    }

    /// Installs a progress callback, invoked once per finished cell with
    /// a `label: done/total` message (from worker threads, so it must be
    /// `Send + Sync`).
    pub fn with_progress(mut self, f: impl Fn(&str) + Send + Sync + 'static) -> Self {
        self.progress = Some(Box::new(f));
        self
    }

    /// Emits a progress message, if a callback is installed.
    pub fn progress(&self, msg: &str) {
        if let Some(f) = &self.progress {
            f(msg);
        }
    }

    /// Maps `f` over `items` on the context's worker pool, preserving
    /// input order, and ticks the progress callback per finished item.
    pub fn map<T, R, F>(&self, label: &str, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let total = items.len();
        let done = AtomicUsize::new(0);
        Runner::new(self.jobs).map(items, |item| {
            let r = f(item);
            let d = done.fetch_add(1, Ordering::Relaxed) + 1;
            self.progress(&format!("{label}: {d}/{total}"));
            r
        })
    }
}

/// A deterministic fork-join worker pool over scoped `std` threads.
///
/// `map` returns results in input order no matter how the OS schedules
/// the workers; with `jobs == 1` (or a single item) it degenerates to a
/// plain in-thread iterator, so the serial path is literally serial.
pub struct Runner {
    jobs: usize,
}

impl Runner {
    /// A pool with the given thread budget (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Self {
        Runner { jobs: jobs.max(1) }
    }

    /// Maps `f` over `items`, preserving input order.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if self.jobs == 1 || n <= 1 {
            return items.into_iter().map(f).collect();
        }
        let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..self.jobs.min(n) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .expect("each cell is claimed exactly once");
                    let r = f(item);
                    *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
                });
            }
        });
        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("worker pool completed every cell")
            })
            .collect()
    }
}

/// Every built-in experiment, in presentation order (tables first, then
/// the figures, then this reproduction's multi-rack sweep and
/// ablations).
pub fn registry() -> &'static [Experiment] {
    use crate::experiments::*;
    &[
        table1::EXPERIMENT,
        resources::EXPERIMENT,
        fig07::EXPERIMENT,
        fig08::EXPERIMENT,
        fig09::EXPERIMENT,
        fig10::EXPERIMENT,
        fig11::EXPERIMENT,
        fig12::EXPERIMENT,
        fig13::EXPERIMENT,
        fig14::EXPERIMENT,
        fig15::EXPERIMENT,
        fig16::EXPERIMENT,
        multirack::EXPERIMENT,
        fattree::EXPERIMENT,
        adversarial::EXPERIMENT,
        chaos::EXPERIMENT,
        ablations::EXPERIMENT,
    ]
}

/// Looks up one experiment by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    registry().iter().find(|e| e.id == id)
}

/// Registry ids closest to a mistyped `id`, best first (at most three):
/// substring matches, then ids within Levenshtein distance 2.
pub fn suggest(id: &str) -> Vec<&'static str> {
    let mut scored: Vec<(usize, &'static str)> = registry()
        .iter()
        .filter_map(|e| {
            let known = e.id;
            if known.contains(id) || id.contains(known) {
                Some((0, known))
            } else {
                let d = levenshtein(id, known);
                (d <= 2).then_some((d, known))
            }
        })
        .collect();
    scored.sort();
    scored.truncate(3);
    scored.into_iter().map(|(_, id)| id).collect()
}

fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_preserves_order_at_any_width() {
        let items: Vec<u64> = (0..100).collect();
        let serial = Runner::new(1).map(items.clone(), |x| x * x);
        for jobs in [2, 4, 16, 128] {
            let par = Runner::new(jobs).map(items.clone(), |x| x * x);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn runner_handles_empty_and_single() {
        assert_eq!(Runner::new(8).map(Vec::<u32>::new(), |x| x), vec![]);
        assert_eq!(Runner::new(8).map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn ctx_map_ticks_progress_once_per_cell() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let ticks = Arc::new(AtomicUsize::new(0));
        let t2 = Arc::clone(&ticks);
        let ctx = RunCtx::new(Scale::Smoke)
            .with_jobs(4)
            .with_progress(move |_| {
                t2.fetch_add(1, Ordering::Relaxed);
            });
        let out = ctx.map("t", (0..10).collect(), |x: i32| x);
        assert_eq!(out.len(), 10);
        assert_eq!(ticks.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn registry_ids_are_unique_and_titled() {
        let reg = registry();
        assert_eq!(reg.len(), 17);
        let mut ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 17, "duplicate experiment ids");
        for e in reg {
            assert!(!e.title.is_empty(), "{} has no title", e.id);
            assert!(!e.tags.is_empty(), "{} has no tags", e.id);
        }
    }

    #[test]
    fn find_and_suggest() {
        assert!(find("fig07").is_some());
        assert!(find("multirack").is_some());
        assert!(find("fig99").is_none());
        assert!(suggest("fig0").contains(&"fig07"));
        assert_eq!(suggest("fig13").first(), Some(&"fig13"));
        assert!(suggest("ablation").contains(&"ablations"));
        assert!(suggest("tab-re").contains(&"tab-res"));
        assert!(suggest("zzzzzz").is_empty());
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("fig07", "fig07"), 0);
        assert_eq!(levenshtein("fig07", "fig08"), 1);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }
}
