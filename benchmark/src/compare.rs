//! `benchmark compare A/ B/`: applies the bounds in `BENCHMARK.json` to
//! two directories of records (A = parent, B = change).
//!
//! One row per (workload, end-to-end metric): both medians, A's spread
//! (inter-quartile distance over median, the driver's own measure), and a
//! verdict — `pass`, `worse` (B's median is worse than A's by more than
//! the bound) or `unresolved` (the spread is wider than the bound, so
//! "no worse" cannot be told from noise). Exits non-zero on any `worse`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::est::{median, quartiles};
use crate::json::{self, Value};
use crate::spec::{END_TO_END, WORKLOADS};

/// Values of one directory: `(workload, metric) -> values`, untraced
/// records only (end-to-end metrics always come from the untraced pass).
type Table = BTreeMap<(String, String), Vec<f64>>;

#[derive(Default)]
struct Dir {
    values: Table,
    /// DES result digests per workload, for the exactness note.
    digests: BTreeMap<String, Vec<String>>,
    invalid: usize,
}

fn load(dir: &Path) -> Result<Dir, String> {
    let mut out = Dir::default();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rec = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if rec.get("trace").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let Some(workload) = rec.get("workload").and_then(Value::as_str) else {
            return Err(format!("{}: no workload field", path.display()));
        };
        if rec.get("valid").and_then(Value::as_bool) == Some(false) {
            out.invalid += 1;
        }
        if let Some(d) = rec
            .get("info")
            .and_then(|i| i.get("digest"))
            .and_then(Value::as_str)
        {
            out.digests
                .entry(workload.into())
                .or_default()
                .push(d.into());
        }
        let metrics = rec
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{}: no result.metrics", path.display()))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Verdict {
    Pass,
    Worse,
    Unresolved,
}

/// The rule, on its own so it can be tested: `change` is how much worse
/// B's median is than A's as a share of A's (negative = better).
fn verdict(change: f64, spread: Option<f64>, bound: f64) -> Verdict {
    if change > bound {
        Verdict::Worse
    } else if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    }
}

fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    }
}

pub fn run(a_dir: &Path, b_dir: &Path) -> ExitCode {
    let (a, b) = match (load(a_dir), load(b_dir)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    let (mut worse, mut rows) = (0, 0);
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let key = (workload.to_string(), m.name.to_string());
            let (Some(av), Some(bv)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(&mut av.clone()), median(&mut bv.clone()));
            let spread = (av.len() >= 2 && ma != 0.0).then(|| {
                let (q1, q3) = quartiles(&mut av.clone());
                (q3 - q1) / ma.abs()
            });
            let change = worsening(ma, mb, m.better);
            let v = verdict(change, spread, m.bound);
            worse += usize::from(v == Verdict::Worse);
            rows += 1;
            println!(
                "{:<16} {:<16} {:>14.4} {:>14.4} {:>+7.1}% {:>8} {:>6.0}%  {}{}",
                workload,
                m.name,
                ma,
                mb,
                change * 100.0,
                spread.map_or("n/a".into(), |s| format!("{:.1}%", s * 100.0)),
                m.bound * 100.0,
                match v {
                    Verdict::Pass => "pass",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
                format_args!(" (n={}/{})", av.len(), bv.len()),
            );
        }
    }
    // Simulated latency repeats exactly for a seed: with equal seeds the
    // digests say whether the *model* changed, whatever the timing did.
    for (workload, da) in &a.digests {
        if let Some(db) = b.digests.get(workload) {
            let same = da.iter().chain(db.iter()).all(|d| d == &da[0]);
            println!(
                "{workload}: result digests {}",
                if same {
                    "identical across both sets"
                } else {
                    "differ (other seeds, or a model change)"
                }
            );
        }
    }
    if a.invalid + b.invalid > 0 {
        println!(
            "{} record(s) in A and {} in B carry an invalid-run flag",
            a.invalid, b.invalid
        );
    }
    if rows == 0 {
        eprintln!("error: the two directories share no (workload, metric) pair");
        return ExitCode::from(2);
    }
    if worse > 0 {
        println!("{worse} of {rows} rows worse than the bound allows");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_rule() {
        assert_eq!(verdict(0.05, Some(0.01), 0.10), Verdict::Pass);
        assert_eq!(verdict(-0.30, Some(0.01), 0.10), Verdict::Pass);
        assert_eq!(verdict(0.11, Some(0.01), 0.10), Verdict::Worse);
        // A spread wider than the bound cannot certify "no worse"...
        assert_eq!(verdict(0.05, Some(0.20), 0.10), Verdict::Unresolved);
        // ...but a regression beyond the bound is still a regression.
        assert_eq!(verdict(0.50, Some(0.20), 0.10), Verdict::Worse);
        assert_eq!(verdict(0.05, None, 0.10), Verdict::Pass);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, "higher") - 0.20).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, "lower"), 0.0);
    }

    #[test]
    fn loads_untraced_records_and_skips_the_rest() {
        let dir =
            std::env::temp_dir().join(format!("netclone-bench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rec = |trace: bool, v: f64| {
            format!(
                r#"{{"workload": "des_rack", "trace": {trace}, "valid": true, "info": {{"digest": "ab"}},
                    "result": {{"metrics": {{"setup_s": {{"value": {v}, "unit": "s"}}}}}}}}"#
            )
        };
        std::fs::write(dir.join("a-0.json"), rec(false, 1.5)).unwrap();
        std::fs::write(dir.join("a-1.json"), rec(false, 2.5)).unwrap();
        std::fs::write(dir.join("a-trace-0.json"), rec(true, 9.0)).unwrap();
        std::fs::write(dir.join("notes.txt"), "not json").unwrap();
        let d = load(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            d.values[&("des_rack".into(), "setup_s".into())],
            vec![1.5, 2.5]
        );
        assert_eq!(d.digests["des_rack"], vec!["ab", "ab"]);
        assert_eq!(d.invalid, 0);
    }
}
