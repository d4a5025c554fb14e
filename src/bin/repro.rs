//! `repro` — regenerate any table or figure of the paper's evaluation.
//!
//! ```text
//! repro [--scale smoke|standard|full] [--jobs N] [--shards N|auto]
//!       [--fattree-k K] [--oversub R] [--format md|csv|json] [--out DIR] [ids…]
//! repro --list
//! ```
//!
//! A thin, data-driven frontend over
//! [`netclone_cluster::harness::registry`]: every experiment id comes
//! from the registry (no per-id dispatch here), runs on a `--jobs`-wide
//! deterministic worker pool, and renders through the unified `Report`
//! artifact — the chosen format is printed to stdout and written under
//! `--out` (default `results/`).
//!
//! `--jobs` and `--shards` compose: `--jobs` fans independent simulation
//! cells across threads, `--shards` parallelises the event loop *inside*
//! each multi-rack cell (`auto` = one shard per rack; default 1 =
//! serial). Both are bit-identical to serial execution, so any
//! combination regenerates the same artifacts.

use std::path::PathBuf;
use std::process::ExitCode;

use netclone::cluster::experiments::{fattree, Scale};
use netclone::cluster::harness::{default_jobs, find, registry, suggest, RunCtx};
use netclone::stats::Report;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Markdown,
    Csv,
    Json,
}

fn usage() {
    println!(
        "usage: repro [--scale smoke|standard|full] [--jobs N] [--shards N|auto] [--fattree-k K] [--oversub R] [--format md|csv|json] [--out DIR] [ids…]"
    );
    println!("       repro --list   (show every experiment id with topology, tags, title)");
    println!("With no ids, runs every experiment in the registry.");
    println!("--jobs N       experiment-level parallelism: run N simulation cells at once");
    println!("--shards N     run-level parallelism: split each multi-rack event loop into");
    println!("               N shards of whole racks or pods ('auto' = one per rack;");
    println!("               default 1 = serial).");
    println!("               Results are bit-identical for any --jobs/--shards combination.");
    println!("--fattree-k K  override the fat-tree radix for topology experiments");
    println!("               (even, >= 4; default picked by --scale: 4/6/6)");
    println!("--oversub R    pin fat-tree sweeps to a single oversubscription ratio R");
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut scale = Scale::Standard;
    let mut out = PathBuf::from("results");
    let mut jobs = default_jobs();
    let mut shards = 1usize;
    let mut fattree_k: Option<usize> = None;
    let mut oversub: Option<f64> = None;
    let mut format = Format::Markdown;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--list" => {
                for e in registry() {
                    println!(
                        "{:<10} {:<12} [{}]  {}",
                        e.id,
                        e.topology,
                        e.tags.join(", "),
                        e.title
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--scale" => {
                scale = match args.next() {
                    Some(v) => match v.parse() {
                        Ok(s) => s,
                        Err(e) => return fail(&format!("--scale: {e}")),
                    },
                    None => return fail("--scale needs a value (smoke|standard|full)"),
                };
            }
            "--jobs" => {
                jobs = match args.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) if n >= 1 => n,
                    _ => return fail("--jobs needs a positive integer"),
                };
            }
            "--shards" => {
                shards = match args.next().as_deref() {
                    Some("auto") => 0,
                    Some(v) => match v.parse::<usize>() {
                        Ok(n) if n >= 1 => n,
                        _ => return fail("--shards needs a positive integer or 'auto'"),
                    },
                    None => return fail("--shards needs a value (N or 'auto')"),
                };
            }
            "--fattree-k" => {
                fattree_k = match args.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(k)) if k >= 4 && k % 2 == 0 => Some(k),
                    _ => return fail("--fattree-k needs an even integer >= 4"),
                };
            }
            "--oversub" => {
                oversub = match args.next().map(|v| v.parse::<f64>()) {
                    Some(Ok(r)) if r >= 1.0 && r.is_finite() => Some(r),
                    _ => return fail("--oversub needs a finite ratio >= 1.0"),
                };
            }
            "--format" => {
                format = match args.next().as_deref() {
                    Some("md") => Format::Markdown,
                    Some("csv") => Format::Csv,
                    Some("json") => Format::Json,
                    other => {
                        return fail(&format!("unknown format {other:?} (md|csv|json)"));
                    }
                };
            }
            "--out" => {
                out = match args.next() {
                    Some(dir) => PathBuf::from(dir),
                    None => return fail("--out needs a directory"),
                };
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => {
                return fail(&format!("unknown flag {flag:?}; try --help"));
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        ids = registry().iter().map(|e| e.id.to_string()).collect();
    }

    // Resolve every id up front so a typo fails before hours of sweeps.
    let mut experiments = Vec::new();
    for id in &ids {
        match find(id) {
            Some(e) => experiments.push(e),
            None => {
                let near = suggest(id);
                let hint = if near.is_empty() {
                    "try --list".to_string()
                } else {
                    format!("did you mean {}?", near.join(" or "))
                };
                return fail(&format!("unknown experiment id {id:?}; {hint}"));
            }
        }
    }

    let mut ctx = RunCtx::new(scale)
        .with_jobs(jobs)
        .with_shards(shards)
        .with_progress(|msg| eprint!("\r   {msg} "));
    if let Some(k) = fattree_k {
        ctx = ctx.with_fattree_k(k);
    }
    if let Some(r) = oversub {
        ctx = ctx.with_oversub(r);
    }

    // An unaddressable radix or a link rate the simulator's clock cannot
    // hold would panic mid-sweep in a worker thread; refuse it here, at
    // the radix and ratios that would run, with the limit it breaks.
    if fattree_k.is_some() || oversub.is_some() {
        let k = fattree::radix_for(&ctx);
        for ratio in fattree::ratios(&ctx) {
            for scheme in fattree::SCHEMES {
                if let Err(e) = fattree::scenario(k, ratio, scheme, &ctx).validate() {
                    return fail(&format!("fattree at k={k}, {ratio}:1: {e}"));
                }
            }
        }
    }

    if let Err(e) = std::fs::create_dir_all(&out) {
        return fail(&format!("cannot create {}: {e}", out.display()));
    }
    for exp in experiments {
        let t0 = std::time::Instant::now();
        eprintln!(
            "== running {} at {scale:?} scale on {jobs} thread(s)…",
            exp.id
        );
        let report = (exp.run)(&ctx);
        eprintln!();
        if report.id != exp.id {
            return fail(&format!(
                "registry entry {:?} produced a report with id {:?}",
                exp.id, report.id
            ));
        }
        if let Err(e) = emit(&report, format, &out) {
            return fail(&format!("cannot write results for {}: {e}", report.id));
        }
        eprintln!(
            "== {} done in {:.1}s",
            report.id,
            t0.elapsed().as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}

/// Prints the report in the chosen format and writes the matching
/// artifact file(s) under `out` — the single emit path for every id.
fn emit(report: &Report, format: Format, out: &std::path::Path) -> std::io::Result<()> {
    match format {
        Format::Markdown => {
            println!("{}", report.to_markdown());
            report.write_markdown(out)?;
            report.write_csv(out)
        }
        Format::Csv => {
            for (stem, csv) in report.to_csv() {
                println!("{stem}.csv:\n{csv}");
            }
            report.write_csv(out)
        }
        Format::Json => {
            println!("{}", report.to_json());
            report.write_json(out)
        }
    }
}
