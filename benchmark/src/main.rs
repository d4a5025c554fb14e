//! The repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! benchmark compare A/ B/
//! benchmark spec
//! ```
//!
//! A run prints progress and tables on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! It exits non-zero when an output check fails.

mod clock;
mod compare;
mod des;
mod est;
mod json;
mod procfs;
mod replay;
mod spec;
mod trace;
mod udp;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::{obj, Value};
use spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use workload::{Args, Outcome};

const USAGE: &str =
    "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       benchmark compare A/ B/
       benchmark spec";

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => match argv.as_slice() {
            [_, a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => usage("compare takes two directories"),
        },
        Some("spec") => {
            println!("{}", spec_json());
            ExitCode::SUCCESS
        }
        _ => match parse_run(&argv, start) {
            Ok((workload, args)) => run(&workload, &args),
            Err(e) => usage(&e),
        },
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_run(argv: &[String], start: Instant) -> Result<(String, Args), String> {
    let mut workload = None;
    let mut args = Args {
        seed: 7,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        start,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?.clone()),
            "--seed" => args.seed = val()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                args.seconds = val()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out_dir = PathBuf::from(val()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, args))
}

fn run(workload: &str, args: &Args) -> ExitCode {
    eprintln!(
        "== {workload} seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let Some(out) = workload::run(workload, args) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return usage(&format!(
            "unknown workload {workload:?} (one of {})",
            names.join(", ")
        ));
    };
    let listed: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };

    // The emitted set must be exactly the listed set, each name once.
    let mut errors = out.errors.clone();
    for m in listed {
        if out.metrics.iter().filter(|(n, _)| *n == m.name).count() != 1 {
            errors.push(format!("metric {} not emitted exactly once", m.name));
        }
    }
    for (name, v) in &out.metrics {
        if !listed.iter().any(|m| m.name == *name) {
            errors.push(format!("metric {name} emitted but not listed"));
        }
        if !v.is_finite() {
            errors.push(format!("metric {name} is not a number"));
        }
    }
    if out.attempted == 0 {
        errors.push("nothing attempted".into());
    }

    eprintln!("{:<32} {:>16}  unit", "metric", "value");
    for m in listed {
        if let Some((_, v)) = out.metrics.iter().find(|(n, _)| *n == m.name) {
            eprintln!("{:<32} {:>16.4}  {}", m.name, v, m.unit);
        }
    }
    eprintln!(
        "attempted {}  failed {}  ({})",
        out.attempted,
        out.failed,
        if errors.is_empty() {
            "outputs correct"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    for why in &out.invalid {
        eprintln!("invalid run: {why}");
    }

    let metrics = obj(listed.iter().filter_map(|m| {
        let (_, v) = out.metrics.iter().find(|(n, _)| *n == m.name)?;
        Some((
            m.name,
            obj([
                ("value", Value::Num(*v)),
                ("unit", Value::Str(m.unit.into())),
            ]),
        ))
    }));
    let result = obj([
        ("correct", Value::Bool(errors.is_empty())),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", metrics),
    ]);
    write_record(workload, args, &out, &errors, &result);

    if errors.is_empty() {
        println!("{}", result.render());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One JSON record per run under the out directory: the result line plus
/// everything needed to judge it later (seed, machine, validity, digest).
fn write_record(workload: &str, args: &Args, out: &Outcome, errors: &[String], result: &Value) {
    let strs = |v: &[String]| Value::Arr(v.iter().cloned().map(Value::Str).collect());
    let mut fields = vec![
        ("workload".to_string(), Value::Str(workload.into())),
        ("seed".to_string(), Value::Num(args.seed as f64)),
        ("seconds".to_string(), Value::Num(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("valid".to_string(), Value::Bool(out.invalid.is_empty())),
        ("invalid_reasons".to_string(), strs(&out.invalid)),
        ("errors".to_string(), strs(errors)),
    ];
    for (k, v) in procfs::machine() {
        fields.push((k.to_string(), Value::Str(v)));
    }
    fields.push(("info".to_string(), Value::Obj(out.info.clone())));
    fields.push(("result".to_string(), result.clone()));
    let record = Value::Obj(fields);

    let stem = format!("{workload}{}", if args.trace { "-trace" } else { "" });
    let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| {
        // Never overwrite: a directory may hold several runs of one
        // workload, which is what `compare` takes its spread from.
        let path = (0..10_000)
            .map(|k| args.out_dir.join(format!("{stem}-{k}.json")))
            .find(|p| !p.exists())
            .ok_or_else(|| std::io::Error::other("out directory is full"))?;
        std::fs::write(&path, record.render() + "\n").map(|()| path)
    });
    match written {
        Ok(path) => eprintln!("-- record -> {}", path.display()),
        Err(e) => eprintln!("warning: record not written: {e}"),
    }
}

/// `BENCHMARK.json`, generated from [`spec`] so the two cannot drift.
fn spec_json() -> String {
    let metric = |m: &Metric, bounded: bool| {
        let mut kv = vec![
            ("name", Value::Str(m.name.into())),
            ("unit", Value::Str(m.unit.into())),
            ("better", Value::Str(m.better.into())),
        ];
        if bounded {
            kv.push(("bound", Value::Num(m.bound)));
        }
        obj(kv).render()
    };
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        spec::RUN_SECONDS,
        list(WORKLOADS
            .iter()
            .map(|(n, w)| obj([("name", Value::Str((*n).into())), ("why", Value::Str((*w).into()))]).render())
            .collect()),
        list(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        list(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
    )
}
