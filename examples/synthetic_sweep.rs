//! A miniature Figure 7(a): p99 latency vs throughput for Baseline,
//! C-Clone, and NetClone under Exp(25), one line of points per scheme.
//!
//! ```text
//! cargo run --release --example synthetic_sweep
//! ```

use netclone::cluster::experiments::Scale;
use netclone::cluster::harness::{default_jobs, RunCtx};
use netclone::cluster::sweep::{capacity_fractions, per_scheme, run_sweeps};
use netclone::cluster::{Scenario, Scheme};
use netclone::workloads::exp25;

fn main() {
    let mut template = Scenario::synthetic_default(Scheme::Baseline, exp25(), 0.0);
    template.warmup_ns = 10_000_000;
    template.measure_ns = 60_000_000;
    let rates = capacity_fractions(&template, 0.1, 0.95, 7);
    let schemes = [Scheme::Baseline, Scheme::CClone, Scheme::NETCLONE];
    let specs = per_scheme("Exp(25)", &template, &schemes, &rates);
    let ctx = RunCtx::new(Scale::Standard).with_jobs(default_jobs());
    let panels = run_sweeps(&ctx, "Exp(25)", specs);

    println!("Exp(25), 6 workers — p99 latency (us) vs achieved throughput (MRPS)\n");
    for series in &panels[0].series {
        println!(
            "{:<10} {}",
            series.scheme,
            series
                .points
                .iter()
                .map(|r| format!("({:.2} MRPS, {:.0}us)", r.achieved_mrps(), r.p99_us()))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    println!("\nNote C-Clone's curve ending early (static cloning halves capacity, paper §2.2).");
}
