//! A miniature Figure 7(a): p99 latency vs throughput for Baseline,
//! C-Clone, and NetClone under Exp(25), one line of points per scheme.
//!
//! ```text
//! cargo run --release --example synthetic_sweep
//! ```

use netclone::cluster::sweep::{capacity_fractions, sweep};
use netclone::cluster::{Scenario, Scheme};
use netclone::workloads::exp25;

fn main() {
    let mut template = Scenario::synthetic_default(Scheme::Baseline, exp25(), 0.0);
    template.warmup_ns = 10_000_000;
    template.measure_ns = 60_000_000;
    let rates = capacity_fractions(&template, 0.1, 0.95, 7);

    println!("Exp(25), 6 workers — p99 latency (us) vs achieved throughput (MRPS)\n");
    for scheme in [Scheme::Baseline, Scheme::CClone, Scheme::NETCLONE] {
        let mut t = template.clone();
        t.scheme = scheme;
        let points = sweep(&t, &rates);
        println!(
            "{:<10} {}",
            scheme.label(),
            points
                .iter()
                .map(|p| format!("({:.2} MRPS, {:.0}us)", p.achieved_mrps, p.p99_us))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    println!("\nNote C-Clone's curve ending early (static cloning halves capacity, paper §2.2).");
}
