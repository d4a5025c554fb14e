//! A miniature Figure 16 plus the §3.6 server-failure procedure, rendered
//! as an ASCII timeline.
//!
//! The switch is stopped at 5 s and reactivated at 7 s; forwarding resumes
//! once the pipeline is back (~10 s) with all soft state cleared — and
//! nothing breaks, because NetClone keeps only soft state in the ASIC.
//! Separately, a server is killed mid-run and the control plane removes it
//! from the group/address tables.
//!
//! ```text
//! cargo run --release --example failure_drill
//! ```

use netclone::cluster::experiments::{fig16, Scale};
use netclone::cluster::harness::RunCtx;
use netclone::cluster::{Fault, FaultKind, Scenario, Scheme, Sim};
use netclone::workloads::exp25;

fn main() {
    println!("== Switch failure (Fig. 16, compressed timeline) ==\n");
    let f = fig16::run(&RunCtx::new(Scale::Standard));
    let peak = f
        .timeline
        .iter()
        .map(|&(_, m)| m)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    for &(t, mrps) in f.timeline.iter() {
        let bars = ((mrps / peak) * 50.0).round() as usize;
        let marker = if t >= f.fail_at_s && t < f.up_at_s {
            "x"
        } else {
            " "
        };
        println!("{t:>5.1}s |{}{marker}", "#".repeat(bars));
    }
    println!(
        "\nstop @ {:.0}s, reactivate @ {:.0}s, forwarding back @ ~{:.0}s — full recovery, soft state only.\n",
        f.fail_at_s, f.reactivate_at_s, f.up_at_s
    );

    println!("== Server failure (§3.6) ==\n");
    let mut s = Scenario::synthetic_default(Scheme::NETCLONE, exp25(), 0.0);
    s.offered_rps = s.capacity_rps() * 0.4;
    s.warmup_ns = 10_000_000;
    s.measure_ns = 120_000_000;
    s.faults.faults.push(Fault {
        start_ns: 40_000_000,
        end_ns: 60_000_000, // 20 ms detection delay
        kind: FaultKind::ServerStop { sid: 3 },
    });
    let r = Sim::run(s);
    println!(
        "server 3 died at 40ms, removed from switch tables at 60ms:\n\
         completed {} requests at p99 {:.0} us; {} packets were lost to the dead server\n\
         (the control plane rebuilt the group table over the 5 survivors).",
        r.completed,
        r.p99_us(),
        r.generated - r.completed,
    );
}
