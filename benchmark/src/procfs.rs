//! What the kernel says about this process, read from `/proc`: per-thread
//! on-CPU time, run-queue wait and wake-ups (`schedstat`, falling back to
//! `stat`), machine-wide steal time, and peak resident memory.
//!
//! The parsers take strings so the unit tests run on fixtures.

use std::fs;

/// One thread's scheduler totals since it started.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadTimes {
    /// Nanoseconds spent on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub wait_ns: u64,
    /// Times the thread was given a CPU (a proxy for wake-ups).
    pub slices: u64,
}

impl ThreadTimes {
    /// Field-wise `self - base`, saturating (a thread that restarted reads
    /// lower than its predecessor).
    pub fn since(&self, base: &ThreadTimes) -> ThreadTimes {
        ThreadTimes {
            run_ns: self.run_ns.saturating_sub(base.run_ns),
            wait_ns: self.wait_ns.saturating_sub(base.wait_ns),
            slices: self.slices.saturating_sub(base.slices),
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, other: &ThreadTimes) {
        self.run_ns += other.run_ns;
        self.wait_ns += other.wait_ns;
        self.slices += other.slices;
    }
}

/// Parses `/proc/<pid>/task/<tid>/schedstat`: `run_ns wait_ns timeslices`.
pub fn parse_schedstat(s: &str) -> Option<ThreadTimes> {
    let mut it = s.split_ascii_whitespace().map(str::parse::<u64>);
    let t = ThreadTimes {
        run_ns: it.next()?.ok()?,
        wait_ns: it.next()?.ok()?,
        slices: it.next()?.ok()?,
    };
    Some(t)
}

/// The fallback where `schedstat` is compiled out: `utime + stime` from
/// `/proc/<pid>/task/<tid>/stat` (fields 14 and 15, clock ticks), scaled
/// by `tick_ns`. The thread name in field 2 may hold spaces and
/// parentheses, so fields are counted from the *last* `)`. No wait time
/// or slice count is available there.
pub fn parse_stat_cpu(s: &str, tick_ns: u64) -> Option<ThreadTimes> {
    let rest = &s[s.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut it = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = it.next()?.parse().ok()?;
    let stime: u64 = it.next()?.parse().ok()?;
    Some(ThreadTimes {
        run_ns: (utime + stime) * tick_ns,
        wait_ns: 0,
        slices: 0,
    })
}

/// `USER_HZ` is 100 on every Linux ABI this runs on.
const TICK_NS: u64 = 10_000_000;

/// Every live thread of this process as `(tid, name, /proc directory)`,
/// names as the kernel truncates them (15 bytes).
fn tasks() -> Vec<(i32, String, std::path::PathBuf)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|entry| {
            let tid = entry.file_name().to_str()?.parse().ok()?;
            // A thread may exit between readdir and open: skip it.
            let name = fs::read_to_string(entry.path().join("comm")).ok()?;
            Some((tid, name.trim_end().to_string(), entry.path()))
        })
        .collect()
}

/// Scheduler totals summed over the live threads whose name `pick`
/// accepts.
pub fn threads_matching(pick: impl Fn(&str) -> bool) -> ThreadTimes {
    let mut total = ThreadTimes::default();
    for (_, name, dir) in tasks() {
        if !pick(&name) {
            continue;
        }
        let times = fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| parse_schedstat(&s))
            .or_else(|| {
                fs::read_to_string(dir.join("stat"))
                    .ok()
                    .and_then(|s| parse_stat_cpu(&s, TICK_NS))
            });
        if let Some(t) = times {
            total.add(&t);
        }
    }
    total
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of the whole process — every thread, live or already joined
/// — in nanoseconds. The sharded simulator's threads exit with the run,
/// taking their `schedstat` files with them; this clock keeps their time.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread in nanoseconds: time it was descheduled
/// for does not count.
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux ABI), and the call writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// Words in the CPU masks passed to the kernel: 1024 CPUs.
const MASK_WORDS: usize = 16;

/// The CPUs this process may run on, in ascending order: the calling
/// thread's affinity at the first call, remembered, so that a thread which
/// has since pinned itself (and the threads it then starts, which inherit
/// its mask) still see the whole set.
pub fn allowed_cpus() -> Vec<usize> {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(read_affinity).clone()
}

fn read_affinity() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts thread `tid` (0 = the caller) to `cpu`. Returns whether the
/// kernel accepted it.
pub fn pin_thread(tid: i32, cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed; the
    // call changes scheduling only.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pins every live thread of this process whose name `pick` accepts to
/// `cpu`; returns how many were pinned.
pub fn pin_threads_matching(pick: impl Fn(&str) -> bool, cpu: usize) -> usize {
    tasks()
        .iter()
        .filter(|(tid, name, _)| pick(name) && pin_thread(*tid, cpu))
        .count()
}

/// Machine-wide `(steal, total)` jiffies from the first line of
/// `/proc/stat`.
pub fn parse_cpu_line(s: &str) -> Option<(u64, u64)> {
    let line = s.lines().next()?;
    let mut it = line.split_ascii_whitespace();
    if it.next()? != "cpu" {
        return None;
    }
    let fields: Vec<u64> = it.filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so the total stops at steal.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// `(steal, total)` jiffies now, or zeros where `/proc/stat` is missing.
pub fn cpu_jiffies() -> (u64, u64) {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_cpu_line(&s))
        .unwrap_or((0, 0))
}

/// Share of machine CPU time stolen by the hypervisor between two
/// [`cpu_jiffies`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Pulls `VmHWM` (kB) out of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The machine description every record carries.
pub fn machine() -> Vec<(&'static str, String)> {
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    // CPUs the machine has on line, not those this thread may run on: the
    // UDP workloads pin the calling thread to one.
    let nproc = fs::read_to_string("/proc/stat").map_or(0, |s| {
        s.lines()
            .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
            .count()
    });
    vec![
        ("nproc", nproc.to_string()),
        ("kernel", kernel),
        ("rustc", rustc),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_fixture() {
        let t = parse_schedstat("1116377 87976 13\n").unwrap();
        assert_eq!(
            t,
            ThreadTimes {
                run_ns: 1_116_377,
                wait_ns: 87_976,
                slices: 13
            }
        );
        assert!(parse_schedstat("12 x 3").is_none());
        assert!(parse_schedstat("12 3").is_none());
    }

    #[test]
    fn stat_fallback_survives_hostile_thread_names() {
        // Field 2 holds ") (" on purpose; utime = 7, stime = 5.
        let s = "42 (a) (b c) S 1 42 42 0 -1 4194304 100 0 0 0 7 5 0 0 20 0 3 0 1825882";
        let t = parse_stat_cpu(s, 10_000_000).unwrap();
        assert_eq!(t.run_ns, 120_000_000);
        assert_eq!((t.wait_ns, t.slices), (0, 0));
        assert!(parse_stat_cpu("42 (short) S 1", 1).is_none());
        assert!(parse_stat_cpu("no paren", 1).is_none());
    }

    #[test]
    fn steal_share_of_a_window() {
        let a = parse_cpu_line("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n").unwrap();
        assert_eq!(a, (35, 1000));
        let b = parse_cpu_line("cpu  150 0 70 1650 10 0 5 115 0 0\n").unwrap();
        assert_eq!(b, (115, 2000));
        assert!((steal_frac(a, b) - 0.08).abs() < 1e-12);
        assert_eq!(steal_frac(a, a), 0.0);
        assert!(parse_cpu_line("intr 1 2 3").is_none());
    }

    #[test]
    fn vm_hwm_fixture() {
        let s = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t    1516 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(s), Some(1516));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_has_threads_memory_and_a_running_cpu_clock() {
        assert!(threads_matching(|_| true).run_ns > 0);
        assert!(peak_rss_mb() > 0.0);
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_ns() > a);
    }
}
