//! What the benchmark reads about its own process and checkout: CPU time
//! and peak memory from `/proc`, the git revision from `.git`; and how it
//! pauses and resumes an engine process.

use std::fs;
use std::path::Path;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Clock ticks per second of `/proc/<pid>/stat` times (Linux's `USER_HZ`,
/// fixed at 100 by the kernel ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU time of this process so far, exited threads included.
///
/// # Panics
///
/// Panics when `/proc/self/stat` is unreadable: the benchmark needs Linux.
pub fn cpu_time() -> Duration {
    let stat = fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    // the command name is parenthesised and may hold spaces; fields after it
    // start at field 3, so utime and stime (fields 14, 15) are 11 and 12 here
    let rest = &stat[stat.rfind(')').expect("malformed /proc/self/stat") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11..13]
        .iter()
        .map(|f| f.parse::<u64>().expect("numeric utime/stime"))
        .sum();
    Duration::from_secs_f64(ticks as f64 / USER_HZ)
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (which would search parent directories); `none`
/// outside a git checkout.
pub fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => fs::read_to_string(git.join(name))
            .ok()
            .map(|r| r.trim().to_string())
            .or_else(|| {
                let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
                packed.lines().find_map(|l| {
                    let (hash, r) = l.split_once(' ')?;
                    (r == name).then(|| hash.to_string())
                })
            }),
    };
    rev.map(|r| r.chars().take(12).collect())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether this binary was built with optimizations.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The parallelism the OS grants this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seconds since the Unix epoch: a clock that the orchestrator and its
/// engine processes read alike.
pub fn unix_s() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a glibc `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// `SIGCONT` and `SIGSTOP` on Linux.
const SIGCONT: i32 = 18;
const SIGSTOP: i32 = 19;

/// Stops process `pid` and returns once it no longer runs: stopped, exited
/// or gone. Every call must be followed by [`resume`].
pub fn stop(pid: u32) {
    // SAFETY: kill(2) only sends a signal; `pid` is a child of ours that
    // has not been waited for, so the id cannot have been reused.
    unsafe { kill(pid as i32, SIGSTOP) };
    let stat = format!("/proc/{pid}/stat");
    for _ in 0..10_000 {
        let state = fs::read_to_string(&stat).ok().and_then(|s| {
            let rest = &s[s.rfind(')')? + 1..];
            rest.split_whitespace().next().map(str::to_string)
        });
        match state.as_deref() {
            Some("R" | "S" | "D") => std::thread::yield_now(),
            _ => return,
        }
    }
}

/// Lets process `pid` run again after [`stop`].
pub fn resume(pid: u32) {
    // SAFETY: as in `stop`.
    unsafe { kill(pid as i32, SIGCONT) };
}

/// Binds this process, and so every process it starts afterwards, to the
/// highest-numbered CPU it may run on; returns that CPU, or `None` when the
/// affinity cannot be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let size = CPU_SET_WORDS * 8;
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}
