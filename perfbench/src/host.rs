//! Host facts and process accounting read from `/proc`: CPU time, peak
//! resident memory, the CPU model, and the commit being measured.

use std::fs;
use std::path::Path;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`, 100 on
/// every Linux ABI in use).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads (exited ones
/// included). Resolution is one clock tick (10 ms).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after `) `.
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// Machine-wide CPU seconds the hypervisor gave to other guests (the
/// `steal` column of `/proc/stat`, summed over CPUs): host contention that
/// no change to this program can remove.
pub fn steal_seconds() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| {
            t.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// Times an interval twice: as plain wall time, and as the wall time the
/// hypervisor let this guest run.
///
/// On a shared virtual machine the hypervisor hands this guest's CPUs to
/// other guests for up to a quarter of the time, in bursts of seconds,
/// and the guest kernel counts that as steal time. A program's wall time
/// grows by the stolen share, which no change to the program can move, so
/// the benchmark reports every wall-clock figure with the interval's
/// machine-wide steal time, per CPU, taken out. On a host without steal
/// both readings are equal.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
    steal: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            steal: steal_seconds(),
            start: Instant::now(),
        }
    }

    /// Plain wall seconds since `start`.
    pub fn wall(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Wall seconds since `start` minus the steal time over the same
    /// interval, per CPU (never below zero).
    pub fn unstolen(&self) -> f64 {
        let wall = self.wall();
        let stolen = (steal_seconds() - self.steal) / nproc() as f64;
        (wall - stolen).max(0.0)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

fn status_kb(key: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout: `HEAD` resolved from `.git` when the
/// checkout is a repository, else `"unknown"`.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}
