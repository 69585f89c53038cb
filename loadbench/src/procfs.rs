//! Outside-in resource sampling from `/proc/self`: per-thread CPU grouped
//! by thread name, and resident memory. Needs no hook in the daemon.

use std::collections::HashMap;
use std::fs;

/// Thread groups, by `comm` prefix. The daemon names its threads; the
/// benchmark names its load threads `loadgen-*`.
pub const GROUPS: [&str; 5] = ["reactor", "worker", "maint", "generator", "other"];

fn group_of(comm: &str) -> usize {
    if comm.starts_with("ptm-rpc-reactor") {
        0
    } else if comm.starts_with("ptm-rpc-worker") {
        1
    } else if comm.starts_with("ptm-rpc-maint") {
        2
    } else if comm.starts_with("loadgen") || comm.starts_with("ptm-loadbench") {
        3
    } else {
        4
    }
}

/// Kernel clock ticks per second for `utime`/`stime` (`USER_HZ`, 100 on
/// Linux).
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` from a `stat` line, in seconds.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    // Fields after the parenthesised comm: state is field 3, so utime (14)
    // and stime (15) sit at offsets 11 and 12.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// CPU seconds used so far by the calling thread. Load threads read this
/// themselves because they have exited by the time the phase is sampled.
pub fn this_thread_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|stat| stat_cpu_s(&stat))
        .unwrap_or(0.0)
}

/// The group load threads report their own CPU into.
pub const GENERATOR: usize = 3;

/// CPU seconds used so far by each live thread, keyed by thread id.
#[derive(Debug, Clone, Default)]
pub struct ThreadCpu(HashMap<u64, (usize, f64)>);

impl ThreadCpu {
    pub fn sample() -> Self {
        let mut threads = HashMap::new();
        let Ok(entries) = fs::read_dir("/proc/self/task") else {
            return Self(threads);
        };
        for entry in entries.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            let path = entry.path();
            let (Ok(comm), Ok(stat)) = (
                fs::read_to_string(path.join("comm")),
                fs::read_to_string(path.join("stat")),
            ) else {
                continue;
            };
            if let Some(cpu_s) = stat_cpu_s(&stat) {
                threads.insert(tid, (group_of(comm.trim()), cpu_s));
            }
        }
        Self(threads)
    }

    /// CPU seconds per group spent between `earlier` and `self`. A thread
    /// born in between counts from zero.
    pub fn since(&self, earlier: &ThreadCpu) -> [f64; GROUPS.len()] {
        let mut out = [0.0; GROUPS.len()];
        for (tid, (group, cpu)) in &self.0 {
            let before = earlier.0.get(tid).map_or(0.0, |(_, c)| *c);
            out[*group] += (cpu - before).max(0.0);
        }
        out
    }
}

fn status_kib(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with(field))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Current resident set, MiB.
pub fn rss_mib() -> f64 {
    status_kib("VmRSS:") / 1024.0
}

/// Peak resident set so far, MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}
