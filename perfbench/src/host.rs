//! Host diagnostics read from `/proc`: run-queue wait, steal, load
//! average and peak RSS. They tell a noisy batch apart from a slow
//! program; none of them feeds an end-to-end metric except peak RSS.

use std::path::Path;

/// Run-queue wait of every live thread of process `pid` ("self" for this
/// process), in nanoseconds: the second field of each
/// `/proc/<pid>/task/<tid>/schedstat`.
pub fn rq_wait_ns(pid: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

/// Run-queue wait of the calling thread, in nanoseconds.
pub fn thread_rq_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// System-wide steal time in milliseconds (the `cpu` line of
/// `/proc/stat`, in clock ticks of 10 ms).
pub fn steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks * 10.0)
}

/// One-minute load average.
pub fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    status_kb(format!("/proc/{pid}/status"), "VmHWM:") / 1024.0
}

fn status_kb(path: impl AsRef<Path>, key: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(key))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0.0)
}

/// CPUs this process may run on.
pub fn cpu_count() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Host counters over the measured phase of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostWindow {
    /// Run-queue wait of the benchmark's threads (and any server child)
    /// during the phase, in ms.
    pub rq_wait_ms: f64,
    /// System-wide steal during the phase, in ms.
    pub steal_ms: f64,
    /// One-minute load average at the end of the phase.
    pub loadavg1: f64,
}

/// Start of a [`HostWindow`].
pub struct HostMark {
    steal_ms: f64,
}

impl HostMark {
    /// Mark the start of the measured phase.
    pub fn now() -> HostMark {
        HostMark {
            steal_ms: steal_ms(),
        }
    }

    /// Close the window; `rq_wait_ns` is the run-queue wait the caller
    /// summed over its threads for the phase.
    pub fn close(self, rq_wait_ns: u64) -> HostWindow {
        HostWindow {
            rq_wait_ms: rq_wait_ns as f64 / 1e6,
            steal_ms: (steal_ms() - self.steal_ms).max(0.0),
            loadavg1: loadavg1(),
        }
    }
}
