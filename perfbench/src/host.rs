//! Host context and process counters, read from `/proc`.
//!
//! Every result carries the host it was measured on, so that figures from
//! hosts with different core counts (or a host losing time to steal) are
//! never compared unnoticed.

use std::fs;

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`, fixed
/// at 100 by the Linux ABI on the architectures this runs on).
const USER_HZ: f64 = 100.0;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model string, or `unknown`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host-wide steal ticks so far (the 8th field of the `cpu` line of
/// `/proc/stat`); 0 where unavailable.
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().and_then(|l| l.split_whitespace().nth(8)).and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// CPU time this process has used so far, over all of its threads
/// (live and exited), in milliseconds.
pub fn process_cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest.split_whitespace().skip(11).take(2).filter_map(|v| v.parse::<u64>().ok()).sum();
    ticks as f64 * 1e3 / USER_HZ
}

/// Resets this process's peak resident set size to its current size
/// (Linux `clear_refs` value 5), so that [`peak_rss_mb`] reads the peak
/// since this call. Where the reset is unavailable the peak keeps counting
/// from process start.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host context printed with every result.
#[derive(Debug, Clone)]
pub struct HostContext {
    /// Cores available to the process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// Alarm-replayer pool size the default pipeline derives (one per core).
    pub ar_pool: usize,
    /// Replay-farm pool size the benchmark uses (one per core).
    pub farm_workers: usize,
    /// Steal ticks the host recorded over the run.
    pub steal_ticks: u64,
}

impl HostContext {
    /// The context with steal counted from `steal_at_start`.
    pub fn capture(steal_at_start: u64) -> HostContext {
        let nproc = nproc();
        HostContext {
            nproc,
            cpu_model: cpu_model(),
            ar_pool: nproc,
            farm_workers: nproc,
            steal_ticks: steal_ticks().saturating_sub(steal_at_start),
        }
    }

    /// The context as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"ar_pool_workers\": {}, \"farm_workers\": {}, \"steal_ticks\": {}}}",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], ""),
            self.ar_pool,
            self.farm_workers,
            self.steal_ticks
        )
    }
}
