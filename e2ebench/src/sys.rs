//! Host readings from `/proc`: peak resident memory and the contention
//! signals the diagnostics line reports.

/// Resets the process's resident-memory high-water mark (`VmHWM`) to its
/// current RSS. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` in MB (10⁶ bytes).
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb as f64 * 1024.0 / 1e6)
}

/// Involuntary context switches of this process so far.
pub fn involuntary_switches() -> Option<u64> {
    status_kb("nonvoluntary_ctxt_switches:")
}

fn status_kb(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Host-wide steal ticks (the eighth field of `/proc/stat`'s `cpu` line).
pub fn steal_ticks() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Online CPUs as the process sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
