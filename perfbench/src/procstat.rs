//! Host counters read from `/proc`: CPU time, steal time, peak RSS.

use std::fs;

/// `USER_HZ`, the unit of the CPU-time fields in `/proc/*/stat`. Linux
/// fixes it at 100 on every architecture the workspace targets.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds from a `/proc/.../stat` file.
fn stat_cpu_s(path: &str) -> Result<f64, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    // The command name may contain spaces and parentheses; the fixed
    // fields start after the last ')'. utime and stime are fields 14
    // and 15, i.e. the 12th and 13th after the name.
    let tail = text
        .rsplit_once(')')
        .map(|(_, t)| t)
        .ok_or_else(|| format!("malformed {path}"))?;
    let fields: Vec<&str> = tail.split_whitespace().collect();
    let field = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .map(|t| t as f64 / CLOCK_TICKS_PER_S)
            .ok_or_else(|| format!("malformed {path}"))
    };
    Ok(field(11)? + field(12)?)
}

/// CPU seconds used so far by every thread of this process.
///
/// # Errors
///
/// `/proc/self/stat` unreadable or malformed.
pub fn process_cpu_s() -> Result<f64, String> {
    stat_cpu_s("/proc/self/stat")
}

/// CPU seconds used so far by the calling thread.
///
/// # Errors
///
/// `/proc/thread-self/stat` unreadable or malformed.
pub fn thread_cpu_s() -> Result<f64, String> {
    stat_cpu_s("/proc/thread-self/stat")
}

/// Host-wide `(steal, total)` jiffies from the `cpu` line of `/proc/stat`.
///
/// # Errors
///
/// `/proc/stat` unreadable or malformed.
pub fn steal_jiffies() -> Result<(u64, u64), String> {
    let text = fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
    let line = text
        .lines()
        .find(|l| l.starts_with("cpu "))
        .ok_or("no cpu line in /proc/stat")?;
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|s| s.parse().map_err(|_| "malformed /proc/stat".to_string()))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so the total stops at steal.
    let steal = *values.get(7).ok_or("no steal column in /proc/stat")?;
    Ok((steal, values.iter().take(8).sum()))
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`steal_jiffies`] readings.
#[must_use]
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// This process's peak resident set (`VmHWM`) in MiB.
///
/// # Errors
///
/// `/proc/self/status` unreadable or without a `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
