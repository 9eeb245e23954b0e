//! What the host pays, read from outside the program: process and
//! per-thread CPU time and peak RSS from `/proc/self`, plus the sample
//! statistics every metric is reported with.

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, fixed at 100 per
/// second for the user-space ABI.
const NS_PER_TICK: u64 = 10_000_000;

/// `utime + stime` of a `/proc/.../stat` line, in nanoseconds. The
/// command name may contain spaces and parentheses, so fields are
/// counted from the last `)`.
fn stat_cpu_ns(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state(3) … utime(14) stime(15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * NS_PER_TICK)
}

/// User + system CPU of the whole process so far, exited threads
/// included (10 ms resolution).
#[must_use]
pub fn process_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_ns(&s))
        .unwrap_or(0)
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One live thread of this process.
#[derive(Debug, Clone)]
pub struct Task {
    /// Kernel thread id.
    pub tid: u32,
    /// Thread name (`comm`, at most 15 bytes).
    pub comm: String,
    /// User + system CPU so far, in nanoseconds.
    pub cpu_ns: u64,
}

/// Every live thread of this process with its CPU time so far.
#[must_use]
pub fn tasks() -> Vec<Task> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let cpu_ns = std::fs::read_to_string(path.join("stat"))
            .ok()
            .and_then(|s| stat_cpu_ns(&s))
            .unwrap_or(0);
        out.push(Task {
            tid,
            comm: comm.trim_end().to_string(),
            cpu_ns,
        });
    }
    out.sort_by_key(|t| t.tid);
    out
}

/// Median of `v` (mean of the two middle values for even lengths; 0
/// for an empty slice).
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of an ascending slice (0 when empty).
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sample summary: `(min, median, spread)`, spread being the
/// interquartile range as a share of the median.
#[must_use]
pub fn summary(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let med = median(&s);
    let iqr = quantile_sorted(&s, 0.75) - quantile_sorted(&s, 0.25);
    let spread = if med == 0.0 { 0.0 } else { iqr / med.abs() };
    (s.first().copied().unwrap_or(0.0), med, spread)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_name_parses() {
        let line = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 30 12 0 0";
        assert_eq!(stat_cpu_ns(line), Some(42 * NS_PER_TICK));
    }

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.99), 99.0);
        assert_eq!(quantile_sorted(&s, 0.5), 50.0);
    }
}
