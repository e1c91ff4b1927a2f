//! Order statistics and the tail-percentile rule.

/// Percentiles the tail rule may report, highest first.
pub const TAIL_CANDIDATES: [f64; 9] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100] of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice: every caller reports only phases that
/// produced samples.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly after the nearest-rank position of `p`.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest candidate percentile at or below `cap` that leaves at
/// least [`MIN_BEYOND`] samples beyond it; the median when none does.
///
/// `cap` is the highest percentile that repeats within its bound on a
/// workload — above it a run's tail is set by a handful of host stalls.
#[must_use]
pub fn tail_percentile(n: usize, cap: f64) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median of unsorted values (nearest rank).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Mean of the values between the first and third quartile (nearest
/// rank), both included.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let (lo, hi) = (rank(v.len(), 25.0) - 1, rank(v.len(), 75.0));
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// An ascending copy.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}
