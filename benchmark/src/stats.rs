//! Summary statistics over repetitions, and the two `/proc` readings the
//! benchmark reports (peak resident memory, process CPU time).

/// Median, quartiles and range of one metric over a run's repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Quantile `q` of an ascending slice, linearly interpolated.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarises `values`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN: every caller passes at least one
/// measured repetition.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "a metric needs at least one sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    Summary {
        median: quantile(&v, 0.5),
        q1: quantile(&v, 0.25),
        q3: quantile(&v, 0.75),
        min: v[0],
        max: v[v.len() - 1],
        n: v.len(),
    }
}

/// Median of `values` (see [`summarize`]).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Nearest-rank percentile `p` (0..=100) of an ascending sample set.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, fixed at 100
/// on Linux).
pub const TICKS_PER_S: f64 = 100.0;

/// Process-wide `(user, system)` CPU time so far, in clock ticks (all
/// threads).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0);
    let stime = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0);
    (utime, stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_odd_and_even_counts() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = summarize(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!((s.q1, s.q3), (1.75, 3.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&[], 99.0), 0);
    }

    #[test]
    fn proc_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        let (u, s) = cpu_ticks();
        assert!(u + s < 1 << 40);
    }
}
