//! Order statistics over timing samples, and the process's peak memory.

/// Sorted copy of `xs` (every sample is a finite number).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count). `xs` must
/// not be empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100): the smallest sample with at
/// least `p` percent of the samples at or below it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The op time a run's speed is computed from: the fastest decile's
/// upper edge (p10). Every op does the same deterministic work, so the
/// spread of op times is host noise. On a shared host that noise comes in
/// bursts of a second or two that slow whole stretches of ops: across
/// ten runs the median op moved by up to 28% and p90 by 16–52%
/// (interquartile range over the median), while p10 held within 2–11%.
/// A slower build moves every op, the fast decile included.
pub fn fast_decile(xs: &[f64]) -> f64 {
    percentile(xs, 10.0)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the default "exclusive" method). Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len() as i64;
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        (v[(j - 1) as usize] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread measure `compare` judges against a metric's bound.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Resets this process's peak resident set size to its current one
/// (Linux 4.0 and later), so the next [`peak_rss_mb`] covers what runs
/// in between. Where the host refuses, the peak stays the process's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`), when the
/// host exposes `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(fast_decile(&xs), 10.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
