//! Exact percentiles over kept samples.
//!
//! Every latency sample is kept; percentiles come from the sorted samples
//! by the nearest-rank rule, so a reported value is always one that was
//! measured. A percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it — a p99 over fewer than 1000
//! samples would be set by a handful of outliers.

/// Samples that must lie strictly beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 100`) of ascending `sorted` samples by
/// nearest rank, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// p50/p99 of one class of timed operations, with the sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Samples the percentiles were computed from.
    pub count: usize,
    /// Median, nanoseconds.
    pub p50_ns: Option<u64>,
    /// 99th percentile, nanoseconds.
    pub p99_ns: Option<u64>,
}

impl Summary {
    /// Sorts `samples` in place and summarizes them.
    pub fn of(samples: &mut [u64]) -> Summary {
        samples.sort_unstable();
        Summary {
            count: samples.len(),
            p50_ns: percentile(samples, 50.0),
            p99_ns: percentile(samples, 99.0),
        }
    }
}

/// Splits `samples` — `(time, value)` pairs — into `windows` consecutive
/// runs of equal count by time and returns, for each of `percentiles`,
/// the median over the windows of that window's exact percentile, with
/// the samples per window. `None` when a window is too small to report
/// one of them. A stall that hits one window moves the median of the
/// windows far less than it moves one percentile over the lot.
pub fn window_medians(
    samples: &[(u64, u64)],
    windows: usize,
    percentiles: &[f64],
) -> Option<(Vec<f64>, usize)> {
    let mut by_time = samples.to_vec();
    by_time.sort_unstable();
    let per = by_time.len() / windows.max(1);
    if per == 0 {
        return None;
    }
    let mut per_pct: Vec<Vec<f64>> = vec![Vec::with_capacity(windows); percentiles.len()];
    for w in by_time.chunks_exact(per).take(windows) {
        let mut v: Vec<u64> = w.iter().map(|&(_, x)| x).collect();
        v.sort_unstable();
        for (out, &p) in per_pct.iter_mut().zip(percentiles) {
            out.push(percentile(&v, p)? as f64);
        }
    }
    Some((per_pct.iter_mut().map(|v| median(v)).collect(), per))
}

/// Lower quartile of `values` by nearest rank: the `ceil(n / 4)`-th
/// smallest.
pub fn lower_quartile(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of no values");
    values.sort_by(f64::total_cmp);
    values[values.len().div_ceil(4) - 1]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_a_thousand() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), Some(500));
        assert_eq!(percentile(&v, 99.0), Some(990));
        assert_eq!(percentile(&v, 90.0), Some(900));
    }

    #[test]
    fn needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=999).collect();
        // ceil(0.99 * 999) = 990 leaves 9 samples beyond: not reportable.
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&v, 50.0), Some(500));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7; 10], 50.0), None);
        assert_eq!(percentile(&[7; 20], 50.0), Some(7));
    }

    #[test]
    fn percentile_is_a_measured_sample() {
        let mut v = vec![
            5u64, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
        ];
        let s = Summary::of(&mut v);
        assert_eq!(s.count, 20);
        assert_eq!(s.p50_ns, Some(10));
        assert_eq!(s.p99_ns, None);
    }

    #[test]
    fn windows_report_the_median_window() {
        // Eight windows of 990 samples 1..=990; one window stalls.
        let mut samples = Vec::new();
        for w in 0..8u64 {
            for i in 1..=990u64 {
                let v = if w == 3 { i * 100 } else { i };
                samples.push((w * 1000 + i, v));
            }
        }
        assert_eq!(
            window_medians(&samples, 8, &[50.0, 99.0]),
            None,
            "990 per window leaves 9 beyond p99"
        );
        for w in 0..8u64 {
            for i in 991..=1100u64 {
                samples.push((w * 1000 + 999, i));
            }
        }
        let (p, per) = window_medians(&samples, 8, &[50.0, 99.0]).unwrap();
        assert_eq!(per, 1100);
        assert_eq!(
            p,
            vec![550.0, 1089.0],
            "the stalled window does not set the medians"
        );
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn lower_quartile_by_nearest_rank() {
        let mut v: Vec<f64> = (1..=14).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&mut v), 4.0);
        assert_eq!(lower_quartile(&mut [5.0, 1.0, 3.0, 2.0]), 1.0);
        assert_eq!(lower_quartile(&mut [7.0]), 7.0);
    }
}
