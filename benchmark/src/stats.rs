//! Order statistics the harness reports: medians, percentiles,
//! quartiles as Python's `statistics.quantiles(n=4)` computes them (the
//! acceptance rule is stated in those terms), and percentiles taken
//! window by window.

/// Sorts a copy of `values` ascending (NaN-free by construction: every
/// sample is a measured duration or count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice; 0 for
/// an empty one.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method);
/// needs at least two values, otherwise all three are the lone value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance rule compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Samples a window needs beyond its percentile for that percentile to
/// count: ten is the floor for any reported percentile, and a tenfold
/// margin keeps a single stall from being the percentile.
pub const MIN_BEYOND: usize = 100;

/// Each window's `p`-th percentile: `samples` are `(window, value)`, a
/// window being one round of a phase. Windows with fewer than
/// `MIN_BEYOND` samples beyond the percentile are left out.
pub fn window_percentiles(samples: &[(u32, f64)], p: f64) -> Vec<f64> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(window, value) in samples {
        let w = window as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(value);
    }
    windows
        .iter()
        .filter(|w| {
            w.len() - ((p / 100.0 * w.len() as f64).ceil() as usize).min(w.len()) >= MIN_BEYOND
        })
        .map(|w| percentile(w, p))
        .collect()
}

/// Median over windows of each window's `p`-th percentile: one host
/// stall lands in one window and moves that window's percentile, not the
/// median of them. `None` when no window qualifies.
pub fn window_percentile(samples: &[(u32, f64)], p: f64) -> Option<f64> {
    let per_window = window_percentiles(samples, p);
    if per_window.is_empty() {
        None
    } else {
        Some(median(&per_window))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn window_percentile_ignores_one_stalled_window_and_a_ragged_one() {
        let per_window = 100 * MIN_BEYOND;
        let mut samples = Vec::new();
        for w in 0..3 {
            for _ in 0..per_window {
                // Window 1 stalls: every latency is 50x.
                samples.push((w, if w == 1 { 50.0 } else { 1.0 }));
            }
        }
        // A ragged fourth window with too few samples to carry a p99,
        // though enough for a median.
        samples.extend((0..2 * MIN_BEYOND).map(|_| (3, 1_000.0)));
        assert_eq!(window_percentile(&samples, 99.0), Some(1.0));
        assert_eq!(window_percentiles(&samples, 99.0), [1.0, 50.0, 1.0]);
        assert_eq!(
            window_percentiles(&samples, 50.0),
            [1.0, 50.0, 1.0, 1_000.0]
        );
        assert_eq!(window_percentile(&samples[..10], 99.0), None);
    }
}
