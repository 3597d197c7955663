//! Estimators over raw samples: exact quantiles, the slice-median tail
//! estimator, and the quartile spread the acceptance rule is stated in.
//!
//! The program's own `AtomicHistogram` buckets are 4–6 % wide, which is too
//! coarse to resolve a 10 % regression bound, so the benchmark keeps every
//! latency as a raw `u64` and sorts.

/// Exact nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns its `q` quantile, `None` when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    Some(quantile_sorted(samples, q))
}

/// Median of a handful of floats (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail estimator behind `rt_p99_ms`: cut the window into `n_slices`
/// equal slices by start time, take each slice's exact `q` quantile, and
/// report the median of those. One machine stall lands in one slice and
/// moves that slice's tail only, where a whole-window p99 would absorb it.
///
/// `samples` are `(start_ns relative to the window, latency_ns)`; empty
/// slices are skipped. `None` when no slice holds a sample.
pub fn slice_median_quantile(
    samples: &[(u64, u64)],
    window_ns: u64,
    n_slices: usize,
    q: f64,
) -> Option<f64> {
    assert!(n_slices > 0 && window_ns > 0);
    let mut slices: Vec<Vec<u64>> = vec![Vec::new(); n_slices];
    for &(start, lat) in samples {
        let i = (start as u128 * n_slices as u128 / window_ns as u128) as usize;
        slices[i.min(n_slices - 1)].push(lat);
    }
    let tails: Vec<f64> = slices
        .iter_mut()
        .filter_map(|s| quantile(s, q))
        .map(|v| v as f64)
        .collect();
    (!tails.is_empty()).then(|| median(&tails))
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is how
/// the acceptance spread is defined. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median; 0 for fewer
/// than two values (one run has no spread to show).
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        ((q3 - q1) / med).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantiles_on_known_vectors() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50));
        assert_eq!(quantile(&mut v, 0.9), Some(90));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut v, 1.0), Some(100));
        assert_eq!(quantile(&mut v, 0.0), Some(1));
        assert_eq!(quantile(&mut [7], 0.99), Some(7));
        assert_eq!(quantile(&mut [], 0.5), None);
        // Nearest rank, not interpolation: the p50 of {1, 2, 3, 4} is 2.
        assert_eq!(quantile(&mut [4, 1, 3, 2], 0.5), Some(2));
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        // Ten slices of 100 samples at latency 10, except slice 3, where a
        // stall pushed every latency to 1000.
        let mut samples = Vec::new();
        for slice in 0..10u64 {
            for k in 0..100u64 {
                let lat = if slice == 3 { 1000 } else { 10 };
                samples.push((slice * 100 + k, lat));
            }
        }
        let est = slice_median_quantile(&samples, 1000, 10, 0.99).unwrap();
        assert_eq!(est, 10.0);
        // The whole-window p99 would have reported the stall.
        let mut all: Vec<u64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(quantile(&mut all, 0.99), Some(1000));
        assert_eq!(slice_median_quantile(&[], 1000, 10, 0.99), None);
    }

    #[test]
    fn slice_median_puts_the_window_edge_in_the_last_slice() {
        let est = slice_median_quantile(&[(1000, 5), (0, 1)], 1000, 2, 0.5).unwrap();
        assert_eq!(est, 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
