//! Order statistics for timing samples.

/// Sorted copy of `values` (NaN-free by construction: every sample is
/// a measured duration or a count).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of already sorted data.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Mean of `values`; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of `values`; `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Quantile `q` in `[0, 1]` of `values`; `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)` — the rule the
/// benchmark contract uses for run-to-run spread, so `compare` and the
/// driver agree on what a quartile is. Needs at least two values;
/// fewer yield the single value (or zero) three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let at = |k: usize| {
        // The weight is taken after the index is clamped, as Python
        // does, so the ends of a short sample extrapolate.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

/// The highest reportable tail percentile of a sample: the largest of
/// p99.9 / p99 / p95 / p90 / p75 that still has at least `beyond`
/// samples above it, so the reported tail is never a single outlier.
/// `None` when even p75 is too thin.
pub fn highest_percentile(samples: usize, beyond: usize) -> Option<f64> {
    // Per mille and integer division: 100 samples leave exactly 10
    // beyond p90, which `100.0 * (1.0 - 0.9)` rounds away.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|per_mille| samples * (1000 - per_mille) / 1000 >= beyond)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// `(percentile, value)` of the highest tail percentile of `values`
/// that has at least ten samples beyond it.
pub fn highest_tail(values: &[f64]) -> Option<(f64, f64)> {
    highest_percentile(values.len(), 10).map(|p| (p, quantile(values, p / 100.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[1.0, 5.0]), [0.0, 3.0, 6.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        // 300 samples: p99 leaves 3 beyond, p95 leaves 15.
        assert_eq!(highest_percentile(300, 10), Some(95.0));
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(highest_percentile(100, 10), Some(90.0));
        assert_eq!(highest_percentile(99, 10), Some(75.0));
        assert_eq!(highest_percentile(10_000, 10), Some(99.9));
        assert_eq!(highest_percentile(39, 10), None);
    }
}
