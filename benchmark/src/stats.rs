//! Order statistics over the samples of one run.

/// The `q`-quantile (0..=1) by linear interpolation between the two nearest
/// ranks; `values` need not be sorted. `None` without samples.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) — the
/// spread the acceptance check computes over ten runs.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: f64| {
        // Rank k·(n+1)/4 on a 1-based scale, clamped to the sample.
        let rank = (k * (n + 1) as f64 / 4.0 - 1.0).clamp(0.0, (n - 1) as f64);
        let lo = rank.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    };
    let mid = median(&sorted)?;
    (mid != 0.0).then(|| (at(3.0) - at(1.0)) / mid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
