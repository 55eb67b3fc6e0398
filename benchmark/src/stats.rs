//! Order statistics over small sample sets (timed pairs, replay reps).

/// Sorts a copy of `values` ascending; every statistic below takes the
/// sorted slice so one sort serves median and quartiles.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are finite"));
    v
}

/// Median of an ascending slice (mean of the two middle values for an
/// even count). Empty input has no median.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

/// First and third quartile of an ascending slice, computed like
/// Python's `statistics.quantiles(values, n=4)` (exclusive method), the
/// rule the benchmark's acceptance spread is defined with.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale; the index is clamped
        // to the data but the weight is not, so tiny samples
        // extrapolate exactly as Python does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median — the spread the
/// acceptance rule bounds. `None` when undefined.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let (q1, q3) = quartiles(&s)?;
    let m = median(&s)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Median of unsorted samples; 0.0 for an empty set (a layer that the
/// workload does not exercise reports zero work).
pub fn median_of(values: &[f64]) -> f64 {
    median(&sorted(values)).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&sorted(&[5.0, 1.0, 3.0])), Some(3.0));
        assert_eq!(median(&sorted(&[4.0, 1.0, 3.0, 2.0])), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&s).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn iqr_share_of_constant_is_zero() {
        assert_eq!(iqr_share(&[2.0; 10]), Some(0.0));
        assert_eq!(iqr_share(&[0.0; 10]), None);
    }
}
