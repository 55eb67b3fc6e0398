//! Small order statistics shared by the serving and scheduling
//! reports.
//!
//! Hoisted out of `serve.rs` so [`crate::serve::ServeReport`] and the
//! scheduler crate's `SchedReport` compute their latency quantiles from
//! the *same* definition — nearest-rank, the one the paper's latency
//! tables use — instead of two drifting copies.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending-sorted
/// nonempty slice; the zero value (`T::default()`) for an empty one.
///
/// Nearest-rank returns an actual observation (rank `ceil(q * n)`,
/// clamped to `[1, n]`), so the result is always bounded by the
/// slice's min and max and is monotone in `q` — both properties are
/// pinned down by proptests.
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.50), 2.0);
        assert_eq!(percentile(&v, 0.95), 4.0);
        assert_eq!(percentile(&v, 0.25), 1.0);
        assert_eq!(percentile::<f64>(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn extreme_quantiles_hit_the_ends() {
        let v = [-3.0, 0.5, 8.0, 8.0, 12.0];
        assert_eq!(percentile(&v, 0.0), -3.0);
        assert_eq!(percentile(&v, 1.0), 12.0);
    }
}
