//! Order statistics over recorded samples.

/// Median of `xs` (mean of the two middle values for even lengths);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The `q`-quantile by the nearest-rank rule the serving engine's
/// histogram uses: the `max(1, ceil(q·n))`-th smallest value.
pub fn rank_quantile<T: Copy + Ord>(xs: &[T], q: f64) -> Option<T> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).max(1);
    Some(v[rank - 1])
}

/// Bounds `[lo, hi)` of the serving engine's latency-histogram bucket
/// holding `v` µs: 8 log-spaced sub-buckets per power of two, exact
/// below 8. Mirrors `adapex::serve::LatencyHistogram`, whose bucket
/// function is private; the engine reports a quantile as its bucket's
/// lower bound.
pub fn hist_bucket(v: u64) -> (u64, u64) {
    if v < 8 {
        return (v, v + 1);
    }
    let b = 63 - u64::from(v.leading_zeros());
    let width = 1u64 << (b - 3);
    let lo = v - (v - (1u64 << b)) % width;
    (lo, lo + width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapex::serve::LatencyHistogram;

    #[test]
    fn bucket_bounds_match_the_engine_histogram() {
        for v in (0..5000u64).chain([65_535, 65_536, 1 << 40]) {
            let mut h = LatencyHistogram::default();
            h.record(v);
            let (lo, hi) = hist_bucket(v);
            assert_eq!(h.quantile(0.5), Some(lo), "value {v}");
            assert!(lo <= v && v < hi, "value {v} outside [{lo}, {hi})");
            let mut next = LatencyHistogram::default();
            next.record(hi);
            assert_eq!(next.quantile(0.5), Some(hi), "next bucket starts at {hi}");
        }
    }

    #[test]
    fn rank_quantile_matches_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(rank_quantile(&xs, 0.5), Some(50));
        assert_eq!(rank_quantile(&xs, 0.99), Some(99));
        assert_eq!(rank_quantile(&xs, 0.0), Some(1));
        assert_eq!(rank_quantile::<u64>(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
