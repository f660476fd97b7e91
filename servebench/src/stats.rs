//! Order statistics over latency samples.

/// Samples needed beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile reported as a tail.
pub const TAIL_CAP: f64 = 0.99;

/// Value at quantile `q` of `sorted` (ascending): the sample at rank
/// `ceil(q·n)`, 1-based. `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median of `sorted`.
pub fn median(sorted: &[f64]) -> Option<f64> {
    quantile(sorted, 0.5)
}

/// The highest quantile that leaves at least [`TAIL_BEYOND`] samples
/// above it, capped at [`TAIL_CAP`] (p99 once there are 1000 samples).
/// With too few samples for any tail the maximum is the tail.
pub fn tail_quantile(n: usize) -> f64 {
    if n <= TAIL_BEYOND {
        return 1.0;
    }
    ((n - TAIL_BEYOND) as f64 / n as f64).min(TAIL_CAP)
}

/// `(quantile, value)` of the tail of `sorted` by [`tail_quantile`].
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let q = tail_quantile(sorted.len());
    quantile(sorted, q).map(|v| (q, v))
}

/// The tail of a long run as the median of the [`tail`]s of consecutive
/// blocks of `block` samples (in arrival order), so a burst of host noise
/// inside one block cannot move it; a run shorter than two blocks takes
/// the plain [`tail`].
pub fn block_tail(samples: &[f64], block: usize) -> Option<(f64, f64)> {
    if samples.len() < 2 * block {
        return tail(&sorted(samples.to_vec()));
    }
    let tails: Vec<(f64, f64)> = samples
        .chunks_exact(block)
        .filter_map(|c| tail(&sorted(c.to_vec())))
        .collect();
    let q = tails[0].0;
    median(&sorted(tails.into_iter().map(|(_, v)| v).collect())).map(|v| (q, v))
}

/// Sort samples ascending (latencies are finite).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(5000), 0.99);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(5), 1.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90: ten samples (91..=100) lie beyond it.
        assert_eq!(tail(&xs), Some((0.9, 90.0)));
        assert_eq!(median(&xs), Some(50.0));
        assert_eq!(quantile(&[], 0.5), None);
        // Three blocks of 1..=100: each tail is 90, whatever the order.
        let blocks: Vec<f64> = (0..300).map(|i| f64::from(i % 100 + 1)).collect();
        assert_eq!(block_tail(&blocks, 100), Some((0.9, 90.0)));
        assert_eq!(block_tail(&xs, 100), tail(&xs));
    }
}
