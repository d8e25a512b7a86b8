//! Exact order statistics over the benchmark's own per-request samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `q` is clamped to `[0, 1]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The tail percentile reported for `n` samples: 0.99, or the highest
/// percentile that still leaves at least ten samples above it.
pub fn tail_quantile(n: usize) -> f64 {
    if n <= 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

/// Median and tail of one latency population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile chosen by [`tail_quantile`].
    pub tail: f64,
    /// Which percentile `tail` is (0.99 when there are enough samples).
    pub tail_q: f64,
}

/// Sorts `samples` in place and summarises them.
///
/// # Panics
///
/// Panics on an empty or non-finite-containing population.
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    let tail_q = tail_quantile(samples.len());
    Summary {
        n: samples.len(),
        p50: percentile(samples, 0.5),
        tail: percentile(samples, tail_q),
        tail_q,
    }
}

/// Median of a small set of repeated measurements (mean of the middle two
/// for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q` quantile of `values`, interpolated linearly between order
/// statistics (the default of numpy and R).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Aggregate of one cost (a latency) measured once per block of a run:
/// the lower quartile. A regression in the code moves every block; a
/// stall of the shared host moves only the blocks it overlaps, and always
/// upward, so the quartile holds while a quarter of the blocks run clean.
pub fn cost_over_blocks(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// Aggregate of one rate (work per second) measured once per block: the
/// upper quartile, for the same reason as [`cost_over_blocks`].
pub fn rate_over_blocks(values: &[f64]) -> f64 {
    quantile(values, 0.75)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        for n in [21usize, 50, 100, 999, 1000, 5000] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let q = tail_quantile(n);
            let beyond = v.iter().filter(|&&x| x > percentile(&v, q)).count();
            assert!(beyond >= 10, "n={n}: only {beyond} beyond p{q}");
        }
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(100_000), 0.99);
        assert!((tail_quantile(100) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn summary_resolves_a_ten_percent_shift() {
        // Power-of-two buckets would report both populations as 511.
        let mut a: Vec<f64> = (0..1000).map(|i| 300.0 + i as f64 * 0.1).collect();
        let mut b: Vec<f64> = a.iter().map(|x| x * 1.1).collect();
        let (sa, sb) = (summarize(&mut a), summarize(&mut b));
        assert!((sb.p50 / sa.p50 - 1.1).abs() < 1e-9);
        assert!((sb.tail / sa.tail - 1.1).abs() < 1e-9);
        assert_eq!(sa.n, 1000);
        assert_eq!(sa.tail_q, 0.99);
    }

    #[test]
    fn quantiles_interpolate_and_block_aggregates_ignore_stalls() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 1.75);
        // Three of eight blocks stalled at 1.5x: neither aggregate moves.
        let clean = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0];
        let mut stalled = clean;
        for x in &mut stalled[5..] {
            *x *= 1.5;
        }
        assert_eq!(cost_over_blocks(&stalled), cost_over_blocks(&clean));
        let rates: Vec<f64> = stalled.iter().map(|x| 1e6 / x).collect();
        let clean_rates: Vec<f64> = clean.iter().map(|x| 1e6 / x).collect();
        assert!(rate_over_blocks(&rates) >= rate_over_blocks(&clean_rates) * 0.99);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
