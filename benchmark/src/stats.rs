//! Sample statistics: nearest-rank percentiles, the tail a sample
//! supports, and the first-half/second-half drift the noise guard uses.
//!
//! Host times are kept as integer nanoseconds so the repository's exact
//! nearest-rank rule ([`gamma_sched::exact_percentile`]) applies to them
//! unchanged.

use gamma_sched::exact_percentile;

/// Nearest-rank percentile `num/den` of `samples` (any order); 0 for an
/// empty sample.
pub fn percentile(samples: &[u64], num: u64, den: u64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    exact_percentile(&sorted, num, den).unwrap_or(0)
}

/// Nearest-rank median.
pub fn median(samples: &[u64]) -> u64 {
    percentile(samples, 1, 2)
}

/// Median of floating-point samples (nearest rank; 0 when empty).
pub fn median_f64(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => sorted[n.div_ceil(2) - 1],
    }
}

/// Percentiles a timing may be reported at, highest first.
const LADDER: [(u64, u64); 6] = [(999, 1000), (99, 100), (95, 100), (9, 10), (3, 4), (1, 2)];

/// Samples a percentile needs beyond its rank before it means anything.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile of the ladder with at least [`TAIL_SAMPLES`]
/// samples beyond its nearest rank in a sample of `n`, or `None` when
/// even the median has fewer.
pub fn supported_tail(n: usize) -> Option<(u64, u64)> {
    LADDER.into_iter().find(|&(num, den)| {
        let rank = (n as u128 * u128::from(num)).div_ceil(u128::from(den)) as usize;
        n >= rank + TAIL_SAMPLES
    })
}

/// `|median(first half) − median(second half)| ÷ median(all)` of samples
/// in the order they were taken: how far the host moved under the run.
/// 0 for fewer than two samples.
pub fn drift(samples: &[u64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let (a, b) = samples.split_at(samples.len() / 2);
    let all = median(samples);
    if all == 0 {
        return 0.0;
    }
    median(a).abs_diff(median(b)) as f64 / all as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(median(&s), 5, "rank ceil(10/2) = 5");
        assert_eq!(percentile(&s, 9, 10), 9);
        assert_eq!(percentile(&s, 99, 100), 10, "rank ceil(9.9) = 10");
        assert_eq!(percentile(&s, 1, 10), 1);
        assert_eq!(median(&[7]), 7);
        assert_eq!(median(&[3, 1, 2]), 2);
        assert_eq!(median(&[]), 0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None, "median rank 10 leaves 9");
        assert_eq!(supported_tail(20), Some((1, 2)));
        assert_eq!(supported_tail(39), Some((1, 2)), "p75 rank 30 leaves 9");
        assert_eq!(supported_tail(40), Some((3, 4)));
        assert_eq!(supported_tail(100), Some((9, 10)));
        assert_eq!(supported_tail(200), Some((95, 100)));
        assert_eq!(supported_tail(1000), Some((99, 100)));
        // 2000 queries leave 20 beyond p99 but only 2 beyond p99.9.
        assert_eq!(supported_tail(2000), Some((99, 100)));
        assert_eq!(supported_tail(10_000), Some((999, 1000)));
    }

    #[test]
    fn drift_compares_the_two_halves() {
        assert_eq!(drift(&[100, 100, 100, 100]), 0.0);
        assert_eq!(drift(&[5]), 0.0);
        // Halves 100 / 120, overall nearest-rank median 100.
        let d = drift(&[100, 100, 100, 120, 120, 120]);
        assert!((d - 0.2).abs() < 1e-12, "{d}");
    }
}
