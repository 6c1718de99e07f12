//! Order statistics over timing samples.

/// Nearest-rank percentile: the smallest sample with at least `q`% of
/// the samples at or below it (`q` in `0..=100`). `+inf` is a valid
/// sample — a rejected request counts as missing every latency limit.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (q / 100.0 * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Whether `n` samples leave at least ten beyond the `q`th percentile,
/// the least that makes a tail percentile worth reporting.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q / 100.0) >= 10.0 - 1e-9
}

/// Conventional median: the middle sample, or the mean of the two
/// middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // 10 samples: p99 is the largest, p90 the ninth.
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), 10.0);
        assert_eq!(percentile(&w, 90.0), 9.0);
    }

    #[test]
    fn rejected_requests_sit_in_the_tail() {
        let mut v = vec![1.0; 98];
        v.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(percentile(&v, 98.0), 1.0);
        assert_eq!(percentile(&v, 99.0), f64::INFINITY);
    }

    #[test]
    fn tail_support_needs_ten_beyond() {
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(999, 99.0));
        assert!(tail_supported(20, 50.0));
        assert!(!tail_supported(19, 50.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
