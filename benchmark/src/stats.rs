//! Order statistics and rates over the samples of one run.

/// Median of `values`; the mean of the two middle values for an even count.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The highest percentile that still has [`TAIL_SAMPLES_BEYOND`] samples
/// strictly beyond it, as `(percentile, value)`. `None` when the run is too
/// short for any tail to be trusted (fewer than twice that many samples, so
/// the "tail" would sit below the median).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 * TAIL_SAMPLES_BEYOND {
        return None;
    }
    let sorted = sorted(values);
    let index = n - TAIL_SAMPLES_BEYOND - 1;
    Some((100.0 * (index + 1) as f64 / n as f64, sorted[index]))
}

/// Throughput in requests per second: the completed requests are split into
/// three consecutive groups of (nearly) equal count and each group's rate is
/// its count over the time it took; the median of the three is reported, so
/// one stalled stretch cannot move the number.
///
/// `completions` are the times, in seconds since the window opened, at which
/// each request completed (ascending). Groups are cut by count, not by
/// clock, because a window holding only a handful of second-long requests
/// would otherwise quantize the rate to `k / (window/3)`.
pub fn segment_throughput(completions: &[f64]) -> f64 {
    let n = completions.len();
    assert!(n > 0, "throughput of no requests");
    if n < 3 {
        return n as f64 / completions[n - 1];
    }
    let mut rates = [0.0; 3];
    let mut start_index = 0;
    let mut start_time = 0.0;
    for (segment, rate) in rates.iter_mut().enumerate() {
        let end_index = n * (segment + 1) / 3;
        let end_time = completions[end_index - 1];
        *rate = (end_index - start_index) as f64 / (end_time - start_time);
        start_index = end_index;
        start_time = end_time;
    }
    median(&rates)
}

/// Geometric mean of positive values.
pub fn geometric_mean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// FNV-1a starting state.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running 64-bit FNV-1a hash.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // Too few samples: no tail at all.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few), None);

        // 100 samples 1..=100: the value 90 has exactly ten samples above it.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (percentile, value) = tail(&hundred).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(percentile, 90.0);
        assert_eq!(hundred.iter().filter(|&&v| v > value).count(), 10);

        // 1000 samples: p99 qualifies, p99.5 would not.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (percentile, value) = tail(&thousand).unwrap();
        assert_eq!((percentile, value), (99.0, 990.0));

        // The smallest run with a tail reports its median-adjacent sample.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
    }

    #[test]
    fn throughput_is_the_median_of_three_segment_rates() {
        // Nine requests: three at 1/s, three at 2/s, three at 10/s.
        let completions = [1.0, 2.0, 3.0, 3.5, 4.0, 4.5, 4.6, 4.7, 4.8];
        let rate = segment_throughput(&completions);
        assert!((rate - 2.0).abs() < 1e-12, "{rate}");

        // A stall in one segment does not move the median.
        let stalled = [1.0, 2.0, 3.0, 4.0, 5.0, 60.0, 61.0, 62.0, 63.0];
        assert!((segment_throughput(&stalled) - 1.0).abs() < 1e-12);

        // Seven requests split 2/2/3 by count; rates stay continuous.
        let seven = [0.8, 1.6, 2.4, 3.2, 4.0, 4.8, 5.6];
        assert!((segment_throughput(&seven) - 1.25).abs() < 1e-12);

        // Fewer than three requests: the plain rate.
        assert!((segment_throughput(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
