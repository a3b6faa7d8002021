//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the two middle samples averaged for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Ascending copy (timings are never NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(|a, b| a.partial_cmp(b).expect("timings are not NaN"));
    out
}

/// Cut `samples` (in the order they were taken) into consecutive windows
/// of `window` samples and summarise each with `summary`. A stretch of
/// the run that something else on the machine disturbed lands in a few
/// windows, and the median window does not move. The last, partial
/// window is dropped unless it is the only one.
pub fn window_summaries(
    samples: &[f64],
    window: usize,
    summary: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    assert!(window > 0 && !samples.is_empty(), "nothing to summarise");
    if samples.len() < window {
        return vec![summary(samples)];
    }
    samples.chunks_exact(window).map(summary).collect()
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it, or `None` when even the 75th does not. A tail
/// read off fewer samples does not repeat from run to run.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    // (percentile, share of samples beyond it in parts per thousand)
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)]
        .into_iter()
        .find(|&(_, beyond)| samples * beyond >= 10 * 1000)
        .map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 50.0), 5.0);
        assert_eq!(percentile(&ten, 95.0), 10.0);
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(percentile(&ten, 0.0), 1.0);
        assert_eq!(percentile(&ten, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), 95.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        // One slow repetition out of three does not move the median.
        assert_eq!(median(&[1.0, 1.1, 9.0]), 1.1);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn the_median_window_ignores_a_disturbed_stretch() {
        // Ten windows of four samples; the third and fourth are disturbed.
        let mut samples = Vec::new();
        for window in 0..10 {
            let slow = if window == 2 || window == 3 {
                10.0
            } else {
                1.0
            };
            samples.extend([1.0 * slow, 2.0 * slow, 3.0 * slow, 4.0 * slow]);
        }
        samples.extend([99.0, 99.0]); // a partial window, dropped
        let p50s = window_summaries(&samples, 4, |w| percentile(&sorted(w), 50.0));
        assert_eq!(p50s.len(), 10);
        assert_eq!(p50s[2], 20.0);
        assert_eq!(median(&p50s), 2.0);
        let means = window_summaries(&samples, 4, mean);
        assert_eq!(median(&means), 2.5);
        // Fewer samples than one window: one summary over all of them.
        assert_eq!(window_summaries(&[3.0, 1.0], 4, mean), vec![2.0]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
