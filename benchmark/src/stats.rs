//! Exact order statistics over raw samples (no histogram buckets).

/// Samples that must lie beyond a tail percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Like [`percentile`], but only when at least [`TAIL_SUPPORT`] samples lie
/// beyond the reported one — a p99 over 300 samples is three samples'
/// worth of noise, not a tail.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = rank(sorted.len(), p);
    (sorted.len() - rank >= TAIL_SUPPORT).then(|| sorted[rank - 1])
}

fn rank(n: usize, p: f64) -> usize {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = (p * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// Sorts in place and returns the slice (samples are finite by
/// construction: they come from `Instant` differences).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    samples
}

/// Median (mean of the two middle samples for an even count); 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_example() {
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 0.05), 15.0);
        assert_eq!(percentile(&s, 0.30), 20.0);
        assert_eq!(percentile(&s, 0.40), 20.0);
        assert_eq!(percentile(&s, 0.50), 35.0);
        assert_eq!(percentile(&s, 1.00), 50.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 is the 990th sample; exactly ten lie beyond it.
        assert_eq!(tail_percentile(&s, 0.99), Some(990.0));
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        // rank 990 of 999 leaves nine beyond: not a tail yet.
        assert_eq!(tail_percentile(&s, 0.99), None);
        assert_eq!(tail_percentile(&s, 0.95), Some(950.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
