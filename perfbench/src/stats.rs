//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is a nearest-rank order
//! statistic of the samples themselves — never a histogram bucket bound —
//! so it always lies within `[min, max]` and scales exactly with the data.
//! The tail percentile is "p99" when the run has enough samples, and
//! otherwise the highest whole percentile that still leaves at least ten
//! samples beyond it; the percentile actually used travels with the value.

/// Samples beyond the tail percentile a run must keep, at least.
pub const TAIL_MARGIN: usize = 10;

/// Nearest-rank percentile `p` (whole percent, 1..=100) of `sorted`
/// (ascending): the smallest sample with at least `p`% of the samples at
/// or below it. `None` for no samples.
#[must_use]
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let p = p.clamp(1, 100) as usize;
    let rank = (p * n).div_ceil(100).max(1);
    Some(sorted[rank - 1])
}

/// The highest whole percentile, at most 99, that leaves at least
/// [`TAIL_MARGIN`] samples strictly beyond its rank; 50 when even the
/// median cannot (fewer than 20 samples).
#[must_use]
pub fn tail_percentile(n: usize) -> u32 {
    let mut p = 99u32;
    while p > 50 {
        let rank = (p as usize * n).div_ceil(100);
        if n >= rank + TAIL_MARGIN {
            return p;
        }
        p -= 1;
    }
    50
}

/// Median, tail and count of one latency or rate series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    /// The percentile [`Summary::tail`] sits at (99 with enough samples).
    pub tail_p: u32,
    pub tail: f64,
}

/// Summarize raw samples. Non-finite samples (a failed request counts
/// as an infinite latency) sort last, so they push the tail up exactly
/// as a miss should. `None` for no samples.
#[must_use]
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_p = tail_percentile(n);
    Some(Summary {
        n,
        min: sorted[0],
        max: sorted[n - 1],
        p50: percentile(&sorted, 50)?,
        tail_p,
        tail: percentile(&sorted, tail_p)?,
    })
}

/// Median of a small series (rates, set-up times): the nearest-rank p50.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    summarize(samples).map(|s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        // A skewed, unsorted series with a long tail.
        (0..n)
            .map(|i| 1.0 + ((i * 7919) % n) as f64 * 0.01 + ((i % 97) as f64).powi(2) * 0.001)
            .collect()
    }

    #[test]
    fn every_percentile_lies_within_min_and_max() {
        for n in [1, 2, 19, 20, 150, 1_000, 4_321] {
            let s = summarize(&series(n)).expect("non-empty");
            assert!(
                s.min <= s.p50 && s.p50 <= s.max,
                "p50 outside [min, max] at n={n}"
            );
            assert!(
                s.min <= s.tail && s.tail <= s.max,
                "tail outside [min, max] at n={n}"
            );
            assert!(s.p50 <= s.tail);
        }
    }

    #[test]
    fn a_five_percent_shift_moves_the_median_by_five_percent() {
        let base = series(1_234);
        let shifted: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
        let (a, b) = (
            summarize(&base).expect("a"),
            summarize(&shifted).expect("b"),
        );
        let ratio = b.p50 / a.p50;
        assert!((ratio - 1.05).abs() < 1e-9, "median moved by {ratio}");
        let tail_ratio = b.tail / a.tail;
        assert!(
            (tail_ratio - 1.05).abs() < 1e-9,
            "tail moved by {tail_ratio}"
        );
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(1_000), 99);
        assert_eq!(tail_percentile(999), 98);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(10), 50);
        for n in 20..3_000 {
            let p = tail_percentile(n) as usize;
            let rank = (p * n).div_ceil(100);
            assert!(n - rank >= TAIL_MARGIN, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_is_an_order_statistic() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50), Some(2.0));
        assert_eq!(percentile(&sorted, 51), Some(3.0));
        assert_eq!(percentile(&sorted, 100), Some(4.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn failures_count_as_misses() {
        let mut samples = vec![1.0; 990];
        samples.extend(std::iter::repeat_n(f64::INFINITY, 10));
        let s = summarize(&samples).expect("non-empty");
        assert_eq!(s.tail_p, 99);
        assert_eq!(s.tail, 1.0);
        samples.push(f64::INFINITY);
        let s = summarize(&samples).expect("non-empty");
        assert!(s.tail.is_infinite(), "an 11th miss lands in the p99");
    }
}
