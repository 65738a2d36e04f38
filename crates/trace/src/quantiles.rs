//! Nearest-rank quantiles shared by every report in the workspace: the
//! one p50/p90/p99 definition, whose [`Summary`] `mph-serve` reports its
//! latency and queue-wait distributions in.

/// Order statistics of a sample, in whatever unit the sample carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Worst case.
    pub max: f64,
}

/// Nearest-rank percentile of an ascending-sorted sample:
/// `sorted[ceil(p/100 · n) - 1]`, the standard inclusive definition.
/// `percentile(s, 100)` is the max; ranks below the first sample clamp
/// to it, so `percentile(s, 0)` is the min. Ties need no special case:
/// equal values occupy adjacent ranks and the selected rank lands on
/// one of them — the percentile of `[2, 2, 3]` at any `p ≤ 66.7` is `2`.
///
/// Panics on an empty sample (an empty distribution has no order
/// statistics, not zero ones) and on `p` outside `[0, 100]`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile rank out of range: {p}");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// Summarizes a sample (any order); `None` when it is empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        count: sorted.len(),
        p50: percentile(&sorted, 50.0),
        p90: percentile(&sorted, 90.0),
        p99: percentile(&sorted, 99.0),
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        max: *sorted.last().expect("non-empty"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_have_no_summary() {
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn a_singleton_is_its_own_every_percentile() {
        let s = summarize(&[7.0]).expect("non-empty");
        assert_eq!(s, Summary { count: 1, p50: 7.0, p90: 7.0, p99: 7.0, mean: 7.0, max: 7.0 });
        assert_eq!(percentile(&[7.0], 0.0), 7.0, "rank clamps to the first sample");
    }

    #[test]
    fn a_pair_splits_at_the_median() {
        // n=2: rank(50) = ceil(1.0) = 1 → lower value; rank(90) = ceil(1.8)
        // = 2 → upper value.
        let s = summarize(&[4.0, 2.0]).expect("non-empty");
        assert_eq!(s.count, 2);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p90, 4.0);
        assert_eq!(s.p99, 4.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn ties_resolve_to_the_tied_value() {
        let sorted = [2.0, 2.0, 3.0];
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 66.0), 2.0);
        assert_eq!(percentile(&sorted, 67.0), 3.0);
    }

    #[test]
    fn nearest_rank_matches_the_textbook_cases() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 75.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        let hundred: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = summarize(&hundred).expect("non-empty");
        assert_eq!(
            (s.count, s.p50, s.p90, s.p99, s.max, s.mean),
            (100, 50.0, 90.0, 99.0, 100.0, 50.5)
        );
    }
}
