//! Order statistics over timing samples.

/// Nearest-rank percentile of an ascending-sorted sample:
/// `sorted[ceil(p/100 · n) − 1]`, so `p = 50` of `[1, 2, 3, 4]` is `2` and
/// `p = 100` is the maximum. An empty sample reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Distance between the first and third quartile as a share of the median —
/// the noise reading printed beside every wall number. 0 for fewer than two
/// samples or a zero median.
pub fn iqr_ratio(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let s = sorted(values);
    let mid = percentile(&s, 50.0);
    if mid == 0.0 {
        return 0.0;
    }
    (percentile(&s, 75.0) - percentile(&s, 25.0)) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_cases() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 75.0), 3.0);
        assert_eq!(percentile(&s, 90.0), 4.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 0.0), 1.0, "rank clamps to the first sample");
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), 90.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
    }

    #[test]
    fn a_singleton_is_its_own_every_percentile_and_empty_reads_zero() {
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_and_iqr_ignore_input_order() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        // quartiles of 1..=8 by nearest rank: q1 = 2, q2 = 4, q3 = 6.
        let v = [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0];
        assert_eq!(iqr_ratio(&v), (6.0 - 2.0) / 4.0);
        assert_eq!(iqr_ratio(&[5.0]), 0.0);
        assert_eq!(iqr_ratio(&[0.0, 0.0, 0.0]), 0.0);
    }
}
