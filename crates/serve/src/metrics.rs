//! SLO metrics: latency percentiles over a service run.
//!
//! The order statistics themselves live in [`mph_trace::quantiles`] —
//! the one nearest-rank implementation the whole workspace shares —
//! and this module keeps the serve-flavored shape ([`LatencyStats`]).

/// Order statistics of a latency sample, virtual-clock units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
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

/// Summarizes a latency sample; `None` when it is empty (a run where
/// everything was shed has no latency distribution, not a zero one).
pub fn latency_stats(latencies: &[f64]) -> Option<LatencyStats> {
    mph_trace::summarize(latencies).map(|s| LatencyStats {
        count: s.count,
        p50: s.p50,
        p90: s.p90,
        p99: s.p99,
        mean: s.mean,
        max: s.max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_summarize_and_order_their_percentiles() {
        let sample: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let stats = latency_stats(&sample).expect("non-empty");
        assert_eq!(stats.count, 100);
        assert_eq!(stats.p50, 50.0);
        assert_eq!(stats.p90, 90.0);
        assert_eq!(stats.p99, 99.0);
        assert_eq!(stats.max, 100.0);
        assert_eq!(stats.mean, 50.5);
        assert!(stats.p50 <= stats.p90 && stats.p90 <= stats.p99 && stats.p99 <= stats.max);
    }

    #[test]
    fn empty_samples_have_no_distribution() {
        assert_eq!(latency_stats(&[]), None);
    }

    #[test]
    fn delegation_agrees_with_the_shared_helper() {
        let sample = [3.0, 1.0, 2.0];
        let ours = latency_stats(&sample).expect("non-empty");
        let shared = mph_trace::summarize(&sample).expect("non-empty");
        assert_eq!(
            (ours.count, ours.p50, ours.p90, ours.p99, ours.mean, ours.max),
            (shared.count, shared.p50, shared.p90, shared.p99, shared.mean, shared.max)
        );
    }
}
