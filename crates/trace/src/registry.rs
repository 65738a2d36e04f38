//! A small metrics registry: named counters, gauges, and histograms.
//!
//! Reports across the workspace (`ServeReport`, `AdaptiveReport`)
//! expose their numbers through one of these so downstream tooling can
//! consume a single shape instead of one bespoke struct per subsystem.
//! Names are ordered (`BTreeMap`), so iteration and
//! [`render`](MetricsRegistry::render) are deterministic.

use std::collections::BTreeMap;

use crate::quantiles::{summarize, Summary};

/// Named counters (monotone u64), gauges (point-in-time f64), and
/// histograms (raw f64 samples, summarized on demand).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Vec<f64>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `name` (creating it at 0).
    pub fn add(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_default() += by;
    }

    /// Sets gauge `name`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Appends one sample to histogram `name`.
    pub fn observe(&mut self, name: &str, sample: f64) {
        self.histograms.entry(name.to_string()).or_default().push(sample);
    }

    /// Counter value; 0 when never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Raw samples of histogram `name` (empty when never observed).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.histograms.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Nearest-rank summary of histogram `name`; `None` when empty.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        summarize(self.samples(name))
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Metric count across all three kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// A deterministic plain-text dump, one metric per line, sorted by
    /// kind then name.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge {name} = {v}\n"));
        }
        for (name, samples) in &self.histograms {
            match summarize(samples) {
                Some(s) => out.push_str(&format!(
                    "histogram {name}: n={} p50={} p90={} p99={} mean={} max={}\n",
                    s.count, s.p50, s.p90, s.p99, s.mean, s.max
                )),
                None => out.push_str(&format!("histogram {name}: n=0\n")),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_round_trip() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.add("jobs.admitted", 1);
        r.add("jobs.admitted", 2);
        r.set_gauge("queue.depth", 4.0);
        for sample in [10.0, 20.0, 30.0] {
            r.observe("latency", sample);
        }
        assert_eq!(r.counter("jobs.admitted"), 3);
        assert_eq!(r.counter("never"), 0);
        assert_eq!(r.gauge("queue.depth"), Some(4.0));
        assert_eq!(r.gauge("never"), None);
        assert_eq!(r.samples("latency"), &[10.0, 20.0, 30.0]);
        let s = r.summary("latency").expect("non-empty");
        assert_eq!((s.count, s.p50, s.max), (3, 20.0, 30.0));
        assert_eq!(r.summary("never"), None);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn render_is_sorted_and_deterministic() {
        let mut r = MetricsRegistry::new();
        r.add("b.count", 1);
        r.add("a.count", 1);
        r.set_gauge("g", 1.5);
        r.observe("h", 2.0);
        let text = r.render();
        assert_eq!(text, r.render());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "counter a.count = 1");
        assert_eq!(lines[1], "counter b.count = 1");
        assert_eq!(lines[2], "gauge g = 1.5");
        assert_eq!(lines[3], "histogram h: n=1 p50=2 p90=2 p99=2 mean=2 max=2");
    }
}
