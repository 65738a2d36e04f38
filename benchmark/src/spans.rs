//! The benchmark's own in-memory span recorder.
//!
//! A span is opened around every call into a layer (`eigen.solve`,
//! `core.lower`, ...). Spans nest by call order on the one benchmark
//! thread; they are kept in memory and written out when the run ends. The
//! recorder is off in the timed rounds, where [`Recorder::span`] is a
//! plain call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in seconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`; the part before the first `.` is the layer.
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, the one that caused this one.
    pub parent: Option<usize>,
    /// The job the span belongs to; spans of one job share it.
    pub job: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans while enabled.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), job: 0 }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans opened from here on with `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover. Children of one span never overlap (one thread,
/// call order), so their durations add up.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.duration();
        }
    }
    own.iter().map(|t| t.max(0.0)).collect()
}

/// Self time summed per layer, in seconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(span.layer()).or_insert(0.0) += own;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, job: 0 }
    }

    #[test]
    fn self_time_subtracts_what_the_children_cover() {
        let spans = [
            span("job.run", 0.0, 10.0, None),
            span("eigen.solve", 1.0, 7.0, Some(0)),
            span("runtime.calibrate", 2.0, 4.0, Some(1)),
            span("check.result", 7.0, 9.5, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![1.5, 4.0, 2.0, 2.5]);
        let layers = layer_self_times(&spans);
        assert_eq!(layers["job"], 1.5);
        assert_eq!(layers["eigen"], 4.0);
        assert_eq!(layers["runtime"], 2.0);
        assert_eq!(layers["check"], 2.5);
        // Every instant of the root is attributed to exactly one span.
        assert_eq!(layers.values().sum::<f64>(), spans[0].duration());
    }

    #[test]
    fn the_recorder_nests_by_call_order_and_tags_jobs() {
        let mut rec = Recorder::new(true);
        rec.set_job(7);
        let answer = rec.span("job.run", |rec| {
            rec.span("core.lower", |_| ());
            rec.span("ccpipe.price", |rec| rec.span("simnet.replay", |_| 42))
        });
        assert_eq!(answer, 42);
        let s = rec.spans();
        let names: Vec<_> = s.iter().map(|s| s.name).collect();
        assert_eq!(names, ["job.run", "core.lower", "ccpipe.price", "simnet.replay"]);
        let parents: Vec<_> = s.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(s.iter().all(|s| s.job == 7 && s.end >= s.start));
        assert!(s[0].start <= s[1].start && s[3].end <= s[0].end);
        assert_eq!(s[3].layer(), "simnet");
    }

    #[test]
    fn a_disabled_recorder_runs_the_closure_and_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("eigen.solve", |_| 3), 3);
        assert!(rec.spans().is_empty());
    }
}
