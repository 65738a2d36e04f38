//! Deterministic virtual-clock tracing: typed events recorded per node.
//!
//! Every layer of the stack already *computes* on the fabric's
//! deterministic virtual clock — link transmissions, barrier epochs,
//! sweep boundaries, admission decisions. This module records those
//! moments as typed [`TraceEvent`]s behind a [`TraceSink`] so they can be
//! exported (Chrome trace JSON, utilization matrices — see the
//! `mph-trace` crate) without changing a single bit of the run:
//!
//! * events are stamped on the **virtual clock**, never the wall clock,
//!   so a traced degraded run is a forensic artifact: replaying the same
//!   seed replays the identical event stream, byte for byte;
//! * recording is strictly **observational** — sinks receive copies of
//!   values the runtime computed anyway, so traced runs are
//!   bitwise-identical to untraced runs (proptested at the workspace
//!   root);
//! * each node records into its **own lane** ([`RingSink`]), in program
//!   order. Cross-node interleaving is reconstructed from the virtual
//!   stamps at export time, not from racy append order — that is what
//!   keeps the recorded stream scheduling-independent.
//!
//! The default sink is [`NopSink`]: disabled, zero-allocation, and
//! skipped behind a cached boolean ([`SinkHandle::is_enabled`]) so the
//! untraced hot path never constructs an event.

use std::sync::{Arc, Mutex};

/// One recorded moment, stamped on the virtual clock. The recording
/// node is implicit (it is the sink lane the event lands in).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// One charged transmission on a throttled/degraded fabric: the link
    /// across `dim` was acquired at `start` and released at `end`
    /// (`end - start` = `S·Tw_eff` wire time). `issued` is when the node
    /// CPU finished the serial `Ts` start-up, `ready` the data-readiness
    /// stamp of a forwarded packet (0 for fresh sends);
    /// `start - max(issued, ready)` is therefore the port/link queueing
    /// wait — the pipeline window stall the port model imposed.
    Send {
        dim: usize,
        elems: u64,
        job: u32,
        /// Packet header when the payload is a framed packet.
        kq: Option<(u32, u32)>,
        control: bool,
        /// Barrier epoch the send was priced at.
        epoch: usize,
        issued: f64,
        ready: f64,
        start: f64,
        end: f64,
    },
    /// A message consumed from the link across `dim`, carrying its
    /// virtual arrival stamp.
    Recv { dim: usize, elems: u64, job: u32, kq: Option<(u32, u32)>, control: bool, stamp: f64 },
    /// A barrier passed: the node entered `epoch` at the synchronized
    /// virtual time.
    Barrier { epoch: usize, time: f64 },
    /// A driver began sweep `sweep` at `time`.
    SweepBegin { sweep: usize, time: f64 },
    /// A driver finished sweep `sweep` at `time`.
    SweepEnd { sweep: usize, time: f64 },
    /// An adaptive driver adopted a newly agreed machine before `sweep`.
    Recalibrate { sweep: usize, ts: f64, tw: f64, time: f64 },
    /// A message this node originated was relayed around the dead link
    /// across `dim` instead of crossing it directly.
    Relay { dim: usize, elems: u64, time: f64 },
    /// The service admitted `job` at a sweep boundary (`queue_depth` =
    /// queue occupancy after the admission). Emitted by node 0 only —
    /// the admission trace is barrier-synced state, identical on every
    /// node, so one lane is the record.
    Admit { job: u32, time: f64, queue_depth: usize },
    /// The service shed `job`: the bounded queue was full on arrival.
    /// Node 0 only, like [`TraceEvent::Admit`].
    Reject { job: u32, time: f64, queue_depth: usize },
    /// The service de-phased `job` by `slots` skipped micro-ops this
    /// round (same-stagger-key contention). Node 0 only.
    Stagger { job: u32, slots: usize, time: f64 },
}

impl TraceEvent {
    /// The queueing wait a [`TraceEvent::Send`] suffered before its wire
    /// time: `start - max(issued, ready)`. 0 for every other variant.
    pub fn port_wait(&self) -> f64 {
        match self {
            TraceEvent::Send { issued, ready, start, .. } => (start - issued.max(*ready)).max(0.0),
            _ => 0.0,
        }
    }
}

/// Where trace events go. Implementations must be cheap and must never
/// observe or mutate run state: tracing is read-only by contract (the
/// workspace proptests hold traced runs bitwise-equal to untraced ones).
pub trait TraceSink: Send + Sync {
    /// Whether this sink wants events at all. `false` lets the runtime
    /// skip event construction entirely (the [`NopSink`] fast path).
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event from `node`'s program order.
    fn record(&self, node: usize, event: TraceEvent);
}

/// The default sink: disabled, records nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NopSink;

impl TraceSink for NopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _node: usize, _event: TraceEvent) {}
}

/// One node's bounded recording lane: a ring that overwrites the oldest
/// event once `cap` is reached, counting everything it ever saw.
struct Lane {
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Events recorded in total, including overwritten ones.
    total: u64,
}

/// A bounded in-memory recorder: one lane per node, each a ring of at
/// most `cap` events in program order. Per-node lanes are the
/// determinism trick — a single shared buffer would interleave nodes in
/// OS-scheduler order, while per-node program order is a pure function
/// of the program and the seed.
pub struct RingSink {
    cap: usize,
    lanes: Vec<Mutex<Lane>>,
}

impl RingSink {
    /// A recorder for a `d`-cube keeping at most `cap` events per node.
    pub fn new(d: usize, cap: usize) -> Self {
        assert!(cap > 0, "a zero-capacity ring records nothing");
        RingSink {
            cap,
            lanes: (0..1usize << d)
                .map(|_| Mutex::new(Lane { buf: Vec::new(), head: 0, total: 0 }))
                .collect(),
        }
    }

    /// Events recorded in total, including any the ring overwrote.
    pub fn total_recorded(&self) -> u64 {
        self.lanes.iter().map(|l| lock(l).total).sum()
    }

    /// Drains every lane, oldest event first, returning `lanes[node]` in
    /// node order — the deterministic stream the exporters consume.
    pub fn drain(&self) -> Vec<Vec<TraceEvent>> {
        self.lanes
            .iter()
            .map(|l| {
                let mut lane = lock(l);
                let head = lane.head;
                let mut buf = std::mem::take(&mut lane.buf);
                lane.head = 0;
                buf.rotate_left(head);
                buf
            })
            .collect()
    }
}

fn lock(l: &Mutex<Lane>) -> std::sync::MutexGuard<'_, Lane> {
    // Lane state is plain recorded data, valid after any panic; recover
    // rather than cascade (same contract as the clock locks).
    l.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl TraceSink for RingSink {
    fn record(&self, node: usize, event: TraceEvent) {
        let Some(l) = self.lanes.get(node) else { return };
        let mut lane = lock(l);
        lane.total += 1;
        if lane.buf.len() < self.cap {
            lane.buf.push(event);
        } else {
            let head = lane.head;
            lane.buf[head] = event;
            lane.head = (head + 1) % self.cap;
        }
    }
}

/// A cloneable handle to a [`TraceSink`], carried by the option structs
/// (`JacobiOptions`, `BatchOptions`, `ServeOptions`) and threaded through
/// the runtime. The enabled flag is cached at construction so the
/// disabled fast path is one branch, no virtual call.
#[derive(Clone)]
pub struct SinkHandle {
    sink: Arc<dyn TraceSink>,
    enabled: bool,
}

impl SinkHandle {
    /// The default handle: a [`NopSink`] — tracing off.
    pub fn nop() -> Self {
        SinkHandle { sink: Arc::new(NopSink), enabled: false }
    }

    /// Wraps a live sink. The sink's [`TraceSink::enabled`] is sampled
    /// once, here.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        let enabled = sink.enabled();
        SinkHandle { sink, enabled }
    }

    /// Whether events should be constructed and recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records the event built by `f` for `node`, constructing it only
    /// when the sink is enabled.
    pub fn emit(&self, node: usize, f: impl FnOnce() -> TraceEvent) {
        if self.enabled {
            self.sink.record(node, f());
        }
    }
}

impl Default for SinkHandle {
    fn default() -> Self {
        SinkHandle::nop()
    }
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.enabled { "SinkHandle(enabled)" } else { "SinkHandle(nop)" })
    }
}

/// Two handles are equal when they are the *same* sink, or both
/// disabled — so option structs carrying the default nop handle keep
/// their `PartialEq` semantics (`Options::default() == Options::default()`).
impl PartialEq for SinkHandle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.sink, &other.sink) || (!self.enabled && !other.enabled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64) -> TraceEvent {
        TraceEvent::Barrier { epoch: 0, time }
    }

    #[test]
    fn nop_handle_is_disabled_and_never_constructs() {
        let h = SinkHandle::nop();
        assert!(!h.is_enabled());
        h.emit(0, || panic!("a disabled handle must not construct events"));
        assert_eq!(format!("{h:?}"), "SinkHandle(nop)");
    }

    #[test]
    fn handles_compare_by_identity_or_both_nop() {
        let a = SinkHandle::nop();
        let b = SinkHandle::nop();
        assert_eq!(a, b, "two independent nops are equal");
        assert_eq!(a, a.clone());
        let ring = Arc::new(RingSink::new(1, 8));
        let live = SinkHandle::new(ring.clone());
        assert_eq!(live, live.clone(), "clones share the sink");
        assert_ne!(live, a, "a live handle differs from a nop");
        assert_eq!(live, SinkHandle::new(ring), "handles over one sink allocation are equal");
        assert_ne!(
            live,
            SinkHandle::new(Arc::new(RingSink::new(1, 8))),
            "handles over distinct live sinks differ"
        );
    }

    #[test]
    fn ring_records_per_node_in_program_order() {
        let ring = RingSink::new(1, 8);
        ring.record(0, ev(1.0));
        ring.record(1, ev(2.0));
        ring.record(0, ev(3.0));
        let lanes = ring.drain();
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0], vec![ev(1.0), ev(3.0)]);
        assert_eq!(lanes[1], vec![ev(2.0)]);
        assert!(ring.drain().iter().all(Vec::is_empty), "drain empties the lanes");
        assert_eq!(ring.total_recorded(), 3);
    }

    #[test]
    fn ring_caps_each_lane_by_overwriting_the_oldest() {
        let ring = RingSink::new(0, 3);
        for i in 0..5 {
            ring.record(0, ev(i as f64));
        }
        assert_eq!(ring.total_recorded(), 5);
        let lanes = ring.drain();
        assert_eq!(lanes[0], vec![ev(2.0), ev(3.0), ev(4.0)], "oldest first, oldest dropped");
    }

    #[test]
    fn out_of_range_nodes_are_ignored_not_panicked() {
        let ring = RingSink::new(0, 4);
        ring.record(7, ev(0.0));
        assert!(ring.drain().iter().all(Vec::is_empty));
    }

    #[test]
    fn port_wait_splits_queue_from_wire() {
        let send = TraceEvent::Send {
            dim: 0,
            elems: 10,
            job: 0,
            kq: None,
            control: false,
            epoch: 0,
            issued: 5.0,
            ready: 7.0,
            start: 9.0,
            end: 19.0,
        };
        assert_eq!(send.port_wait(), 2.0, "waited from max(issued, ready)=7 to start=9");
        assert_eq!(ev(0.0).port_wait(), 0.0);
    }
}
