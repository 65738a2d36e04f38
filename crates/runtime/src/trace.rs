//! Deterministic virtual-clock tracing: typed events recorded per node.
//!
//! Every layer of the stack already *computes* on the fabric's
//! deterministic virtual clock — link transmissions, barrier epochs,
//! sweep boundaries, admission decisions. This module records those
//! moments as typed [`TraceEvent`]s into a [`RingSink`] so they can be
//! exported (Chrome trace JSON, utilization matrices — see the
//! `mph-trace` crate) without changing a single bit of the run:
//!
//! * events are stamped on the **virtual clock**, never the wall clock,
//!   so a traced degraded run is a forensic artifact: replaying the same
//!   seed replays the identical event stream, byte for byte;
//! * recording is strictly **observational** — events are copies of
//!   values the runtime computed anyway, so traced runs are
//!   bitwise-identical to untraced runs (proptested at the workspace
//!   root);
//! * each node records into its **own lane**, in program order. The lane
//!   is part of the node's book ([`LinkClock`](crate::fabric::LinkClock)),
//!   like its meter, so recording shares nothing and locks nothing; the
//!   run hands every lane to the ring once, when its workers return — a
//!   run that fails included. Cross-node interleaving is reconstructed
//!   from the virtual stamps at export time, not from racy append order —
//!   that is what keeps the recorded stream scheduling-independent.
//!
//! Tracing is off by default ([`SinkHandle::nop`]): no book gets a lane,
//! and the untraced hot path never constructs an event.

use std::sync::{Arc, Mutex, MutexGuard};

/// One recorded moment, stamped on the virtual clock. The recording
/// node is implicit (it is the lane the event lands in).
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

/// One node's bounded recording lane: a ring that overwrites the oldest
/// event once `cap` is reached, counting everything it ever saw. A node's
/// book ([`LinkClock`](crate::fabric::LinkClock)) owns one for the length
/// of a run; the run hands it to the [`RingSink`] when its workers return.
pub(crate) struct Lane {
    cap: usize,
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Events recorded in total, including overwritten ones.
    total: u64,
}

impl Lane {
    fn new(cap: usize) -> Self {
        Lane { cap, buf: Vec::new(), head: 0, total: 0 }
    }

    /// Records one event, in program order.
    pub(crate) fn push(&mut self, event: TraceEvent) {
        self.total += 1;
        self.put(event);
    }

    fn put(&mut self, event: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Appends `later`'s events after this lane's, as if this lane had
    /// recorded them: the ring keeps the last `cap` of the two streams,
    /// and the count is their sum.
    fn append(&mut self, mut later: Lane) {
        self.total += later.total;
        for event in later.take() {
            self.put(event);
        }
    }

    /// Empties the ring, oldest event first; the count stays.
    fn take(&mut self) -> Vec<TraceEvent> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.rotate_left(std::mem::take(&mut self.head));
        buf
    }
}

/// A bounded in-memory recorder: one lane per node, each a ring of at
/// most `cap` events in program order. Per-node lanes are the
/// determinism trick — a single shared buffer would interleave nodes in
/// OS-scheduler order, while per-node program order is a pure function
/// of the program and the seed. A run records into its nodes' own lanes
/// and hands them over once, when it returns: the ring's lock is taken
/// once per run, never per event.
pub struct RingSink {
    cap: usize,
    lanes: Mutex<Vec<Lane>>,
}

impl RingSink {
    /// A recorder for a `d`-cube keeping at most `cap` events per node.
    pub fn new(d: usize, cap: usize) -> Self {
        assert!(cap > 0, "a zero-capacity ring records nothing");
        RingSink { cap, lanes: Mutex::new((0..1usize << d).map(|_| Lane::new(cap)).collect()) }
    }

    /// Events recorded in total, including any the ring overwrote.
    pub fn total_recorded(&self) -> u64 {
        self.lanes().iter().map(|l| l.total).sum()
    }

    /// Drains every lane, oldest event first, returning `lanes[node]` in
    /// node order — the deterministic stream the exporters consume.
    pub fn drain(&self) -> Vec<Vec<TraceEvent>> {
        self.lanes().iter_mut().map(Lane::take).collect()
    }

    fn lanes(&self) -> MutexGuard<'_, Vec<Lane>> {
        // Lanes are plain recorded data, valid after any panic; recover
        // rather than cascade.
        self.lanes.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Where a run records: a [`RingSink`], or nowhere. Carried by the
/// option structs (`JacobiOptions`, `BatchOptions`, `ServeOptions`) and
/// [`Spmd::trace`](crate::spmd::Spmd::trace); the run gives each node's
/// book a lane of the ring's cap and hands the lanes back to the ring when
/// its workers return.
#[derive(Clone, Default)]
pub struct SinkHandle(Option<Arc<RingSink>>);

impl SinkHandle {
    /// The default handle: tracing off.
    pub fn nop() -> Self {
        SinkHandle(None)
    }

    /// Records into `ring`.
    pub fn new(ring: Arc<RingSink>) -> Self {
        SinkHandle(Some(ring))
    }

    /// Whether events should be constructed and recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// An empty lane of the ring's cap for one node's book, or `None` when
    /// tracing is off.
    pub(crate) fn lane(&self) -> Option<Lane> {
        self.0.as_ref().map(|ring| Lane::new(ring.cap))
    }

    /// Hands a run's lanes to the ring, in label order, each appended
    /// after what the ring's lane for that node already holds. A node the
    /// ring has no lane for is ignored.
    pub(crate) fn collect(&self, lanes: impl IntoIterator<Item = Lane>) {
        let Some(ring) = &self.0 else { return };
        for (kept, lane) in ring.lanes().iter_mut().zip(lanes) {
            kept.append(lane);
        }
    }
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_enabled() { "SinkHandle(enabled)" } else { "SinkHandle(nop)" })
    }
}

/// Two handles are equal when they hold the *same* ring, or both are off
/// — so option structs carrying the default handle keep their `PartialEq`
/// semantics (`Options::default() == Options::default()`).
impl PartialEq for SinkHandle {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::{run_spmd, NodeCtx, Spmd};

    fn ev(time: f64) -> TraceEvent {
        TraceEvent::Barrier { epoch: 0, time }
    }

    /// A free-fabric run of a `d`-cube traced into `trace`, in which node
    /// `n` records `events(n)` in order and returns.
    fn record(d: usize, trace: SinkHandle, events: impl Fn(usize) -> Vec<TraceEvent> + Sync) {
        run_spmd(d, Spmd { trace, ..Spmd::default() }, async |ctx: &NodeCtx<'_, ()>| {
            for event in events(ctx.id()) {
                ctx.trace_event(|| event);
            }
        });
    }

    #[test]
    fn nop_handle_is_disabled_and_never_constructs() {
        let h = SinkHandle::nop();
        assert!(!h.is_enabled());
        assert!(h.lane().is_none(), "an untraced run gives its books no lane");
        run_spmd(1, Spmd::default(), async |ctx: &NodeCtx<'_, ()>| {
            ctx.trace_event(|| panic!("an untraced run must not construct events"));
        });
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
        assert_eq!(live, live.clone(), "clones share the ring");
        assert_ne!(live, a, "a live handle differs from a nop");
        assert_eq!(live, SinkHandle::new(ring), "handles over one ring allocation are equal");
        assert_ne!(
            live,
            SinkHandle::new(Arc::new(RingSink::new(1, 8))),
            "handles over distinct rings differ"
        );
    }

    #[test]
    fn ring_records_per_node_in_program_order() {
        let ring = Arc::new(RingSink::new(1, 8));
        record(1, SinkHandle::new(ring.clone()), |n| match n {
            0 => vec![ev(1.0), ev(3.0)],
            _ => vec![ev(2.0)],
        });
        assert_eq!(ring.total_recorded(), 3);
        let lanes = ring.drain();
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0], vec![ev(1.0), ev(3.0)]);
        assert_eq!(lanes[1], vec![ev(2.0)]);
        assert!(ring.drain().iter().all(Vec::is_empty), "drain empties the lanes");
        assert_eq!(ring.total_recorded(), 3, "the count outlives the drain");
    }

    #[test]
    fn ring_caps_each_lane_by_overwriting_the_oldest() {
        let ring = Arc::new(RingSink::new(0, 3));
        record(0, SinkHandle::new(ring.clone()), |_| (0..5).map(|i| ev(i as f64)).collect());
        assert_eq!(ring.total_recorded(), 5);
        let lanes = ring.drain();
        assert_eq!(lanes[0], vec![ev(2.0), ev(3.0), ev(4.0)], "oldest first, oldest dropped");
    }

    #[test]
    fn out_of_range_nodes_are_ignored_not_panicked() {
        // A ring for one node, a run of eight: only node 0 has a lane.
        let ring = Arc::new(RingSink::new(0, 4));
        record(3, SinkHandle::new(ring.clone()), |n| if n == 7 { vec![ev(0.0)] } else { vec![] });
        assert_eq!(ring.total_recorded(), 0);
        assert!(ring.drain().iter().all(Vec::is_empty));
    }

    #[test]
    fn a_run_that_panics_still_hands_its_lanes_to_the_ring() {
        let ring = Arc::new(RingSink::new(1, 8));
        let trace = SinkHandle::new(ring.clone());
        let run = std::panic::catch_unwind(|| {
            run_spmd(1, Spmd { trace, ..Spmd::default() }, async |ctx: &NodeCtx<'_, ()>| {
                ctx.trace_event(|| ev(ctx.id() as f64));
                if ctx.id() == 1 {
                    panic!("node 1 fails");
                }
            })
        });
        assert!(run.is_err(), "the node's panic is re-raised");
        assert_eq!(ring.drain(), vec![vec![ev(0.0)], vec![ev(1.0)]]);
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
