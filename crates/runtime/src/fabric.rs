//! The throttled link fabric: port-model enforcement over the channel
//! transport, driven by a deterministic virtual clock.
//!
//! The raw channel transport of [`crate::spmd`] is effectively an all-port
//! machine with free transmission — messages are pointers, so measured
//! wall time cannot track the `Ts + S·Tw` costs the paper's model predicts
//! (PR 3 measured 0.99x where the model said 1.45x). This module closes
//! that gap: under [`FabricModel::Throttled`] every send is *charged*
//! against a [`Machine`] by a per-node virtual clock —
//!
//! * the node CPU issues the start-up serially (`now += Ts`);
//! * the transmission then occupies **a port** (one for
//!   [`PortModel::OnePort`], `k` for [`PortModel::KPort`], one per link for
//!   [`PortModel::AllPort`]) **and the outgoing link** for `S·Tw`, starting
//!   no earlier than the CPU, the acquired port, or the link's previous
//!   transmission — links serialize, ports are acquired
//!   earliest-available;
//! * the message is stamped with its transmission-end time, and the
//!   receiver's clock advances to that stamp — waiting for data is virtual
//!   time spent.
//!
//! That recurrence is [`NodeClock`]'s, which the cost layer's
//! `executed_cost` drives too; [`LinkClock`] adds what only a live run has
//! — the barrier epoch, per-link scenario machines, the node's traffic
//! counters and its trace lane — and lives on its node's worker, so
//! charging or recording a send locks nothing. Nodes share the links and
//! the barrier, whose last arrival folds the maximum of their clocks
//! (`sched.rs`), and nothing else.
//!
//! The clocks are max-plus dataflow over the FIFO channel order, so the
//! measured makespan (`max` over the nodes' final clocks, reported in
//! [`SpmdRun::fabric`](crate::spmd::SpmdRun::fabric)) is **deterministic**:
//! it depends only on the program's message pattern and the machine
//! parameters, never on OS scheduling, the number of workers or the order
//! they step the nodes in. That is what lets tests and experiments
//! compare *measured* phase times against the analytic model and the
//! network simulator to tight tolerances, and what finally makes ordering
//! experiments (degree-4 vs BR under shallow pipelining) a measurable
//! runtime fact instead of only a priced one.
//!
//! [`FabricModel::Degraded`] generalizes the charge to **per-link
//! machines that evolve over epochs**: a seeded [`Scenario`] scales each
//! directed link's `Ts`/`Tw` by its own impairment timeline (heterogeneity,
//! jitter walks, degradation episodes) and can kill edges outright. The
//! epoch is the clock's barrier generation, so every node evaluates the
//! scenario at the same, scheduling-independent point — impaired runs
//! replay bit for bit from the scenario seed. Sending across a dead edge
//! is a protocol error (it panics): adaptive drivers route around dead
//! edges instead. Each send's *service time* (`Ts_eff + S·Tw_eff`, no
//! queueing) is also recorded into a bounded per-node sample window
//! ([`NodeCtx::take_fabric_window`](crate::spmd::NodeCtx::take_fabric_window))
//! — live [`FabricStats`] an adaptive driver feeds back into
//! [`Machine::calibrate`] mid-run.
//!
//! Computation is deliberately *free* on the virtual clock: the fabric
//! measures communication, so measured-vs-predicted comparisons against
//! the (communication-only) cost models are apples to apples. Every
//! message that moves is charged, control-plane traffic (convergence
//! votes) included — programs comparing against a price that omits such
//! protocol messages should disable them (the eigensolver's
//! `force_sweeps` does exactly that).
//!
//! The inverse direction — measuring the channel transport's own
//! effective parameters with a wall clock — is
//! [`measure_channel_fabric`], whose samples [`Machine::calibrate`] fits.

use crate::machine::{FabricStats, Machine, PortModel};
use crate::meter::TrafficMeter;
use crate::nodeclock::NodeClock;
use crate::scenario::Scenario;
use crate::spmd::{run_spmd, Spmd};
use crate::trace::{Lane, TraceEvent};
use std::sync::Arc;
use std::task::{ready, Poll};
use std::time::Instant;

/// What the link layer enforces.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum FabricModel {
    /// The raw channel transport: all-port, free transmission, no clock.
    /// This is the historical behavior and the default.
    #[default]
    Free,
    /// Every message is charged `Ts + S·Tw` against the machine's port
    /// configuration on a deterministic virtual clock.
    Throttled(Machine),
    /// Per-link, per-epoch machines from a seeded impairment scenario
    /// (see [`Scenario`]): each directed link charges its own effective
    /// `Ts`/`Tw` at the current barrier epoch, dead edges reject sends,
    /// and every send's service time feeds the calibration window.
    Degraded(Arc<Scenario>),
}

impl FabricModel {
    /// Whether this fabric runs a virtual clock.
    fn is_throttled(&self) -> bool {
        !matches!(self, FabricModel::Free)
    }

    /// The *baseline* enforced machine, if any: the uniform machine for
    /// [`FabricModel::Throttled`], the scenario's clean base machine for
    /// [`FabricModel::Degraded`] (per-link effective machines vary around
    /// it — see [`Scenario::machine_for`]).
    pub fn machine(&self) -> Option<Machine> {
        match self {
            FabricModel::Free => None,
            FabricModel::Throttled(m) => Some(*m),
            FabricModel::Degraded(sc) => Some(sc.base()),
        }
    }

    /// The impairment scenario, if degraded.
    pub fn scenario(&self) -> Option<&Arc<Scenario>> {
        match self {
            FabricModel::Degraded(sc) => Some(sc),
            _ => None,
        }
    }

    /// Validates the model at construction time, the
    /// `BatchConfigError`-style typed gate: a `KPort(0)` machine — zero
    /// transmit ports can move no message — is rejected here instead of
    /// by an `assert!` deep inside driver spawn.
    pub fn validate(&self) -> Result<(), FabricConfigError> {
        match self.machine().map(|m| m.ports) {
            Some(PortModel::KPort(0)) => Err(FabricConfigError::ZeroPorts),
            _ => Ok(()),
        }
    }
}

/// Why a [`FabricModel`] cannot be enforced. Surface this from checked
/// option constructors (`BatchOptions::new`) so misconfigurations fail at
/// configuration time with a typed error, not mid-spawn with an assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricConfigError {
    /// `PortModel::KPort(0)`: a k-port fabric needs at least one port.
    ZeroPorts,
}

impl std::fmt::Display for FabricConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricConfigError::ZeroPorts => {
                write!(f, "a k-port fabric needs at least one port (got KPort(0))")
            }
        }
    }
}

impl std::error::Error for FabricConfigError {}

/// Outcome of a fabric run: the virtual times at which each node finished.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricReport {
    /// `max` over nodes of their final virtual clock (0 under
    /// [`FabricModel::Free`]).
    pub makespan: f64,
    /// Each node's final virtual clock, in label order.
    pub node_times: Vec<f64>,
}

/// Cap on the per-node calibration window: old samples are kept (an
/// adaptive driver drains the window every sweep anyway), new ones are
/// dropped once full, so an un-drained degraded run stays bounded.
const WINDOW_CAP: usize = 4096;

/// A node's one book: the model its links run under, its virtual clock
/// and what a live run adds to it, its own traffic counters and, on a
/// traced run, its own trace lane. Its node's worker owns it — every
/// method that writes takes `&mut self` — and hands it back at the end,
/// where [`run_spmd`] reads the final clock, sums the meters and hands the
/// lanes to the run's `RingSink`.
pub struct LinkClock {
    model: FabricModel,
    node: usize,
    clock: NodeClock,
    /// Barriers passed so far: the **epoch** at which a degraded scenario
    /// is evaluated — a deterministic, node-consistent virtual-time index:
    /// every node that has passed the same barriers agrees on it, whatever
    /// the scheduler did.
    barrier_gen: usize,
    /// Live `(elems, service time)` samples of this node's sends under a
    /// degraded fabric — the mid-run calibration feed.
    window: FabricStats,
    /// What this node sent and shipped.
    meter: TrafficMeter,
    /// What this node recorded, bounded at the run's ring cap; `None`
    /// when the run is not traced. [`run_spmd`] takes it at the end.
    pub(crate) lane: Option<Lane>,
}

impl LinkClock {
    /// The book of node `node` of a `d`-cube under `model`, counting for
    /// `njobs` jobs and recording its events into `lane`, if any.
    pub(crate) fn new(
        model: FabricModel,
        node: usize,
        d: usize,
        njobs: usize,
        lane: Option<Lane>,
    ) -> Self {
        // A free fabric never charges its clock; any port model will do.
        let ports = model.machine().map_or(PortModel::AllPort, |m| m.ports);
        LinkClock {
            model,
            node,
            clock: NodeClock::new(ports, d),
            barrier_gen: 0,
            window: FabricStats::new(),
            meter: TrafficMeter::with_jobs(d, njobs),
            lane,
        }
    }

    /// Whether this clock runs at all (false on a free fabric).
    pub(crate) fn throttled(&self) -> bool {
        self.model.is_throttled()
    }

    /// What this node has sent and shipped so far.
    pub(crate) fn meter(&self) -> &TrafficMeter {
        &self.meter
    }

    /// Books one transmission of `elems` elements across `dim`, once: the
    /// meter counts it for `job` on its plane, the clock charges it, the
    /// trace records the span under its pipeline header `kq`. The
    /// transmission starts no earlier than `ready` — the arrival stamp of
    /// the received packet this message forwards (see [`NodeClock::send`])
    /// — and is charged at the `Ts`/`Tw` of the link it crosses at the
    /// current epoch. Returns the arrival stamp to travel with the message
    /// (0 when free).
    ///
    /// # Panics
    /// Under [`FabricModel::Degraded`], sending across an edge that is
    /// dead at the current epoch is a protocol error: the adaptive layer
    /// must route around dead edges, never through them.
    pub(crate) fn charge(
        &mut self,
        dim: usize,
        elems: u64,
        job: u32,
        kq: Option<(u32, u32)>,
        control: bool,
        ready: f64,
    ) -> f64 {
        self.meter.record(dim, elems, control, job);
        let epoch = self.barrier_gen;
        let link = match &self.model {
            FabricModel::Free => return 0.0,
            FabricModel::Throttled(m) => *m,
            FabricModel::Degraded(sc) => {
                assert!(
                    sc.edge_alive(self.node, dim, epoch),
                    "send across dead link (node {}, dim {dim}) at epoch {epoch}: \
                     route around dead edges instead",
                    self.node
                );
                let link = sc.machine_for(self.node, dim, epoch);
                if self.window.len() < WINDOW_CAP {
                    self.window.record(elems as f64, link.single_message_cost(elems as f64));
                }
                link
            }
        };
        let sent = self.clock.send(link.ts, link.tw, dim, elems as f64, ready);
        if let Some(lane) = &mut self.lane {
            lane.push(TraceEvent::Send {
                dim,
                elems,
                job,
                kq,
                control,
                epoch,
                issued: sent.issued,
                ready,
                start: sent.start,
                end: sent.end,
            });
        }
        sent.end
    }

    /// Counts one channel message, whatever it carries.
    pub(crate) fn count_shipment(&mut self) {
        self.meter.record_shipment();
    }

    /// Advances the clock to a received message's arrival stamp.
    pub(crate) fn wait(&mut self, stamp: f64) {
        if self.model.is_throttled() {
            self.clock.wait(stamp);
        }
    }

    /// Barriers passed so far: the scenario epoch (0 under
    /// [`FabricModel::Free`]).
    pub(crate) fn epoch(&self) -> usize {
        self.barrier_gen
    }

    /// This node's current virtual time (0 under [`FabricModel::Free`]).
    pub(crate) fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Drains the degraded-send calibration window gathered since the
    /// last drain: live [`FabricStats`] for [`Machine::calibrate`].
    /// Always empty on free and uniformly-throttled fabrics.
    pub(crate) fn take_window(&mut self) -> FabricStats {
        std::mem::take(&mut self.window)
    }

    /// Leaves a barrier every node has reached, at `t`, the latest of
    /// their clocks: the clock adopts it and the epoch advances. A free
    /// fabric keeps neither.
    pub(crate) fn pass_barrier(&mut self, t: f64) {
        if !self.model.is_throttled() {
            return;
        }
        self.barrier_gen += 1;
        self.clock.wait(t);
        if let Some(lane) = &mut self.lane {
            lane.push(TraceEvent::Barrier { epoch: self.barrier_gen, time: self.clock.now() });
        }
    }
}

/// Measures the live channel transport with a wall clock: every node pair
/// exchanges messages of each size across dimension 0, the exchange plus
/// one read pass over the received payload is timed, and every node's
/// samples are pooled. Feed the result to [`Machine::calibrate`]. What is
/// timed is what a message costs a node program end to end: where both
/// nodes share a worker, the partner's turn is inside it.
///
/// The read pass matters: the channels ship pointers, so the bytes only
/// cross the cache hierarchy when the receiver touches them — which is
/// exactly when a solver pays for an arrived block. Without it the slope
/// (`Tw`) would be indistinguishable from scheduler noise.
pub fn measure_channel_fabric(d: usize, sizes: &[usize], reps: usize) -> FabricStats {
    assert!(!sizes.is_empty() && reps >= 1);
    let run = run_spmd::<Vec<f64>, FabricStats, _, _>(d, Spmd::default(), |_| {
        // Every (size, rep) probe in order; rep 0 of a size is its warm-up
        // exchange, which primes the link and caches and is not recorded.
        let mut probes =
            sizes.iter().flat_map(move |&elems| (0..=reps).map(move |rep| (elems, rep)));
        let mut probe = probes.next();
        let mut outgoing: Option<Vec<f64>> = None;
        let mut sent: Option<Instant> = None;
        let mut local = FabricStats::new();
        move |ctx| {
            while let Some((elems, rep)) = probe {
                if sent.is_none() {
                    // Building the payload is message *assembly*, not
                    // transport, and the barrier only lines the pair up:
                    // both stay outside the timer.
                    let payload = outgoing.take().unwrap_or_else(|| vec![0.0; elems]);
                    if rep > 0 && ctx.barrier().is_pending() {
                        outgoing = Some(payload);
                        return Poll::Pending;
                    }
                    sent = Some(Instant::now());
                    ctx.send(0, payload);
                }
                let (got, _) = ready!(ctx.try_recv(0, 0));
                let sum: f64 = got.iter().sum();
                let secs = sent.take().map_or(0.0, |t0| t0.elapsed().as_secs_f64());
                std::hint::black_box(sum);
                if rep > 0 {
                    local.record(elems as f64, secs);
                }
                probe = probes.next();
            }
            Poll::Ready(std::mem::take(&mut local))
        }
    });
    let mut pooled = FabricStats::new();
    for stats in &run.results {
        pooled.merge(stats);
    }
    pooled
}

/// One-call calibration of the channel runtime: probes dimension-0
/// exchanges at three sizes and fits a [`Machine`] to the medians. This is
/// the machine to hand `Pipelining::Auto` when the solve will run on the
/// channel runtime itself rather than the paper's Figure-2 hardware.
pub fn calibrate_channel_machine(d: usize) -> Machine {
    // Three distinct probe sizes with finite wall-clock timings cannot hit
    // a degenerate-input error; were one to slip through, the paper's
    // machine keeps this convenience infallible.
    Machine::calibrate(&measure_channel_fabric(d, &[256, 4096, 32768], 9))
        .unwrap_or_else(|_| Machine::paper_figure2())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{LinkDeath, ScenarioSpec};

    /// The untraced, solo-job book of node `node` of a `d`-cube.
    fn book(model: FabricModel, node: usize, d: usize) -> LinkClock {
        LinkClock::new(model, node, d, 1, None)
    }

    /// One fresh, untagged data send.
    fn send(clock: &mut LinkClock, dim: usize, elems: u64) -> f64 {
        clock.charge(dim, elems, 0, None, false, 0.0)
    }

    fn stamps(clock: &mut LinkClock, sends: &[(usize, u64)]) -> Vec<f64> {
        sends.iter().map(|&(dim, elems)| send(clock, dim, elems)).collect()
    }

    #[test]
    fn free_fabric_keeps_the_clock_at_zero() {
        let mut clock = book(FabricModel::Free, 0, 3);
        assert_eq!(send(&mut clock, 0, 1000), 0.0);
        clock.wait(42.0);
        assert_eq!(clock.now(), 0.0);
    }

    #[test]
    fn all_port_serializes_startups_but_overlaps_links() {
        // Ts = 1, Tw = 1, 5-element messages on distinct links: start-ups
        // serialize on the CPU (1, 2, 3), transmissions overlap fully.
        let m = Machine::all_port(1.0, 1.0);
        let mut clock = book(FabricModel::Throttled(m), 0, 3);
        assert_eq!(stamps(&mut clock, &[(0, 5), (1, 5), (2, 5)]), vec![6.0, 7.0, 8.0]);
    }

    #[test]
    fn same_link_transmissions_serialize_under_every_port_model() {
        let m = Machine::all_port(1.0, 1.0);
        let mut clock = book(FabricModel::Throttled(m), 0, 2);
        // Second send on link 0 waits for the first to clear the wire.
        assert_eq!(stamps(&mut clock, &[(0, 5), (0, 5)]), vec![6.0, 11.0]);
    }

    #[test]
    fn one_port_serializes_across_links() {
        let m = Machine::one_port(1.0, 1.0);
        let mut clock = book(FabricModel::Throttled(m), 0, 3);
        // The single transmit port is busy until 6; the second message
        // (distinct link!) still queues behind it.
        assert_eq!(stamps(&mut clock, &[(0, 5), (1, 5)]), vec![6.0, 11.0]);
    }

    #[test]
    fn k_port_runs_k_transmissions_then_queues() {
        let m = Machine { ts: 1.0, tw: 1.0, ports: PortModel::KPort(2) };
        let mut clock = book(FabricModel::Throttled(m), 0, 3);
        // Ports free at 6 and 7; the third message takes the earliest (6).
        assert_eq!(stamps(&mut clock, &[(0, 5), (1, 5), (2, 5)]), vec![6.0, 7.0, 11.0]);
    }

    #[test]
    fn zero_port_machines_are_a_typed_configuration_error() {
        // The old deep-spawn assert is now a construction-time gate.
        let m = Machine { ts: 1.0, tw: 1.0, ports: PortModel::KPort(0) };
        assert_eq!(
            FabricModel::Throttled(m).validate(),
            Err(FabricConfigError::ZeroPorts),
            "KPort(0) must be rejected with a typed error"
        );
        assert!(FabricModel::Free.validate().is_ok());
        assert!(FabricModel::Throttled(Machine::paper_figure2()).validate().is_ok());
        let ok = Machine { ts: 1.0, tw: 1.0, ports: PortModel::KPort(1) };
        assert!(FabricModel::Throttled(ok).validate().is_ok());
        assert!(FabricConfigError::ZeroPorts.to_string().contains("KPort(0)"));
    }

    #[test]
    fn recv_advances_to_the_stamp_monotonically() {
        let m = Machine::all_port(1.0, 1.0);
        let mut clock = book(FabricModel::Throttled(m), 0, 1);
        clock.wait(10.0);
        assert_eq!(clock.now(), 10.0);
        clock.wait(4.0); // late-arriving stamp from the past: no rewind
        assert_eq!(clock.now(), 10.0);
        // Next send starts from the advanced clock.
        assert_eq!(send(&mut clock, 0, 2), 13.0);
    }

    #[test]
    fn passing_a_barrier_adopts_its_time_and_advances_the_epoch() {
        // The barrier hands every node the latest clock among them: a node
        // behind it jumps forward, one at it stays, and each pass is one
        // epoch. A free fabric keeps no clock and no epoch.
        let m = Machine::all_port(1.0, 1.0);
        let mut clock = book(FabricModel::Throttled(m), 0, 1);
        clock.wait(10.0);
        clock.pass_barrier(25.0);
        assert_eq!((clock.now(), clock.barrier_gen), (25.0, 1));
        clock.pass_barrier(25.0);
        assert_eq!((clock.now(), clock.barrier_gen), (25.0, 2));
        // The next send departs from the adopted time.
        assert_eq!(send(&mut clock, 0, 2), 28.0);
        let mut free = book(FabricModel::Free, 0, 1);
        free.pass_barrier(25.0);
        assert_eq!((free.now(), free.barrier_gen), (0.0, 0));
    }

    #[test]
    fn degraded_clock_charges_per_link_effective_machines() {
        // A clean scenario charges exactly the base machine; an impaired
        // one charges the per-link factors — and replays identically.
        let base = Machine::all_port(1.0, 1.0);
        let clean = Arc::new(Scenario::new(2, ScenarioSpec::clean(9, base)).expect("clean"));
        let mut clock = book(FabricModel::Degraded(clean), 0, 2);
        assert_eq!(stamps(&mut clock, &[(0, 5), (1, 5)]), vec![6.0, 7.0]);

        let spec = ScenarioSpec {
            hetero_spread: 1.0,
            ..ScenarioSpec::clean(3, Machine::all_port(10.0, 2.0))
        };
        let sc = Arc::new(Scenario::new(2, spec).expect("hetero"));
        let (fts, ftw) = sc.factors(1, 0, 0);
        let mut clock = book(FabricModel::Degraded(sc.clone()), 1, 2);
        let stamp = send(&mut clock, 0, 5);
        let want = 10.0 * fts + 5.0 * 2.0 * ftw;
        assert!((stamp - want).abs() < 1e-12, "stamp {stamp} vs {want}");
        // Replay: a fresh clock over the same scenario charges the same.
        let mut clock2 = book(FabricModel::Degraded(sc), 1, 2);
        assert_eq!(send(&mut clock2, 0, 5), stamp);
    }

    #[test]
    fn degraded_sends_feed_the_calibration_window() {
        // Service times (no queueing) are recorded: with clean factors the
        // window is an exact affine law, so `calibrate` recovers the base
        // machine to rounding.
        let base = Machine::all_port(7.0, 3.0);
        let sc = Arc::new(Scenario::new(2, ScenarioSpec::clean(1, base)).expect("clean"));
        let mut clock = book(FabricModel::Degraded(sc), 0, 2);
        for &(dim, elems) in &[(0usize, 10u64), (1, 100), (0, 1000), (1, 10)] {
            send(&mut clock, dim, elems);
        }
        let window = clock.take_window();
        assert_eq!(window.len(), 4);
        let fit = Machine::calibrate(&window).expect("three distinct sizes");
        assert!((fit.ts - 7.0).abs() < 1e-9, "ts = {}", fit.ts);
        assert!((fit.tw - 3.0).abs() < 1e-12, "tw = {}", fit.tw);
        // Draining empties the window.
        assert!(clock.take_window().is_empty());
        // Throttled fabrics never record.
        let mut clock = book(FabricModel::Throttled(base), 0, 2);
        send(&mut clock, 0, 10);
        assert!(clock.take_window().is_empty());
    }

    #[test]
    fn epoch_advances_with_barriers_and_switches_the_scenario() {
        // An edge scheduled to die at epoch 1 accepts sends at epoch 0,
        // then rejects them after one barrier.
        let spec = ScenarioSpec {
            deaths: vec![LinkDeath { node: 0, dim: 0, epoch: 1 }],
            ..ScenarioSpec::clean(5, Machine::all_port(1.0, 1.0))
        };
        let sc = Arc::new(Scenario::new(2, spec).expect("one death on a 2-cube"));
        let mut clock = book(FabricModel::Degraded(sc), 0, 2);
        assert_eq!(clock.barrier_gen, 0);
        send(&mut clock, 0, 5); // alive at epoch 0
        clock.pass_barrier(clock.now());
        assert_eq!(clock.barrier_gen, 1);
        send(&mut clock, 1, 5); // the *other* edge stays alive
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            send(&mut clock, 0, 5);
        }));
        assert!(died.is_err(), "sending across a dead edge must be a protocol error");
    }

    #[test]
    fn measured_channel_stats_calibrate_to_a_finite_machine() {
        // Tiny probe (d = 1, small sizes): the fit must come back finite
        // and positive whatever this box's scheduler does.
        let stats = measure_channel_fabric(1, &[64, 1024], 5);
        assert_eq!(stats.len(), 2 * 2 * 5, "2 nodes × 2 sizes × 5 reps");
        let m = Machine::calibrate(&stats).expect("two distinct probe sizes fit");
        assert!(m.ts.is_finite() && m.ts > 0.0);
        assert!(m.tw.is_finite() && m.tw > 0.0);
    }
}
