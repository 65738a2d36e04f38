//! The virtual-time network simulator: [`simulate_synchronized`], in which
//! a barrier separates stages — stage `s+1` starts when every node has
//! finished sending *and* receiving stage `s`. This is the semantics the
//! analytic cost models price. (The barrier-free schedule the engine runs
//! is priced exactly by `mph_ccpipe::executed_cost`.)
//!
//! Within a stage a node's sends are replayed on a [`NodeClock`], the one
//! statement of the `Ts`/`Tw`/port machine that the throttled fabric and
//! `executed_cost` drive too: start-ups are issued serially by the CPU
//! (`Ts` each), and transmissions take their link and, under a port
//! limit, the earliest free port. [`StartupModel`] says when a
//! transmission's data is ready: after the stage's last start-up (the
//! closed form the paper prices) or at once, so early transmissions
//! overlap later start-ups — the gap between them is measured by the
//! `validate_simnet` experiment.

use crate::schedule::{CommSchedule, NodeSend};
use mph_ccpipe::machine::{Machine, NodeClock};

/// When a transmission may begin within one node's stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartupModel {
    /// All start-ups complete before any transmission begins: a stage with
    /// `n` messages costs exactly `n·Ts + makespan(tx)` — the paper's
    /// closed-form model.
    SerializedThenParallel,
    /// Message `i`'s transmission may begin as soon as its own start-up
    /// completes (at `(i+1)·Ts`), overlapping later start-ups. Never slower
    /// than the closed form. On a one-port machine this is the
    /// comm-processor model the engine runs: start-up `i+1` overlaps
    /// transmission `i`, and only the transmissions queue for the port.
    Overlapped,
}

/// Simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total virtual time from first stage start to last completion.
    pub makespan: f64,
    /// Per-stage `(start, end)`.
    pub stage_spans: Vec<(f64, f64)>,
    /// Busy time accumulated per dimension (transmissions, both directions).
    pub dim_busy: Vec<f64>,
    /// Total messages.
    pub messages: usize,
}

/// Barrier-synchronized execution. Each stage replays every distinct
/// bundle once on a [`NodeClock`] that waits for the stage's start: an
/// SPMD stage's one shared bundle stands for all its nodes, a per-node
/// stage replays each node. The stage ends when its slowest node has
/// issued every start-up and finished every transmission.
pub fn simulate_synchronized(
    schedule: &CommSchedule,
    machine: &Machine,
    startup: StartupModel,
) -> SimReport {
    let d = schedule.d;
    let mut dim_busy = vec![0.0; d.max(1)];
    let mut t = 0.0f64;
    let mut stage_spans = Vec::with_capacity(schedule.stages().len());
    // One clock per bundle index, kept across stages, bit-identical to an
    // idle one. Every link-free and port-free time a clock holds is at most
    // the end of the last stage it replayed, so at most this stage's start,
    // and every time it meets in the stage is a `max` with an issue time
    // past the start. So after `wait(start)` the held times count only as
    // `start`, as an idle clock's zeros do; a port picked earliest-free may
    // have another index, but it is free as early.
    let mut clocks: Vec<NodeClock> = Vec::new();
    for stage in schedule.stages() {
        let start = t;
        for (i, bundle) in stage.bundles().enumerate() {
            if i == clocks.len() {
                clocks.push(NodeClock::new(machine.ports, d));
            }
            t = t.max(replay(&mut clocks[i], bundle, start, machine, startup, &mut dim_busy));
        }
        stage_spans.push((start, t));
    }
    SimReport { makespan: t, stage_spans, dim_busy, messages: schedule.message_count() }
}

/// Replays one bundle, sent by `copies` nodes, on `clock` from the stage's
/// `start`: start-ups in issue order, each transmission on its link (and,
/// under a port limit, the earliest free port), busy time booked per
/// dimension. Returns when the bundle's node is done. Kept out of line:
/// inlined into the stage loop, the replay ran ≈ 15 % slower (an AVX-512
/// Xeon, one CPU).
#[inline(never)]
fn replay(
    clock: &mut NodeClock,
    (sends, copies): (&[NodeSend], usize),
    start: f64,
    machine: &Machine,
    startup: StartupModel,
    dim_busy: &mut [f64],
) -> f64 {
    clock.wait(start);
    let ready = match startup {
        StartupModel::SerializedThenParallel => start + sends.len() as f64 * machine.ts,
        StartupModel::Overlapped => start,
    };
    let mut end = start;
    for s in sends {
        dim_busy[s.dim] += copies as f64 * (s.elems * machine.tw);
        end = end.max(clock.send(machine.ts, machine.tw, s.dim, s.elems, ready).end);
    }
    end.max(clock.now())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::pipelined_phase_schedule;
    use mph_ccpipe::{CcCube, PortModel};
    use mph_core::OrderingFamily;

    fn machine() -> Machine {
        Machine::paper_figure2()
    }

    #[test]
    fn single_stage_single_message() {
        let mut sched = CommSchedule::new(2);
        sched.push_spmd([NodeSend { dim: 0, elems: 10.0 }]);
        let r = simulate_synchronized(&sched, &machine(), StartupModel::SerializedThenParallel);
        assert_eq!(r.makespan, 1000.0 + 10.0 * 100.0);
        assert_eq!(r.messages, 4);
    }

    #[test]
    fn unpipelined_phase_matches_closed_form() {
        let cc = CcCube::exchange_phase(OrderingFamily::Br, 4, 500.0);
        let sched = pipelined_phase_schedule(4, &cc, 1);
        let r = simulate_synchronized(&sched, &machine(), StartupModel::SerializedThenParallel);
        let expect = 15.0 * (1000.0 + 500.0 * 100.0);
        assert!((r.makespan - expect).abs() < 1e-9);
    }

    #[test]
    fn pipelined_phase_matches_analytic_cost_model() {
        // The synchronized simulator with serialized start-ups must price a
        // pipelined phase exactly like PhaseCostModel, on every port model.
        for ports in
            [PortModel::AllPort, PortModel::OnePort, PortModel::KPort(2), PortModel::KPort(3)]
        {
            let m = Machine { ports, ..machine() };
            for family in [OrderingFamily::Br, OrderingFamily::PermutedBr, OrderingFamily::Degree4]
            {
                for e in [4usize, 5] {
                    let cc = CcCube::exchange_phase(family, e, 320.0);
                    let model = mph_ccpipe::PhaseCostModel::new(&cc, m);
                    for q in [1usize, 2, 4, 8, 16, 40] {
                        let sched = pipelined_phase_schedule(e, &cc, q);
                        let r =
                            simulate_synchronized(&sched, &m, StartupModel::SerializedThenParallel);
                        let want = model.cost(q);
                        assert!(
                            (r.makespan - want).abs() < 1e-9 * want,
                            "{family} e={e} q={q} {ports:?}: sim {} vs model {want}",
                            r.makespan
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn overlapped_startups_never_slower() {
        let cc = CcCube::exchange_phase(OrderingFamily::Degree4, 5, 320.0);
        let m = machine();
        for q in [1usize, 4, 16, 62] {
            let sched = pipelined_phase_schedule(5, &cc, q);
            let strict = simulate_synchronized(&sched, &m, StartupModel::SerializedThenParallel);
            let relaxed = simulate_synchronized(&sched, &m, StartupModel::Overlapped);
            assert!(
                relaxed.makespan <= strict.makespan + 1e-9,
                "q={q}: {} > {}",
                relaxed.makespan,
                strict.makespan
            );
        }
    }

    #[test]
    fn overlap_saving_is_bounded_by_startups() {
        // Overlap saves at most (n−1)·Ts per stage: on a deep phase of
        // large messages, under half of the closed form.
        let m = machine();
        let cc = CcCube::exchange_phase(OrderingFamily::PermutedBr, 6, 5000.0);
        let analytic = mph_ccpipe::PhaseCostModel::new(&cc, m).cost(63);
        let sched = pipelined_phase_schedule(6, &cc, 63);
        let relaxed = simulate_synchronized(&sched, &m, StartupModel::Overlapped);
        let saving = (analytic - relaxed.makespan) / analytic;
        assert!((0.0..0.5).contains(&saving), "saving {saving}");
    }

    #[test]
    fn one_port_simulation_serializes() {
        // One port carries one transmission at a time. Strict start-ups
        // come first, then both transmissions: 2·10 + 5 + 7. Overlapped,
        // start-up 2 runs during transmission 1 (ends 15), and
        // transmission 2 starts when its start-up ends: 20 + 7.
        let m = Machine::one_port(10.0, 1.0);
        let bundle = vec![NodeSend { dim: 0, elems: 5.0 }, NodeSend { dim: 1, elems: 7.0 }];
        let mut sched = CommSchedule::new(2);
        sched.push_spmd(bundle);
        let strict = simulate_synchronized(&sched, &m, StartupModel::SerializedThenParallel);
        assert_eq!(strict.makespan, 32.0);
        assert_eq!(simulate_synchronized(&sched, &m, StartupModel::Overlapped).makespan, 27.0);
    }

    #[test]
    fn dim_busy_accounts_all_traffic() {
        let cc = CcCube::exchange_phase(OrderingFamily::Br, 3, 10.0);
        let sched = pipelined_phase_schedule(3, &cc, 1);
        let m = machine();
        let r = simulate_synchronized(&sched, &m, StartupModel::SerializedThenParallel);
        // BR e=3 = <0102010>: 4 transitions on dim 0, 2 on dim 1, 1 on dim 2,
        // each 8 nodes × 10 elems × Tw.
        assert_eq!(r.dim_busy[0], 4.0 * 8.0 * 10.0 * 100.0);
        assert_eq!(r.dim_busy[1], 2.0 * 8.0 * 10.0 * 100.0);
        assert_eq!(r.dim_busy[2], 1.0 * 8.0 * 10.0 * 100.0);
    }

    #[test]
    fn balanced_sequences_spread_utilization() {
        // Permuted-BR should load dimensions far more evenly than BR.
        let m = machine();
        let e = 8;
        let busy = |family: OrderingFamily| {
            let cc = CcCube::exchange_phase(family, e, 10.0);
            let sched = pipelined_phase_schedule(e, &cc, 1);
            simulate_synchronized(&sched, &m, StartupModel::SerializedThenParallel).dim_busy
        };
        // Spread = busiest dimension / mean. (The top dimension e−1 always
        // carries exactly one transition in BR-derived sequences, so
        // max/min is uninformative; max/mean is the balance that matters
        // for deep pipelining.)
        let spread = |b: &[f64]| {
            let max = b.iter().fold(0.0f64, |a, &x| a.max(x));
            let mean = b.iter().sum::<f64>() / b.len() as f64;
            max / mean
        };
        let br = busy(OrderingFamily::Br);
        let pbr = busy(OrderingFamily::PermutedBr);
        assert!(spread(&br) > 3.5, "BR spread {}", spread(&br));
        assert!(spread(&pbr) < 1.6, "pBR spread {}", spread(&pbr));
    }
}
