//! The virtual-time network simulator: [`simulate_synchronized`], in which
//! a barrier separates stages — stage `s+1` starts when every node has
//! finished sending *and* receiving stage `s`. This is the semantics the
//! analytic cost models price. (The barrier-free schedule the engine runs
//! is priced exactly by `mph_ccpipe::executed_cost`.)
//!
//! Within a stage, a node's behaviour follows the machine model:
//! start-ups are issued serially by the CPU (`Ts` each), then transmissions
//! occupy ports according to [`PortModel`]. Two start-up/transmission
//! interleavings are supported (see [`StartupModel`]): the closed-form one
//! used by the paper's model, and an overlapped one that lets early
//! transmissions begin while later start-ups are still being issued — the
//! gap between them is measured by the `validate_simnet` experiment.

use crate::schedule::{CommSchedule, NodeSend};
use mph_ccpipe::{Machine, PortModel};

/// How start-up issue and transmission overlap within one node's stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartupModel {
    /// All start-ups complete before any transmission begins: a stage with
    /// `n` messages costs exactly `n·Ts + makespan(tx)` — the paper's
    /// closed-form model.
    SerializedThenParallel,
    /// Message `i`'s transmission may begin as soon as its own start-up
    /// completes (at `(i+1)·Ts`), overlapping later start-ups. Never slower
    /// than the closed form.
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
    /// Total element volume.
    pub volume: f64,
}

/// Completion time of one node's sends within a stage starting at `t0`,
/// also accumulating per-dimension busy time.
fn node_stage_completion(
    sends: &[NodeSend],
    machine: &Machine,
    startup: StartupModel,
    t0: f64,
    dim_busy: &mut [f64],
) -> f64 {
    if sends.is_empty() {
        return t0;
    }
    let ts = machine.ts;
    let tw = machine.tw;
    let n = sends.len() as f64;
    for s in sends {
        dim_busy[s.dim] += s.elems * tw;
    }
    match machine.ports {
        PortModel::AllPort => match startup {
            StartupModel::SerializedThenParallel => {
                let tx_max = sends.iter().map(|s| s.elems * tw).fold(0.0f64, f64::max);
                t0 + n * ts + tx_max
            }
            StartupModel::Overlapped => sends
                .iter()
                .enumerate()
                .map(|(i, s)| t0 + (i as f64 + 1.0) * ts + s.elems * tw)
                .fold(0.0f64, f64::max),
        },
        PortModel::OnePort => {
            // Single port: start-up, transmit, repeat.
            let mut t = t0;
            for s in sends {
                t += ts + s.elems * tw;
            }
            t
        }
        PortModel::KPort(k) => {
            let k = k.max(1);
            let mut engines = vec![t0; k];
            let mut t_cpu = t0;
            let mut done = t0;
            for s in sends {
                t_cpu += ts;
                let issue = match startup {
                    StartupModel::SerializedThenParallel => t0 + n * ts,
                    StartupModel::Overlapped => t_cpu,
                };
                // Earliest-available engine.
                let idx = (0..k).min_by(|&a, &b| engines[a].total_cmp(&engines[b])).unwrap();
                let start = engines[idx].max(issue);
                engines[idx] = start + s.elems * tw;
                done = done.max(engines[idx]);
            }
            done.max(t_cpu)
        }
    }
}

/// Barrier-synchronized execution.
pub fn simulate_synchronized(
    schedule: &CommSchedule,
    machine: &Machine,
    startup: StartupModel,
) -> SimReport {
    let d = schedule.d;
    let mut dim_busy = vec![0.0; d.max(1)];
    let mut t = 0.0;
    let mut stage_spans = Vec::with_capacity(schedule.stages.len());
    for stage in &schedule.stages {
        let start = t;
        let mut end = t;
        for sends in stage.iter() {
            let c = node_stage_completion(sends, machine, startup, start, &mut dim_busy);
            end = end.max(c);
        }
        stage_spans.push((start, end));
        t = end;
    }
    SimReport {
        makespan: t,
        stage_spans,
        dim_busy,
        messages: schedule.message_count(),
        volume: schedule.volume(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{pipelined_phase_schedule, CommStage};
    use mph_ccpipe::CcCube;
    use mph_core::OrderingFamily;

    fn machine() -> Machine {
        Machine::paper_figure2()
    }

    #[test]
    fn single_stage_single_message() {
        let sched =
            CommSchedule::new(2, vec![CommStage::spmd(2, vec![NodeSend { dim: 0, elems: 10.0 }])]);
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
        // pipelined phase exactly like PhaseCostModel.
        let m = machine();
        for family in [OrderingFamily::Br, OrderingFamily::PermutedBr, OrderingFamily::Degree4] {
            for e in [4usize, 5] {
                let cc = CcCube::exchange_phase(family, e, 320.0);
                let model = mph_ccpipe::PhaseCostModel::new(&cc, m);
                for q in [1usize, 2, 4, 8, 16, 40] {
                    let sched = pipelined_phase_schedule(e, &cc, q);
                    let r = simulate_synchronized(&sched, &m, StartupModel::SerializedThenParallel);
                    let want = model.cost(q);
                    assert!(
                        (r.makespan - want).abs() < 1e-6 * want,
                        "{family} e={e} q={q}: sim {} vs model {want}",
                        r.makespan
                    );
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
    fn one_port_simulation_serializes() {
        let m = Machine::one_port(10.0, 1.0);
        let bundle = vec![NodeSend { dim: 0, elems: 5.0 }, NodeSend { dim: 1, elems: 7.0 }];
        let sched = CommSchedule::new(2, vec![CommStage::spmd(2, bundle)]);
        let r = simulate_synchronized(&sched, &m, StartupModel::Overlapped);
        assert_eq!(r.makespan, (10.0 + 5.0) + (10.0 + 7.0));
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
