//! Cross-validation of the analytic cost models against the simulator —
//! the machinery behind the `validate_simnet` experiment, whose output is
//! tracked in `crates/bench/paper/validate_simnet/`.

use crate::schedule::pipelined_phase_schedule;
use crate::sim::{simulate_synchronized, SimReport, StartupModel};
use mph_ccpipe::{CcCube, Machine, PhaseCostModel};
use mph_core::OrderingFamily;

/// One validation sample: a pipelined exchange phase priced by both the
/// closed-form model and the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationSample {
    pub family: OrderingFamily,
    pub e: usize,
    pub q: usize,
    pub analytic: f64,
    pub simulated_strict: f64,
    pub simulated_overlapped: f64,
}

impl ValidationSample {
    /// Relative deviation of the strict simulation from the model (should
    /// be ~0: the model *is* the strict semantics).
    pub fn strict_gap(&self) -> f64 {
        (self.simulated_strict - self.analytic).abs() / self.analytic.max(1e-300)
    }

    /// Relative saving of overlapped start-ups over the closed form —
    /// how optimistic a real NIC pipeline could be vs. the paper's model.
    pub fn overlap_saving(&self) -> f64 {
        (self.analytic - self.simulated_overlapped) / self.analytic.max(1e-300)
    }
}

/// Runs one sample.
pub fn validate_phase(
    family: OrderingFamily,
    e: usize,
    elems: f64,
    q: usize,
    machine: &Machine,
) -> ValidationSample {
    let cc = CcCube::exchange_phase(family, e, elems);
    let model = PhaseCostModel::new(&cc, *machine);
    let sched = pipelined_phase_schedule(e, &cc, q);
    let strict: SimReport =
        simulate_synchronized(&sched, machine, StartupModel::SerializedThenParallel);
    let overlapped: SimReport = simulate_synchronized(&sched, machine, StartupModel::Overlapped);
    ValidationSample {
        family,
        e,
        q,
        analytic: model.cost(q),
        simulated_strict: strict.makespan,
        simulated_overlapped: overlapped.makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_simulation_reproduces_model_exactly() {
        let machine = Machine::paper_figure2();
        for family in OrderingFamily::ALL {
            for (e, q) in [(4usize, 3usize), (5, 8), (6, 63), (6, 200)] {
                let s = validate_phase(family, e, 1000.0, q, &machine);
                assert!(s.strict_gap() < 1e-9, "{family} e={e} q={q}: gap {}", s.strict_gap());
            }
        }
    }

    #[test]
    fn overlap_saving_is_bounded_by_startups() {
        // Overlapped start-ups can save at most (n−1)·Ts per stage.
        let machine = Machine::paper_figure2();
        let s = validate_phase(OrderingFamily::PermutedBr, 6, 5000.0, 63, &machine);
        assert!(s.overlap_saving() >= 0.0);
        assert!(s.overlap_saving() < 0.5, "saving {}", s.overlap_saving());
    }
}
