//! Total execution-time model: computation + communication.
//!
//! The paper models *communication only* (its Figure 2 is relative
//! communication cost). To place those savings in context this module adds
//! the computation term and derives total sweep times, parallel speedups
//! and the communication fraction — the quantities that tell you *when*
//! the choice of ordering matters.
//!
//! Computation model: pairing two columns costs three `m`-element inner
//! products plus two `m`-element plane rotations on each of `A` and `U` —
//! `≈ 14·m` fused multiply-adds; we charge `ROT_FLOPS_PER_ROW · m · tc`
//! per pairing, `tc` being the time per floating-point operation in the
//! same units as `Ts`/`Tw`. A sweep performs `m(m−1)/2` pairings spread
//! over `2^{d+1}−1` steps of up to `⌈m/2^{d+1}⌉·…` block pairings per
//! node; with the paper's balanced blocks every node computes an equal
//! share, so per-step computation is `pairings_per_step(m, d) · cost`.

use crate::machine::Machine;
use crate::sweepcost::{pipelined_sweep_cost, unpipelined_sweep_cost, Workload};
use mph_core::OrderingFamily;

/// Floating-point operations per matrix row per column pairing (3 dots +
/// 2 rotations on two matrices ≈ 14 multiply-adds).
pub const ROT_FLOPS_PER_ROW: f64 = 14.0;

/// Computation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Time per floating-point operation (same unit as `Ts`, `Tw`).
    pub tc: f64,
}

impl ComputeModel {
    /// Cost of one column pairing for an `m`-row problem.
    fn pairing_cost(&self, m: f64) -> f64 {
        ROT_FLOPS_PER_ROW * m * self.tc
    }

    /// Total computation of one sweep executed sequentially:
    /// `m(m−1)/2` pairings.
    fn sweep_total(&self, m: f64) -> f64 {
        m * (m - 1.0) / 2.0 * self.pairing_cost(m)
    }

    /// Per-node computation of one parallel sweep: the sweep's pairings
    /// divide evenly over `2^d` nodes (perfect load balance — the paper's
    /// property (a) of minimum-step orderings).
    fn sweep_per_node(&self, w: &Workload) -> f64 {
        self.sweep_total(w.m) / (1u64 << w.d) as f64
    }
}

/// Total-time breakdown of one parallel sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepTime {
    pub computation: f64,
    pub communication: f64,
}

impl SweepTime {
    fn total(&self) -> f64 {
        self.computation + self.communication
    }

    /// Fraction of the sweep spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        self.communication / self.total()
    }
}

/// Total time of one sweep with the *unpipelined* algorithm (computation
/// and communication strictly alternate, no overlap — the CC-cube model).
pub fn unpipelined_sweep_time(
    w: &Workload,
    machine: &Machine,
    compute: &ComputeModel,
) -> SweepTime {
    SweepTime {
        computation: compute.sweep_per_node(w),
        communication: unpipelined_sweep_cost(w, machine),
    }
}

/// Total time of one sweep with pipelined communication for `family`.
///
/// Conservative composition: pipelining restructures *communication*
/// within each phase; computation still happens once per packet and is not
/// overlapped with transmission in this model (the paper's models compare
/// communication costs; overlap would only amplify the orderings'
/// advantage).
fn pipelined_sweep_time(
    family: OrderingFamily,
    w: &Workload,
    machine: &Machine,
    compute: &ComputeModel,
) -> SweepTime {
    SweepTime {
        computation: compute.sweep_per_node(w),
        communication: pipelined_sweep_cost(family, w, machine).total,
    }
}

/// Parallel speedup of the pipelined algorithm over one node running the
/// whole sweep (no communication).
pub fn speedup(
    family: OrderingFamily,
    w: &Workload,
    machine: &Machine,
    compute: &ComputeModel,
) -> f64 {
    let seq = compute.sweep_total(w.m);
    let par = pipelined_sweep_time(family, w, machine, compute).total();
    seq / par
}

/// Parallel efficiency: speedup / node count.
pub fn efficiency(
    family: OrderingFamily,
    w: &Workload,
    machine: &Machine,
    compute: &ComputeModel,
) -> f64 {
    speedup(family, w, machine, compute) / (1u64 << w.d) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Machine, ComputeModel) {
        (Machine::paper_figure2(), ComputeModel { tc: 10.0 })
    }

    #[test]
    fn computation_divides_evenly() {
        let (_, compute) = setup();
        let w = Workload::new(1024.0, 4);
        let total = compute.sweep_total(1024.0);
        assert!((compute.sweep_per_node(&w) * 16.0 - total).abs() < 1e-6 * total);
    }

    #[test]
    fn speedup_is_bounded_by_node_count() {
        let (machine, compute) = setup();
        for d in [2usize, 4, 6] {
            let w = Workload::new(4096.0, d);
            for family in OrderingFamily::ALL {
                let s = speedup(family, &w, &machine, &compute);
                assert!(s > 0.0 && s <= (1u64 << d) as f64 + 1e-9, "{family} d={d}: {s}");
            }
        }
    }

    #[test]
    fn better_orderings_give_better_speedups() {
        // Where communication matters, degree-4 and permuted-BR must beat
        // BR end to end, not just in the communication column.
        let (machine, compute) = setup();
        let w = Workload::new(2048.0, 6);
        let br = speedup(OrderingFamily::Br, &w, &machine, &compute);
        let d4 = speedup(OrderingFamily::Degree4, &w, &machine, &compute);
        let pbr = speedup(OrderingFamily::PermutedBr, &w, &machine, &compute);
        assert!(d4 > br, "degree-4 {d4} ≤ BR {br}");
        assert!(pbr > br, "permuted-BR {pbr} ≤ BR {br}");
    }

    #[test]
    fn comm_fraction_grows_with_node_count() {
        // Fixed problem, more nodes: computation shrinks 2× per dimension,
        // communication shrinks slower → fraction rises (the regime where
        // the paper's contribution matters).
        let (machine, compute) = setup();
        let f = |d: usize| {
            unpipelined_sweep_time(&Workload::new(2048.0, d), &machine, &compute).comm_fraction()
        };
        assert!(f(2) < f(5), "{} vs {}", f(2), f(5));
        assert!(f(5) < f(8), "{} vs {}", f(5), f(8));
    }

    #[test]
    fn zero_flop_time_makes_time_pure_communication() {
        let machine = Machine::paper_figure2();
        let compute = ComputeModel { tc: 0.0 };
        let w = Workload::new(512.0, 3);
        let t = unpipelined_sweep_time(&w, &machine, &compute);
        assert_eq!(t.computation, 0.0);
        assert!((t.comm_fraction() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn efficiency_below_one_and_ordering_sensitive() {
        let (machine, compute) = setup();
        let w = Workload::new(4096.0, 8);
        let e_br = efficiency(OrderingFamily::Br, &w, &machine, &compute);
        let e_d4 = efficiency(OrderingFamily::Degree4, &w, &machine, &compute);
        assert!(e_br < 1.0 && e_d4 < 1.0);
        assert!(e_d4 > e_br);
    }
}
