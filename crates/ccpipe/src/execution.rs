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
//!
//! Every function prices a lowered one-sweep [`CommPlan`] of an `m × m`
//! problem — the plan carries the cube and the ordering, `m` the
//! computation — through [`crate::plancost`], the same composition that
//! draws Figure 2 and schedules the solver.

use crate::machine::Machine;
use crate::plancost::{packetization_cap, plan_sweep_cost, plan_unpipelined_cost};
use mph_core::CommPlan;

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
    fn sweep_per_node(&self, m: usize, d: usize) -> f64 {
        self.sweep_total(m as f64) / (1u64 << d) as f64
    }
}

/// Total-time breakdown of one parallel sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepTime {
    pub computation: f64,
    pub communication: f64,
}

impl SweepTime {
    /// Fraction of the sweep spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        self.communication / (self.computation + self.communication)
    }
}

/// Total time of one sweep with the *unpipelined* algorithm (computation
/// and communication strictly alternate, no overlap — the CC-cube model).
pub fn unpipelined_sweep_time(
    plan: &CommPlan,
    m: usize,
    machine: &Machine,
    compute: &ComputeModel,
) -> SweepTime {
    SweepTime {
        computation: compute.sweep_per_node(m, plan.d()),
        communication: plan_unpipelined_cost(plan, machine),
    }
}

/// Parallel speedup of the pipelined algorithm — each exchange phase at
/// its optimal degree under the packetization ceiling — over one node
/// running the whole sweep (no communication).
///
/// Conservative composition: pipelining restructures *communication*
/// within each phase; computation still happens once per packet and is not
/// overlapped with transmission in this model (the paper's models compare
/// communication costs; overlap would only amplify the orderings'
/// advantage).
pub fn speedup(plan: &CommPlan, m: usize, machine: &Machine, compute: &ComputeModel) -> f64 {
    let q_max = packetization_cap(m, plan.d()) as f64;
    let par = compute.sweep_per_node(m, plan.d()) + plan_sweep_cost(plan, machine, q_max).total;
    compute.sweep_total(m as f64) / par
}

/// Parallel efficiency: speedup / node count.
pub fn efficiency(plan: &CommPlan, m: usize, machine: &Machine, compute: &ComputeModel) -> f64 {
    speedup(plan, m, machine, compute) / (1u64 << plan.d()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_core::OrderingFamily;

    fn setup() -> (Machine, ComputeModel) {
        (Machine::paper_figure2(), ComputeModel { tc: 10.0 })
    }

    fn plan(m: usize, d: usize, family: OrderingFamily) -> CommPlan {
        CommPlan::chain(m, d, family, 2 * m, 1).remove(0)
    }

    #[test]
    fn computation_divides_evenly() {
        let (_, compute) = setup();
        let total = compute.sweep_total(1024.0);
        assert!((compute.sweep_per_node(1024, 4) * 16.0 - total).abs() < 1e-6 * total);
    }

    #[test]
    fn speedup_is_bounded_by_node_count() {
        let (machine, compute) = setup();
        for d in [2usize, 4, 6] {
            for family in OrderingFamily::ALL {
                let s = speedup(&plan(4096, d, family), 4096, &machine, &compute);
                assert!(s > 0.0 && s <= (1u64 << d) as f64 + 1e-9, "{family} d={d}: {s}");
            }
        }
    }

    #[test]
    fn better_orderings_give_better_speedups() {
        // Where communication matters, degree-4 and permuted-BR must beat
        // BR end to end, not just in the communication column.
        let (machine, compute) = setup();
        let s = |family| speedup(&plan(2048, 6, family), 2048, &machine, &compute);
        let br = s(OrderingFamily::Br);
        let d4 = s(OrderingFamily::Degree4);
        let pbr = s(OrderingFamily::PermutedBr);
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
            let br = plan(2048, d, OrderingFamily::Br);
            unpipelined_sweep_time(&br, 2048, &machine, &compute).comm_fraction()
        };
        assert!(f(2) < f(5), "{} vs {}", f(2), f(5));
        assert!(f(5) < f(8), "{} vs {}", f(5), f(8));
    }

    #[test]
    fn zero_flop_time_makes_time_pure_communication() {
        let machine = Machine::paper_figure2();
        let compute = ComputeModel { tc: 0.0 };
        let br = plan(512, 3, OrderingFamily::Br);
        let t = unpipelined_sweep_time(&br, 512, &machine, &compute);
        assert_eq!(t.computation, 0.0);
        assert!((t.comm_fraction() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn efficiency_below_one_and_ordering_sensitive() {
        let (machine, compute) = setup();
        let eff = |family| efficiency(&plan(4096, 8, family), 4096, &machine, &compute);
        let e_br = eff(OrderingFamily::Br);
        let e_d4 = eff(OrderingFamily::Degree4);
        assert!(e_br < 1.0 && e_d4 < 1.0);
        assert!(e_d4 > e_br);
    }
}
