//! Whole-sweep communication cost (the quantity Figure 2 plots).
//!
//! A sweep's communication is the concatenation of its exchange phases
//! (each a CC-cube algorithm, pipelined independently with its own optimal
//! `Q`) plus the `d` division transitions and the final last transition,
//! which are single unpipelined block exchanges. Costs are reported both
//! absolutely and relative to the unpipelined BR CC-cube algorithm — the
//! paper's baseline (`"communication cost relative to BR"`). This module
//! holds the cost sheet ([`SweepCost`]) and the Figure-2 data points;
//! every series of a point is priced by [`crate::plancost`] on a lowered
//! one-sweep [`CommPlan`] — the three families by
//! [`plan_sweep_cost`], the baseline by [`plan_unpipelined_cost`] and the
//! lower bound ([`ideal_phase`]) by the same composition over the ideal
//! sequence at each phase's message size.

use crate::lowerbound::ideal_phase;
use crate::machine::Machine;
use crate::pipelining::PipelineMode;
use crate::plancost::{
    optimal_sweep_cost, packetization_cap, plan_sweep_cost, plan_unpipelined_cost,
};
use mph_core::{CommPlan, OrderingFamily, PlanPhase};
use std::borrow::Cow;

/// Per-phase outcome inside a sweep cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseOutcome {
    /// Exchange phase number `e` (phases run e = d, d−1, …, 1).
    pub e: usize,
    pub q: usize,
    pub mode: PipelineMode,
    pub cost: f64,
}

/// Cost breakdown of one full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCost {
    pub d: usize,
    /// Exchange-phase outcomes, e = d down to 1.
    pub phases: Vec<PhaseOutcome>,
    /// Division transitions + last transition. With `tail_q = 1` this is
    /// the classical `d + 1` single whole-block messages; with
    /// `tail_q > 1` it is the exact price of the packetized,
    /// phase-chained tail runs on the schedule clock (see
    /// [`plan_cost_with_tail`](crate::plancost::plan_cost_with_tail)).
    pub serial: f64,
    /// The packet degree the serial tail was priced at (1 = whole-block,
    /// the paper's unpipelined division/last transitions).
    pub tail_q: usize,
    pub total: f64,
}

impl SweepCost {
    /// Mode of the first (e = d, most time-consuming) exchange phase. The
    /// paper marks the permuted-BR series with filled symbols when deep
    /// pipelining was used and unfilled when "shallow pipelining is used in
    /// the first (the most time consuming) exchange phases".
    fn first_phase_mode(&self) -> PipelineMode {
        self.phases.first().map(|p| p.mode).unwrap_or(PipelineMode::Unpipelined)
    }
}

/// One point of Figure 2: all five series at `(d, m)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure2Point {
    pub d: usize,
    pub m: f64,
    pub pipelined_br: f64,
    pub degree4: f64,
    pub permuted_br: f64,
    /// Whether the dominant (e = d) exchange phase of permuted-BR ran deep
    /// (the paper's filled-symbol annotation).
    pub permuted_br_deep: bool,
    pub lower_bound: f64,
}

/// Computes one Figure-2 point: relative communication costs at cube
/// dimension `d` for matrix size `m` (a whole column count, as every panel
/// of the figure uses). Each family's sweep is lowered to its one-sweep
/// plan and priced at the packetization ceiling.
pub fn figure2_point(d: usize, m: f64, machine: &Machine) -> Figure2Point {
    let cols = m as usize;
    let q_max = packetization_cap(cols, d) as f64;
    let lower = |family| CommPlan::chain(cols, d, family, 2 * cols, 1).remove(0);
    let br = lower(OrderingFamily::Br);
    let base = plan_unpipelined_cost(&br, machine);
    let relative = |plan: &CommPlan| plan_sweep_cost(plan, machine, q_max).total / base;
    let pbr = plan_sweep_cost(&lower(OrderingFamily::PermutedBr), machine, q_max);
    // Ideal sequences in every phase, priced all-port as defined.
    let all_port = Machine::all_port(machine.ts, machine.tw);
    let ideal = |e, ph: &PlanPhase| ideal_phase(e, ph.max_message_elems() as f64).link_seq;
    let bound = optimal_sweep_cost(&br, &all_port, q_max, |e, ph| Cow::Owned(ideal(e, ph)));
    Figure2Point {
        d,
        m,
        pipelined_br: relative(&br),
        degree4: relative(&lower(OrderingFamily::Degree4)),
        permuted_br_deep: pbr.first_phase_mode() == PipelineMode::Deep,
        permuted_br: pbr.total / base,
        lower_bound: bound.total / base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elems_per_transfer_matches_block_algebra() {
        // m columns split into 2^{d+1} blocks; a transition moves one block
        // of A plus one block of U: 2 · (m/2^{d+1}) · m = m²/2^d — the
        // message every phase of the lowered sweep carries.
        for (m, d, elems) in [(16usize, 2, 64u64), (1024, 5, 1024 * 1024 / 32)] {
            let plan = CommPlan::chain(m, d, OrderingFamily::Br, 2 * m, 1).remove(0);
            assert!(plan.phases().iter().all(|ph| ph.max_message_elems() == elems));
        }
    }

    #[test]
    fn sweep_composition_counts() {
        let machine = Machine::paper_figure2();
        let d = 5;
        let plan = CommPlan::chain(1024, d, OrderingFamily::Br, 2048, 1).remove(0);
        let sc = plan_sweep_cost(&plan, &machine, packetization_cap(1024, d) as f64);
        assert_eq!(sc.phases.len(), d);
        assert_eq!(sc.phases[0].e, d);
        assert_eq!(sc.phases[d - 1].e, 1);
        let elems = 1024.0 * 1024.0 / 32.0;
        assert!((sc.serial - 6.0 * machine.single_message_cost(elems)).abs() < 1e-9);
    }

    #[test]
    fn relative_ordering_of_series() {
        // Qualitative shape of Figure 2: LB ≤ pBR, LB ≤ D4 ≤ ~pipelined BR
        // ≤ 1, for a transmission-dominated point.
        let machine = Machine::paper_figure2();
        let p = figure2_point(6, 2f64.powi(18), &machine);
        assert!(p.lower_bound <= p.permuted_br + 1e-12);
        assert!(p.lower_bound <= p.degree4 + 1e-12);
        assert!(p.degree4 <= p.pipelined_br + 1e-12);
        assert!(p.pipelined_br <= 1.0 + 1e-12);
    }

    #[test]
    fn pipelined_br_is_about_half() {
        // Paper: "the communication cost of the pipelined CC-cube algorithm
        // when the BR ordering is used is about one half of that of the
        // original CC-cube" (transmission-dominated regime).
        let machine = Machine::paper_figure2();
        let p = figure2_point(8, 2f64.powi(23), &machine);
        assert!(
            p.pipelined_br > 0.40 && p.pipelined_br < 0.62,
            "pipelined BR = {}",
            p.pipelined_br
        );
    }

    #[test]
    fn degree4_is_about_a_quarter() {
        // Paper: degree-4's cost "is about one forth of the cost of the
        // CC-cube BR algorithm in all the considered scenarios".
        let machine = Machine::paper_figure2();
        for d in [6usize, 8, 10] {
            let p = figure2_point(d, 2f64.powi(23), &machine);
            assert!(p.degree4 > 0.15 && p.degree4 < 0.40, "d={d}: degree-4 = {}", p.degree4);
        }
    }

    #[test]
    fn permuted_br_approaches_lower_bound_for_huge_matrices() {
        // Panel (c): m = 2^32 keeps the dominant phases deep; pBR within
        // ~1.25–1.45× of the lower bound.
        let machine = Machine::paper_figure2();
        let p = figure2_point(10, 2f64.powi(32), &machine);
        let ratio = p.permuted_br / p.lower_bound;
        assert!(ratio < 1.45, "pBR/LB = {ratio}");
        assert!(p.permuted_br < 0.35, "pBR = {} not near the bound", p.permuted_br);
    }

    #[test]
    fn small_matrices_degrade_permuted_br_towards_br() {
        // Panel (a) right edge: Q ≤ 8 forces shallow pipelining; pBR's
        // zero-heavy windows make it behave like pipelined BR again.
        let machine = Machine::paper_figure2();
        let p = figure2_point(14, 2f64.powi(18), &machine);
        assert!(!p.permuted_br_deep, "expected shallow dominant phase at d=14, m=2^18");
        assert!(
            (p.permuted_br - p.pipelined_br).abs() < 0.2,
            "pBR {} vs pipelined BR {}",
            p.permuted_br,
            p.pipelined_br
        );
        // Degree-4 keeps its ~4× advantage exactly where pBR loses its own.
        assert!(p.degree4 < p.permuted_br, "degree-4 {} ≥ pBR {}", p.degree4, p.permuted_br);
    }
}
