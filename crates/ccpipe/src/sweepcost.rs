//! Whole-sweep communication cost (the quantity Figure 2 plots).
//!
//! A sweep's communication is the concatenation of its exchange phases
//! (each a CC-cube algorithm, pipelined independently with its own optimal
//! `Q`) plus the `d` division transitions and the final last transition,
//! which are single unpipelined block exchanges. Costs are reported both
//! absolutely and relative to the unpipelined BR CC-cube algorithm — the
//! paper's baseline (`"communication cost relative to BR"`). Every
//! pipelined series of Figure 2 — the three families and the lower bound
//! ([`ideal_phase`]) — is that one composition over a different CC-cube
//! per phase.

use crate::cccube::CcCube;
use crate::cost::PhaseCostModel;
use crate::lowerbound::ideal_phase;
use crate::machine::Machine;
use crate::optimum::{optimize_q, OptimalQ};
use crate::pipelining::PipelineMode;
use mph_core::OrderingFamily;

/// A Jacobi workload: `m × m` symmetric problem on a `d`-cube.
///
/// Besides the transfer volume, the workload fixes the **packetization
/// ceiling**: communication pipelining splits a block into `Q` packets, and
/// the finest unit of computation that produces a sendable result is one
/// *column pair* (the `A`-column plus its `U`-column — the destination needs
/// whole columns to form the inner products of the next pairing). Hence
/// `Q ≤ m / 2^{d+1}`, which is what forces shallow pipelining — and the
/// degradation of permuted-BR — when "the matrix size is not large enough
/// to enable large values of Q" (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub m: f64,
    pub d: usize,
}

impl Workload {
    pub fn new(m: f64, d: usize) -> Self {
        Workload { m, d }
    }

    /// Elements exchanged per transition: one block of `m / 2^{d+1}`
    /// columns from each of the two matrices `A` and `U`, each column `m`
    /// elements — `m² / 2^d` in total (real-valued; the paper's analytic
    /// models treat sizes continuously).
    fn elems_per_transfer(&self) -> f64 {
        self.m * self.m / (1u64 << self.d) as f64
    }

    /// Column pairs per block — the maximum pipelining degree.
    pub(crate) fn max_pipelining_degree(&self) -> f64 {
        (self.m / (1u64 << (self.d + 1)) as f64).max(1.0)
    }
}

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

/// Unpipelined sweep cost: `2^{d+1} − 1` single block messages. This is the
/// "BR Algorithm" baseline of Figure 2 (identical for every family: all
/// transitions move the same block volume one link at a time).
pub fn unpipelined_sweep_cost(w: &Workload, machine: &Machine) -> f64 {
    (((1u64 << (w.d + 1)) - 1) as f64) * machine.single_message_cost(w.elems_per_transfer())
}

/// Pipelined sweep cost for `family` with per-phase optimal `Q` (capped by
/// the workload's packetization ceiling).
pub fn pipelined_sweep_cost(family: OrderingFamily, w: &Workload, machine: &Machine) -> SweepCost {
    sweep_cost(w, machine, |e, elems| CcCube::exchange_phase(family, e, elems))
}

/// A sweep whose exchange phase `e` is the CC-cube `phase(e, elems)`, each
/// pipelined at its own optimal `Q` (capped by the workload's
/// packetization ceiling), followed by the division and last transitions:
/// `d + 1` single whole-block messages, which no sequence avoids.
fn sweep_cost(w: &Workload, machine: &Machine, phase: impl Fn(usize, f64) -> CcCube) -> SweepCost {
    let d = w.d;
    let elems = w.elems_per_transfer();
    let q_max = w.max_pipelining_degree();
    let phases: Vec<PhaseOutcome> = (1..=d)
        .rev()
        .map(|e| {
            let model = PhaseCostModel::new(&phase(e, elems), *machine);
            let OptimalQ { q, cost, mode } = optimize_q(&model, q_max);
            PhaseOutcome { e, q, mode, cost }
        })
        .collect();
    let serial = (d as f64 + 1.0) * machine.single_message_cost(elems);
    let total = phases.iter().map(|p| p.cost).sum::<f64>() + serial;
    SweepCost { d, phases, serial, tail_q: 1, total }
}

/// One point of Figure 2: all five series at `(d, m)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure2Point {
    pub d: usize,
    pub m: f64,
    /// Always 1.0 (the baseline), kept for completeness.
    pub br_relative: f64,
    pub pipelined_br: f64,
    pub degree4: f64,
    pub permuted_br: f64,
    /// Whether the dominant (e = d) exchange phase of permuted-BR ran deep
    /// (the paper's filled-symbol annotation).
    pub permuted_br_deep: bool,
    pub lower_bound: f64,
}

/// Computes one Figure-2 point: relative communication costs at cube
/// dimension `d` for matrix size `m`.
pub fn figure2_point(d: usize, m: f64, machine: &Machine) -> Figure2Point {
    let w = Workload::new(m, d);
    let base = unpipelined_sweep_cost(&w, machine);
    let pbr = pipelined_sweep_cost(OrderingFamily::PermutedBr, &w, machine);
    Figure2Point {
        d,
        m,
        br_relative: 1.0,
        pipelined_br: pipelined_sweep_cost(OrderingFamily::Br, &w, machine).total / base,
        degree4: pipelined_sweep_cost(OrderingFamily::Degree4, &w, machine).total / base,
        permuted_br_deep: pbr.first_phase_mode() == PipelineMode::Deep,
        permuted_br: pbr.total / base,
        // Ideal sequences in every phase, priced all-port as defined.
        lower_bound: sweep_cost(&w, &Machine::all_port(machine.ts, machine.tw), ideal_phase).total
            / base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elems_per_transfer_matches_block_algebra() {
        // m columns split into 2^{d+1} blocks; a transition moves one block
        // of A plus one block of U: 2 · (m/2^{d+1}) · m = m²/2^d.
        assert_eq!(Workload::new(16.0, 2).elems_per_transfer(), 64.0);
        assert_eq!(Workload::new(1024.0, 5).elems_per_transfer(), 1024.0 * 1024.0 / 32.0);
    }

    #[test]
    fn workload_packetization_ceiling() {
        // m = 2^18 on d = 14: blocks hold 2^18/2^15 = 8 column pairs, so
        // Q ≤ 8 — far below K = 2^14 − 1: only shallow pipelining possible.
        let w = Workload::new(2f64.powi(18), 14);
        assert_eq!(w.max_pipelining_degree(), 8.0);
        // m = 2^32 on d = 10: Q can reach 2^21 ≫ K = 1023: deep possible.
        let w = Workload::new(2f64.powi(32), 10);
        assert_eq!(w.max_pipelining_degree(), 2f64.powi(21));
    }

    #[test]
    fn sweep_composition_counts() {
        let machine = Machine::paper_figure2();
        let d = 5;
        let w = Workload::new(1024.0, d);
        let sc = pipelined_sweep_cost(OrderingFamily::Br, &w, &machine);
        assert_eq!(sc.phases.len(), d);
        assert_eq!(sc.phases[0].e, d);
        assert_eq!(sc.phases[d - 1].e, 1);
        let elems = w.elems_per_transfer();
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
