//! Lower bound on the communication cost of *any* pipelined Jacobi ordering
//! (the "Lower bound" series of Figure 2).
//!
//! Reconstruction (pinned by `lower_bound_is_below_every_family` and
//! `tests/paper_claims.rs`'s `claim_pbr_near_lower_bound_in_deep_mode`): an
//! ideal `e`-sequence would make every window of width `w` use `min(w, e)`
//! distinct links with the busiest link carrying `⌈w/e⌉` packets — the best
//! any Hamiltonian-path sequence could possibly do (only `e` links exist;
//! pigeonhole forces `⌈w/e⌉`). Pricing the pipelined schedule of such a
//! hypothetical sequence, minimized over `Q`, bounds every real ordering's
//! phase cost from below on an all-port machine whose start-ups serialize.
//!
//! A second, strictly safer per-stage bound `min_n (n·Ts + ⌈w/n⌉·S·Tw)` —
//! which also lets a sequence *concentrate* traffic to save start-ups — is
//! provided for validation ([`strict_stage_lower_bound`]); the ideal-window
//! model is the one plotted, matching the paper's curve shape.

use crate::machine::Machine;
use crate::optimum::search_degree;
use crate::pipelining::{mode_of, PipelineMode};

/// Σ_{w=1}^{W} min(w, e).
fn sum_min_w_e(w_max: usize, e: usize) -> f64 {
    if w_max == 0 {
        return 0.0;
    }
    let w = w_max as f64;
    let ef = e as f64;
    if w_max <= e {
        w * (w + 1.0) / 2.0
    } else {
        ef * (ef + 1.0) / 2.0 + (w - ef) * ef
    }
}

/// Σ_{w=1}^{W} ⌈w/e⌉.
fn sum_ceil_w_e(w_max: usize, e: usize) -> f64 {
    if w_max == 0 {
        return 0.0;
    }
    // ⌈w/e⌉ = floor((w−1)/e) + 1; Σ_{x=0}^{W−1} floor(x/e) has closed form.
    let t = (w_max / e) as f64;
    let r = (w_max % e) as f64;
    let ef = e as f64;
    let sum_floor = ef * t * (t - 1.0) / 2.0 + r * t;
    sum_floor + w_max as f64
}

/// The ideal-sequence lower-bound model of one exchange phase `e`
/// (`K = 2^e − 1` iterations of `elems` elements each).
#[derive(Debug, Clone, Copy)]
pub struct LowerBoundModel {
    pub e: usize,
    pub k: usize,
    pub elems: f64,
    pub machine: Machine,
}

impl LowerBoundModel {
    pub fn new(e: usize, elems: f64, machine: Machine) -> Self {
        LowerBoundModel { e, k: (1usize << e) - 1, elems, machine }
    }

    /// Phase cost of the ideal sequence at pipelining degree `q`
    /// (all-port model: start-ups serialize, transmissions overlap).
    fn cost(&self, q: usize) -> f64 {
        assert!(q >= 1);
        let k = self.k;
        let e = self.e;
        let s = self.elems / q as f64;
        let (ts, tw) = (self.machine.ts, self.machine.tw);
        let w0 = q.min(k); // steady window width
        let kernel_stages = (k.max(q) - w0 + 1) as f64;
        let kernel =
            kernel_stages * (w0.min(e) as f64 * ts + (w0 as f64 / e as f64).ceil() * s * tw);
        let edges = 2.0 * (sum_min_w_e(w0 - 1, e) * ts + sum_ceil_w_e(w0 - 1, e) * s * tw);
        kernel + edges
    }

    /// Minimizes the phase cost over `Q ∈ [1, q_max]` by ref \[9\]'s
    /// search, with the mode boundary `Q = K` and its neighbors as extra
    /// candidates.
    pub fn optimize(&self, q_max: f64) -> (usize, f64, PipelineMode) {
        let k = self.k;
        let extra = [k.saturating_sub(1), k, k + 1];
        let (q, cost) = search_degree(q_max, 2f64.powi(40), extra, true, |q| self.cost(q));
        (q, cost, mode_of(k, q))
    }
}

/// The strictly safe per-stage bound: even a sequence free to concentrate
/// traffic must pay `min_{1 ≤ n ≤ min(w,e)} (n·Ts + ⌈w/n⌉·S·Tw)` to move a
/// width-`w` window of packets.
pub fn strict_stage_lower_bound(w: usize, e: usize, s_elems: f64, machine: &Machine) -> f64 {
    if w == 0 {
        return 0.0;
    }
    (1..=w.min(e))
        .map(|n| n as f64 * machine.ts + (w as f64 / n as f64).ceil() * s_elems * machine.tw)
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cccube::CcCube;
    use crate::cost::PhaseCostModel;
    use crate::optimum::optimize_q;
    use mph_core::OrderingFamily;

    #[test]
    fn closed_form_sums() {
        for e in 1..=7 {
            for w_max in 0..40 {
                let naive_min: usize = (1..=w_max).map(|w| w.min(e)).sum();
                let naive_ceil: usize = (1..=w_max).map(|w| w.div_ceil(e)).sum();
                assert_eq!(sum_min_w_e(w_max, e), naive_min as f64, "min e={e} W={w_max}");
                assert_eq!(sum_ceil_w_e(w_max, e), naive_ceil as f64, "ceil e={e} W={w_max}");
            }
        }
    }

    #[test]
    fn lower_bound_is_below_every_family() {
        let machine = Machine::paper_figure2();
        for e in 2..=8 {
            for elems in [100.0, 1e5, 1e9] {
                let lb = LowerBoundModel::new(e, elems, machine);
                let (_, lb_cost, _) = lb.optimize(elems);
                for family in OrderingFamily::ALL {
                    let cc = CcCube::exchange_phase(family, e, elems);
                    let model = PhaseCostModel::new(&cc, machine);
                    let opt = optimize_q(&model, elems);
                    assert!(
                        lb_cost <= opt.cost * (1.0 + 1e-9),
                        "e={e} elems={elems} {family}: LB {lb_cost} > {}",
                        opt.cost
                    );
                }
            }
        }
    }

    #[test]
    fn min_alpha_approaches_the_bound_in_deep_mode() {
        // With transmission dominating and e ≤ 6, the min-α ordering's deep
        // cost should sit within a few percent of the ideal bound.
        let machine = Machine::paper_figure2();
        let e = 6;
        let elems = 1e10;
        let lb = LowerBoundModel::new(e, elems, machine);
        let (_, lb_cost, _) = lb.optimize(elems);
        let cc = CcCube::exchange_phase(OrderingFamily::MinAlpha, e, elems);
        let opt = optimize_q(&PhaseCostModel::new(&cc, machine), elems);
        assert!(opt.cost <= 1.10 * lb_cost, "min-α {} vs bound {lb_cost}", opt.cost);
    }

    #[test]
    fn strict_bound_is_below_ideal_window_cost() {
        let machine = Machine::paper_figure2();
        let (e, s) = (5usize, 37.0);
        for w in 1..=31 {
            let ideal =
                w.min(e) as f64 * machine.ts + (w as f64 / e as f64).ceil() * s * machine.tw;
            let strict = strict_stage_lower_bound(w, e, s, &machine);
            assert!(strict <= ideal + 1e-9, "w={w}");
        }
    }

    #[test]
    fn unpipelined_q1_consistency() {
        let machine = Machine::paper_figure2();
        let lb = LowerBoundModel::new(5, 1000.0, machine);
        // q = 1: K = 31 stages of width 1 → K·(Ts + S·Tw), the unpipelined
        // cost of every ordering.
        let unpipelined = 31.0 * (machine.ts + 1000.0 * machine.tw);
        assert!((lb.cost(1) - unpipelined).abs() < 1e-9);
    }
}
