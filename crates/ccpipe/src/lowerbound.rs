//! Lower bound on the communication cost of *any* pipelined Jacobi ordering
//! (the "Lower bound" series of Figure 2).
//!
//! Reconstruction (pinned by `lower_bound_is_below_every_family` and
//! `tests/paper_claims.rs`'s `claim_pbr_near_lower_bound_in_deep_mode`): an
//! ideal `e`-sequence would make every window of width `w` use `min(w, e)`
//! distinct links with the busiest link carrying `⌈w/e⌉` packets — the best
//! any Hamiltonian-path sequence could possibly do (only `e` links exist;
//! pigeonhole forces `⌈w/e⌉`). Links cycling `i mod e` are such a
//! sequence, [`ideal_phase`]: every window is `w` consecutive residues. So
//! the bound is one more sequence for [`PhaseCostModel`](crate::PhaseCostModel)
//! at its optimal `Q`, priced all-port (start-ups serialize, transmissions
//! overlap), where it bounds every real ordering's phase cost from below.
//!
//! A second, strictly safer per-stage bound `min_n (n·Ts + ⌈w/n⌉·S·Tw)` —
//! which also lets a sequence *concentrate* traffic to save start-ups — is
//! provided for validation ([`strict_stage_lower_bound`]); the ideal-window
//! model is the one plotted, matching the paper's curve shape.

use crate::cccube::CcCube;
use crate::machine::Machine;

/// The ideal exchange phase `e`: `K = 2^e − 1` iterations of
/// `message_elems` elements each, whose links cycle `i mod e`.
pub fn ideal_phase(e: usize, message_elems: f64) -> CcCube {
    CcCube { link_seq: (0..(1usize << e) - 1).map(|i| i % e).collect(), message_elems }
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
    use crate::cost::PhaseCostModel;
    use crate::optimum::optimize_q;
    use mph_core::OrderingFamily;

    #[test]
    fn every_window_of_the_ideal_phase_is_ideal() {
        for e in 1..=6 {
            let seq = ideal_phase(e, 1.0).link_seq;
            assert_eq!(seq.len(), (1 << e) - 1);
            for lo in 0..seq.len() {
                let mut hist = vec![0usize; e];
                for (w, &l) in (1..).zip(&seq[lo..]) {
                    hist[l] += 1;
                    let links = hist.iter().filter(|&&c| c > 0).count();
                    assert_eq!(links, w.min(e), "e={e} window {lo}+{w}: links");
                    assert_eq!(hist.iter().max(), Some(&w.div_ceil(e)), "e={e} {lo}+{w}: load");
                }
            }
        }
    }

    /// The bound's phase cost: the ideal phase at its optimal `Q`.
    fn bound(e: usize, elems: f64, machine: Machine) -> f64 {
        optimize_q(&PhaseCostModel::new(&ideal_phase(e, elems), machine), elems).cost
    }

    #[test]
    fn lower_bound_is_below_every_family() {
        let machine = Machine::paper_figure2();
        for e in 2..=8 {
            for elems in [100.0, 1e5, 1e9] {
                let lb_cost = bound(e, elems, machine);
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
        let lb_cost = bound(e, elems, machine);
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
}
