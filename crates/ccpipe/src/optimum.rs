//! Optimal pipelining degree (ref \[9\]'s "procedure to compute it").
//!
//! The cost of a pipelined exchange phase trades start-up overhead (more
//! stages, each paying one `Ts` per active link) against transmission
//! overlap (smaller packets, more links busy at once). The optimum `Q` is
//! found by pricing a candidate set: every small `Q`, a geometric grid up
//! to the packet-count ceiling, the shallow/deep boundary `Q = K`, and the
//! closed-form deep-mode minimum `Q* = √(c/a)`; the best grid point is then
//! refined by integer ternary search between its neighbors. The cost curve
//! is piecewise smooth and near-unimodal in each mode, so this matches
//! exhaustive search in tests.
//!
//! [`optimize_q`] reads every shallow candidate up to 64 off one walk of
//! the phase's link sequence (`PhaseCostModel::shallow_prices`), which
//! prices each of them to the bit of [`PhaseCostModel::cost`]: the walk and
//! the one-degree slide sum the same integer window statistics in the same
//! order (see [`crate::cost`]). Deep candidates are O(1) each, and their
//! statistics are taken only when the cap lets a degree reach `K`; the
//! grid's shallow degrees above 64 slide one by one.
//!
//! `search_degree` is that procedure, written once: [`optimize_q`] runs it
//! for every phase — Figure 2's lower bound included, which is one more
//! sequence ([`crate::lowerbound`]) — and the chained-tail degree with its
//! own candidates and hard cap.

use crate::cost::{PhaseCostModel, SMALL_DEGREES};
use crate::pipelining::{mode_of, PipelineMode};

/// Result of optimizing the pipelining degree of one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimalQ {
    pub q: usize,
    pub cost: f64,
    pub mode: PipelineMode,
}

/// Room for every candidate [`search_degree`] tries, on the stack: the
/// small degrees, the ×1.25 grid from 64 to the largest cap, `2^40` (106
/// points), a few extras and the cap.
const MAX_CANDIDATES: usize = SMALL_DEGREES + 128;

/// Finds the best integer `Q ∈ [1, q_max]` for the phase.
///
/// `q_max` is the packetization ceiling — a packet must carry at least one
/// element, so `q_max = message_elems` (callers pass it as `f64` because
/// Figure 2's block sizes exceed `usize` on no machine we care about, but
/// may exceed what is worth scanning; values above `2^40` are clamped).
pub fn optimize_q(model: &PhaseCostModel, q_max: f64) -> OptimalQ {
    let k = model.k;
    let hard_cap = 2f64.powi(40);
    let cap = degree_cap(q_max, hard_cap);
    let shallow = model.shallow_prices(cap);
    // The mode boundary and its neighbors, and the closed-form deep minimum
    // where a deep degree is in range.
    let qstar = (cap >= k).then(|| model.deep_optimum_candidate()).flatten();
    let deep = qstar.into_iter().flat_map(|q| [q.floor() as usize, q.ceil() as usize]);
    let extra = [k.saturating_sub(1), k, k + 1].into_iter().chain(deep.filter(|&q| q >= k));
    let price = |q| shallow.get(q).unwrap_or_else(|| model.cost(q));
    let (q, cost) = search_degree(q_max, hard_cap, extra, true, price);
    OptimalQ { q, cost, mode: mode_of(k, q) }
}

/// `q_max` clamped to `[1, hard_cap]`, as an integer degree.
fn degree_cap(q_max: f64, hard_cap: f64) -> usize {
    q_max.min(hard_cap).max(1.0) as usize
}

/// The integer `Q ∈ [1, cap]` of least `cost`, `cap` being `q_max` clamped
/// to `[1, hard_cap]`. The candidates are every `Q ≤ 64`, a ×1.25
/// geometric grid up to `cap`, `cap` itself and whichever of `extra` lie in
/// range; of equal costs the smallest candidate wins. With `refine`, an
/// integer ternary search between the winner's grid neighbors then
/// replaces it wherever it finds a strictly cheaper `Q`.
pub(crate) fn search_degree(
    q_max: f64,
    hard_cap: f64,
    extra: impl IntoIterator<Item = usize>,
    refine: bool,
    cost: impl Fn(usize) -> f64,
) -> (usize, f64) {
    let cap = degree_cap(q_max, hard_cap);
    let mut grid = SMALL_DEGREES as f64;
    let grid = std::iter::from_fn(|| {
        ((grid as usize) < cap).then(|| {
            grid *= 1.25;
            (grid as usize).min(cap)
        })
    });
    let mut store = [0usize; MAX_CANDIDATES];
    let mut len = 0;
    for q in (1..=SMALL_DEGREES.min(cap))
        .chain(grid)
        .chain(extra.into_iter().filter(|q| (1..=cap).contains(q)))
        .chain([cap])
    {
        store[len] = q;
        len += 1;
    }
    store[..len].sort_unstable();
    // Each degree once: keep a candidate where it differs from the last kept.
    let mut kept = 0;
    for i in 0..len {
        if kept == 0 || store[i] != store[kept - 1] {
            store[kept] = store[i];
            kept += 1;
        }
    }
    let candidates = &store[..kept];

    let (mut best_idx, mut best) = (0, (candidates[0], f64::INFINITY));
    for (i, &q) in candidates.iter().enumerate() {
        let c = cost(q);
        if c < best.1 {
            (best_idx, best) = (i, (q, c));
        }
    }
    if refine {
        let mut lo = candidates[best_idx.saturating_sub(1)];
        let mut hi = candidates[(best_idx + 1).min(candidates.len() - 1)];
        while hi - lo > 2 {
            let m1 = lo + (hi - lo) / 3;
            let m2 = hi - (hi - lo) / 3;
            if cost(m1) <= cost(m2) {
                hi = m2;
            } else {
                lo = m1;
            }
        }
        // A candidate already lost (or is `best`): only new degrees can win.
        for q in (lo..=hi).filter(|q| candidates.binary_search(q).is_err()) {
            let c = cost(q);
            if c < best.1 {
                best = (q, c);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cccube::CcCube;
    use crate::cost::reference;
    use crate::machine::Machine;
    use mph_core::OrderingFamily;
    use std::cell::RefCell;
    use std::collections::HashMap;

    /// The parent's search: the same candidates, each priced on its own by
    /// the parent's pricer (`prices` remembers them across caps).
    fn per_candidate_search(
        model: &PhaseCostModel,
        parent: &reference::Tables,
        prices: &RefCell<HashMap<usize, f64>>,
        q_max: f64,
    ) -> OptimalQ {
        let k = model.k;
        let qstar = parent.deep_optimum_candidate(model);
        let deep = qstar.into_iter().flat_map(|q| [q.floor() as usize, q.ceil() as usize]);
        let extra = [k.saturating_sub(1), k, k + 1].into_iter().chain(deep.filter(|&q| q >= k));
        let price = |q| *prices.borrow_mut().entry(q).or_insert_with(|| parent.cost(model, q));
        let (q, cost) = search_degree(q_max, 2f64.powi(40), extra, true, price);
        OptimalQ { q, cost, mode: mode_of(k, q) }
    }

    #[test]
    fn the_search_reads_the_walk_as_it_priced_each_candidate() {
        // On the walk's bitwise inputs, at caps below, at and above its 64
        // widths: the same degree, the same cost bits, the same mode.
        for link_seq in reference::sequences(9, 12, 300) {
            for machine in reference::machines() {
                let cc = CcCube { link_seq: link_seq.clone(), message_elems: 1e6 / 7.0 };
                let model = PhaseCostModel::new(&cc, machine);
                let (parent, prices) = (reference::Tables::new(&model), RefCell::default());
                for cap in [1.0, 16.0, 64.0, 1e6] {
                    let got = optimize_q(&model, cap);
                    let want = per_candidate_search(&model, &parent, &prices, cap);
                    assert_eq!(
                        (got.q, got.cost.to_bits(), got.mode),
                        (want.q, want.cost.to_bits(), want.mode),
                        "{machine:?} K={} cap={cap}",
                        model.k
                    );
                }
            }
        }
    }

    fn exhaustive_best(model: &PhaseCostModel, q_max: usize) -> (usize, f64) {
        let mut best = (1usize, f64::INFINITY);
        for q in 1..=q_max {
            let c = model.cost(q);
            if c < best.1 {
                best = (q, c);
            }
        }
        best
    }

    #[test]
    fn matches_exhaustive_search_small() {
        let machine = Machine::paper_figure2();
        for family in [OrderingFamily::Br, OrderingFamily::PermutedBr, OrderingFamily::Degree4] {
            for e in [3usize, 4, 5] {
                for elems in [8.0, 100.0, 3000.0] {
                    let cc = CcCube::exchange_phase(family, e, elems);
                    let model = PhaseCostModel::new(&cc, machine);
                    let got = optimize_q(&model, elems);
                    let (_, want_cost) = exhaustive_best(&model, elems as usize);
                    assert!(
                        got.cost <= want_cost * (1.0 + 1e-12),
                        "{family} e={e} elems={elems}: got {} want {}",
                        got.cost,
                        want_cost
                    );
                }
            }
        }
    }

    #[test]
    fn optimal_cost_never_exceeds_unpipelined() {
        let machine = Machine::paper_figure2();
        for e in 2..=9 {
            let cc = CcCube::exchange_phase(OrderingFamily::PermutedBr, e, 1e6);
            let model = PhaseCostModel::new(&cc, machine);
            let opt = optimize_q(&model, 1e6);
            assert!(opt.cost <= model.unpipelined_cost() + 1e-9, "e={e}");
        }
    }

    #[test]
    fn huge_messages_push_into_deep_mode() {
        // With transmission dominating, the optimizer should pick deep
        // pipelining for permuted-BR (its α is near-optimal).
        let machine = Machine::paper_figure2();
        let cc = CcCube::exchange_phase(OrderingFamily::PermutedBr, 6, 1e12);
        let model = PhaseCostModel::new(&cc, machine);
        let opt = optimize_q(&model, 1e12);
        assert_eq!(opt.mode, PipelineMode::Deep, "q={}", opt.q);
    }

    #[test]
    fn tiny_messages_stay_unpipelined() {
        // One element per transition: no packets to split.
        let machine = Machine::paper_figure2();
        let cc = CcCube::exchange_phase(OrderingFamily::Degree4, 6, 1.0);
        let model = PhaseCostModel::new(&cc, machine);
        let opt = optimize_q(&model, 1.0);
        assert_eq!(opt.q, 1);
        assert_eq!(opt.mode, PipelineMode::Unpipelined);
    }

    #[test]
    fn start_up_free_machine_wants_maximal_q() {
        // Ts = 0 removes the pipelining penalty entirely: cost is
        // non-increasing in Q, so the optimum is at the cap.
        let machine = Machine::all_port(0.0, 100.0);
        let cc = CcCube::exchange_phase(OrderingFamily::PermutedBr, 4, 4096.0);
        let model = PhaseCostModel::new(&cc, machine);
        let opt = optimize_q(&model, 4096.0);
        let at_cap = model.cost(4096);
        assert!(opt.cost <= at_cap * (1.0 + 1e-12));
    }
}
