//! Symbolic execution of a sweep and the pairing-coverage validator.
//!
//! A parallel Jacobi ordering is correct when one sweep pairs every pair of
//! the `2^{d+1}` column blocks exactly once (plus each block's internal
//! column pairs at the first step). This module moves *block identifiers*
//! (no numerics) through a [`SweepSchedule`] and checks that invariant — the
//! executable counterpart of the paper's correctness arguments (its
//! Theorem 1, and \[12\] for BR).

use crate::sweep::{SweepSchedule, Transition, TransitionKind};

/// Identifier of a column block (`0..2^{d+1}`).
pub type BlockId = usize;

/// Block placement: `slots[n] = [resident, mobile]` for node `n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockLayout {
    slots: Vec<[BlockId; 2]>,
}

impl BlockLayout {
    /// The canonical initial placement: node `n` holds blocks `n` (slot 0)
    /// and `n + 2^d` (slot 1).
    pub fn canonical(d: usize) -> Self {
        let p = 1usize << d;
        BlockLayout { slots: (0..p).map(|n| [n, n + p]).collect() }
    }

    /// An arbitrary placement; `blocks` lists slot-0 then slot-1 per node.
    ///
    /// # Panics
    /// Panics unless `blocks` is a permutation of `0..2·len`.
    pub fn from_slots(slots: Vec<[BlockId; 2]>) -> Self {
        let total = slots.len() * 2;
        let mut seen = vec![false; total];
        for s in &slots {
            for &b in s {
                assert!(b < total && !seen[b], "blocks must be a permutation");
                seen[b] = true;
            }
        }
        BlockLayout { slots }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.slots.len()
    }

    /// The two blocks at node `n`.
    pub fn at(&self, n: usize) -> [BlockId; 2] {
        self.slots[n]
    }

    /// Applies one transition's movement.
    pub fn apply(&mut self, t: &Transition) {
        let mask = 1usize << t.link;
        match t.kind {
            // Both sides swap their mobile (slot-1) blocks.
            TransitionKind::Exchange { .. } | TransitionKind::LastTransition => {
                self.swap_mobiles(mask)
            }
            // bit=0 side sends its mobile, bit=1 side its resident:
            // afterwards n holds two "resident-class" blocks and p two
            // "mobile-class" blocks, splitting the population.
            TransitionKind::Division { .. } => self.swap_across(mask, 1, 0),
        }
    }

    /// Moves every node `n`'s mobile (slot-1) block to node `n ^ mask`: the
    /// exchange (or last) transitions whose links XOR to `mask`, composed.
    pub(crate) fn swap_mobiles(&mut self, mask: usize) {
        self.swap_across(mask, 1, 1);
    }

    /// Swaps slot `mine` of every node `n` whose highest `mask` bit is
    /// clear with slot `theirs` of node `n ^ mask` — each pair once, in
    /// runs of consecutive nodes.
    fn swap_across(&mut self, mask: usize, mine: usize, theirs: usize) {
        if mask == 0 {
            return;
        }
        let high = 1usize << mask.ilog2();
        for run in (0..self.slots.len()).step_by(2 * high) {
            for n in run..run + high {
                let p = n ^ mask;
                let tmp = self.slots[n][mine];
                self.slots[n][mine] = self.slots[p][theirs];
                self.slots[p][theirs] = tmp;
            }
        }
    }
}

/// The block-level trace of one sweep: which block pairs met at each step.
#[derive(Debug, Clone)]
pub struct SweepTrace {
    /// `steps[s]` lists the `(slot0, slot1)` block pair of every node at
    /// step `s` (step 0 is the initial step that also performs intra-block
    /// pairings).
    pub steps: Vec<Vec<(BlockId, BlockId)>>,
    /// The layout after the whole sweep (input to the next sweep).
    pub final_layout: BlockLayout,
}

/// Symbolically executes one sweep from `layout`.
///
/// Pairings are recorded at the initial step and after every transition
/// except the last one (whose only job is to rearrange blocks for the next
/// sweep) — `2^{d+1} − 1` steps in total, matching the paper's count.
pub fn trace_sweep(schedule: &SweepSchedule, layout: &BlockLayout) -> SweepTrace {
    let mut layout = layout.clone();
    let record =
        |l: &BlockLayout| (0..l.nodes()).map(|n| (l.at(n)[0], l.at(n)[1])).collect::<Vec<_>>();
    let mut steps = vec![record(&layout)];
    let ts = schedule.transitions();
    for (i, t) in ts.iter().enumerate() {
        layout.apply(t);
        if i + 1 < ts.len() {
            steps.push(record(&layout));
        }
    }
    SweepTrace { steps, final_layout: layout }
}

/// Coverage failure description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverageError {
    /// A block pair was produced `count` times (≠ 1).
    BadPairCount { a: BlockId, b: BlockId, count: usize },
    /// A node paired a block with itself (two slots holding one block).
    SelfPair { step: usize, node: usize, block: BlockId },
}

impl std::fmt::Display for CoverageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoverageError::BadPairCount { a, b, count } => {
                write!(f, "block pair ({a},{b}) paired {count} times, expected exactly 1")
            }
            CoverageError::SelfPair { step, node, block } => {
                write!(f, "node {node} holds block {block} twice at step {step}")
            }
        }
    }
}

impl std::error::Error for CoverageError {}

/// Validates that one sweep from `layout` pairs every block pair exactly
/// once.
pub fn validate_sweep_coverage(
    schedule: &SweepSchedule,
    layout: &BlockLayout,
) -> Result<SweepTrace, CoverageError> {
    let trace = trace_sweep(schedule, layout);
    let total_blocks = layout.nodes() * 2;
    let mut counts = vec![0usize; total_blocks * total_blocks];
    for (s, step) in trace.steps.iter().enumerate() {
        for (node, &(a, b)) in step.iter().enumerate() {
            if a == b {
                return Err(CoverageError::SelfPair { step: s, node, block: a });
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            counts[lo * total_blocks + hi] += 1;
        }
    }
    for lo in 0..total_blocks {
        for hi in (lo + 1)..total_blocks {
            let c = counts[lo * total_blocks + hi];
            if c != 1 {
                return Err(CoverageError::BadPairCount { a: lo, b: hi, count: c });
            }
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::OrderingFamily;
    use crate::sweep::sweep_link_permutation;

    #[test]
    fn canonical_layout_is_valid() {
        let l = BlockLayout::canonical(3);
        assert_eq!(l.nodes(), 8);
        assert_eq!(l.at(5), [5, 13]);
    }

    #[test]
    fn every_family_covers_all_pairs_canonical() {
        for d in 1..=5 {
            for family in OrderingFamily::ALL {
                let sched = SweepSchedule::first_sweep(d, family);
                let layout = BlockLayout::canonical(d);
                validate_sweep_coverage(&sched, &layout)
                    .unwrap_or_else(|e| panic!("{family} d={d}: {e}"));
            }
        }
    }

    #[test]
    fn coverage_holds_for_every_sweep_rotation() {
        for d in 1..=4 {
            for family in OrderingFamily::ALL {
                for s in 0..d {
                    let sched = SweepSchedule::sweep(d, family, s);
                    let layout = BlockLayout::canonical(d);
                    validate_sweep_coverage(&sched, &layout)
                        .unwrap_or_else(|e| panic!("{family} d={d} sweep={s}: {e}"));
                }
            }
        }
    }

    #[test]
    fn coverage_holds_from_the_previous_sweeps_final_layout() {
        // Chained sweeps: the layout a sweep leaves behind must still be a
        // valid starting point for the next (coverage is placement-free).
        let d = 4;
        for family in OrderingFamily::ALL {
            let mut layout = BlockLayout::canonical(d);
            for s in 0..2 * d {
                let sched = SweepSchedule::sweep(d, family, s);
                let trace = validate_sweep_coverage(&sched, &layout)
                    .unwrap_or_else(|e| panic!("{family} sweep {s}: {e}"));
                layout = trace.final_layout;
            }
        }
    }

    #[test]
    fn step_count_matches_paper() {
        for d in 1..=5 {
            let sched = SweepSchedule::first_sweep(d, OrderingFamily::Br);
            let trace = trace_sweep(&sched, &BlockLayout::canonical(d));
            assert_eq!(trace.steps.len(), (1 << (d + 1)) - 1);
        }
    }

    #[test]
    fn shuffled_initial_placement_still_covers() {
        // Coverage must be position-based, not label-based: any permutation
        // of blocks into slots works.
        let d = 3;
        let p = 1usize << d;
        // A fixed "random-looking" permutation of 0..16.
        let perm = [7usize, 2, 11, 14, 0, 9, 4, 13, 1, 15, 6, 3, 12, 5, 10, 8];
        let slots: Vec<[usize; 2]> = (0..p).map(|n| [perm[2 * n], perm[2 * n + 1]]).collect();
        let layout = BlockLayout::from_slots(slots);
        for family in OrderingFamily::ALL {
            let sched = SweepSchedule::first_sweep(d, family);
            validate_sweep_coverage(&sched, &layout).unwrap_or_else(|e| panic!("{family}: {e}"));
        }
    }

    #[test]
    fn validator_catches_a_broken_schedule() {
        // Repeat a link where the family sequence expects another and the
        // validator must object.
        use crate::sweep::{Transition, TransitionKind};
        let d = 2;
        let good = SweepSchedule::first_sweep(d, OrderingFamily::Br);
        let mut ts = good.transitions().to_vec();
        // Break the Hamiltonian tour: make the second exchange reuse link 0.
        ts[1] = Transition { link: 0, kind: TransitionKind::Exchange { phase: 2 } };
        // Rebuild by permuting a clone (no public constructor for raw lists,
        // so exercise the error path through a layout trick instead):
        // simpler — directly apply the broken movement here.
        let mut layout = BlockLayout::canonical(d);
        let mut counts = std::collections::HashMap::new();
        let mut record = |l: &BlockLayout| {
            for n in 0..l.nodes() {
                let [a, b] = l.at(n);
                let key = (a.min(b), a.max(b));
                *counts.entry(key).or_insert(0usize) += 1;
            }
        };
        record(&layout);
        for t in ts.iter().take(ts.len() - 1) {
            layout.apply(t);
            record(&layout);
        }
        let bad = counts.values().any(|&c| c != 1) || counts.len() < 8 * 7 / 2;
        assert!(bad, "broken schedule should not cover all pairs exactly once");
    }

    #[test]
    fn permutation_of_links_preserves_coverage() {
        let d = 4;
        let sched = SweepSchedule::first_sweep(d, OrderingFamily::PermutedBr);
        for s in 0..d {
            let sigma = sweep_link_permutation(d, s);
            let permuted = sched.clone().permuted(&sigma);
            validate_sweep_coverage(&permuted, &BlockLayout::canonical(d))
                .unwrap_or_else(|e| panic!("σ_{s}: {e}"));
        }
    }
}
