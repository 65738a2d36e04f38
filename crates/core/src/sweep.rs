//! Full-sweep transition schedules (paper §2.3.1).
//!
//! A sweep on a `d`-cube consists of `2^{d+1} − 1` steps, each followed by
//! a transition, organized as:
//!
//! * **exchange phase `e`**, for `e = d` down to `1`: `2^e − 1` transitions
//!   whose links follow the family's `e`-sequence `D_e` — the slot-1
//!   ("mobile") block of every node tours its `e`-subcube;
//! * a **division phase** after each exchange phase: one slot-asymmetric
//!   transition along link `e − 1` that splits the subcube's block
//!   population into two independent halves. The split dimension is
//!   `e − 1`, not the paper's literal "link `e`", which does not exist for
//!   `e = d` (`tests::phase_structure_for_d3_br` pins it, and
//!   `coverage::tests::coverage_holds_for_every_sweep_rotation` shows every
//!   pair still meets);
//! * a final **last transition** along link `d − 1` that rearranges blocks
//!   for the next sweep.
//!
//! The second and later sweeps permute every link through
//! `σ_s(i) = (i − s) mod d` (paper: `σ_s(i) = (σ_{s−1}(i) − 1) mod d`),
//! rotating traffic across physical links so no dimension is persistently
//! favoured.

use crate::family::OrderingFamily;
use crate::permutation::Permutation;

/// What a transition does to the two block slots of each node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// Both endpoint nodes exchange their slot-1 (mobile) blocks.
    /// `phase` is the exchange-phase number `e`.
    Exchange { phase: usize },
    /// Slot-asymmetric division: the endpoint whose link-bit is 0 sends its
    /// slot-1 block, the endpoint whose link-bit is 1 sends its slot-0
    /// block (paper's "division phase" after exchange phase `phase`).
    Division { phase: usize },
    /// The sweep-final rearrangement (moves slot-1, like an exchange).
    LastTransition,
}

/// One transition: a link (dimension) plus its movement semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    pub link: usize,
    pub kind: TransitionKind,
}

/// The `2^{d+1} − 1` transitions of one sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSchedule {
    d: usize,
    transitions: Vec<Transition>,
}

impl SweepSchedule {
    /// Builds the first-sweep schedule for `family` on a `d`-cube.
    ///
    /// `d = 0` yields an empty transition list (a single node holding both
    /// blocks performs the whole sweep locally in one step).
    pub fn first_sweep(d: usize, family: OrderingFamily) -> Self {
        let mut transitions = Vec::with_capacity(if d == 0 { 0 } else { (1 << (d + 1)) - 1 });
        for e in (1..=d).rev() {
            for link in family.sequence(e) {
                transitions.push(Transition { link, kind: TransitionKind::Exchange { phase: e } });
            }
            transitions
                .push(Transition { link: e - 1, kind: TransitionKind::Division { phase: e } });
        }
        if d >= 1 {
            transitions.push(Transition { link: d - 1, kind: TransitionKind::LastTransition });
        }
        SweepSchedule { d, transitions }
    }

    /// Builds the schedule of sweep `s` (0-based): the first sweep with the
    /// paper's link rotation `σ_s` applied to every transition.
    pub fn sweep(d: usize, family: OrderingFamily, s: usize) -> Self {
        let base = Self::first_sweep(d, family);
        if d == 0 {
            return base;
        }
        let sigma = sweep_link_permutation(d, s);
        base.permuted(&sigma)
    }

    /// Builds a schedule from an explicit transition list — primarily for
    /// tests that need malformed schedules to exercise the coverage
    /// validator's rejection paths (the family constructors can only
    /// produce correct sweeps).
    ///
    /// # Panics
    /// Panics if any transition's link is out of range for a `d`-cube.
    pub fn from_transitions(d: usize, transitions: Vec<Transition>) -> Self {
        for t in &transitions {
            assert!(t.link < d.max(1), "link {} out of range for d={d}", t.link);
        }
        SweepSchedule { d, transitions }
    }

    /// Applies an arbitrary link permutation to every transition, in place.
    pub(crate) fn permuted(mut self, sigma: &Permutation) -> Self {
        assert_eq!(sigma.len(), self.d.max(1));
        for t in &mut self.transitions {
            t.link = sigma.apply(t.link);
        }
        self
    }

    /// Cube dimension.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The transitions, in execution order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Number of steps in the sweep: `2^{d+1} − 1`.
    pub fn steps(&self) -> usize {
        (1usize << (self.d + 1)) - 1
    }
}

/// The paper's sweep-`s` link rotation: `σ_0 = id`,
/// `σ_s(i) = (σ_{s−1}(i) − 1) mod d`, hence `σ_s(i) = (i − s) mod d`.
/// After `d` sweeps the links repeat.
pub(crate) fn sweep_link_permutation(d: usize, s: usize) -> Permutation {
    assert!(d >= 1);
    Permutation::from_map((0..d).map(|i| (i + d - (s % d)) % d).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_count_is_2_pow_d_plus_1_minus_1() {
        for d in 0..=8 {
            let s = SweepSchedule::first_sweep(d, OrderingFamily::Br);
            assert_eq!(s.transitions().len(), if d == 0 { 0 } else { (1 << (d + 1)) - 1 });
            assert_eq!(s.steps(), (1 << (d + 1)) - 1);
        }
    }

    #[test]
    fn phase_structure_for_d3_br() {
        let s = SweepSchedule::first_sweep(3, OrderingFamily::Br);
        let kinds: Vec<_> = s.transitions().iter().map(|t| (t.link, t.kind)).collect();
        use TransitionKind::*;
        assert_eq!(
            kinds,
            vec![
                // exchange phase 3: D_3^BR = <0 1 0 2 0 1 0>
                (0, Exchange { phase: 3 }),
                (1, Exchange { phase: 3 }),
                (0, Exchange { phase: 3 }),
                (2, Exchange { phase: 3 }),
                (0, Exchange { phase: 3 }),
                (1, Exchange { phase: 3 }),
                (0, Exchange { phase: 3 }),
                (2, Division { phase: 3 }),
                // exchange phase 2: D_2^BR = <0 1 0>
                (0, Exchange { phase: 2 }),
                (1, Exchange { phase: 2 }),
                (0, Exchange { phase: 2 }),
                (1, Division { phase: 2 }),
                // exchange phase 1: D_1 = <0>
                (0, Exchange { phase: 1 }),
                (0, Division { phase: 1 }),
                (2, LastTransition),
            ]
        );
    }

    #[test]
    fn all_links_stay_in_range() {
        for d in 1..=7 {
            for family in OrderingFamily::ALL {
                for s in 0..d {
                    let sched = SweepSchedule::sweep(d, family, s);
                    for t in sched.transitions() {
                        assert!(t.link < d, "link {} out of range for d={d}", t.link);
                    }
                }
            }
        }
    }

    #[test]
    fn sigma_is_rotation_and_periodic() {
        let d = 5;
        assert_eq!(sweep_link_permutation(d, 0), Permutation::identity(d));
        let s1 = sweep_link_permutation(d, 1);
        // σ_1(i) = (i − 1) mod d.
        assert_eq!(s1, Permutation::from_map(vec![4, 0, 1, 2, 3]));
        assert_eq!(sweep_link_permutation(d, d), sweep_link_permutation(d, 0));
        assert_eq!(sweep_link_permutation(d, d + 2), sweep_link_permutation(d, 2));
    }

    #[test]
    fn permuted_sweep_relabels_all_transitions() {
        let d = 3;
        let base = SweepSchedule::first_sweep(d, OrderingFamily::Degree4);
        let rot = sweep_link_permutation(d, 1);
        let permuted = base.clone().permuted(&rot);
        for (a, b) in base.transitions().iter().zip(permuted.transitions()) {
            assert_eq!(b.link, rot.apply(a.link));
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn exchange_phase_links_extracts_the_family_sequence() {
        let d = 4;
        for family in OrderingFamily::ALL {
            let sched = SweepSchedule::first_sweep(d, family);
            for e in 1..=d {
                let links: Vec<usize> = sched
                    .transitions()
                    .iter()
                    .filter(|t| matches!(t.kind, TransitionKind::Exchange { phase } if phase == e))
                    .map(|t| t.link)
                    .collect();
                assert_eq!(links, family.sequence(e), "{family} e={e}");
            }
        }
    }
}
