//! Ordering families: a uniform handle over the link-sequence generators.
//!
//! A *family* answers one question: which `e`-sequence drives exchange
//! phase `e`? Everything else about a sweep (division phases, the last
//! transition, the sweep-to-sweep link permutation) is family-independent,
//! so the cost models, the solver and the experiments are all parameterized
//! by a [`OrderingFamily`] value.

use crate::br::br_sequence;
use crate::d4::d4_sequence;
use crate::minalpha::{min_alpha_sequence, MAX_MIN_ALPHA_E};
use crate::pbr::pbr_sequence;

/// The Jacobi ordering families of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderingFamily {
    /// Block-Recursive ordering (Mantharam & Eberlein; paper §2.3.1).
    Br,
    /// Permuted-BR ordering (paper §3.2) — balanced link usage, near-optimal
    /// under deep pipelining.
    PermutedBr,
    /// Degree-4 ordering (paper §3.3) — best under shallow pipelining.
    /// Defined for `e ≥ 4`; smaller phases fall back to BR
    /// (`tests::degree4_fallback_below_four`).
    Degree4,
    /// Minimum-α ordering (paper §3.1) — optimal but only known for
    /// `e ≤ 6`; larger phases fall back to permuted-BR, matching the
    /// paper's footnote that the substitution "would have a negligible
    /// impact on the performance".
    MinAlpha,
}

impl OrderingFamily {
    /// All families, in the order the paper's figures present them.
    pub const ALL: [OrderingFamily; 4] = [
        OrderingFamily::Br,
        OrderingFamily::PermutedBr,
        OrderingFamily::Degree4,
        OrderingFamily::MinAlpha,
    ];

    /// Human-readable name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            OrderingFamily::Br => "BR",
            OrderingFamily::PermutedBr => "permuted-BR",
            OrderingFamily::Degree4 => "degree-4",
            OrderingFamily::MinAlpha => "minimum-alpha",
        }
    }

    /// The `e`-sequence this family uses for exchange phase `e`
    /// (`e ≥ 1`), including the documented fallbacks.
    pub fn sequence(&self, e: usize) -> Vec<usize> {
        assert!(e >= 1, "exchange phases are numbered from 1");
        match self {
            OrderingFamily::Br => br_sequence(e),
            OrderingFamily::PermutedBr => pbr_sequence(e),
            OrderingFamily::Degree4 => {
                if e >= 4 {
                    d4_sequence(e)
                } else {
                    br_sequence(e)
                }
            }
            OrderingFamily::MinAlpha => {
                if e <= MAX_MIN_ALPHA_E {
                    min_alpha_sequence(e).expect("min-α defined for e ≤ 6")
                } else {
                    pbr_sequence(e)
                }
            }
        }
    }
}

impl std::fmt::Display for OrderingFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_hypercube::is_link_sequence_hamiltonian;

    #[test]
    fn every_family_produces_e_sequences() {
        for family in OrderingFamily::ALL {
            for e in 1..=11 {
                let seq = family.sequence(e);
                assert!(
                    is_link_sequence_hamiltonian(&seq, e),
                    "{family} e={e} is not an e-sequence"
                );
            }
        }
    }

    #[test]
    fn degree4_fallback_below_four() {
        assert_eq!(OrderingFamily::Degree4.sequence(3), br_sequence(3));
        assert_ne!(OrderingFamily::Degree4.sequence(4), br_sequence(4));
    }

    #[test]
    fn minalpha_fallback_above_six() {
        assert_eq!(OrderingFamily::MinAlpha.sequence(7), pbr_sequence(7));
        assert_ne!(OrderingFamily::MinAlpha.sequence(5), pbr_sequence(5));
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<_> = OrderingFamily::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
