//! The minimum-α ordering (paper §3.1).
//!
//! For deep pipelining the per-stage communication cost is
//! `e·Ts + α·S·Tw`, so the best possible ordering minimizes α over all
//! Hamiltonian paths of the `e`-cube. Since every link must appear at least
//! once among the `2^e − 1` elements, `α ≥ ⌈(2^e − 1)/e⌉`; the paper found
//! by exhaustive search that this bound is attained for every `e < 7` and
//! published the witness sequences reproduced here. Finding minimum-α
//! Hamiltonian paths is NP-hard in general, which is the whole motivation
//! for the constructive permuted-BR ordering.

#[cfg(test)]
use mph_hypercube::{search_hamiltonian_with_budget, validate_e_sequence};

/// `⌈(2^e − 1)/e⌉` — the lower bound on α for any `e`-sequence.
pub fn alpha_lower_bound(e: usize) -> usize {
    assert!((1..64).contains(&e));
    (((1u128 << e) - 1).div_ceil(e as u128)) as usize
}

/// The paper's published minimum-α sequences, `D_e^{min-α}` for
/// `e ∈ [2, 6]`. Each attains [`alpha_lower_bound`] exactly.
pub fn published_min_alpha_sequence(e: usize) -> Option<Vec<usize>> {
    let digits = match e {
        2 => "010",
        3 => "0102101",
        4 => "010203212303121",
        5 => "0102010301021412321230323414323",
        6 => "010201030102010401021312521312432313234350542453542414345254345",
        _ => return None,
    };
    Some(digits.chars().map(|c| c.to_digit(10).unwrap() as usize).collect())
}

/// Largest `e` for which the minimum-α ordering is defined (`d < 7` in the
/// paper's phrasing: sequences known for `e ≤ 6`).
pub const MAX_MIN_ALPHA_E: usize = 6;

/// A minimum-α `e`-sequence: the published one when available (`e ≤ 6`),
/// `None` otherwise. The degenerate `e = 1` case is `<0>`.
pub fn min_alpha_sequence(e: usize) -> Option<Vec<usize>> {
    if e == 1 {
        return Some(vec![0]);
    }
    published_min_alpha_sequence(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::alpha;

    #[test]
    fn lower_bound_values() {
        // e: 2, 3, 4, 5, 6 → 2, 3, 4, 7, 11 (paper §3.1 α values, all of
        // which equal the bound), and the Table-1 column for e ∈ [7, 14].
        assert_eq!(alpha_lower_bound(2), 2);
        assert_eq!(alpha_lower_bound(3), 3);
        assert_eq!(alpha_lower_bound(4), 4);
        assert_eq!(alpha_lower_bound(5), 7);
        assert_eq!(alpha_lower_bound(6), 11);
        assert_eq!(alpha_lower_bound(7), 19);
        assert_eq!(alpha_lower_bound(8), 32);
        assert_eq!(alpha_lower_bound(9), 57); // paper's table prints 58
        assert_eq!(alpha_lower_bound(10), 103);
        assert_eq!(alpha_lower_bound(11), 187);
        assert_eq!(alpha_lower_bound(12), 342);
        assert_eq!(alpha_lower_bound(13), 631);
        assert_eq!(alpha_lower_bound(14), 1171);
    }

    #[test]
    fn published_sequences_are_hamiltonian() {
        for e in 2..=6 {
            let seq = published_min_alpha_sequence(e).unwrap();
            validate_e_sequence(&seq, e)
                .unwrap_or_else(|err| panic!("published D_{e}^min-α invalid: {err}"));
        }
    }

    #[test]
    fn published_sequences_attain_the_lower_bound() {
        // Paper: α = 2, 3, 4, 7, 11 for e = 2..6.
        for (e, want) in [(2, 2), (3, 3), (4, 4), (5, 7), (6, 11)] {
            let seq = published_min_alpha_sequence(e).unwrap();
            assert_eq!(alpha(&seq, e), want, "e={e}");
            assert_eq!(want, alpha_lower_bound(e), "e={e}");
        }
    }

    #[test]
    fn search_rederives_optimal_alpha_small() {
        // The lower bound is attainable for e ≤ 6, so a search budgeted at
        // it suffices: the scarcest-link-first branch-and-bound re-derives
        // the optimum for every size the paper solved in milliseconds.
        for e in 2..=6 {
            let seq = search_hamiltonian_with_budget(e, alpha_lower_bound(e), 200_000_000)
                .unwrap_or_else(|| panic!("search failed for e={e}"));
            assert!(validate_e_sequence(&seq, e).is_ok());
            assert_eq!(alpha(&seq, e), alpha_lower_bound(e));
        }
    }

    #[test]
    fn undefined_beyond_six() {
        assert!(min_alpha_sequence(7).is_none());
        assert!(published_min_alpha_sequence(10).is_none());
    }
}
