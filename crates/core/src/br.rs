//! The Block-Recursive (BR) ordering's link sequences (paper §2.3.1).
//!
//! `D_1^BR = <0>`, `D_e^BR = <D_{e-1}^BR, e−1, D_{e-1}^BR>`.
//!
//! `D_e^BR` is the link sequence of the binary-reflected Gray code — the
//! canonical Hamiltonian path of the `e`-cube — and concentrates traffic
//! exponentially: link `i` appears `2^{e-1-i}` times, so `α = 2^{e-1}`.
//! That concentration is precisely why communication pipelining can improve
//! the BR algorithm by at most 2× (paper §2.4) and why the permuted-BR and
//! degree-4 sequences exist.

/// `D_e^BR`, built iteratively (the recursion doubles, so an explicit loop
/// avoids both recursion depth and re-allocation).
///
/// # Panics
/// Panics if `e == 0` or `e > 25` (2^25−1 elements is already 32M).
pub fn br_sequence(e: usize) -> Vec<usize> {
    assert!((1..=25).contains(&e), "BR sequence defined for 1 ≤ e ≤ 25, got {e}");
    let mut seq = Vec::with_capacity((1usize << e) - 1);
    seq.push(0);
    for level in 1..e {
        // seq currently holds D_level; extend to <D_level, level, D_level>.
        seq.push(level);
        for i in 0..seq.len() - 1 {
            let v = seq[i];
            seq.push(v);
        }
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::alpha;
    use mph_hypercube::{gray_link_sequence, is_link_sequence_hamiltonian};

    #[test]
    fn d1_through_d4_explicit() {
        assert_eq!(br_sequence(1), vec![0]);
        assert_eq!(br_sequence(2), vec![0, 1, 0]);
        assert_eq!(br_sequence(3), vec![0, 1, 0, 2, 0, 1, 0]);
        // Paper: "the sequence of links for e=4 is D4BR = <010201030102010>".
        assert_eq!(br_sequence(4), vec![0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0]);
    }

    #[test]
    fn recursion_structure_holds() {
        for e in 2..=10 {
            let d = br_sequence(e);
            let prev = br_sequence(e - 1);
            let half = prev.len();
            assert_eq!(&d[..half], prev.as_slice());
            assert_eq!(d[half], e - 1);
            assert_eq!(&d[half + 1..], prev.as_slice());
        }
    }

    #[test]
    fn br_is_hamiltonian() {
        for e in 1..=14 {
            assert!(is_link_sequence_hamiltonian(&br_sequence(e), e), "e={e}");
        }
    }

    #[test]
    fn br_equals_gray_code_link_sequence() {
        for e in 1..=12 {
            assert_eq!(br_sequence(e), gray_link_sequence(e));
        }
    }

    #[test]
    fn link_counts_are_powers_of_two() {
        // Link `i` appears `2^{e-1-i}` times in `D_e^BR`.
        for e in 1..=10 {
            let seq = br_sequence(e);
            for link in 0..e {
                let count = seq.iter().filter(|&&l| l == link).count();
                assert_eq!(count, 1 << (e - 1 - link), "e={e}, link={link}");
            }
        }
    }

    #[test]
    fn alpha_is_two_to_e_minus_one() {
        // Paper §3.1: α(D_e^BR) = 2^{e-1}.
        for e in 1..=12 {
            assert_eq!(alpha(&br_sequence(e), e), 1 << (e - 1));
        }
    }

    #[test]
    fn half_the_elements_are_link_zero() {
        // Paper §2.4: any Q-window of D_e^BR has ≥ ⌈Q/2⌉ zeros; globally,
        // link 0 is exactly (len+1)/2 of the sequence.
        for e in 1..=10 {
            let seq = br_sequence(e);
            let zeros = seq.iter().filter(|&&l| l == 0).count();
            assert_eq!(zeros, seq.len().div_ceil(2));
        }
    }
}
