//! The degree-4 ordering's link sequences (paper §3.3).
//!
//! ```text
//! E_3     = <0 1 2 3 0 1 2>
//! E_i     = <E_{i-1}, i, E_{i-1}>          4 ≤ i < e
//! D_e^D4  = <E_{e-1}, 1, E_{e-1}>          e ≥ 4
//! ```
//!
//! Most length-4 windows of `D_e^D4` contain 4 distinct links (the sequence
//! has *degree 4* in the sense of the paper's Definition 2), so shallow
//! pipelining with `Q = 4` sends almost every stage's four packets through
//! four different ports — a ~4× reduction over the unpipelined CC-cube and
//! ~2× over pipelined BR.
//!
//! Lemma 1 (endpoints of the walk are dimension-1 neighbors) and Theorem 1
//! (`D_e^D4` is an `e`-sequence) are verified as executable tests below.

/// The auxiliary sequence `E_i` (defined for `i ≥ 3`).
pub fn e_sequence(i: usize) -> Vec<usize> {
    assert!((3..=25).contains(&i), "E_i defined for 3 ≤ i ≤ 25, got {i}");
    let mut seq = vec![0, 1, 2, 3, 0, 1, 2];
    for level in 4..=i {
        seq.push(level);
        for k in 0..seq.len() - 1 {
            let v = seq[k];
            seq.push(v);
        }
    }
    seq
}

/// `D_e^D4` (defined for `e ≥ 4`).
pub fn d4_sequence(e: usize) -> Vec<usize> {
    assert!((4..=25).contains(&e), "D_e^D4 defined for 4 ≤ e ≤ 25, got {e}");
    let half = e_sequence(e - 1);
    let mut seq = Vec::with_capacity(2 * half.len() + 1);
    seq.extend_from_slice(&half);
    seq.push(1);
    seq.extend_from_slice(&half);
    seq
}

/// Number of occurrences of link `l` in `D_e^D4` (closed form, used to
/// cross-check the generator).
///
/// In `E_{e-1}`: links 0,1,2 appear `2^{e-4}·2 = 2^{e-3}` times... derived
/// from the doubling recursion: counts in `E_3` are (2,2,2,1) for links
/// (0,1,2,3) and each recursion level doubles existing counts and adds one
/// new link with count 1, which then doubles at later levels. Link `l ≥ 3`
/// appears `2^{e-2-l}` times in `E_{e-1}`; links 0..2 appear `2^{e-4}·2`
/// times. `D_e^D4` doubles everything and adds one extra 1.
pub fn d4_link_count(e: usize, l: usize) -> usize {
    assert!(e >= 4 && l < e);
    let in_e = |i: usize, l: usize| -> usize {
        // occurrences of link l in E_i  (i ≥ 3, l ≤ i)
        match l {
            0..=2 => 2usize << (i - 3),
            3 => 1usize << (i - 3),
            _ => 1usize << (i - l), // introduced at level l with count 1
        }
    };
    let base = 2 * in_e(e - 1, l);
    if l == 1 {
        base + 1
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::alpha;
    use mph_hypercube::{is_link_sequence_hamiltonian, link_sequence_to_path};

    #[test]
    fn e3_is_paper_literal() {
        assert_eq!(e_sequence(3), vec![0, 1, 2, 3, 0, 1, 2]);
    }

    #[test]
    fn d5_matches_paper_literal() {
        // Paper: D5D4 = <0123012 4 0123012 1 0123012 4 0123012>.
        let want: Vec<usize> = "0123012401230121012301240123012"
            .chars()
            .map(|c| c.to_digit(10).unwrap() as usize)
            .collect();
        assert_eq!(d4_sequence(5), want);
    }

    #[test]
    fn lengths() {
        for e in 4..=14 {
            assert_eq!(e_sequence(e - 1).len(), (1usize << (e - 1)) - 1);
            assert_eq!(d4_sequence(e).len(), (1usize << e) - 1);
        }
    }

    #[test]
    fn theorem1_d4_is_an_e_sequence() {
        for e in 4..=14 {
            assert!(is_link_sequence_hamiltonian(&d4_sequence(e), e), "e={e}");
        }
    }

    #[test]
    fn lemma1_e_sequence_endpoints_are_dim1_neighbors() {
        // Lemma 1 is stated for D_e^D4; the inductive step uses that the walk
        // E_{e-1},1,E_{e-1} returns to a dim-1 neighbor. Check both.
        for e in 4..=12 {
            let path = link_sequence_to_path(&d4_sequence(e), 0);
            let first = *path.first().unwrap();
            let last = *path.last().unwrap();
            assert_eq!(first ^ last, 1 << 1, "D_{e}^D4 endpoints not dim-1 neighbors");
        }
    }

    #[test]
    fn e_sequence_does_not_contain_top_link() {
        // E_{e-1} uses links 0..e-1 but the proof of Lemma 1 needs that
        // E_{e-1} never crosses dimension e-1... precisely: E_{i} uses links
        // ≤ i, so E_{e-1} stays inside an (e-1)... here: within D_{e+1},
        // E_e contains no link > e. Check max link of E_i is i (for i ≥ 4).
        for i in 4..=12 {
            assert_eq!(*e_sequence(i).iter().max().unwrap(), i);
        }
        assert_eq!(*e_sequence(3).iter().max().unwrap(), 3);
    }

    #[test]
    fn link_counts_closed_form_matches() {
        for e in 4..=13 {
            let seq = d4_sequence(e);
            for l in 0..e {
                let count = seq.iter().filter(|&&x| x == l).count();
                assert_eq!(count, d4_link_count(e, l), "e={e} link={l}");
            }
        }
    }

    #[test]
    fn alpha_is_about_half_of_br() {
        // The paper's headline property: links 0 and 2 tie at 2^{e-2} and
        // link 1 has one more, so α(D4) = 2^{e-2}+1 vs α(BR) = 2^{e-1}.
        for e in 4..=14 {
            assert_eq!(alpha(&d4_sequence(e), e), (1usize << (e - 2)) + 1);
        }
    }

    #[test]
    fn exactly_four_bad_windows_of_length_4() {
        // Paper: "only four central subsequences of length 4 have not
        // different elements (<0121>, <1210>, <2101> and <1012>)".
        for e in 5..=12 {
            let seq = d4_sequence(e);
            let bad: Vec<Vec<usize>> = seq
                .windows(4)
                .filter(|w| {
                    let mut s = w.to_vec();
                    s.sort_unstable();
                    s.dedup();
                    s.len() < 4
                })
                .map(|w| w.to_vec())
                .collect();
            assert_eq!(bad.len(), 4, "e={e}: {bad:?}");
            let center: Vec<Vec<usize>> =
                vec![vec![0, 1, 2, 1], vec![1, 2, 1, 0], vec![2, 1, 0, 1], vec![1, 0, 1, 2]];
            // The four bad windows straddle the central ",1," separator.
            // For e=5 the paper lists 0121/1210/2101/1012; for general e the
            // central neighborhood is ...012,1,012..., so bad windows are
            // 0121, 1210(->121 0? depends) — accept any window containing the
            // central position and a repeat.
            let _ = center; // documented expectation for e=5 checked below
        }
        let seq5 = d4_sequence(5);
        let bad5: Vec<String> = seq5
            .windows(4)
            .filter(|w| {
                let mut s = w.to_vec();
                s.sort_unstable();
                s.dedup();
                s.len() < 4
            })
            .map(|w| w.iter().map(|x| x.to_string()).collect())
            .collect();
        assert_eq!(bad5, vec!["0121", "1210", "2101", "1012"]);
    }
}
