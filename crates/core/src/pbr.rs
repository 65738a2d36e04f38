//! The permuted-BR ordering (paper §3.2).
//!
//! `D_e^{p-BR}` is obtained from `D_e^BR` by `log2(e−1)` *transformations*.
//! Transformation `k` applies a link permutation to every other
//! `(e−k−1)`-subsequence of the BR recursion tree, starting at the second
//! one (i.e. to every right child at depth `k+1`). The permutation applied
//! to the 2nd subsequence is the *mirror* transposition set
//! `i ↔ (e−1)/2^k − 1 − i`; the permutation applied to the 4th, 6th, …
//! subsequences is that mirror *compounded with* (conjugated by) every
//! permutation previously applied to an enclosing subsequence.
//!
//! Property 1 of the paper guarantees each transformation preserves
//! Hamiltonicity, so `D_e^{p-BR}` is still an `e`-sequence while its link
//! usage is nearly balanced: α tends to `1.25 × ⌈(2^e−1)/e⌉` (Theorems 2–3).
//!
//! ### Implementation
//!
//! Conjugation collapses under composition: if `c` is the product of the
//! base mirrors picked up along the path from the root to a subsequence
//! (one per right-child step at depth ≤ `T`), the *net* relabelling of every
//! element in that subsequence is simply `c`. The generator therefore walks
//! the implicit BR tree once, composing `c ← c ∘ base_k` on right-child
//! descents, and rewrites each element in place — `O(2^e · e)` total.
//! A second, literal implementation (`pbr_sequence_literal`) applies the
//! paper's subsequence permutations one transformation at a time and is
//! cross-checked against the fast one in tests.
//!
//! ### Generalization beyond `e − 1 = 2^S`
//!
//! The appendix defines the transformations only when `e−1` is a power of
//! two. For other `e` the spans `(e−1)/2^k` are fractional and a rounding
//! convention is required; [`PbrConvention`] captures the choice. The
//! default (`floor` spans, `floor(log2(e−1))` transformations) is the
//! convention that best matches the α values published in Table 1 — the
//! `table1` experiment prints the comparison for all conventions.

use crate::br::br_sequence;
use crate::permutation::Permutation;

/// Rounding convention for generalizing the permuted-BR transformations to
/// `e − 1` not a power of two. Irrelevant (all choices coincide) when
/// `e − 1 = 2^S`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PbrConvention {
    /// Use `ceil((e−1)/2^k)` for the mirror span of transformation `k`
    /// (`false` = floor).
    pub ceil_span: bool,
    /// Use `ceil(log2(e−1))` transformations (`false` = floor).
    pub ceil_count: bool,
}

impl PbrConvention {
    /// The repository default (see module docs): floor spans, floor
    /// transformation count. Calibration against Table 1 (run the ignored
    /// `calibration_table_against_paper` test) shows this convention tracks
    /// the published α within +1 at e ∈ {7,8,9,10,14}, matches exactly at
    /// e = 13, and produces *better-balanced* sequences than the published
    /// values at e ∈ {11,12}. The ±1 residue exists even at e = 9 where
    /// `e−1 = 2^3` leaves no convention freedom — while our generator
    /// reproduces the paper's worked D5 example and Figure-3 transposition
    /// tables exactly — so Table 1 was evidently derived from the
    /// appendix's closed-form bookkeeping rather than measured on generated
    /// sequences (the tracked `crates/bench/paper/table1/` output).
    pub const DEFAULT: PbrConvention = PbrConvention { ceil_span: false, ceil_count: false };

    /// All four conventions, for calibration sweeps.
    pub const ALL: [PbrConvention; 4] = [
        PbrConvention { ceil_span: true, ceil_count: false },
        PbrConvention { ceil_span: false, ceil_count: false },
        PbrConvention { ceil_span: true, ceil_count: true },
        PbrConvention { ceil_span: false, ceil_count: true },
    ];

    /// Number of transformations for a given `e`.
    fn transform_count(&self, e: usize) -> usize {
        if e <= 2 {
            return 0;
        }
        let n = e - 1;
        let floor_log = usize::BITS as usize - 1 - n.leading_zeros() as usize;
        if self.ceil_count && !n.is_power_of_two() {
            floor_log + 1
        } else {
            floor_log
        }
    }

    /// Mirror span `B_k` of transformation `k`.
    fn span(&self, e: usize, k: usize) -> usize {
        let n = e - 1;
        let div = 1usize << k;
        if self.ceil_span {
            n.div_ceil(div)
        } else {
            n / div
        }
    }
}

/// The base permutation of transformation `k` — the mirror applied to the
/// *second* `(e−k−1)`-subsequence (before compounding).
fn pbr_base_permutation(e: usize, k: usize, conv: PbrConvention) -> Permutation {
    Permutation::mirror(e, conv.span(e, k))
}

/// `D_e^{p-BR}` under the default convention.
pub fn pbr_sequence(e: usize) -> Vec<usize> {
    pbr_sequence_with(e, PbrConvention::DEFAULT)
}

/// `D_e^{p-BR}` under an explicit convention.
pub fn pbr_sequence_with(e: usize, conv: PbrConvention) -> Vec<usize> {
    assert!((1..=25).contains(&e));
    let mut seq = br_sequence(e);
    let t = conv.transform_count(e);
    if t == 0 {
        return seq;
    }
    let bases: Vec<Permutation> = (0..t).map(|k| pbr_base_permutation(e, k, conv)).collect();
    let id = Permutation::identity(e);
    let len = seq.len();
    walk(&mut seq, 0, len, 0, &id, &bases);
    seq
}

/// Recursive tree walk: node `[lo, hi)` is a subsequence of the BR tree at
/// `depth`; `g` is the accumulated relabelling for this region.
fn walk(
    seq: &mut [usize],
    lo: usize,
    hi: usize,
    depth: usize,
    g: &Permutation,
    bases: &[Permutation],
) {
    if lo >= hi {
        return;
    }
    let mid = (lo + hi) / 2;
    seq[mid] = g.apply(seq[mid]);
    // Left child keeps g; right child at depth+1 is targeted by
    // transformation k = depth (if any), compounding g with its base.
    walk(seq, lo, mid, depth + 1, g, bases);
    if depth < bases.len() {
        let g2 = g.compose(&bases[depth]);
        walk(seq, mid + 1, hi, depth + 1, &g2, bases);
    } else {
        walk(seq, mid + 1, hi, depth + 1, g, bases);
    }
}

/// One applied permutation of one transformation, for reporting (Figure 3).
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedPermutation {
    /// 1-based left-to-right index of the target `(e−k−1)`-subsequence
    /// (always even: 2nd, 4th, …).
    pub subsequence_index: usize,
    /// The (compounded) permutation applied to that subsequence.
    pub permutation: Permutation,
}

/// The full list of transformations: `result[k]` holds the permutations
/// transformation `k` applies, in subsequence order. Regenerates Figure 3
/// when called with `e = 17`.
pub fn pbr_transformations(e: usize, conv: PbrConvention) -> Vec<Vec<AppliedPermutation>> {
    let t = conv.transform_count(e);
    let bases: Vec<Permutation> = (0..t).map(|k| pbr_base_permutation(e, k, conv)).collect();
    let mut out: Vec<Vec<AppliedPermutation>> = vec![Vec::new(); t];
    for k in 0..t {
        // Subsequences at depth k+1 are indexed left-to-right by the path
        // bits (msb = first descent). Right children (targets) are those
        // with the last bit set, i.e. odd 0-based index p.
        let width = k + 1;
        for p in 0..(1usize << width) {
            if p & 1 == 0 {
                continue; // left child: untouched by transformation k
            }
            // Cumulative permutation from enclosing transformed regions:
            // compose bases for every earlier right-descent on the path.
            let mut c = Permutation::identity(e);
            for bit in 0..k {
                // bit `0` is the FIRST descent (depth 1, transformation 0).
                let step_right = (p >> (width - 1 - bit)) & 1 == 1;
                if step_right {
                    c = c.compose(&bases[bit]);
                }
            }
            let applied = bases[k].conjugate_by(&c);
            out[k].push(AppliedPermutation { subsequence_index: p + 1, permutation: applied });
        }
    }
    out
}

/// Literal re-implementation following the paper's prose: apply
/// transformation k to the flattened sequence, subsequence by subsequence.
/// Quadratic-ish and only used for cross-validation in tests.
pub fn pbr_sequence_literal(e: usize, conv: PbrConvention) -> Vec<usize> {
    let mut seq = br_sequence(e);
    let t = conv.transform_count(e);
    let n = seq.len();
    for (k, transformation) in pbr_transformations(e, conv).into_iter().enumerate() {
        // (e−k−1)-subsequences at depth k+1: the BR tree splits [0, n) at
        // midpoints; depth k+1 regions each span 2^{e-k-1} − 1 elements.
        let span = (1usize << (e - k - 1)) - 1;
        for ap in transformation {
            let p = ap.subsequence_index - 1; // 0-based left-to-right
            let lo = region_start(n, k + 1, p, span);
            ap.permutation.apply_in_place(&mut seq[lo..lo + span]);
        }
    }
    let _ = t;
    seq
}

/// Start offset of the `p`-th (0-based) depth-`depth` subsequence inside a
/// BR sequence of total length `n`. Regions at each depth are separated by
/// single separator elements.
fn region_start(n: usize, depth: usize, p: usize, span: usize) -> usize {
    // Walk down the tree following the bits of p (msb first).
    let mut lo = 0usize;
    let mut hi = n;
    for bit in (0..depth).rev() {
        let mid = (lo + hi) / 2;
        if (p >> bit) & 1 == 0 {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    debug_assert_eq!(hi - lo, span);
    lo
}

/// Theorem 2's upper bound on α (exact for `e − 1 = 2^S`, asymptotic
/// elsewhere): `2^e/(e−1) + 2^{e−2}/(e−1) − 2^e/(e−1)²`.
pub fn theorem2_alpha_bound(e: usize) -> f64 {
    let e1 = (e - 1) as f64;
    let p = 2f64.powi(e as i32);
    p / e1 + p / 4.0 / e1 - p / (e1 * e1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_hypercube::{is_link_sequence_hamiltonian, link_sequence_alpha};

    fn seq_from_str(s: &str) -> Vec<usize> {
        s.chars().map(|c| c.to_digit(10).unwrap() as usize).collect()
    }

    #[test]
    fn paper_worked_example_e5() {
        // Paper §3.2.1: D5p-BR = <0102010310121014323132302321232>.
        assert_eq!(pbr_sequence(5), seq_from_str("0102010310121014323132302321232"));
    }

    #[test]
    fn intermediate_stage_of_worked_example() {
        // After only the first transformation the paper shows
        // <0102010301020104323132303231323>. Reproduce by running with a
        // single transformation.
        let conv = PbrConvention::DEFAULT;
        let bases = vec![pbr_base_permutation(5, 0, conv)];
        let mut seq = br_sequence(5);
        let id = Permutation::identity(5);
        let n = seq.len();
        super::walk(&mut seq, 0, n, 0, &id, &bases);
        assert_eq!(seq, seq_from_str("0102010301020104323132303231323"));
    }

    #[test]
    fn pbr_is_hamiltonian_all_conventions() {
        for e in 1..=14 {
            for conv in PbrConvention::ALL {
                let seq = pbr_sequence_with(e, conv);
                assert!(
                    is_link_sequence_hamiltonian(&seq, e),
                    "e={e}, conv={conv:?} not Hamiltonian"
                );
            }
        }
    }

    #[test]
    fn fast_and_literal_generators_agree() {
        for e in 2..=12 {
            for conv in PbrConvention::ALL {
                assert_eq!(
                    pbr_sequence_with(e, conv),
                    pbr_sequence_literal(e, conv),
                    "e={e}, conv={conv:?}"
                );
            }
        }
    }

    #[test]
    fn small_e_reduces_to_br() {
        assert_eq!(pbr_sequence(1), vec![0]);
        assert_eq!(pbr_sequence(2), vec![0, 1, 0]);
    }

    #[test]
    fn e3_matches_property1_example() {
        // Paper's Property-1 example: applying (0,1) to the last 3 elements
        // of <0102010> yields <0102101>. That is exactly D_3^{p-BR}
        // (one transformation, span 2 mirror on the 2nd 2-subsequence).
        assert_eq!(pbr_sequence(3), seq_from_str("0102101"));
    }

    #[test]
    fn transformations_for_e17_match_figure3_counts() {
        let ts = pbr_transformations(17, PbrConvention::DEFAULT);
        assert_eq!(ts.len(), 4);
        // Transformation k targets 2^k subsequences.
        for (k, t) in ts.iter().enumerate() {
            assert_eq!(t.len(), 1 << k);
            for ap in t {
                assert_eq!(ap.subsequence_index % 2, 0);
            }
        }
        // First transformation: full mirror (0,15)…(7,8).
        let first = &ts[0][0];
        assert_eq!(first.subsequence_index, 2);
        assert_eq!(
            first.permutation.as_transpositions().unwrap(),
            (0..8).map(|i| (i, 15 - i)).collect::<Vec<_>>()
        );
        // Second transformation: 2nd 15-subseq gets (0,7)(1,6)(2,5)(3,4);
        // 4th gets (8,15)(9,14)(10,13)(11,12) (Figure 3).
        assert_eq!(
            ts[1][0].permutation.as_transpositions().unwrap(),
            vec![(0, 7), (1, 6), (2, 5), (3, 4)]
        );
        assert_eq!(
            ts[1][1].permutation.as_transpositions().unwrap(),
            vec![(8, 15), (9, 14), (10, 13), (11, 12)]
        );
    }

    #[test]
    fn figure3_third_and_fourth_transformations() {
        let ts = pbr_transformations(17, PbrConvention::DEFAULT);
        let third: Vec<Vec<(usize, usize)>> =
            ts[2].iter().map(|ap| ap.permutation.as_transpositions().unwrap()).collect();
        assert_eq!(
            third,
            vec![
                vec![(0, 3), (1, 2)],     // 2nd 14-subsequence
                vec![(4, 7), (5, 6)],     // 4th
                vec![(12, 15), (13, 14)], // 6th
                vec![(8, 11), (9, 10)],   // 8th
            ]
        );
        let fourth: Vec<Vec<(usize, usize)>> =
            ts[3].iter().map(|ap| ap.permutation.as_transpositions().unwrap()).collect();
        assert_eq!(
            fourth,
            vec![
                vec![(0, 1)],
                vec![(2, 3)],
                vec![(6, 7)],
                vec![(4, 5)],
                vec![(14, 15)],
                vec![(12, 13)],
                vec![(8, 9)],
                vec![(10, 11)],
            ]
        );
    }

    #[test]
    fn alpha_improves_dramatically_over_br() {
        // α(pBR) ≈ 1.25·2^e/e vs α(BR) = 2^{e−1}: the gain is ≈ e/2.5 and
        // grows with e — at least 2× from e = 5 and at least 4× from e = 10.
        for e in 5..=14 {
            let a = link_sequence_alpha(&pbr_sequence(e));
            let br = 1usize << (e - 1);
            assert!(a * 2 <= br, "e={e}: α(pBR)={a} not 2× below α(BR)={br}");
            if e >= 11 {
                assert!(a * 4 <= br, "e={e}: α(pBR)={a} not 4× below α(BR)={br}");
            }
        }
    }

    /// Calibration artifact: compares α of every generalization convention
    /// against the paper's Table 1 (run with
    /// `cargo test -p mph-core calibration -- --ignored --nocapture`).
    #[test]
    #[ignore = "prints a calibration table; run explicitly"]
    fn calibration_table_against_paper() {
        let paper: [(usize, usize); 8] =
            [(7, 23), (8, 43), (9, 67), (10, 131), (11, 289), (12, 577), (13, 776), (14, 1543)];
        for conv in PbrConvention::ALL {
            println!("convention {conv:?}");
            let mut exact = 0;
            for &(e, want) in &paper {
                let got = link_sequence_alpha(&pbr_sequence_with(e, conv));
                if got == want {
                    exact += 1;
                }
                println!(
                    "  e={e:2}  α={got:5}  paper={want:5}  {}",
                    if got == want { "✓" } else { " " }
                );
            }
            println!("  exact matches: {exact}/8");
        }
    }

    #[test]
    fn theorem2_bound_holds_for_power_of_two_plus_one() {
        // e = 2^S + 1: the appendix derivation is exact.
        for e in [3usize, 5, 9, 17] {
            let a = link_sequence_alpha(&pbr_sequence(e)) as f64;
            let bound = theorem2_alpha_bound(e);
            assert!(a <= bound + 1e-9, "e={e}: α={a} exceeds Theorem-2 bound {bound}");
        }
    }

    #[test]
    fn theorem3_ratio_tends_to_1_25() {
        // α / lower-bound for e = 2^S + 1 should approach 1.25 from below-ish.
        let e = 17;
        let a = link_sequence_alpha(&pbr_sequence(e)) as f64;
        let lb = (((1u64 << e) - 1) as f64 / e as f64).ceil();
        let ratio = a / lb;
        assert!(ratio < 1.35, "ratio {ratio} too far above 1.25");
        assert!(ratio > 1.05, "ratio {ratio} suspiciously small");
    }

    #[test]
    fn link_histogram_is_balanced() {
        // After all transformations no link should carry more than ~2× the
        // mean load (BR has a 2^{e-1}/mean ≈ e/2 imbalance).
        let e = 12;
        let seq = pbr_sequence(e);
        let mut counts = vec![0usize; e];
        for &l in &seq {
            counts[l] += 1;
        }
        let mean = seq.len() as f64 / e as f64;
        for (l, &c) in counts.iter().enumerate() {
            assert!((c as f64) < 2.2 * mean, "link {l} carries {c}, mean {mean}");
        }
    }
}
