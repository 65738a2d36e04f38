//! The sweep walk once per vector unit the host reports, held to the
//! untiled row-major pairings bit for bit. A test binary of its own: the
//! tier override is process-wide, and the other tests' solves must meet
//! only the tier the host dispatches to.

use mph_eigen::kernel::{pair_across_blocks, pair_within_block, PairingRule, SweepKernel};
use mph_linalg::block::{cross_pair_mut, ColumnBlock};
use mph_linalg::Matrix;

/// A block of `b` columns: `A`-columns of `arows` and `U`-columns of
/// `urows` entries (`urows ≥ b`) drawn from `seed`, column `zero` — if
/// there is one — all −0.0 in both, so that every pairing it takes part in
/// is skipped on an exact-zero block and a rotation by the identity would
/// turn its entries into +0.0.
fn block(b: usize, (arows, urows): (usize, usize), seed: u64, zero: Option<usize>) -> ColumnBlock {
    let entry = |k: usize, r: usize| ((r * 7 + k * 13) as f64 * 0.37 + seed as f64).sin();
    let a0 = Matrix::from_fn(arows, b, |r, c| entry(c, r));
    let mut block = ColumnBlock::from_matrix_with_identity(&a0, 0..b, urows);
    let mut spare = ColumnBlock::from_matrix_with_identity(&a0, 0..1, urows);
    for k in 0..b {
        let view = cross_pair_mut(&mut block, k, &mut spare, 0);
        let zeroed = zero == Some(k);
        for (r, u) in view.ui.iter_mut().enumerate() {
            *u = if zeroed { -0.0 } else { entry(k + 31, r) };
        }
        if zeroed {
            view.ai.fill(-0.0);
        }
    }
    block
}

/// Whether two blocks hold the same bits — NaN payloads aside — in every
/// column.
fn same_bits(got: &ColumnBlock, want: &ColumnBlock) -> bool {
    let agree = |g: &[f64], w: &[f64]| {
        g.len() == w.len()
            && g.iter().zip(w).all(|(g, w)| g.to_bits() == w.to_bits() || g.is_nan() && w.is_nan())
    };
    got.len() == want.len()
        && (0..got.len())
            .all(|k| agree(got.a_col(k), want.a_col(k)) && agree(got.u_col(k), want.u_col(k)))
}

#[test]
fn every_tier_the_host_reports_walks_bitwise_the_row_major_pairings() {
    // Two blocks of `b` columns, 1..=17 — one tile, a tile and a column,
    // two tiles and one — walked in one `within` call over both (so the
    // walk carries on across rectangles, triangle rows and the two
    // blocks), then one `across` call, against the untiled row-major
    // pairings. Columns of m ∈ {1, 7, 8, 9, 64, 257} entries: under the
    // implicit rule `A` and `U` alike, wherever `b` columns fit an
    // identity of `m`; under the Gram rule `A` of `m` entries and `U` of
    // `b`, so `A` is longer wherever `m > b`. Each call's diagonal cache
    // is the untiled reference's: the `across` call starts from its own
    // exact diagonals, not the `within` call's kept ones. A −0.0 column on
    // a rectangle's last right column (the right block's column 7, or its
    // last) and on the first left column of a second tile (the left
    // block's column 8) puts skipped pairings on the walk's boundaries.
    let tiers = mph_linalg::vecops::host_tiers();
    for tier in tiers {
        mph_linalg::vecops::with_tier(tier, || {
            for m in [1usize, 7, 8, 9, 64, 257] {
                for b in 1..=17usize {
                    let shapes = [(PairingRule::Implicit, (m, m)), (PairingRule::Gram, (m, b))];
                    for (rule, rows) in shapes {
                        if rule == PairingRule::Implicit && b > m {
                            continue;
                        }
                        let what = format!("{tier:?} {rule:?} b={b} rows={rows:?}");
                        let mut l_ref = block(b, rows, 1, (b > 8).then_some(8));
                        let mut r_ref = block(b, rows, 2, Some(7.min(b - 1)));
                        let (mut l_new, mut r_new) = (l_ref.clone(), r_ref.clone());
                        let mut acc_ref = pair_within_block(&mut l_ref, rule);
                        acc_ref.merge(pair_within_block(&mut r_ref, rule));
                        acc_ref.merge(pair_across_blocks(&mut l_ref, &mut r_ref, rule));
                        let kern = SweepKernel { rule };
                        let mut acc_new = kern.within([&mut l_new, &mut r_new]);
                        acc_new.merge(kern.across(&mut l_new, &mut r_new));
                        assert_eq!(acc_new, acc_ref, "{what}");
                        assert!(same_bits(&l_new, &l_ref), "{what}: left");
                        assert!(same_bits(&r_new, &r_ref), "{what}: right");
                        assert!(acc_ref.pairings > acc_ref.rotations, "{what}: skips");
                    }
                }
            }
        });
    }
}
