//! Convergence measures on the implicit iterate `M = UᵀA₀U`, computed from
//! distributed [`ColumnBlock`] storage.
//!
//! `M` is symmetric, so the off-diagonal measure walks the strict upper
//! triangle only and doubles it: `off(M)² = 2·Σ_{i<j} (u_i·a_j)²`. In
//! floating point `u_i·a_j` and `u_j·a_i` agree to rounding, not to the
//! bit, so this *defines* the measure (it is within a few ulps of the
//! both-triangles sum, not equal to it). The value is a pure function of
//! the column data and the [`KernelPath`] — it does not depend on how the
//! columns are cut into blocks, and it is computed serially in one fixed
//! order, so an `off_history` is repeatable and independent of `workers`.

use mph_linalg::block::ColumnBlock;
use mph_linalg::vecops::{dot, dot_lanes, dot_tile_exact, gram_tile};
use mph_linalg::KernelPath;

/// Every column's `U`- and `A`-slices in global column order. The blocks
/// must tile a contiguous global range starting at 0 (in any order; empty
/// blocks are fine).
fn global_columns(blocks: &[ColumnBlock]) -> (Vec<&[f64]>, Vec<&[f64]>) {
    let m: usize = blocks.iter().map(ColumnBlock::len).sum();
    let (mut u, mut a) = (vec![&[][..]; m], vec![&[][..]; m]);
    for b in blocks {
        debug_assert_eq!(b.misaligned_columns(), 0);
        for k in 0..b.len() {
            u[b.global_col(k)] = b.u_col(k);
            a[b.global_col(k)] = b.a_col(k);
        }
    }
    (u, a)
}

/// `off(M) = ‖M − diag(M)‖_F` from the strict upper triangle of
/// `M_ij = u_i·a_j`, doubled. `O(m³)` — used once per sweep, never inside
/// the rotation loop.
///
/// * [`KernelPath::Scalar`]: every entry is bitwise [`dot`]`(u_i, a_j)`,
///   squared and summed column `j` outer, `i < j` inner — the reference
///   bits. The entries are computed in exact 4×2 tiles
///   ([`dot_tile_exact`]); the sum is taken in the defining order.
/// * [`KernelPath::Lanes`]: 4×4 register tiles ([`gram_tile`]) over panels
///   of four `A`-columns; each panel's squares are summed tile by tile
///   (`i` ascending, the diagonal tile's strict upper part last) and the
///   panel sums are added in ascending `j`. The up to three columns past
///   the last full panel are finished entry by entry with [`dot_lanes`].
///   Each entry is ≤ 1e-12 relative of the scalar one, so the measure is
///   within `1e-12·‖A₀‖_F` of the scalar value — the scale `tol·‖A₀‖_F`
///   it is tested against.
///
/// Non-finite column data yields a NaN or infinite measure, never a panic.
pub fn off_norm_blocks(blocks: &[ColumnBlock], path: KernelPath) -> f64 {
    let (u, a) = global_columns(blocks);
    let upper = match path {
        KernelPath::Scalar => upper_squares_scalar(&u, &a),
        KernelPath::Lanes => upper_squares_lanes(&u, &a),
    };
    (2.0 * upper).sqrt()
}

/// `Σ_j Σ_{i<j} dot(u_i, a_j)²`, one running sum in that order.
///
/// The dots of a panel of two `A`-columns `(j, j+1)` are computed four
/// `U`-columns at a time by [`dot_tile_exact`] — each entry bitwise the
/// `dot` — and parked in two scratch columns; the at most three rows past
/// the last full tile, and the last column of an odd `m`, go through `dot`
/// itself. Squaring and summing then walk the scratch columns in the
/// defining order, so tiling changes when an entry is computed, never
/// where it enters the sum.
fn upper_squares_scalar(u: &[&[f64]], a: &[&[f64]]) -> f64 {
    let m = a.len();
    let (mut left, mut right) = (vec![0.0f64; m], vec![0.0f64; m]);
    let mut s = 0.0;
    let paired = m - m % 2;
    for j in (0..paired).step_by(2) {
        // Rows `i < j` serve column `j`, rows `i ≤ j` column `j + 1`.
        let tiled = j - j % 4;
        for i in (0..tiled).step_by(4) {
            let tile = dot_tile_exact([u[i], u[i + 1], u[i + 2], u[i + 3]], [a[j], a[j + 1]]);
            for (r, [l, rt]) in tile.into_iter().enumerate() {
                (left[i + r], right[i + r]) = (l, rt);
            }
        }
        for i in tiled..=j {
            if i < j {
                left[i] = dot(u[i], a[j]);
            }
            right[i] = dot(u[i], a[j + 1]);
        }
        for mij in &left[..j] {
            s += mij * mij;
        }
        for mij in &right[..=j] {
            s += mij * mij;
        }
    }
    if paired < m {
        for ui in &u[..paired] {
            let mij = dot(ui, a[paired]);
            s += mij * mij;
        }
    }
    s
}

/// `Σ g[r][c]²` over the entries `keep` admits, as four row sums added in
/// a fixed tree — not one 16-long dependency chain.
#[inline]
fn tile_squares(g: [[f64; 4]; 4], keep: impl Fn(usize, usize) -> bool) -> f64 {
    let mut rows = [0.0f64; 4];
    for r in 0..4 {
        for c in 0..4 {
            if keep(r, c) {
                rows[r] += g[r][c] * g[r][c];
            }
        }
    }
    (rows[0] + rows[1]) + (rows[2] + rows[3])
}

/// The same sum from Gram tiles; see [`off_norm_blocks`] for the order.
fn upper_squares_lanes(u: &[&[f64]], a: &[&[f64]]) -> f64 {
    fn four<'c>(cols: &[&'c [f64]], at: usize) -> [&'c [f64]; 4] {
        [cols[at], cols[at + 1], cols[at + 2], cols[at + 3]]
    }
    let m = a.len();
    let tiled = m - m % 4;
    let mut s = 0.0;
    for j in (0..tiled).step_by(4) {
        let aj = four(a, j);
        let mut panel = 0.0;
        for i in (0..j).step_by(4) {
            panel += tile_squares(gram_tile(four(u, i), aj), |_, _| true);
        }
        panel += tile_squares(gram_tile(four(u, j), aj), |r, c| r < c);
        s += panel;
    }
    for j in tiled..m {
        let mut panel = 0.0;
        for i in 0..j {
            let mij = dot_lanes(u[i], a[j]);
            panel += mij * mij;
        }
        s += panel;
    }
    s
}

/// The diagonal of `M` — the eigenvalue estimates `λ_i = u_i · a_i` — in
/// global column order.
pub fn diagonal_blocks(blocks: &[ColumnBlock]) -> Vec<f64> {
    let (u, a) = global_columns(blocks);
    u.iter().zip(&a).map(|(ui, ai)| dot(ui, ai)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{pair_across_blocks, pair_within_block, PairingRule};
    use mph_core::BlockPartition;
    use mph_linalg::block::two_blocks_mut;
    use mph_linalg::symmetric::{
        diagonal as diag_matrix, off_diagonal_frobenius, random_symmetric,
    };
    use mph_linalg::Matrix;
    use proptest::prelude::*;

    /// The oracle: the measure as it was before the symmetry was used —
    /// both triangles, one scalar `dot` per entry, column `j` outer.
    fn off_norm_full_square(blocks: &[ColumnBlock]) -> f64 {
        let (u, a) = global_columns(blocks);
        let mut s = 0.0;
        for j in 0..a.len() {
            for i in 0..u.len() {
                if i != j {
                    let mij = dot(u[i], a[j]);
                    s += mij * mij;
                }
            }
        }
        s.sqrt()
    }

    fn cut(a0: &Matrix, nblocks: usize) -> Vec<ColumnBlock> {
        let m = a0.cols();
        let partition = BlockPartition::new(m, nblocks);
        (0..nblocks)
            .map(|b| ColumnBlock::from_matrix_with_identity(a0, partition.cols(b), m))
            .collect()
    }

    /// One full sweep in block-cyclic order: every column pair once.
    fn sweep(blocks: &mut [ColumnBlock]) {
        for b in blocks.iter_mut() {
            pair_within_block(b, PairingRule::Implicit, 0.0);
        }
        for l in 0..blocks.len() {
            for r in l + 1..blocks.len() {
                let (bl, br) = two_blocks_mut(blocks, l, r);
                pair_across_blocks(bl, br, PairingRule::Implicit, 0.0);
            }
        }
    }

    const PATHS: [KernelPath; 2] = [KernelPath::Scalar, KernelPath::Lanes];

    /// The measure's contract against the oracle: 1e-12 of the scale the
    /// convergence test compares it to, `‖A₀‖_F` (≥ off(M) at every
    /// iterate). Relative to the value itself that is 1e-12 while off is
    /// of the order of `‖A₀‖`; once off has fallen to rounding level its
    /// digits are noise in either summation.
    fn close(got: f64, want: f64, a0: &Matrix) -> bool {
        (got - want).abs() <= 1e-12 * a0.frobenius_norm()
    }

    /// The `Scalar` measure as it is defined: one `dot` per entry of the
    /// strict upper triangle, squared and summed column `j` outer, `i < j`
    /// inner, in one running sum.
    fn scalar_definition(blocks: &[ColumnBlock]) -> f64 {
        let (u, a) = global_columns(blocks);
        let mut s = 0.0;
        for j in 0..a.len() {
            for i in 0..j {
                let mij = dot(u[i], a[j]);
                s += mij * mij;
            }
        }
        (2.0 * s).sqrt()
    }

    #[test]
    fn off_norm_of_initial_state_is_matrix_off_norm() {
        // U = I ⇒ M = A₀.
        let a = random_symmetric(8, 4);
        for path in PATHS {
            let off = off_norm_blocks(&cut(&a, 1), path);
            assert!((off - off_diagonal_frobenius(&a)).abs() < 1e-12, "{path:?}");
        }
    }

    #[test]
    fn off_norm_zero_for_diagonal_matrix() {
        let a = diag_matrix(&[1.0, 2.0, -3.0, 0.5, 7.0, -1.0, 4.0, 9.0, 2.5]);
        for nblocks in [1, 4] {
            let blocks = cut(&a, nblocks);
            for path in PATHS {
                assert_eq!(off_norm_blocks(&blocks, path).to_bits(), 0.0f64.to_bits());
            }
            assert_eq!(diagonal_blocks(&blocks), (0..9).map(|i| a[(i, i)]).collect::<Vec<_>>());
        }
    }

    #[test]
    fn single_column_and_empty_blocks_are_accepted() {
        let one = Matrix::from_fn(1, 1, |_, _| 3.0);
        for path in PATHS {
            assert_eq!(off_norm_blocks(&cut(&one, 1), path), 0.0);
            // m = 1 on four blocks: one single-column block, three empty.
            assert_eq!(off_norm_blocks(&cut(&one, 4), path), 0.0);
            assert_eq!(off_norm_blocks(&[], path), 0.0);
            assert_eq!(off_norm_blocks(&[ColumnBlock::default()], path), 0.0);
        }
        assert_eq!(diagonal_blocks(&cut(&one, 4)), vec![3.0]);
        assert!(diagonal_blocks(&[]).is_empty());
    }

    #[test]
    fn block_measures_match_the_full_square_oracle_in_a_generic_state() {
        // Three uneven blocks, rotated so every M_ij is a full inner
        // product (at U = I the entries are single element reads).
        let m = 9;
        let a0 = random_symmetric(m, 13);
        let mut blocks: Vec<ColumnBlock> = [(0..4), (4..6), (6..9)]
            .into_iter()
            .map(|r| ColumnBlock::from_matrix_with_identity(&a0, r, m))
            .collect();
        let diag0: Vec<f64> = (0..m).map(|i| a0[(i, i)]).collect();
        assert_eq!(diagonal_blocks(&blocks), diag0);
        pair_within_block(&mut blocks[0], PairingRule::Implicit, 0.0);
        let (b0, b1) = two_blocks_mut(&mut blocks, 0, 1);
        pair_across_blocks(b0, b1, PairingRule::Implicit, 0.0);
        let oracle = off_norm_full_square(&blocks);
        assert!(oracle > 0.0);
        for path in PATHS {
            let off = off_norm_blocks(&blocks, path);
            assert!(close(off, oracle, &a0), "{path:?}: {off} vs {oracle}");
        }
        // The diagonal is the per-column `dot`, whatever the block order.
        let want: Vec<f64> =
            blocks.iter().flat_map(|b| (0..b.len()).map(|k| dot(b.u_col(k), b.a_col(k)))).collect();
        blocks.reverse();
        assert_eq!(diagonal_blocks(&blocks), want);
        assert!(close(off_norm_blocks(&blocks, KernelPath::Lanes), oracle, &a0));
    }

    #[test]
    fn the_tiled_scalar_measure_is_bitwise_its_definition_at_every_panel_shape() {
        // m walks every branch of the exact tiling: no panel, a lone odd
        // column, panels with 0 and 2 leftover rows before the diagonal,
        // full tiles, and both with an odd last column — at U = I and in
        // the generic state after a sweep, on every block cut.
        for m in [0usize, 1, 2, 3, 4, 5, 6, 7, 9, 17, 41] {
            let a0 = random_symmetric(m, 300 + m as u64);
            for d in 0..=3 {
                let mut blocks = cut(&a0, 2 << d);
                for sweeps in 0..2 {
                    let got = off_norm_blocks(&blocks, KernelPath::Scalar);
                    assert_eq!(
                        got.to_bits(),
                        scalar_definition(&blocks).to_bits(),
                        "m={m} d={d} sweeps={sweeps}"
                    );
                    sweep(&mut blocks);
                }
            }
        }
    }

    #[test]
    fn diagonal_sums_to_trace() {
        // Similarity preserves the trace: Σ λ_i = tr(A₀) for any orthogonal U
        // maintained with A = A₀U.
        let a = random_symmetric(6, 7);
        let tr: f64 = (0..6).map(|i| a[(i, i)]).sum();
        let mut blocks = cut(&a, 4);
        for _ in 0..2 {
            let sum: f64 = diagonal_blocks(&blocks).iter().sum();
            assert!((tr - sum).abs() < 1e-12);
            sweep(&mut blocks);
        }
    }

    #[test]
    fn non_finite_columns_give_a_non_finite_measure_not_a_panic() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = random_symmetric(9, 3);
            a[(2, 6)] = bad;
            a[(6, 2)] = bad;
            for path in PATHS {
                assert!(!off_norm_blocks(&cut(&a, 4), path).is_finite(), "{bad} {path:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_measure_matches_the_oracle_and_ignores_the_block_cut(
            m in prop_oneof![Just(3usize), Just(5), Just(12), Just(17), Just(24), Just(35), Just(41)],
            d in 0usize..=3,
            seed in 0u64..1000,
            sweeps in 0usize..=2,
        ) {
            let a0 = random_symmetric(m, seed);
            let mut blocks = cut(&a0, 2 << d);
            for _ in 0..sweeps {
                sweep(&mut blocks);
            }
            let oracle = off_norm_full_square(&blocks);
            for path in PATHS {
                let off = off_norm_blocks(&blocks, path);
                prop_assert!(
                    close(off, oracle, &a0),
                    "m={} d={} {:?}: {} vs {}", m, d, path, off, oracle
                );
            }

            // Scalar is the reference: bitwise its definition.
            let scalar = off_norm_blocks(&blocks, KernelPath::Scalar);
            prop_assert_eq!(scalar.to_bits(), scalar_definition(&blocks).to_bits());

            // The same columns as one block of m: the same bits, both paths.
            let (u, a) = global_columns(&blocks);
            let mut whole = ColumnBlock::from_matrix_with_identity(&a0, 0..m, m);
            for (c, view) in whole.columns_mut().enumerate() {
                view.a.copy_from_slice(a[c]);
                view.u.copy_from_slice(u[c]);
            }
            for path in PATHS {
                prop_assert_eq!(
                    off_norm_blocks(std::slice::from_ref(&whole), path).to_bits(),
                    off_norm_blocks(&blocks, path).to_bits(),
                    "one block of {} vs {} blocks, {:?}", m, 2 << d, path
                );
            }
        }
    }
}
