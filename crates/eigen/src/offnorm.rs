//! Convergence of the one-sided iteration, measured once: the
//! off-diagonal norm of the implicit iterate `M = UᵀA₀U` as an
//! eigen-residual of the distributed [`ColumnBlock`] columns.
//!
//! The iteration keeps `a_j = A₀u_j` beside each `u_j`. With `U`
//! orthonormal, `a_j = Σ_i (u_i·a_j)·u_i = Σ_i M_ij·u_i`, so the residual
//! of column `j` against its own eigenvalue estimate `λ_j = u_j·a_j` is
//! `r_j = a_j − λ_j·u_j = Σ_{i≠j} M_ij·u_i`, and
//!
//! ```text
//! ‖r_j‖² = Σ_{i≠j} M_ij²        off(M)² = Σ_j ‖r_j‖²
//! ```
//!
//! — `O(m)` per column and *local to whoever holds the column*, where the
//! Gram form `Σ_{i≠j} (u_i·a_j)²` needed every other column and `O(m³)` in
//! all. It measures the state *after* a sweep, so the sweep that reaches
//! the tolerance is the last one run, in every execution mode.
//!
//! # Summation order
//!
//! Floating-point addition does not associate, so the order is part of the
//! definition, and it is the order a `d`-cube computes the sum in:
//!
//! 1. a column: `λ = `[`dot`]`(u, a)`, then `(a_i − λ·u_i)²` added in row
//!    order into one running sum ([`residual_sq`]: a plain loop, and
//!    `dot` has one set of bits on every vector tier — the measure is one
//!    function of the column data);
//! 2. a block: its columns' sums in local column order;
//! 3. a node: slot 0 + slot 1 (`node_residual_sq`);
//! 4. the cube: the nodes' partials by dimension exchange over dims
//!    `0..d`, every node adding its partner's running value to its own —
//!    addition commutes, so all `2^d` nodes end on the same bits
//!    ([`off_norm_blocks`] folds the same tree on one thread; the engine's
//!    convergence vote *is* this all-reduce).
//!
//! The value therefore depends, in its last bits, on how the columns are
//! cut into blocks and on which node holds which block (the sweep's final
//! [`BlockLayout`]) — and on nothing else: not the runtime's worker count,
//! the pipelining degree, the fabric or the interleaving. The serial Gram
//! measure it replaced was block-cut independent; its test of that
//! (`the_measure_matches_the_oracle_and_ignores_the_block_cut`) went with
//! the definition, and what it guarded — one value whoever computes it —
//! is `tests/proptests.rs::unforced_threaded_solves_equal_the_logical_solve_bit_for_bit`.
//!
//! The identity needs `UᵀU = I`, which rotations keep to about `m·ε`, and
//! `a_j − λ_j·u_j` cancels to about `ε·‖a_j‖`: a floor of roughly
//! `m·ε·‖A₀‖_F`, below which no tolerance is met (the tests hold the
//! measure within `1e-12·‖A₀‖_F` of the both-triangles Gram sum).

use mph_core::BlockLayout;
use mph_linalg::block::ColumnBlock;
use mph_linalg::vecops::dot;

/// `Σ_k ‖a_k − (u_k·a_k)·u_k‖²` over the block's columns in local order:
/// the block's share of `off(M)²` (module docs). Non-finite column data
/// yields a NaN or infinite value, never a panic.
pub fn residual_sq(block: &ColumnBlock) -> f64 {
    let mut sum = 0.0;
    for k in 0..block.len() {
        let (u, a) = (block.u_col(k), block.a_col(k));
        let lambda = dot(u, a);
        let mut r2 = 0.0;
        for (ai, ui) in a.iter().zip(u) {
            let r = ai - lambda * ui;
            r2 += r * r;
        }
        sum += r2;
    }
    sum
}

/// A node's partial of `off(M)²`: what it votes into the all-reduce.
pub(crate) fn node_residual_sq(slot0: &ColumnBlock, slot1: &ColumnBlock) -> f64 {
    residual_sq(slot0) + residual_sq(slot1)
}

/// `off(M) = ‖M − diag(M)‖_F` of the `2^{d+1}` blocks of a `d`-cube,
/// block `b` at `blocks[b]`, held as `layout` says: every node's partial,
/// folded as the dimension-exchange all-reduce folds them (module docs) —
/// bit for bit the value the threaded drivers vote on.
pub fn off_norm_blocks(blocks: &[ColumnBlock], layout: &BlockLayout) -> f64 {
    let mut partial: Vec<f64> = (0..layout.nodes())
        .map(|n| {
            let [b0, b1] = layout.at(n);
            node_residual_sq(&blocks[b0], &blocks[b1])
        })
        .collect();
    // Node 0's view of the exchange: at dimension `dim` it adds the value
    // of node `2^dim`, which has by then summed its own lower subcube.
    let mut bit = 1;
    while bit < partial.len() {
        for n in (0..partial.len()).step_by(2 * bit) {
            partial[n] += partial[n + bit];
        }
        bit *= 2;
    }
    partial[0].sqrt()
}

/// The diagonal of `M` — the eigenvalue estimates `λ_i = u_i · a_i` — in
/// global column order. The blocks must tile a contiguous global range
/// starting at 0 (in any order; empty blocks are fine).
pub fn diagonal_blocks(blocks: &[ColumnBlock]) -> Vec<f64> {
    let mut diag = vec![0.0; blocks.iter().map(ColumnBlock::len).sum()];
    for b in blocks {
        for k in 0..b.len() {
            diag[b.global_col(k)] = dot(b.u_col(k), b.a_col(k));
        }
    }
    diag
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

    /// The oracle: the `O(m³)` Gram measure the residual form replaced —
    /// both triangles of `M_ij = u_i·a_j`, one scalar `dot` per entry.
    fn off_norm_full_square(blocks: &[ColumnBlock]) -> f64 {
        let cols = || blocks.iter().flat_map(|b| (0..b.len()).map(move |k| (b, k)));
        let mut s = 0.0;
        for (bj, j) in cols() {
            for (bi, i) in cols().filter(|&(bi, i)| !(std::ptr::eq(bi, bj) && i == j)) {
                let mij = dot(bi.u_col(i), bj.a_col(j));
                s += mij * mij;
            }
        }
        s.sqrt()
    }

    /// `a0` on the `2^{d+1}` blocks of a `d`-cube, with the layout they
    /// start in.
    fn cut(a0: &Matrix, d: usize) -> (Vec<ColumnBlock>, BlockLayout) {
        let m = a0.cols();
        let partition = BlockPartition::new(m, 2 << d);
        let blocks = (0..2 << d)
            .map(|b| ColumnBlock::from_matrix_with_identity(a0, partition.cols(b), m))
            .collect();
        (blocks, BlockLayout::canonical(d))
    }

    /// One full sweep in block-cyclic order: every column pair once.
    fn sweep(blocks: &mut [ColumnBlock]) {
        for b in blocks.iter_mut() {
            pair_within_block(b, PairingRule::Implicit);
        }
        for l in 0..blocks.len() {
            for r in l + 1..blocks.len() {
                let (bl, br) = two_blocks_mut(blocks, l, r);
                pair_across_blocks(bl, br, PairingRule::Implicit);
            }
        }
    }

    /// The measure's contract against the oracle: 1e-12 of the scale the
    /// convergence test compares it to, `‖A₀‖_F` (≥ off(M) at every
    /// iterate). Relative to the value itself that is 1e-12 while off is
    /// of the order of `‖A₀‖`; once off has fallen to the floor (module
    /// docs) its digits are noise in either form.
    fn close(got: f64, want: f64, a0: &Matrix) -> bool {
        (got - want).abs() <= 1e-12 * a0.frobenius_norm()
    }

    #[test]
    fn off_norm_of_initial_state_is_matrix_off_norm() {
        // U = I ⇒ M = A₀.
        let a = random_symmetric(8, 4);
        for d in 0..=2 {
            let (blocks, layout) = cut(&a, d);
            let off = off_norm_blocks(&blocks, &layout);
            assert!((off - off_diagonal_frobenius(&a)).abs() < 1e-12, "d={d}");
        }
    }

    #[test]
    fn off_norm_zero_for_diagonal_matrix() {
        // a_k = λ·e_k against u_k = e_k: every residual entry is an exact 0.
        let a = diag_matrix(&[1.0, 2.0, -3.0, 0.5, 7.0, -1.0, 4.0, 9.0, 2.5]);
        for d in [0, 1] {
            let (blocks, layout) = cut(&a, d);
            assert_eq!(off_norm_blocks(&blocks, &layout).to_bits(), 0.0f64.to_bits());
            assert_eq!(diagonal_blocks(&blocks), (0..9).map(|i| a[(i, i)]).collect::<Vec<_>>());
        }
    }

    #[test]
    fn single_column_and_empty_blocks_are_accepted() {
        let one = Matrix::from_fn(1, 1, |_, _| 3.0);
        // m = 1 on two and on eight blocks: one single-column block, the
        // rest empty.
        for d in [0, 2] {
            let (blocks, layout) = cut(&one, d);
            assert_eq!(off_norm_blocks(&blocks, &layout), 0.0);
            assert_eq!(diagonal_blocks(&blocks), vec![3.0]);
        }
        assert_eq!(residual_sq(&ColumnBlock::default()), 0.0);
        assert!(diagonal_blocks(&[]).is_empty());
    }

    #[test]
    fn block_measures_match_the_full_square_oracle_in_a_generic_state() {
        // Four uneven blocks, one empty, rotated so every M_ij is a full
        // inner product (at U = I the entries are single element reads).
        let m = 9;
        let a0 = random_symmetric(m, 13);
        let mut blocks: Vec<ColumnBlock> = [(0..4), (4..6), (6..6), (6..9)]
            .into_iter()
            .map(|r| ColumnBlock::from_matrix_with_identity(&a0, r, m))
            .collect();
        assert_eq!(diagonal_blocks(&blocks), (0..m).map(|i| a0[(i, i)]).collect::<Vec<_>>());
        pair_within_block(&mut blocks[0], PairingRule::Implicit);
        let (b0, b1) = two_blocks_mut(&mut blocks, 0, 1);
        pair_across_blocks(b0, b1, PairingRule::Implicit);
        let oracle = off_norm_full_square(&blocks);
        assert!(oracle > 0.0);
        // Whichever node holds which block, the value is the oracle's to
        // rounding — the layout only moves its last bits.
        for slots in [vec![[0, 2], [1, 3]], vec![[3, 0], [2, 1]]] {
            let off = off_norm_blocks(&blocks, &BlockLayout::from_slots(slots));
            assert!(close(off, oracle, &a0), "{off} vs {oracle}");
        }
        // The diagonal is the per-column `dot`, whatever the block order.
        let want: Vec<f64> =
            blocks.iter().flat_map(|b| (0..b.len()).map(|k| dot(b.u_col(k), b.a_col(k)))).collect();
        blocks.reverse();
        assert_eq!(diagonal_blocks(&blocks), want);
    }

    #[test]
    fn the_fold_is_the_dimension_exchange_all_reduce_at_every_node() {
        // What the engine does: every node adds its partner's running
        // value to its own, dims 0..d. All 2^d nodes must end on the bits
        // `off_norm_blocks` folds on one thread.
        let a0 = random_symmetric(37, 5);
        for d in 0..=3 {
            let (mut blocks, layout) = cut(&a0, d);
            sweep(&mut blocks);
            let mut v: Vec<f64> = (0..1 << d)
                .map(|n| node_residual_sq(&blocks[layout.at(n)[0]], &blocks[layout.at(n)[1]]))
                .collect();
            for dim in 0..d {
                v = (0..v.len()).map(|n| v[n] + v[n ^ (1 << dim)]).collect();
            }
            let off = off_norm_blocks(&blocks, &layout);
            for (n, sum) in v.iter().enumerate() {
                assert_eq!(sum.sqrt().to_bits(), off.to_bits(), "d={d} node {n}");
            }
        }
    }

    #[test]
    fn the_residual_form_tracks_the_gram_oracle_through_every_sweep_of_a_solve() {
        // m = 64 on a 2-cube, swept until the measure is far below any
        // tolerance in use: 1e-12·‖A₀‖_F of the both-triangles Gram sum at
        // every iterate, the converged ones — where both sit on the
        // ≈ m·ε·‖A₀‖ floor — included.
        let a0 = random_symmetric(64, 41);
        let (mut blocks, layout) = cut(&a0, 2);
        let mut last = f64::INFINITY;
        for s in 0..=10 {
            let off = off_norm_blocks(&blocks, &layout);
            let oracle = off_norm_full_square(&blocks);
            assert!(close(off, oracle, &a0), "sweep {s}: {off} vs {oracle}");
            last = off;
            sweep(&mut blocks);
        }
        assert!(last <= 1e-12 * a0.frobenius_norm(), "the solve converged: {last}");
    }

    #[test]
    fn diagonal_sums_to_trace() {
        // Similarity preserves the trace: Σ λ_i = tr(A₀) for any orthogonal U
        // maintained with A = A₀U.
        let a = random_symmetric(6, 7);
        let tr: f64 = (0..6).map(|i| a[(i, i)]).sum();
        let (mut blocks, _) = cut(&a, 1);
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
            let (blocks, layout) = cut(&a, 1);
            assert!(!off_norm_blocks(&blocks, &layout).is_finite(), "{bad}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_measure_matches_the_oracle_on_every_cut_and_layout(
            m in prop_oneof![Just(3usize), Just(5), Just(12), Just(17), Just(24), Just(35), Just(41)],
            d in 0usize..=3,
            seed in 0u64..1000,
            sweeps in 0usize..=2,
            turn in 0usize..16,
        ) {
            let a0 = random_symmetric(m, seed);
            let (mut blocks, _) = cut(&a0, d);
            for _ in 0..sweeps {
                sweep(&mut blocks);
            }
            // Any placement of the blocks: the canonical one rotated.
            let nblocks = 2 << d;
            let layout = BlockLayout::from_slots(
                (0..nblocks / 2)
                    .map(|n| [(2 * n + turn) % nblocks, (2 * n + 1 + turn) % nblocks])
                    .collect(),
            );
            let (off, oracle) = (off_norm_blocks(&blocks, &layout), off_norm_full_square(&blocks));
            prop_assert!(close(off, oracle, &a0), "m={} d={}: {} vs {}", m, d, off, oracle);
        }
    }
}
