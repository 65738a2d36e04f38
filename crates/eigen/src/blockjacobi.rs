//! The parallel block one-sided Jacobi algorithm, executed *logically*:
//! a single thread follows the sweep schedule's block movements and applies
//! every node's pairings in node order — in the loop every logical driver
//! runs (`solve_logical`).
//!
//! The column data lives in the same contiguous [`ColumnBlock`] storage the
//! threaded driver ships across links, and every pairing goes through the
//! shared kernel in [`crate::kernel`]. Because the blocks at different
//! nodes are disjoint column sets, the node-by-node serialization performs
//! exactly the same floating-point operations as a true parallel run — the
//! bitwise equivalence asserted in `threaded.rs` is now structural: both
//! drivers call the same functions on the same storage layout and stop on
//! the same rule, [`JobKind`]'s. This driver is the convergence-measurement
//! workhorse for Table 2: deterministic, fast, and faithful to the
//! ordering's rotation sequence.

use crate::kernel::{SweepAccumulator, SweepKernel};
use crate::multidrive::{eigen_answer, JobKind, Tally};
use crate::offnorm::{diagonal_blocks, off_norm_blocks, residual_sq};
use crate::options::{EigenResult, JacobiOptions};
use mph_core::BlockPartition;
use mph_core::{BlockLayout, OrderingFamily, SweepSchedule};
use mph_linalg::block::ColumnBlock;
use mph_linalg::Matrix;

/// Solves the symmetric eigenproblem of `a0` with the block one-sided
/// Jacobi algorithm of the paper on a (logical) `d`-cube, using `family`'s
/// link sequences, on the calling thread.
///
/// For the same solve on several threads, call
/// [`block_jacobi_threaded`](crate::threaded::block_jacobi_threaded): on
/// its default fabric, [`mph_runtime::FabricModel::Free`], the engine
/// steps the `2^d` nodes on `min(2^d, CPUs)` workers, charges no clock,
/// and returns these bits.
pub fn block_jacobi(
    a0: &Matrix,
    d: usize,
    family: OrderingFamily,
    opts: &JacobiOptions,
) -> EigenResult {
    solve_logical(JobKind::Eigen, a0, opts, Some((d, family)), eigen_answer)
}

/// The loop of every logical driver: a solve of `kind` on the `2^{d+1}`
/// blocks of a `d`-cube swept in `family`'s schedule when `cube` is
/// `Some((d, family))`, else on the whole matrix as one block swept
/// row-cyclic; it stops on `kind`'s rule, and `answer`, the engine's
/// assembly, reads the result off the blocks. An eigen solve measures
/// `off(M)` before the first sweep too, so it may run none.
pub(crate) fn solve_logical<R>(
    kind: JobKind,
    a: &Matrix,
    opts: &JacobiOptions,
    cube: Option<(usize, OrderingFamily)>,
    answer: impl FnOnce(&Matrix, &[ColumnBlock], Tally) -> R,
) -> R {
    if kind == JobKind::Eigen {
        assert_eq!(a.rows(), a.cols(), "eigenproblem requires a square matrix");
    }
    let n = a.cols();
    let (d, nblocks) = cube.map_or((0, 1), |(d, _)| (d, 2 << d));
    // Block `b` owns partition.cols(b) of both A (initially A₀) and U
    // (initially I), in flat contiguous storage.
    let partition = BlockPartition::new(n, nblocks);
    let mut blocks: Vec<ColumnBlock> = (0..nblocks)
        .map(|b| ColumnBlock::from_matrix_with_identity(a, partition.cols(b), n))
        .collect();
    let mut layout = BlockLayout::canonical(d);
    // `off(M)`, folded as the cube's nodes fold their vote.
    let off_norm = |blocks: &[ColumnBlock], layout: &BlockLayout| match cube {
        Some(_) => off_norm_blocks(blocks, layout),
        None => residual_sq(&blocks[0]).sqrt(),
    };
    let (bar, budget) = (kind.bar(a, opts), kind.budget(opts));
    let kern = SweepKernel { rule: kind.rule() };
    let mut tally = Tally::default();
    let mut met = false;
    if kind == JobKind::Eigen {
        let off = off_norm(&blocks, &layout);
        tally.off_history.push(off);
        met = bar.met(off);
    }
    while !met && tally.sweeps < budget {
        let acc = match cube {
            Some((d, family)) => {
                let schedule = SweepSchedule::sweep(d, family, tally.sweeps);
                logical_sweep(&kern, &mut blocks, &schedule, &mut layout)
            }
            None => kern.within(&mut blocks),
        };
        tally.rotations += acc.rotations;
        tally.sweeps += 1;
        let measure = match kind {
            JobKind::Eigen => {
                let off = off_norm(&blocks, &layout);
                tally.off_history.push(off);
                off
            }
            JobKind::Svd => acc.max_off,
        };
        met = bar.met(measure);
    }
    tally.converged = bar.converged(met);
    answer(a, &blocks, tally)
}

/// The eigenpairs the blocks hold: `λ_c = u_c · a_c` ([`diagonal_blocks`])
/// and `U` gathered from their `U`-columns. The one eigen answer assembly:
/// every eigen driver, logical or engine, reads its result off its blocks
/// with it ([`eigen_answer`]).
pub(crate) fn eigenpairs(blocks: &[ColumnBlock]) -> (Vec<f64>, Matrix) {
    let eigenvalues = diagonal_blocks(blocks);
    let m = eigenvalues.len();
    let mut u = Matrix::zeros(m, m);
    for b in blocks {
        b.store_u_into(&mut u);
    }
    (eigenvalues, u)
}

/// One sweep of the logical block algorithm, eigen or SVD by `kern.rule`:
/// `schedule`'s block movements traced from `layout` (left at the sweep's
/// final layout), every node's pairings applied in node order.
fn logical_sweep(
    kern: &SweepKernel,
    blocks: &mut [ColumnBlock],
    schedule: &SweepSchedule,
    layout: &mut BlockLayout,
) -> SweepAccumulator {
    let trace = mph_core::trace_sweep(schedule, layout);
    let mut acc = SweepAccumulator::default();
    for (step_idx, step) in trace.steps.iter().enumerate() {
        if step_idx == 0 {
            // Paper step (1): intra-block pairings, every block.
            acc.merge(kern.within(blocks.iter_mut()));
        }
        // Paper step (2): pair the two co-located blocks at each node, in
        // node order.
        acc.merge(kern.across_step(blocks, step));
    }
    *layout = trace.final_layout;
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onesided::one_sided_cyclic;
    use mph_linalg::matmul::{eigen_residual, orthogonality_defect};
    use mph_linalg::symmetric::random_symmetric;

    #[test]
    fn every_family_solves_a_random_problem() {
        let a = random_symmetric(16, 100);
        for family in OrderingFamily::ALL {
            let r = block_jacobi(&a, 2, family, &JacobiOptions::default());
            assert!(r.converged, "{family} did not converge");
            let resid = eigen_residual(&a, &r.eigenvectors, &r.eigenvalues);
            assert!(resid < 1e-6, "{family}: residual {resid}");
            assert!(orthogonality_defect(&r.eigenvectors) < 1e-10, "{family}");
        }
    }

    #[test]
    fn matches_sequential_spectrum() {
        let a = random_symmetric(24, 101);
        let seq = one_sided_cyclic(&a, &JacobiOptions::default());
        for family in [OrderingFamily::Br, OrderingFamily::Degree4] {
            let blk = block_jacobi(&a, 2, family, &JacobiOptions::default());
            let (e1, e2) = (seq.sorted_eigenvalues(), blk.sorted_eigenvalues());
            for (x, y) in e1.iter().zip(&e2) {
                assert!((x - y).abs() < 1e-7, "{family}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn first_sweep_performs_all_pairings() {
        // One sweep must touch all m(m−1)/2 pairs exactly once: every
        // pairing that sees a nonzero entry rotates, and the pairing count
        // is exact.
        let m = 16;
        let a = random_symmetric(m, 55);
        let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        for d in [1usize, 2, 3] {
            let r = block_jacobi(&a, d, OrderingFamily::Br, &opts);
            // rotations ≤ pairings = m(m−1)/2; with random data, almost all
            // rotate. Bound from both sides.
            let pairs = (m * (m - 1) / 2) as u64;
            assert!(r.rotations <= pairs);
            assert!(r.rotations >= pairs - 2, "d={d}: rotations {}", r.rotations);
        }
    }

    #[test]
    fn the_benchmark_shape_is_bitwise_worker_count_invariant() {
        // The parallel logical solve is the engine on a free fabric: at
        // m = 256 on a 3-cube with cached diagonals (32-column blocks, four
        // tiles each, so every node's every step pairs whole tile
        // rectangles two cached pairings abreast), its 2^3 nodes on the
        // runtime's `min(8, CPUs)` workers give the bits of the logical
        // solve on the calling thread alone.
        let a = random_symmetric(256, 19);
        let opts =
            JacobiOptions { cache_diagonals: true, force_sweeps: Some(2), ..Default::default() };
        assert_eq!(opts.fabric, mph_runtime::FabricModel::Free);
        let logical = block_jacobi(&a, 3, OrderingFamily::PermutedBr, &opts);
        let engine =
            crate::threaded::block_jacobi_threaded(&a, 3, OrderingFamily::PermutedBr, &opts);
        assert_eq!(engine.fabric.makespan, 0.0, "a free fabric charges no clock");
        let engine = engine.result;
        assert_eq!(engine.eigenvalues, logical.eigenvalues);
        assert_eq!(engine.eigenvectors, logical.eigenvectors);
        assert_eq!((engine.sweeps, engine.rotations), (logical.sweeps, logical.rotations));
    }

    #[test]
    fn non_finite_input_runs_out_its_sweeps_and_sorts_without_a_panic() {
        // A NaN (or ±Inf, which the first rotation turns into NaNs) makes
        // the off-norm non-finite, so `off <= tol·‖A‖` never holds: the
        // solve stops at `max_sweeps`, unconverged, and its result sorts.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = random_symmetric(12, 21);
            a[(3, 7)] = bad;
            a[(7, 3)] = bad;
            let opts = JacobiOptions { max_sweeps: 3, ..Default::default() };
            for r in [
                block_jacobi(&a, 1, OrderingFamily::PermutedBr, &opts),
                one_sided_cyclic(&a, &opts),
            ] {
                assert!(!r.converged, "{bad}");
                assert_eq!(r.sweeps, 3, "{bad}");
                assert_eq!(r.off_history.len(), 4);
                assert!(r.off_history.iter().all(|off| !off.is_finite()));
                assert_eq!(r.sorted_eigenvalues().len(), 12);
            }
        }
    }

    #[test]
    fn works_on_single_node_cube() {
        // d = 0: both blocks on one node; the sweep is intra + one cross.
        let a = random_symmetric(8, 9);
        let r = block_jacobi(&a, 0, OrderingFamily::Br, &JacobiOptions::default());
        assert!(r.converged);
        let seq = one_sided_cyclic(&a, &JacobiOptions::default());
        for (x, y) in r.sorted_eigenvalues().iter().zip(&seq.sorted_eigenvalues()) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn uneven_partition_still_converges() {
        // m = 18 on 8 blocks: sizes 3/3/2/…
        let a = random_symmetric(18, 33);
        let r = block_jacobi(&a, 2, OrderingFamily::PermutedBr, &JacobiOptions::default());
        assert!(r.converged);
        assert!(eigen_residual(&a, &r.eigenvectors, &r.eigenvalues) < 1e-6);
    }

    #[test]
    fn convergence_is_family_insensitive() {
        // The paper's Table-2 conclusion: all orderings need practically
        // the same number of sweeps.
        let a = random_symmetric(32, 7);
        let opts = JacobiOptions::default();
        let sweeps: Vec<usize> =
            OrderingFamily::ALL.iter().map(|&f| block_jacobi(&a, 2, f, &opts).sweeps).collect();
        let min = *sweeps.iter().min().unwrap();
        let max = *sweeps.iter().max().unwrap();
        assert!(max - min <= 1, "sweep counts too different: {sweeps:?}");
    }
}
