//! Sequential one-sided Jacobi with the row-cyclic ordering — the
//! single-node reference against which every parallel driver is validated.
//!
//! The whole matrix is held as a single [`ColumnBlock`] and swept with the
//! same `pair_within_block` kernel the distributed drivers use: the
//! row-cyclic ordering *is* the intra-block pairing order, so the
//! sequential reference exercises the one shared kernel rather than a
//! private rotation loop.

use crate::blockjacobi::eigenpairs;
use crate::kernel::{refresh_block_diag, PairingRule, SweepAccumulator, SweepKernel};
use crate::offnorm::residual_sq;
use crate::options::{EigenResult, JacobiOptions};
use mph_linalg::block::ColumnBlock;
use mph_linalg::Matrix;

/// Solves the symmetric eigenproblem of `a0` by cyclic one-sided Jacobi.
///
/// # Panics
/// Panics if `a0` is not square.
pub fn one_sided_cyclic(a0: &Matrix, opts: &JacobiOptions) -> EigenResult {
    assert_eq!(a0.rows(), a0.cols(), "eigenproblem requires a square matrix");
    let m = a0.cols();
    let mut blk = ColumnBlock::from_matrix_with_identity(a0, 0..m, m);
    let norm_a = a0.frobenius_norm();
    let mut off_history = vec![residual_sq(&blk).sqrt()];
    let mut rotations = 0u64;
    let mut sweeps = 0usize;
    let mut converged = off_history[0] <= opts.tol * norm_a && opts.force_sweeps.is_none();

    let kern = SweepKernel::from_options(PairingRule::Implicit, opts);
    let sweep_budget = opts.force_sweeps.unwrap_or(opts.max_sweeps);
    while !converged && sweeps < sweep_budget {
        if opts.cache_diagonals {
            refresh_block_diag(&mut blk, PairingRule::Implicit);
        }
        let acc: SweepAccumulator = kern.within([&mut blk]);
        rotations += acc.rotations;
        sweeps += 1;
        let off = residual_sq(&blk).sqrt();
        off_history.push(off);
        if opts.force_sweeps.is_none() {
            converged = off <= opts.tol * norm_a;
        }
    }
    if opts.force_sweeps.is_some() {
        converged = *off_history.last().unwrap() <= opts.tol * norm_a;
    }

    let (eigenvalues, eigenvectors) = eigenpairs(std::slice::from_ref(&blk));
    EigenResult { eigenvalues, eigenvectors, sweeps, rotations, off_history, converged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_linalg::matmul::{eigen_residual, orthogonality_defect};
    use mph_linalg::symmetric::{random_symmetric, wilkinson_matrix};

    #[test]
    fn diagonal_matrix_converges_immediately() {
        let a = mph_linalg::symmetric::diagonal(&[5.0, -1.0, 2.0]);
        let r = one_sided_cyclic(&a, &JacobiOptions::default());
        assert_eq!(r.sweeps, 0);
        assert!(r.converged);
        assert_eq!(r.sorted_eigenvalues(), vec![-1.0, 2.0, 5.0]);
    }

    #[test]
    fn two_by_two_known_spectrum() {
        // [[2,1],[1,2]] → {1, 3}.
        let a = Matrix::from_fn(2, 2, |r, c| if r == c { 2.0 } else { 1.0 });
        let r = one_sided_cyclic(&a, &JacobiOptions::default());
        let ev = r.sorted_eigenvalues();
        assert!((ev[0] - 1.0).abs() < 1e-12);
        assert!((ev[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn random_matrix_small_residual() {
        let a = random_symmetric(20, 77);
        let r = one_sided_cyclic(&a, &JacobiOptions::default());
        assert!(r.converged, "no convergence in {} sweeps", r.sweeps);
        let resid = eigen_residual(&a, &r.eigenvectors, &r.eigenvalues);
        assert!(resid < 1e-6 * a.frobenius_norm().max(1.0), "residual {resid}");
        assert!(orthogonality_defect(&r.eigenvectors) < 1e-10);
    }

    #[test]
    fn off_norm_decreases_monotonically_on_random_input() {
        let a = random_symmetric(16, 5);
        let r = one_sided_cyclic(&a, &JacobiOptions::default());
        for w in r.off_history.windows(2) {
            assert!(w[1] <= w[0] * 1.0000001, "off-norm increased: {} → {}", w[0], w[1]);
        }
    }

    #[test]
    fn wilkinson_pairs_resolved() {
        // W₂₁⁺ has close eigenvalue pairs; Jacobi resolves them to high
        // relative accuracy.
        let a = wilkinson_matrix(21);
        let r = one_sided_cyclic(&a, &JacobiOptions { tol: 1e-12, ..Default::default() });
        assert!(r.converged);
        let ev = r.sorted_eigenvalues();
        // Largest eigenvalue of W21+ is ≈ 10.7461941829034.
        assert!((ev[20] - 10.746194182903393).abs() < 1e-8, "λ_max = {}", ev[20]);
        // The top pair agrees to ~14 decimal digits.
        assert!(ev[20] - ev[19] < 1e-10);
    }

    #[test]
    fn trace_is_preserved() {
        let a = random_symmetric(12, 8);
        let tr: f64 = (0..12).map(|i| a[(i, i)]).sum();
        let r = one_sided_cyclic(&a, &JacobiOptions::default());
        let sum: f64 = r.eigenvalues.iter().sum();
        assert!((tr - sum).abs() < 1e-10);
    }

    #[test]
    fn forced_sweep_count_is_respected() {
        let a = random_symmetric(10, 2);
        let opts = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
        let r = one_sided_cyclic(&a, &opts);
        assert_eq!(r.sweeps, 2);
        assert_eq!(r.off_history.len(), 3);
    }
}
