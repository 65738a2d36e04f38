//! One-sided Jacobi SVD (Hestenes) driven by the same orderings.
//!
//! The paper's reference \[7\] (Gao & Thomas) develops the BR-style ordering
//! for *singular value decomposition*; the one-sided Jacobi SVD is the
//! natural companion of the symmetric eigensolver and exercises the
//! orderings identically: maintain `W ← A·V` (initially `A`) and `V`
//! (initially `I`); *pairing* columns `i, j` computes the Gram block
//! `(w_i·w_i, w_i·w_j, w_j·w_j)` and rotates both `W` and `V` columns to
//! orthogonalize `w_i ⊥ w_j`. At convergence `W = U·Σ` with orthonormal
//! `U`, so `A = U·Σ·Vᵀ`.
//!
//! Like the eigensolver, the SVD comes in a sequential cyclic driver and a
//! block driver that follows any [`OrderingFamily`] sweep schedule; both
//! are verified against each other and by reconstruction residuals. Both
//! run the eigensolvers' logical loop with [`JobKind::Svd`](crate::JobKind):
//! the same contiguous [`ColumnBlock`] layout (`A` slots holding
//! `W`-columns, `U` slots holding `V`-columns), the shared kernel under
//! [`PairingRule::Gram`](crate::kernel::PairingRule::Gram) and the one stop
//! rule — the SVD is the third consumer of the one pairing kernel, not a
//! reimplementation.

use crate::blockjacobi::solve_logical;
use crate::multidrive::{svd_answer, JobKind};
use crate::options::JacobiOptions;
use mph_core::OrderingFamily;
use mph_linalg::block::ColumnBlock;
use mph_linalg::vecops::dot;
use mph_linalg::Matrix;

/// Result of a singular value decomposition.
#[derive(Debug, Clone)]
pub struct SvdResult {
    /// Singular values (unsorted: column order of `W`).
    pub singular_values: Vec<f64>,
    /// Left singular vectors (columns; `rows × cols` like `A`).
    pub u: Matrix,
    /// Right singular vectors (`cols × cols`).
    pub v: Matrix,
    pub sweeps: usize,
    pub rotations: u64,
    /// Whether a sweep's largest pair cosine met `tol` within
    /// `max_sweeps`; always for a forced solve. One rule for every driver.
    pub converged: bool,
}

impl SvdResult {
    /// Singular values sorted descending (the conventional order), in
    /// [`f64::total_cmp`] order so a NaN cannot panic the sort.
    pub fn sorted_singular_values(&self) -> Vec<f64> {
        let mut s = self.singular_values.clone();
        s.sort_by(|a, b| b.total_cmp(a));
        s
    }

    /// Reconstruction `U·Σ·Vᵀ`: entry `(r, j) = Σ_k U_{rk} σ_k V_{jk}`.
    pub fn reconstruct(&self) -> Matrix {
        let (rows, n) = (self.u.rows(), self.v.rows());
        let mut out = Matrix::zeros(rows, n);
        for k in 0..n {
            let uk = self.u.col(k);
            let vk = self.v.col(k);
            let sigma = self.singular_values[k];
            if sigma == 0.0 {
                continue;
            }
            for j in 0..n {
                let scale = sigma * vk[j];
                if scale != 0.0 {
                    for r in 0..rows {
                        out[(r, j)] += scale * uk[r];
                    }
                }
            }
        }
        out
    }
}

/// Normalizes one orthogonalized `W`-column into `dst` and returns its
/// norm `σ = ‖w‖` (zero columns leave `dst` untouched — rank deficiency).
fn sigma_and_u_col(col: &[f64], dst: &mut [f64]) -> f64 {
    let norm = dot(col, col).sqrt();
    if norm > 0.0 {
        let inv = 1.0 / norm;
        for (d, &x) in dst.iter_mut().zip(col) {
            *d = x * inv;
        }
    }
    norm
}

/// Extracts `(Σ, U, V)` from orthogonalized blocks: `σ_k = ‖w_k‖`,
/// `u_k = w_k/σ_k` (zero columns get a zero vector — rank deficiency), and
/// `V` reassembled from the blocks' `U` slots. The one SVD answer
/// assembly, shared by the logical drivers here and the engine
/// ([`crate::multidrive`]), so every path produces bitwise-identical
/// factors from the same column bits.
pub(crate) fn extract_usv_blocks(
    blocks: &[ColumnBlock],
    rows: usize,
    n: usize,
) -> (Vec<f64>, Matrix, Matrix) {
    let mut sigma = vec![0.0; n];
    let mut u = Matrix::zeros(rows, n);
    let mut v = Matrix::zeros(n, n);
    for blk in blocks {
        blk.store_u_into(&mut v);
        for k in 0..blk.len() {
            let c = blk.global_col(k);
            sigma[c] = sigma_and_u_col(blk.a_col(k), u.col_mut(c));
        }
    }
    (sigma, u, v)
}

/// Sequential cyclic one-sided Jacobi SVD of a `rows × n` matrix
/// (`rows ≥ n` recommended; works for any shape with `n` columns).
///
/// Convergence: every column pair's cosine `|w_i·w_j|/(‖w_i‖‖w_j‖) ≤ tol`.
pub fn svd_cyclic(a: &Matrix, opts: &JacobiOptions) -> SvdResult {
    solve_logical(JobKind::Svd, a, opts, None, svd_answer)
}

/// Block one-sided Jacobi SVD following `family`'s sweep schedule on a
/// logical `d`-cube — identical block movement and storage to the
/// eigensolver, with `(W, V)` in place of `(A, U)`.
pub fn svd_block(a: &Matrix, d: usize, family: OrderingFamily, opts: &JacobiOptions) -> SvdResult {
    solve_logical(JobKind::Svd, a, opts, Some((d, family)), svd_answer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_linalg::matmul::orthogonality_defect;
    use mph_linalg::symmetric::random_symmetric;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rect(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..=1.0))
    }

    fn reconstruction_error(a: &Matrix, r: &SvdResult) -> f64 {
        let rec = r.reconstruct();
        let mut s = 0.0;
        for c in 0..a.cols() {
            for row in 0..a.rows() {
                let t = a[(row, c)] - rec[(row, c)];
                s += t * t;
            }
        }
        s.sqrt()
    }

    #[test]
    fn diagonal_matrix_is_its_own_svd() {
        let a = mph_linalg::symmetric::diagonal(&[3.0, 2.0, 1.0]);
        let r = svd_cyclic(&a, &JacobiOptions::default());
        assert!(r.converged);
        assert_eq!(r.sorted_singular_values(), vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn reconstructs_random_square() {
        let a = random_rect(10, 10, 3);
        let r = svd_cyclic(&a, &JacobiOptions { tol: 1e-12, ..Default::default() });
        assert!(r.converged);
        assert!(reconstruction_error(&a, &r) < 1e-9, "err {}", reconstruction_error(&a, &r));
        assert!(orthogonality_defect(&r.v) < 1e-11);
    }

    #[test]
    fn reconstructs_tall_matrix() {
        let a = random_rect(20, 8, 5);
        let r = svd_cyclic(&a, &JacobiOptions { tol: 1e-12, ..Default::default() });
        assert!(r.converged);
        assert!(reconstruction_error(&a, &r) < 1e-9);
        // U columns orthonormal (tall case: n columns of length rows).
        for i in 0..8 {
            for j in i..8 {
                let d = dot(r.u.col(i), r.u.col(j));
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((d - want).abs() < 1e-10, "UᵀU ({i},{j}) = {d}");
            }
        }
    }

    #[test]
    fn sorting_singular_values_with_a_nan_does_not_panic() {
        let r = SvdResult {
            singular_values: vec![1.0, f64::NAN, 3.0, 0.0],
            u: Matrix::identity(4),
            v: Matrix::identity(4),
            sweeps: 0,
            rotations: 0,
            converged: false,
        };
        let s = r.sorted_singular_values();
        assert!(s[0].is_nan(), "total order: a positive NaN sorts above every number");
        assert_eq!(s[1..], [3.0, 1.0, 0.0]);
    }

    #[test]
    fn singular_values_of_symmetric_matrix_are_abs_eigenvalues() {
        let a = random_symmetric(12, 21);
        let svd = svd_cyclic(&a, &JacobiOptions { tol: 1e-12, ..Default::default() });
        let eig = crate::onesided::one_sided_cyclic(&a, &JacobiOptions::default());
        let mut abs_eig: Vec<f64> = eig.eigenvalues.iter().map(|l| l.abs()).collect();
        abs_eig.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (s, e) in svd.sorted_singular_values().iter().zip(&abs_eig) {
            assert!((s - e).abs() < 1e-7, "σ {s} vs |λ| {e}");
        }
    }

    #[test]
    fn block_svd_matches_cyclic_svd() {
        let a = random_rect(16, 16, 8);
        let opts = JacobiOptions { tol: 1e-11, ..Default::default() };
        let base = svd_cyclic(&a, &opts).sorted_singular_values();
        for family in OrderingFamily::ALL {
            let r = svd_block(&a, 2, family, &opts);
            assert!(r.converged, "{family}");
            for (x, y) in r.sorted_singular_values().iter().zip(&base) {
                assert!((x - y).abs() < 1e-7, "{family}: {x} vs {y}");
            }
            assert!(reconstruction_error(&a, &r) < 1e-8, "{family}");
        }
    }

    #[test]
    fn cached_gram_diagonals_still_reconstruct() {
        // The SVD's diagonal cache stores ‖w_k‖²; with the per-sweep exact
        // refresh the cached run must reconstruct as well as the exact one.
        let a = random_rect(12, 9, 31);
        let opts = JacobiOptions { tol: 1e-12, cache_diagonals: true, ..Default::default() };
        let r = svd_cyclic(&a, &opts);
        assert!(r.converged);
        assert!(reconstruction_error(&a, &r) < 1e-9);
        let exact = svd_cyclic(&a, &JacobiOptions { tol: 1e-12, ..Default::default() });
        for (x, y) in r.sorted_singular_values().iter().zip(&exact.sorted_singular_values()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
        let rb = svd_block(&a, 1, OrderingFamily::Br, &opts);
        assert!(rb.converged);
        assert!(reconstruction_error(&a, &rb) < 1e-8);
    }

    #[test]
    fn rank_deficient_matrix_yields_zero_singular_values() {
        // Two identical columns → at least one zero singular value.
        let mut a = random_rect(6, 4, 13);
        for r in 0..6 {
            let v = a[(r, 0)];
            a[(r, 1)] = v;
        }
        let r = svd_cyclic(&a, &JacobiOptions { tol: 1e-12, ..Default::default() });
        let s = r.sorted_singular_values();
        assert!(s[3] < 1e-10, "smallest σ = {}", s[3]);
        assert!(reconstruction_error(&a, &r) < 1e-9);
    }

    #[test]
    fn frobenius_norm_is_preserved_in_sigma() {
        // ‖A‖_F² = Σ σ_k².
        let a = random_rect(9, 7, 44);
        let r = svd_cyclic(&a, &JacobiOptions { tol: 1e-12, ..Default::default() });
        let sum_sq: f64 = r.singular_values.iter().map(|s| s * s).sum();
        let norm_sq = a.frobenius_norm().powi(2);
        assert!((sum_sq - norm_sq).abs() < 1e-9 * norm_sq);
    }
}
