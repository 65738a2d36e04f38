//! Reference matrix products and residual checks.
//!
//! These are deliberately naive O(n³) loops: they exist to *verify* the
//! solver (`‖A·U − U·Λ‖`, `‖UᵀU − I‖`, explicit `UᵀAU`), never to be fast.

use crate::matrix::Matrix;
use crate::vecops::dot;

/// `C = A · B`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for j in 0..b.cols() {
        let bj = b.col(j);
        for k in 0..a.cols() {
            let ak = a.col(k);
            let scale = bj[k];
            if scale != 0.0 {
                for i in 0..a.rows() {
                    c[(i, j)] += scale * ak[i];
                }
            }
        }
    }
    c
}

/// `AᵀB` without materializing the transpose.
pub fn at_b(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows());
    let mut c = Matrix::zeros(a.cols(), b.cols());
    for j in 0..b.cols() {
        for i in 0..a.cols() {
            c[(i, j)] = dot(a.col(i), b.col(j));
        }
    }
    c
}

/// `‖UᵀU − I‖_F`: orthogonality defect of the accumulated eigenvector
/// matrix.
pub fn orthogonality_defect(u: &Matrix) -> f64 {
    let g = at_b(u, u);
    let mut s = 0.0;
    for j in 0..g.cols() {
        for i in 0..g.rows() {
            let t = g[(i, j)] - if i == j { 1.0 } else { 0.0 };
            s += t * t;
        }
    }
    s.sqrt()
}

/// `‖A·U − U·diag(λ)‖_F`: eigenpair residual.
pub fn eigen_residual(a: &Matrix, u: &Matrix, lambda: &[f64]) -> f64 {
    assert_eq!(a.rows(), a.cols());
    assert_eq!(u.cols(), lambda.len());
    let au = matmul(a, u);
    let mut s = 0.0;
    for j in 0..u.cols() {
        let uj = u.col(j);
        let auj = au.col(j);
        for i in 0..u.rows() {
            let t = auj[i] - lambda[j] * uj[i];
            s += t * t;
        }
    }
    s.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symmetric::{diagonal, random_symmetric};

    #[test]
    fn matmul_identity() {
        let a = random_symmetric(6, 1);
        let i = Matrix::identity(6);
        assert_eq!(matmul(&a, &i), a);
        assert_eq!(matmul(&i, &a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_fn(2, 2, |r, c| [[1.0, 2.0], [3.0, 4.0]][r][c]);
        let b = Matrix::from_fn(2, 2, |r, c| [[5.0, 6.0], [7.0, 8.0]][r][c]);
        let c = matmul(&a, &b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = random_symmetric(5, 2);
        let b = random_symmetric(5, 3);
        let lhs = at_b(&a, &b);
        let rhs = matmul(&Matrix::from_fn(5, 5, |r, c| a[(c, r)]), &b);
        for j in 0..5 {
            for i in 0..5 {
                assert!((lhs[(i, j)] - rhs[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn identity_is_orthogonal() {
        assert!(orthogonality_defect(&Matrix::identity(7)) < 1e-15);
    }

    #[test]
    fn diagonal_matrix_eigen_residual_zero() {
        let vals = [3.0, -1.0, 0.5];
        let a = diagonal(&vals);
        let u = Matrix::identity(3);
        assert!(eigen_residual(&a, &u, &vals) < 1e-15);
    }

    #[test]
    fn wrong_eigenvalues_give_nonzero_residual() {
        let vals = [3.0, -1.0, 0.5];
        let a = diagonal(&vals);
        let u = Matrix::identity(3);
        assert!(eigen_residual(&a, &u, &[3.0, -1.0, 0.6]) > 0.09);
    }
}
