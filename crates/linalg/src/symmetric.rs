//! Symmetric test-matrix generators and convergence measures.
//!
//! Table 2 of the paper uses "matrices generated with random numbers on the
//! interval [-1, 1] having a uniform distribution"; [`random_symmetric`]
//! reproduces that workload (seeded, so experiments are repeatable). The
//! classical Wilkinson and Frank matrices provide eigenvalue ground truth
//! for solver validation.

use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random symmetric `n × n` matrix with entries uniform on `[-1, 1]`,
/// symmetrized by construction (`a_ij = a_ji` drawn once).
pub fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v: f64 = rng.gen_range(-1.0..=1.0);
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    m
}

/// The Wilkinson matrix `W_n⁺`: tridiagonal with diagonal
/// `|i − (n−1)/2|` and unit off-diagonals. Its eigenvalues come in
/// famously close pairs — a classical stress test for symmetric solvers.
pub fn wilkinson_matrix(n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    let center = (n as f64 - 1.0) / 2.0;
    for i in 0..n {
        m[(i, i)] = (i as f64 - center).abs();
        if i + 1 < n {
            m[(i, i + 1)] = 1.0;
            m[(i + 1, i)] = 1.0;
        }
    }
    m
}

/// The symmetrized Frank matrix: `a_ij = n − max(i, j)` (1-based
/// `min(n−i+1, n−j+1)` in the classical definition). Ill-conditioned small
/// eigenvalues; positive definite.
pub fn frank_matrix(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |r, c| (n - r.max(c)) as f64)
}

/// A diagonal matrix with the given entries (handy for exact-spectrum tests).
pub fn diagonal(values: &[f64]) -> Matrix {
    let n = values.len();
    let mut m = Matrix::zeros(n, n);
    for (i, &v) in values.iter().enumerate() {
        m[(i, i)] = v;
    }
    m
}

/// `off(M)`: the Frobenius norm of the off-diagonal part — the quantity
/// one-sided Jacobi drives to zero.
pub fn off_diagonal_frobenius(m: &Matrix) -> f64 {
    assert_eq!(m.rows(), m.cols());
    let mut s = 0.0;
    for c in 0..m.cols() {
        for r in 0..m.rows() {
            if r != c {
                s += m[(r, c)] * m[(r, c)];
            }
        }
    }
    s.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_symmetric_is_symmetric_and_bounded() {
        let m = random_symmetric(17, 42);
        assert!(m.is_symmetric(0.0));
        assert!(m.as_slice().iter().all(|x| x.abs() <= 1.0));
    }

    #[test]
    fn random_symmetric_is_seed_deterministic() {
        assert_eq!(random_symmetric(8, 7), random_symmetric(8, 7));
        assert_ne!(random_symmetric(8, 7), random_symmetric(8, 8));
    }

    #[test]
    fn wilkinson_shape() {
        let w = wilkinson_matrix(7);
        assert!(w.is_symmetric(0.0));
        assert_eq!(w[(0, 0)], 3.0);
        assert_eq!(w[(3, 3)], 0.0);
        assert_eq!(w[(6, 6)], 3.0);
        assert_eq!(w[(2, 3)], 1.0);
        assert_eq!(w[(2, 4)], 0.0);
    }

    #[test]
    fn frank_is_symmetric_positive_definite_small() {
        let f = frank_matrix(5);
        assert!(f.is_symmetric(0.0));
        assert_eq!(f[(0, 0)], 5.0);
        assert_eq!(f[(4, 4)], 1.0);
        assert_eq!(f[(0, 4)], 1.0);
        // Leading principal minors positive (Sylvester) — checked by LDLᵀ-ish
        // elimination on a copy.
        let n = 5;
        let mut a = f.clone();
        for k in 0..n {
            assert!(a[(k, k)] > 0.0, "minor {k} not positive");
            for i in (k + 1)..n {
                let l = a[(i, k)] / a[(k, k)];
                for j in k..n {
                    let v = a[(k, j)];
                    a[(i, j)] -= l * v;
                }
            }
        }
    }

    #[test]
    fn off_diagonal_norm_zero_for_diagonal() {
        let d = diagonal(&[1.0, -2.0, 5.0]);
        assert_eq!(off_diagonal_frobenius(&d), 0.0);
    }

    #[test]
    fn off_diagonal_norm_known_value() {
        let m = Matrix::from_fn(2, 2, |r, c| if r == c { 0.0 } else { 3.0 });
        assert!((off_diagonal_frobenius(&m) - (18.0f64).sqrt()).abs() < 1e-15);
    }
}
