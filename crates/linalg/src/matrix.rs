//! Column-major dense matrix.

/// A dense `rows × cols` matrix of `f64` stored column-major, so that a
/// column is a contiguous slice — the access pattern of one-sided Jacobi.
///
/// ```
/// use mph_linalg::Matrix;
/// let mut a = Matrix::identity(3);
/// a[(0, 2)] = 5.0;
/// assert_eq!(a.col(2), &[5.0, 0.0, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Column-major data: element `(r, c)` lives at `c * rows + r`.
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major closure (convenient in tests).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for c in 0..cols {
            for r in 0..rows {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Contiguous read access to column `c`.
    #[inline]
    pub fn col(&self, c: usize) -> &[f64] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Contiguous write access to column `c`.
    #[inline]
    pub fn col_mut(&mut self, c: usize) -> &mut [f64] {
        &mut self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Mutable access to two *distinct* columns at once — the shape required
    /// by a plane rotation. Order of the returned pair follows `(i, j)`.
    ///
    /// # Panics
    /// Panics if `i == j` or either index is out of range.
    pub fn col_pair_mut(&mut self, i: usize, j: usize) -> (&mut [f64], &mut [f64]) {
        assert!(i != j, "col_pair_mut requires distinct columns");
        assert!(i < self.cols && j < self.cols);
        let rows = self.rows;
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let (head, tail) = self.data.split_at_mut(hi * rows);
        let a = &mut head[lo * rows..(lo + 1) * rows];
        let b = &mut tail[..rows];
        if i < j {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Raw column-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// `true` when the matrix is symmetric to within `tol` (absolute).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for c in 0..self.cols {
            for r in 0..c {
                if (self[(r, c)] - self[(c, r)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[c * self.rows + r]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[c * self.rows + r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops::rotate_pair;

    #[test]
    fn identity_columns_are_unit_vectors() {
        let m = Matrix::identity(4);
        for c in 0..4 {
            let col = m.col(c);
            for r in 0..4 {
                assert_eq!(col[r], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn index_is_column_major() {
        let m = Matrix::from_fn(2, 2, |r, c| (1 + r + 2 * c) as f64);
        assert_eq!(m.data, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.col(1), &[3.0, 4.0]);
    }

    #[test]
    fn col_pair_mut_both_orders() {
        let mut m = Matrix::from_fn(3, 3, |r, c| (r + 10 * c) as f64);
        {
            let (a, b) = m.col_pair_mut(0, 2);
            assert_eq!(a, &[0.0, 1.0, 2.0]);
            assert_eq!(b, &[20.0, 21.0, 22.0]);
        }
        {
            let (a, b) = m.col_pair_mut(2, 0);
            assert_eq!(a, &[20.0, 21.0, 22.0]);
            assert_eq!(b, &[0.0, 1.0, 2.0]);
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn col_pair_mut_rejects_equal_indices() {
        let mut m = Matrix::zeros(2, 2);
        let _ = m.col_pair_mut(1, 1);
    }

    #[test]
    fn rotate_columns_preserves_frobenius_norm() {
        let mut m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64 - 7.5);
        let before = m.frobenius_norm();
        let theta = 0.7f64;
        let (x, y) = m.col_pair_mut(1, 3);
        rotate_pair(x, y, theta.cos(), theta.sin());
        assert!((m.frobenius_norm() - before).abs() < 1e-12);
    }

    #[test]
    fn rotation_by_zero_angle_is_identity() {
        let mut m = Matrix::from_fn(3, 3, |r, c| (r + c) as f64);
        let copy = m.clone();
        let (x, y) = m.col_pair_mut(0, 1);
        rotate_pair(x, y, 1.0, 0.0);
        assert_eq!(m, copy);
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_fn(3, 3, |r, c| (r + c) as f64);
        assert!(s.is_symmetric(0.0));
        let mut a = s.clone();
        a[(0, 2)] += 1e-3;
        assert!(!a.is_symmetric(1e-6));
        assert!(a.is_symmetric(1e-2));
    }
}
