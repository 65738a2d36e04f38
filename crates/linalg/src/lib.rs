//! Dense linear-algebra substrate for the one-sided Jacobi eigensolver.
//!
//! The one-sided Jacobi method (paper §2.2) operates exclusively on matrix
//! *columns*: pairing columns `i` and `j` reads three inner products and
//! applies one plane rotation to the two columns of each of two matrices.
//! Everything here is therefore column-major and column-oriented:
//!
//! * [`Matrix`] — column-major dense matrix with cheap column access and
//!   column-pair rotation;
//! * [`block`] — contiguous flat storage for a *block* of `(A, U)` columns
//!   with zero-copy views, split-borrow pair access, and cached diagonals —
//!   the unit every parallel driver pairs locally and ships across links;
//! * [`vecops`] — the handful of BLAS-1 kernels the solver needs (`dot`,
//!   the fused inner products of a pairing, fused column-pair rotation):
//!   one definition of each result's bits — the inner product's eight
//!   fused multiply-add chains, its fixed tree and fused tail — and vector
//!   kernels on AVX-512F, AVX2 and a portable loop that reproduce those
//!   bits exactly;
//! * [`rotation`] — the symmetric 2×2 Schur decomposition that produces the
//!   rotation `(c, s)` annihilating an off-diagonal element;
//! * [`symmetric`] — random and classical symmetric test-matrix generators
//!   plus the off-diagonal norms used as convergence measures;
//! * [`matmul`] — naive reference `GEMM`/residual helpers used only for
//!   verification (never on the solver's hot path).

pub mod block;
pub mod matmul;
pub mod matrix;
pub mod rotation;
pub mod symmetric;
pub mod vecops;

pub use block::{cross_pair_mut, two_blocks_mut, ColumnBlock, ColumnViewMut, PairViewMut};
pub use matrix::Matrix;
pub use rotation::{symmetric_schur, JacobiRotation};
pub use symmetric::{frank_matrix, off_diagonal_frobenius, random_symmetric, wilkinson_matrix};
pub use vecops::{dot, fused_triple, pair_rotate, pair_rotate_lanes, rotate_pair, KernelPath};
