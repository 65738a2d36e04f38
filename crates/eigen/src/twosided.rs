//! Classical two-sided cyclic Jacobi — the baseline solver.
//!
//! The paper's method is the *one-sided* variant; the two-sided algorithm
//! (rotations applied to rows and columns of an explicit matrix) is the
//! textbook reference (\[15\] Wilkinson). It is implemented here purely as an
//! independent oracle: both solvers must produce the same spectrum, and
//! their sweep counts should be comparable. It keeps its own sweep and
//! measure, but stops on the rule of every driver, [`JobKind::Eigen`]'s.
//!
//! # The row half, deferred
//!
//! Rotation `(p, q)` is `A ← JᵀAJ`: a column half on columns `p` and `q`,
//! then a row half `(a_pk, a_qk) ← (c·a_pk − s·a_qk, s·a_pk + c·a_qk)` in
//! every column `k` — both halves the one rotation of `mph_linalg::vecops`,
//! a multiply and a fused multiply-add per entry: `a_pk' = fma(c, a_pk,
//! −(s·a_qk))`, `a_qk' = fma(s, a_pk, c·a_qk)`. On a column-major iterate
//! the row half costs a cache line per element, so it is deferred. Within
//! row `p`, the entries `(p, k)` and `(q, k)` of a column `k ∉ {p, q}` are
//! read or written by nothing but later row halves of the same row — until
//! `k` becomes a pivot `q` itself, whose column half and pivot `a_pk` read
//! the whole column. So the row's applied rotations `(q, c, s)` form a
//! chain, and bringing a column through a stretch of it is a top-pivot
//! rotation sequence (`dlasr`'s shape), [`rotate_top_pivot`], which runs
//! eight columns in one lane group, a column to a lane:
//!
//! - column `p` takes every rotation at once: the column half, fused with
//!   the same rotation of `U`'s columns `p` and `q` into one
//!   [`pair_rotate`] pass, and the row half's 2×2 block from the
//!   column-pass values — the row half of columns `p` and `q` alone, both
//!   turned in one [`rotate_pivot_rows`] call, keeping `a_pp` and `a_qq` —
//!   with the pivot pair zeroed;
//! - a pivot column `q` is brought through the chain so far, in chain order,
//!   before its pivot is read: eight pivots abreast on the chain known when
//!   the first of them comes up, then each alone through the turns of the
//!   pivots before it in its group;
//! - at the end of the row, every other column is brought through what it
//!   still owes, eight columns abreast.
//!
//! Each entry then sees the same operations in the same order as under the
//! eager two loops, so every output bit is theirs — `off_history` included.
//! Nothing assumes symmetry, so that holds for an input the solver accepts at
//! only `1e-12` symmetry as well. `tests::the_deferred_sweep_is_bitwise_the_eager_one`
//! pins it against the eager sweep.

use crate::multidrive::JobKind;
use crate::options::{EigenResult, JacobiOptions};
use mph_linalg::rotation::symmetric_schur;
use mph_linalg::vecops::{pair_rotate, rotate_pivot_rows, rotate_top_pivot};
use mph_linalg::Matrix;

/// One applied rotation of the current row `p`: its pivot column `q` and
/// its `(c, s)`. A row's chain is in increasing `q`.
type Turn = (usize, f64, f64);

/// Columns brought through a chain together: one lane group.
const ABREAST: usize = 8;

/// Ends row `p` on the consecutive columns `cols`, the first of which is
/// column `first` (none of them `p`): column `k` still owes the turns whose
/// pivot lies right of it. [`ABREAST`] at a time, each column is brought to
/// the last one's start, then the group runs abreast.
fn flush(cols: &mut [f64], first: usize, m: usize, p: usize, chain: &[Turn]) {
    // `chain[..owed]` are the turns with pivot at most the current column.
    let mut owed = 0;
    let mut k = first;
    for group in cols.chunks_mut(ABREAST * m) {
        let mut starts = [0; ABREAST];
        for start in &mut starts[..group.len() / m] {
            while chain.get(owed).is_some_and(|&(q, ..)| q <= k) {
                owed += 1;
            }
            *start = owed;
            k += 1;
        }
        for (col, &start) in group.chunks_exact_mut(m).zip(&starts) {
            rotate_top_pivot(col, m, p, &chain[start..owed]);
        }
        rotate_top_pivot(group, m, p, &chain[owed..]);
    }
}

/// One cyclic sweep over the column-major `m × m` iterate `a`, accumulating
/// every rotation into `u`. Returns the rotations applied.
fn sweep(a: &mut [f64], m: usize, u: &mut Matrix, chain: &mut Vec<Turn>) -> u64 {
    let mut rotations = 0;
    for p in 0..m {
        chain.clear();
        // Pivot columns are caught up `ABREAST` at a time, on the chain
        // known when the group's first comes up; each then owes only the
        // turns of the pivots before it in its group. Columns below `ahead`
        // have been brought through `chain[..caught]`.
        let (mut ahead, mut caught) = (p + 1, 0);
        for q in (p + 1)..m {
            if q == ahead {
                ahead = m.min(q + ABREAST);
                rotate_top_pivot(&mut a[q * m..ahead * m], m, p, chain);
                caught = chain.len();
            }
            let (head, tail) = a.split_at_mut(q * m);
            let (colp, colq) = (&mut head[p * m..(p + 1) * m], &mut tail[..m]);
            rotate_top_pivot(colq, m, p, &chain[caught..]);
            let apq = colq[p];
            // Not `apq != 0.0`: that would rotate a NaN pivot.
            if apq.abs() > 0.0 {
                let rot = symmetric_schur(colp[p], apq, colq[q]);
                let (c, s) = (rot.c, rot.s);
                let (up, uq) = u.col_pair_mut(p, q);
                pair_rotate(colp, colq, up, uq, c, s);
                // The row half's 2×2 block, from the column-pass values; the
                // annihilated pair is cleaned explicitly (fp hygiene).
                rotate_pivot_rows(colp, colq, (p, q), c, s);
                colp[q] = 0.0;
                colq[p] = 0.0;
                chain.push((q, c, s));
                rotations += 1;
            }
        }
        if let Some(&(last, ..)) = chain.last() {
            flush(&mut a[..p * m], 0, m, p, chain);
            flush(&mut a[(p + 1) * m..last * m], p + 1, m, p, chain);
        }
    }
    rotations
}

/// `‖A − diag(A)‖_F` of the column-major `m × m` iterate, summed in
/// [`mph_linalg::off_diagonal_frobenius`]'s order.
fn off_norm(a: &[f64], m: usize) -> f64 {
    let mut s = 0.0;
    for (c, col) in a.chunks_exact(m.max(1)).enumerate() {
        for (r, x) in col.iter().enumerate() {
            if r != c {
                s += x * x;
            }
        }
    }
    s.sqrt()
}

/// Solves the symmetric eigenproblem by two-sided cyclic Jacobi.
pub fn two_sided_cyclic(a0: &Matrix, opts: &JacobiOptions) -> EigenResult {
    assert_eq!(a0.rows(), a0.cols());
    assert!(a0.is_symmetric(1e-12 * a0.frobenius_norm().max(1.0)), "input must be symmetric");
    let m = a0.cols();
    // The iterate starts a cache line, so for `m` a multiple of 8 every
    // column does and no lane load or store of either half straddles two
    // lines. (Should `align_offset` give no offset, it is only slower.)
    let mut store: Vec<f64> = Vec::with_capacity(m * m + 7);
    let head = store.as_ptr().align_offset(64).min(7);
    store.resize(head, 0.0);
    store.extend_from_slice(a0.as_slice());
    let a = &mut store[head..];
    let mut u = Matrix::identity(m);
    let mut chain = Vec::with_capacity(m);
    let (bar, budget) = (JobKind::Eigen.bar(a0, opts), JobKind::Eigen.budget(opts));
    let off = off_norm(a, m);
    let mut off_history = vec![off];
    let mut met = bar.met(off);
    let mut rotations = 0u64;
    let mut sweeps = 0usize;
    while !met && sweeps < budget {
        rotations += sweep(a, m, &mut u, &mut chain);
        sweeps += 1;
        let off = off_norm(a, m);
        off_history.push(off);
        met = bar.met(off);
    }
    let converged = bar.converged(met);

    EigenResult {
        eigenvalues: (0..m).map(|i| a[i * m + i]).collect(),
        eigenvectors: u,
        sweeps,
        rotations,
        off_history,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onesided::one_sided_cyclic;
    use mph_linalg::matmul::{eigen_residual, orthogonality_defect};
    use mph_linalg::off_diagonal_frobenius;
    use mph_linalg::symmetric::{diagonal, frank_matrix, random_symmetric, wilkinson_matrix};
    use mph_linalg::vecops::rotate_pair;

    /// The eager rotation: the column loop, then the row loop over every
    /// column — the reference the deferred sweep is held to the bit.
    fn rotate_two_sided(a: &mut Matrix, u: &mut Matrix, p: usize, q: usize) -> bool {
        let apq = a[(p, q)];
        if apq == 0.0 {
            return false;
        }
        let rot = symmetric_schur(a[(p, p)], apq, a[(q, q)]);
        let (c, s) = (rot.c, rot.s);
        let m = a.cols();
        for k in 0..m {
            let akp = a[(k, p)];
            let akq = a[(k, q)];
            a[(k, p)] = c.mul_add(akp, -(s * akq));
            a[(k, q)] = s.mul_add(akp, c * akq);
        }
        for k in 0..m {
            let apk = a[(p, k)];
            let aqk = a[(q, k)];
            a[(p, k)] = c.mul_add(apk, -(s * aqk));
            a[(q, k)] = s.mul_add(apk, c * aqk);
        }
        a[(p, q)] = 0.0;
        a[(q, p)] = 0.0;
        let (up, uq) = u.col_pair_mut(p, q);
        rotate_pair(up, uq, c, s);
        true
    }

    /// [`two_sided_cyclic`] as it was before the row half was deferred.
    fn eager_two_sided_cyclic(a0: &Matrix, opts: &JacobiOptions) -> EigenResult {
        let m = a0.cols();
        let mut a = a0.clone();
        let mut u = Matrix::identity(m);
        let norm_a = a0.frobenius_norm();
        let mut off_history = vec![off_diagonal_frobenius(&a)];
        let mut rotations = 0u64;
        let mut sweeps = 0usize;
        let mut converged = off_history[0] <= opts.tol * norm_a && opts.force_sweeps.is_none();
        let budget = opts.force_sweeps.unwrap_or(opts.max_sweeps);
        while !converged && sweeps < budget {
            for p in 0..m {
                for q in (p + 1)..m {
                    if a[(p, q)].abs() > 0.0 && rotate_two_sided(&mut a, &mut u, p, q) {
                        rotations += 1;
                    }
                }
            }
            sweeps += 1;
            let off = off_diagonal_frobenius(&a);
            off_history.push(off);
            if opts.force_sweeps.is_none() {
                converged = off <= opts.tol * norm_a;
            }
        }
        // A forced solve reports converged, as every driver does.
        if opts.force_sweeps.is_some() {
            converged = true;
        }
        EigenResult {
            eigenvalues: (0..m).map(|i| a[(i, i)]).collect(),
            eigenvectors: u,
            sweeps,
            rotations,
            off_history,
            converged,
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    fn assert_bitwise_eager(a: &Matrix, opts: &JacobiOptions, case: &str) {
        let (got, want) = (two_sided_cyclic(a, opts), eager_two_sided_cyclic(a, opts));
        assert_eq!(bits(&got.eigenvalues), bits(&want.eigenvalues), "{case}: eigenvalues");
        assert_eq!(
            bits(got.eigenvectors.as_slice()),
            bits(want.eigenvectors.as_slice()),
            "{case}: eigenvectors"
        );
        assert_eq!(bits(&got.off_history), bits(&want.off_history), "{case}: off_history");
        assert_eq!(got.sweeps, want.sweeps, "{case}: sweeps");
        assert_eq!(got.rotations, want.rotations, "{case}: rotations");
        assert_eq!(got.converged, want.converged, "{case}: converged");
    }

    #[test]
    fn the_deferred_sweep_is_bitwise_the_eager_one() {
        let tight = JacobiOptions { tol: 1e-12, ..Default::default() };
        let option_sets = [
            ("tol 1e-12", tight.clone()),
            ("force 3", JacobiOptions { force_sweeps: Some(3), ..tight.clone() }),
        ];
        for m in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 17, 31, 33, 64, 100] {
            let mut perturbed = random_symmetric(m, 5);
            for c in 0..m {
                for r in 0..c {
                    perturbed[(r, c)] += 1e-13 * ((r + 2 * c) % 3) as f64;
                }
            }
            let inputs = [
                ("random", random_symmetric(m, m as u64)),
                ("wilkinson", wilkinson_matrix(m)),
                ("frank", frank_matrix(m)),
                ("diagonal", diagonal(&(0..m).map(|i| i as f64 - 1.5).collect::<Vec<_>>())),
                ("upper +1e-13", perturbed),
            ];
            for (name, a) in &inputs {
                for (opt_name, opts) in &option_sets {
                    assert_bitwise_eager(a, opts, &format!("m={m} {name} {opt_name}"));
                }
            }
        }
    }

    #[test]
    fn known_2x2() {
        let a = Matrix::from_fn(2, 2, |r, c| if r == c { 2.0 } else { 1.0 });
        let r = two_sided_cyclic(&a, &JacobiOptions::default());
        let ev = r.sorted_eigenvalues();
        assert!((ev[0] - 1.0).abs() < 1e-12 && (ev[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_one_sided_on_random_matrices() {
        for seed in [1u64, 2, 3] {
            let a = random_symmetric(14, seed);
            let opts = JacobiOptions { tol: 1e-10, ..Default::default() };
            let two = two_sided_cyclic(&a, &opts);
            let one = one_sided_cyclic(&a, &opts);
            assert!(two.converged && one.converged);
            let (e2, e1) = (two.sorted_eigenvalues(), one.sorted_eigenvalues());
            for (x, y) in e2.iter().zip(&e1) {
                assert!((x - y).abs() < 1e-8, "spectra disagree: {x} vs {y}");
            }
        }
    }

    #[test]
    fn frank_matrix_spectrum_is_positive() {
        let a = frank_matrix(10);
        let r = two_sided_cyclic(&a, &JacobiOptions { tol: 1e-12, ..Default::default() });
        assert!(r.converged);
        for &l in &r.eigenvalues {
            assert!(l > 0.0, "Frank matrix eigenvalue {l} not positive");
        }
    }

    #[test]
    fn eigenvectors_are_orthogonal_with_small_residual() {
        let a = random_symmetric(12, 42);
        let r = two_sided_cyclic(&a, &JacobiOptions::default());
        assert!(orthogonality_defect(&r.eigenvectors) < 1e-11);
        assert!(eigen_residual(&a, &r.eigenvectors, &r.eigenvalues) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn rejects_asymmetric_input() {
        let mut a = random_symmetric(4, 1);
        a[(0, 3)] += 0.5;
        let _ = two_sided_cyclic(&a, &JacobiOptions::default());
    }
}
