//! The convergence measure (`mph_eigen::offnorm`: the eigen-residual of
//! the columns, summed) on inputs chosen to be hard for it, through every
//! eigensolver that stops on it: [`block_jacobi`], [`one_sided_cyclic`] and
//! the threaded driver. Each solve must converge to residual
//! `‖AV − VΛ‖ ≤ 1e-7·‖A‖` and orthogonality `‖VᵀV − I‖ ≤ 1e-10`, and the
//! threaded solve must stop at its logical solve's sweep with its bits.

use mph_core::OrderingFamily;
use mph_eigen::{
    block_jacobi, block_jacobi_threaded, one_sided_cyclic, EigenResult, JacobiOptions,
};
use mph_linalg::matmul::{eigen_residual, matmul, orthogonality_defect};
use mph_linalg::symmetric::{diagonal, random_symmetric};
use mph_linalg::Matrix;

const D: usize = 2;

fn assert_accurate(a: &Matrix, r: &EigenResult, what: &str) {
    assert!(r.converged, "{what}: ran out its sweeps");
    let residual = eigen_residual(a, &r.eigenvectors, &r.eigenvalues) / a.frobenius_norm();
    assert!(residual <= 1e-7, "{what}: residual {residual:e}");
    let defect = orthogonality_defect(&r.eigenvectors);
    assert!(defect <= 1e-10, "{what}: orthogonality {defect:e}");
}

/// What a threaded solve must share with its logical solve (values compared
/// with `==`: bitwise but for the sign of a zero, a converged solve has no NaN).
fn outcome<'r>(
    r: &'r EigenResult,
    history: &'r [f64],
) -> (usize, u64, &'r [f64], &'r Matrix, &'r [f64]) {
    (r.sweeps, r.rotations, &r.eigenvalues, &r.eigenvectors, history)
}

/// Solves `a` in every mode and returns the BR logical block solve.
fn solve_everywhere(a: &Matrix, what: &str) -> EigenResult {
    let opts = JacobiOptions::default();
    assert_accurate(a, &one_sided_cyclic(a, &opts), &format!("{what}, cyclic"));
    let solves = OrderingFamily::ALL.map(|family| {
        let logical = block_jacobi(a, D, family, &opts);
        assert_accurate(a, &logical, &format!("{what}, {family} logical"));
        let threaded = block_jacobi_threaded(a, D, family, &opts).result;
        assert_accurate(a, &threaded, &format!("{what}, {family} threaded"));
        let same = outcome(&threaded, &threaded.off_history)
            == outcome(&logical, &logical.off_history[1..]);
        assert!(same, "{what}, {family}: {} vs {} sweeps", threaded.sweeps, logical.sweeps);
        logical
    });
    solves.into_iter().next().expect("four families")
}

/// `Q·diag(spectrum)·Qᵀ` for a `Q` made of two Householder reflections —
/// orthogonal to rounding, and dense.
fn with_spectrum(spectrum: &[f64]) -> Matrix {
    let m = spectrum.len();
    let reflector = |seed: f64| {
        let v: Vec<f64> = (0..m).map(|i| ((i as f64 + 1.0) * seed).sin() + 0.1).collect();
        let vv: f64 = v.iter().map(|x| x * x).sum();
        Matrix::from_fn(m, m, |r, c| f64::from(u8::from(r == c)) - 2.0 * v[r] * v[c] / vv)
    };
    let q = matmul(&reflector(0.7), &reflector(1.9));
    let qt = Matrix::from_fn(m, m, |r, c| q[(c, r)]);
    let a = matmul(&matmul(&q, &diagonal(spectrum)), &qt);
    // Symmetric to the bit, as the solvers assume.
    Matrix::from_fn(m, m, |r, c| 0.5 * (a[(r, c)] + a[(c, r)]))
}

#[test]
fn already_diagonal_input_stops_at_once_a_threaded_solve_after_one_sweep() {
    // The documented edge: the logical drivers measure before the first
    // sweep and stop at 0; a threaded solve casts no pre-sweep vote (it
    // would cost d control messages per node), runs one sweep that rotates
    // nothing, and stops on that sweep's vote of exactly 0.
    let values: Vec<f64> = (0..20).map(|i| (i as f64 - 7.5) * 1.25).collect();
    let a = diagonal(&values);
    let opts = JacobiOptions::default();
    for r in [one_sided_cyclic(&a, &opts), block_jacobi(&a, D, OrderingFamily::Br, &opts)] {
        assert!(r.converged);
        assert_eq!((r.sweeps, r.rotations), (0, 0));
        assert_eq!(r.off_history, vec![0.0]);
        assert_eq!(r.eigenvalues, values);
    }
    let t = block_jacobi_threaded(&a, D, OrderingFamily::Br, &opts).result;
    assert!(t.converged);
    assert_eq!((t.sweeps, t.rotations), (1, 0));
    assert_eq!(t.off_history, vec![0.0]);
    assert_eq!(t.eigenvalues, values);
}

#[test]
fn a_rank_deficient_matrix_converges_with_its_null_space_resolved() {
    // A = B·Bᵀ with B 24 × 5: nineteen zero eigenvalues, whose columns'
    // residuals are pure rounding noise around 0.
    let (m, rank) = (24, 5);
    let dense = random_symmetric(m, 5);
    let b = Matrix::from_fn(m, rank, |r, c| dense[(r, c)]);
    let a = matmul(&b, &Matrix::from_fn(rank, m, |r, c| b[(c, r)]));
    let a = Matrix::from_fn(m, m, |r, c| 0.5 * (a[(r, c)] + a[(c, r)]));
    let r = solve_everywhere(&a, "rank 5 of 24");
    let null = r.eigenvalues.iter().filter(|l| l.abs() <= 1e-9 * a.frobenius_norm()).count();
    assert_eq!(null, m - rank);
}

#[test]
fn repeated_and_clustered_eigenvalues_converge() {
    // 2 twice, and 1 beside 1 + 1e-9: within such a cluster any rotation of
    // the eigenvectors is as good, so M_ij there falls to 0 like anywhere
    // else and the residual measure does not stall.
    let mut spectrum: Vec<f64> = (0..18).map(|i| -4.0 + 0.9 * i as f64).collect();
    spectrum.extend([2.0, 2.0, 1.0, 1.0 + 1e-9]);
    let a = with_spectrum(&spectrum);
    let r = solve_everywhere(&a, "clustered spectrum");
    let mut want = spectrum.clone();
    want.sort_by(f64::total_cmp);
    for (got, want) in r.sorted_eigenvalues().iter().zip(&want) {
        assert!((got - want).abs() <= 1e-9 * a.frobenius_norm(), "{got} vs {want}");
    }
}

#[test]
fn inputs_scaled_by_1e100_either_way_take_the_sweeps_of_the_unscaled_input() {
    // The measure squares residual entries: 1e±100 leaves that inside the
    // double range, and the tolerance is relative to ‖A‖, so a scaling only
    // moves rounding.
    let a = random_symmetric(24, 77);
    let sweeps = solve_everywhere(&a, "unscaled").sweeps;
    for scale in [1e100, 1e-100] {
        let scaled = Matrix::from_fn(24, 24, |r, c| a[(r, c)] * scale);
        let r = solve_everywhere(&scaled, &format!("scaled by {scale:e}"));
        assert!(r.sweeps.abs_diff(sweeps) <= 1, "{scale:e}: {} vs {sweeps} sweeps", r.sweeps);
    }
}
