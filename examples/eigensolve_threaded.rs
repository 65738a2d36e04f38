//! Distributed eigensolve on the threaded multicomputer: 8 nodes (a
//! 3-cube) exchange column blocks over channels, following the degree-4
//! ordering, and the assembled eigensystem is verified against the
//! sequential solver and by residual checks.
//!
//! ```sh
//! cargo run --release --example eigensolve_threaded
//! ```

use mph::core::OrderingFamily;
use mph::eigen::{block_jacobi_threaded, one_sided_cyclic, JacobiOptions, ThreadedRun};
use mph::linalg::matmul::{eigen_residual, orthogonality_defect};
use mph::linalg::symmetric::random_symmetric;

fn main() {
    let m = 64usize;
    let d = 3usize;
    let family = OrderingFamily::Degree4;
    let a = random_symmetric(m, 7);

    println!("solving a {m}×{m} random symmetric eigenproblem on a {d}-cube");
    println!("({} nodes, ordering: {})\n", 1 << d, family.name());

    let t0 = std::time::Instant::now();
    let ThreadedRun { result: r, meter, .. } =
        block_jacobi_threaded(&a, d, family, &JacobiOptions::default());
    let dt = t0.elapsed();

    println!(
        "converged: {} in {} sweeps, {} rotations, {:.1?}",
        r.converged, r.sweeps, r.rotations, dt
    );
    println!(
        "residual ‖AU − UΛ‖_F      = {:.3e}",
        eigen_residual(&a, &r.eigenvectors, &r.eigenvalues)
    );
    println!("orthogonality ‖UᵀU − I‖_F = {:.3e}", orthogonality_defect(&r.eigenvectors));

    println!("\nper-dimension traffic (messages / elements):");
    for dim in 0..d {
        println!("  dim {dim}: {:>5} msgs, {:>9} elems", meter.messages(dim), meter.volume(dim));
    }

    // Cross-check the spectrum against the sequential reference.
    let seq = one_sided_cyclic(&a, &JacobiOptions::default());
    let (te, se) = (r.sorted_eigenvalues(), seq.sorted_eigenvalues());
    let max_dev = te.iter().zip(&se).map(|(x, y)| (x - y).abs()).fold(0.0f64, f64::max);
    println!("\nmax |λ_threaded − λ_sequential| = {max_dev:.3e}");
    assert!(max_dev < 1e-7, "threaded and sequential spectra diverge");
    println!("threaded multicomputer agrees with the sequential solver ✓");
}
