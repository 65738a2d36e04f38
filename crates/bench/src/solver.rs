//! The eigensolver itself: Table 2's sweep counts, their dependence on the
//! stopping tolerance, and the threaded solver's wall-clock scaling.

use crate::Report;
use mph_core::OrderingFamily;
use mph_eigen::{
    block_jacobi, block_jacobi_threaded, convergence_stats, table2_grid, JacobiOptions,
};
use mph_linalg::symmetric::random_symmetric;
use std::hint::black_box;
use std::time::Instant;

/// **Table 2**: sweeps to convergence of the BR, permuted-BR and degree-4
/// orderings over the paper's `(m, P)` grid, the mean over `trials`
/// (argument 1, default 30) random symmetric matrices with `U(−1, 1)`
/// entries per cell, stopping at `tol` (argument 2, default
/// `JacobiOptions::default().tol`).
///
/// Absolute values depend on the tolerance, which the paper does not
/// state; the reproduction target is the *shape*: all three orderings
/// converge in practically the same number of sweeps, growing slowly with
/// `m` (paper band: 3.2–6.1).
pub fn table2(args: &[String]) -> Report {
    let trials = args.first().and_then(|s| s.parse::<usize>().ok()).unwrap_or(30);
    let tol =
        args.get(1).and_then(|s| s.parse::<f64>().ok()).unwrap_or(JacobiOptions::default().tol);
    let opts = JacobiOptions { tol, ..Default::default() };
    let mut r = Report::default();
    r.banner(&format!(
        "Table 2 — mean sweeps over {trials} random matrices (tol = {:.0e}·‖A‖_F)",
        opts.tol
    ));
    say!(r, "{:>4} {:>4} {:>8} {:>14} {:>10}", "m", "P", "BR", "permuted-BR", "degree-4");
    let families = [OrderingFamily::Br, OrderingFamily::PermutedBr, OrderingFamily::Degree4];
    let mut rows = Vec::new();
    for (m, p) in table2_grid() {
        let means = families.map(|family| {
            let s = convergence_stats(family, m, p, trials, &opts, 0xC0FFEE + m as u64);
            assert_eq!(s.failures, 0, "non-convergence at m={m} P={p} {family}");
            s.mean_sweeps
        });
        say!(r, "{m:>4} {p:>4} {:>8.2} {:>14.2} {:>10.2}", means[0], means[1], means[2]);
        rows.push(format!("{m},{p},{:.3},{:.3},{:.3}", means[0], means[1], means[2]));
    }
    r.csv("table2.csv", "m,P,br,permuted_br,degree4", &rows);
    say!(
        r,
        "\nPaper's Table 2 band: 3.23–6.03 sweeps; identical columns across orderings\n\
         (\"the convergence rates of the proposed orderings appear to be practically\n\
         the same as that of the BR ordering\")."
    );
    r
}

/// Table-2 sweep counts against the stopping tolerance: the calibration
/// behind `JacobiOptions::tol`'s default, and the offset between our
/// absolute sweep counts and the paper's, whose tolerance is unstated.
pub fn ablation_tolerance(_: &[String]) -> Report {
    let trials = 10usize;
    let mut r = Report::default();
    r.banner("sweeps vs stopping tolerance (BR ordering, 10 matrices/cell)");
    say!(r, "       tol |   m=8,P=2  m=16,P=4  m=32,P=8 m=64,P=16");
    let mut rows = Vec::new();
    for tol in [1e-2f64, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12] {
        let opts = JacobiOptions { tol, ..Default::default() };
        let [m8, m16, m32, m64] = [(8usize, 2usize), (16, 4), (32, 8), (64, 16)].map(|(m, p)| {
            convergence_stats(OrderingFamily::Br, m, p, trials, &opts, 777).mean_sweeps
        });
        say!(r, "{tol:>10.0e} | {m8:>9.2} {m16:>9.2} {m32:>9.2} {m64:>9.2}");
        rows.push(format!("{tol:e},{m8:.2},{m16:.2},{m32:.2},{m64:.2}"));
    }
    r.csv("ablation_tolerance.csv", "tol,m8p2,m16p4,m32p8,m64p16", &rows);
    say!(
        r,
        "\nThe paper's Table-2 band (3.23–6.03) corresponds to tol ≈ 1e-3…1e-4;\n\
         each 10⁴× tightening costs roughly one extra sweep (quadratic\n\
         convergence), and the ordering-insensitivity holds at every tolerance."
    );
    r
}

/// Median wall time of `reps` calls of `f`, in seconds.
fn median_time<T>(mut f: impl FnMut() -> T, reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

/// Wall-clock scaling of the threaded solver on the host it runs on: one
/// forced sweep of an `m × m` problem (argument 1, default 256) per cube
/// dimension, the median of five runs. Not tracked: host time is the
/// repository benchmark's.
pub fn threaded_scaling(args: &[String]) -> Report {
    let m = args.first().and_then(|s| s.parse::<usize>().ok()).unwrap_or(256);
    let reps = 5;
    let a = random_symmetric(m, 99);
    let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
    let mut r = Report::default();
    r.banner(&format!("threaded solver wall-clock, one sweep of m = {m}"));

    let seq = median_time(|| block_jacobi(&a, 0, OrderingFamily::Br, &opts), reps);
    say!(r, "logical single-thread reference: {:.1} ms\n", seq * 1e3);
    say!(r, "  d    nodes  median (ms)    speedup  efficiency");
    let mut rows = Vec::new();
    for d in 0..=4usize {
        let t = median_time(|| block_jacobi_threaded(&a, d, OrderingFamily::Degree4, &opts), reps);
        let speedup = seq / t;
        let eff = speedup / (1usize << d) as f64;
        say!(r, "{d:>3} {:>8} {:>12.1} {:>10.2} {:>11.2}", 1 << d, t * 1e3, speedup, eff);
        rows.push(format!("{d},{},{:.6},{:.3},{:.3}", 1 << d, t, speedup, eff));
    }
    r.csv("threaded_scaling.csv", "d,nodes,median_s,speedup,efficiency", &rows);
    say!(
        r,
        "\nNotes: the logical and threaded drivers execute identical rotations; the\n\
         gap is the engine's own work — stepping the 2^d node programs on at most\n\
         one worker per CPU, their link queues and the convergence all-reduce.\n\
         Both stop on the same O(m²) post-sweep measure (column eigen-residuals),\n\
         so they run the same sweeps. Attainable speedup is capped by the\n\
         machine's core count."
    );
    r
}
