//! End-to-end integration: ordering → sweep schedule → communication
//! pricing/simulation → distributed eigensolve, across crate boundaries.

use mph::ccpipe::{
    packetization_cap, plan_sweep_cost, plan_unpipelined_cost, CcCube, Machine, PhaseCostModel,
};
use mph::core::{validate_sweep_coverage, BlockLayout, CommPlan, OrderingFamily, SweepSchedule};
use mph::eigen::{block_jacobi, block_jacobi_threaded, two_sided_cyclic, JacobiOptions};
use mph::linalg::matmul::{eigen_residual, orthogonality_defect};
use mph::linalg::symmetric::random_symmetric;
use mph::simnet::{pipelined_phase_schedule, simulate_synchronized, StartupModel};

#[test]
fn full_pipeline_for_every_family() {
    let d = 2usize;
    let m = 16usize;
    let a = random_symmetric(m, 4242);
    let machine = Machine::paper_figure2();
    for family in OrderingFamily::ALL {
        // 1. The sweep schedule is coverage-correct.
        let sched = SweepSchedule::first_sweep(d, family);
        validate_sweep_coverage(&sched, &BlockLayout::canonical(d))
            .unwrap_or_else(|e| panic!("{family}: {e}"));

        // 2. Its exchange phases price consistently between the analytic
        //    model and the simulator.
        for e in 1..=d {
            let cc = CcCube::exchange_phase(family, e, 64.0);
            let model = PhaseCostModel::new(&cc, machine);
            let sim = simulate_synchronized(
                &pipelined_phase_schedule(e, &cc, 2),
                &machine,
                StartupModel::SerializedThenParallel,
            );
            let want = model.cost(2);
            assert!((sim.makespan - want).abs() < 1e-9 * want, "{family} e={e}");
        }

        // 3. The distributed solver converges and verifies.
        let r = block_jacobi_threaded(&a, d, family, &JacobiOptions::default()).result;
        assert!(r.converged, "{family}");
        assert!(eigen_residual(&a, &r.eigenvectors, &r.eigenvalues) < 1e-6, "{family}");
        assert!(orthogonality_defect(&r.eigenvectors) < 1e-10, "{family}");
    }
}

#[test]
fn spectra_agree_across_all_solvers() {
    let m = 20usize;
    let a = random_symmetric(m, 99);
    let opts = JacobiOptions { tol: 1e-10, ..Default::default() };
    let oracle = two_sided_cyclic(&a, &opts).sorted_eigenvalues();
    for family in OrderingFamily::ALL {
        for d in [0usize, 1, 2] {
            let logical = block_jacobi(&a, d, family, &opts);
            assert!(logical.converged, "{family} d={d}");
            for (x, y) in logical.sorted_eigenvalues().iter().zip(&oracle) {
                assert!((x - y).abs() < 1e-7, "{family} d={d}: {x} vs {y}");
            }
        }
    }
}

#[test]
fn pipelining_gain_ranking_holds_for_full_sweeps() {
    // The paper's bottom line, as one inequality chain on a transmission-
    // dominated workload: LB ≤ pBR < D4 < pipelined-BR < 1 (deep regime).
    let machine = Machine::paper_figure2();
    let (m, d) = (1usize << 26, 9);
    let sweep = |family| CommPlan::chain(m, d, family, 2 * m, 1).remove(0);
    let base = plan_unpipelined_cost(&sweep(OrderingFamily::Br), &machine);
    let q_max = packetization_cap(m, d) as f64;
    let rel = |family| plan_sweep_cost(&sweep(family), &machine, q_max).total / base;
    let (br, d4, pbr) =
        (rel(OrderingFamily::Br), rel(OrderingFamily::Degree4), rel(OrderingFamily::PermutedBr));
    assert!(pbr < d4, "pBR {pbr} ≥ D4 {d4}");
    assert!(d4 < br, "D4 {d4} ≥ pipelined BR {br}");
    assert!(br < 0.62, "pipelined BR {br} not ≈ 0.5");
    assert!(br > 0.45, "pipelined BR {br} below the 2× cap");
}

#[test]
fn threaded_traffic_equals_schedule_volume() {
    // The meter's view of one forced sweep must equal the schedule's
    // transition count times the block volume (A + U columns).
    let m = 16usize;
    let d = 2usize;
    let a = random_symmetric(m, 5);
    let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
    let meter = block_jacobi_threaded(&a, d, OrderingFamily::Br, &opts).meter;
    let p = 1u64 << d;
    let transitions = 2 * p - 1;
    let block_cols = (m as u64) / (2 * p);
    let elems_per_msg = 2 * block_cols * m as u64; // A + U columns
    assert_eq!(meter.total_volume(), transitions * p * elems_per_msg);
}

#[test]
fn sweep_rotation_spreads_traffic_across_sweeps() {
    // With σ_s rotating links every sweep, d sweeps of BR spread volume
    // far more evenly than a single sweep would suggest.
    let m = 32usize;
    let d = 3usize;
    let a = random_symmetric(m, 8);
    let opts = JacobiOptions { force_sweeps: Some(d), ..Default::default() };
    let meter = block_jacobi_threaded(&a, d, OrderingFamily::Br, &opts).meter;
    let v = meter.volume_by_dim();
    let max = *v.iter().max().unwrap() as f64;
    let min = *v.iter().min().unwrap() as f64;
    // One BR sweep is ~2^{d-1}:1 imbalanced; d rotated sweeps even out.
    assert!(max / min < 2.0, "rotated sweeps still imbalanced: {v:?}");
}
