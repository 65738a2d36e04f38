//! Property-based tests for the eigensolvers: spectra agree across
//! solvers/orderings/cube sizes, invariants (trace, orthogonality,
//! residual) hold on arbitrary symmetric inputs.

use mph_ccpipe::{Machine, PortModel};
use mph_core::OrderingFamily;
use mph_eigen::{
    block_jacobi, block_jacobi_threaded, one_sided_cyclic, two_sided_cyclic, EigenResult,
    JacobiOptions, Pipelining,
};
use mph_linalg::matmul::{eigen_residual, orthogonality_defect};
use mph_linalg::Matrix;
use mph_runtime::FabricModel;
use proptest::prelude::*;

fn fabric_strategy() -> impl Strategy<Value = FabricModel> {
    prop_oneof![
        Just(FabricModel::Free),
        Just(FabricModel::Throttled(Machine::one_port(1000.0, 100.0))),
        Just(FabricModel::Throttled(Machine::all_port(1000.0, 100.0))),
        Just(FabricModel::Throttled(Machine { ts: 50.0, tw: 3.0, ports: PortModel::KPort(2) })),
    ]
}

fn family_strategy() -> impl Strategy<Value = OrderingFamily> {
    prop_oneof![
        Just(OrderingFamily::Br),
        Just(OrderingFamily::PermutedBr),
        Just(OrderingFamily::Degree4),
        Just(OrderingFamily::MinAlpha),
    ]
}

/// Random symmetric matrix from a flat value vector.
fn symmetric(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f64..1.0, n * (n + 1) / 2).prop_map(move |vals| {
        let mut m = Matrix::zeros(n, n);
        let mut it = vals.into_iter();
        for i in 0..n {
            for j in 0..=i {
                let v = it.next().unwrap();
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    })
}

/// Symmetric matrices whose block partitions straddle the kernel's
/// 8-column tile: single-column and empty blocks (`m < 2^(d+1)` at the
/// larger `d`), one ragged tile, several tiles with a ragged last one.
fn ragged_symmetric() -> impl Strategy<Value = Matrix> {
    prop_oneof![Just(3usize), Just(5), Just(12), Just(17), Just(24), Just(35), Just(41)]
        .prop_flat_map(symmetric)
}

/// Every output bit of an eigensolve, for exact comparison.
fn eigen_bits(r: &EigenResult) -> (Vec<u64>, Vec<u64>, Vec<u64>, usize, u64, bool) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    (
        bits(&r.eigenvalues),
        bits(r.eigenvectors.as_slice()),
        bits(&r.off_history),
        r.sweeps,
        r.rotations,
        r.converged,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn one_sided_matches_two_sided(a in symmetric(8)) {
        let opts = JacobiOptions { tol: 1e-10, ..Default::default() };
        let one = one_sided_cyclic(&a, &opts);
        let two = two_sided_cyclic(&a, &opts);
        prop_assert!(one.converged && two.converged);
        for (x, y) in one.sorted_eigenvalues().iter().zip(&two.sorted_eigenvalues()) {
            prop_assert!((x - y).abs() < 1e-7, "{x} vs {y}");
        }
    }

    #[test]
    fn block_jacobi_invariants(a in symmetric(12), family in family_strategy(), d in 0usize..=2) {
        let r = block_jacobi(&a, d, family, &JacobiOptions::default());
        prop_assert!(r.converged, "{family} d={d} did not converge");
        // Trace preservation.
        let tr: f64 = (0..12).map(|i| a[(i, i)]).sum();
        let sum: f64 = r.eigenvalues.iter().sum();
        prop_assert!((tr - sum).abs() < 1e-8, "trace {tr} vs Σλ {sum}");
        // Eigenpair residual and orthogonality.
        prop_assert!(eigen_residual(&a, &r.eigenvectors, &r.eigenvalues) < 1e-5);
        prop_assert!(orthogonality_defect(&r.eigenvectors) < 1e-9);
    }

    #[test]
    fn cached_diagonals_match_the_exact_recompute_path(a in symmetric(10), family in family_strategy()) {
        // Opt-in diagonal caching perturbs rotation angles only in the last
        // bits; the converged spectrum must agree to solver tolerance.
        let exact = block_jacobi(&a, 1, family, &JacobiOptions::default());
        let opts = JacobiOptions { cache_diagonals: true, ..Default::default() };
        let cached = block_jacobi(&a, 1, family, &opts);
        prop_assert!(cached.converged, "{family} cached run did not converge");
        prop_assert!(eigen_residual(&a, &cached.eigenvectors, &cached.eigenvalues) < 1e-5);
        for (x, y) in exact.sorted_eigenvalues().iter().zip(&cached.sorted_eigenvalues()) {
            prop_assert!((x - y).abs() < 1e-6, "{family}: {x} vs {y}");
        }
    }

    #[test]
    fn off_history_is_monotone_decreasing(a in symmetric(10), family in family_strategy()) {
        let r = block_jacobi(&a, 1, family, &JacobiOptions::default());
        for w in r.off_history.windows(2) {
            prop_assert!(w[1] <= w[0] * 1.0000001, "off grew: {} → {}", w[0], w[1]);
        }
    }

    #[test]
    fn eigenvalues_stay_within_gershgorin_bound(a in symmetric(9)) {
        // All eigenvalues lie within max row sum of |a_ij| (∞-norm bound).
        let bound = (0..9)
            .map(|i| (0..9).map(|j| a[(i, j)].abs()).sum::<f64>())
            .fold(0.0f64, f64::max);
        let r = one_sided_cyclic(&a, &JacobiOptions::default());
        for &l in &r.eigenvalues {
            prop_assert!(l.abs() <= bound + 1e-8, "λ = {l} outside bound {bound}");
        }
    }

    #[test]
    fn forced_sweeps_execute_exactly(a in symmetric(8), k in 1usize..4) {
        let opts = JacobiOptions { force_sweeps: Some(k), ..Default::default() };
        let r = one_sided_cyclic(&a, &opts);
        prop_assert_eq!(r.sweeps, k);
        prop_assert_eq!(r.off_history.len(), k + 1);
    }

    #[test]
    fn tail_packetization_is_bitwise_invisible_through_the_threaded_driver(
        a in symmetric(12),
        family in family_strategy(),
        cache in any::<bool>(),
        fabric in fabric_strategy(),
        d in 1usize..=2,
        sweeps in 1usize..=2,
    ) {
        // The tail-pipelining contract: every division/last packet is
        // paired against the staying block before it ships, which is the
        // reference pairing re-tiled by packet boundary — so every tail
        // degree (including Q larger than any chained run and the
        // cost-driven Auto choice) produces the reference bits on every
        // fabric, with diagonal caching on or off.
        let base = JacobiOptions {
            force_sweeps: Some(sweeps),
            cache_diagonals: cache,
            fabric,
            ..Default::default()
        };
        let reference = block_jacobi_threaded(&a, d, family, &base).result;
        let auto = Pipelining::Auto(Machine::all_port(1000.0, 100.0));
        for tail in [Pipelining::Fixed(1), Pipelining::Fixed(2), Pipelining::Fixed(5),
                     Pipelining::Fixed(8), auto] {
            let opts = JacobiOptions { tail_pipelining: tail, ..base.clone() };
            let r = block_jacobi_threaded(&a, d, family, &opts).result;
            prop_assert_eq!(r.rotations, reference.rotations, "{:?}", tail);
            prop_assert_eq!(r.sweeps, reference.sweeps, "{:?}", tail);
            for c in 0..12 {
                prop_assert_eq!(r.eigenvalues[c], reference.eigenvalues[c],
                    "{:?} λ_{}", tail, c);
                prop_assert_eq!(r.eigenvectors.col(c), reference.eigenvectors.col(c),
                    "{:?} u_{}", tail, c);
            }
        }
    }
}

// ---- convergence parity: one measure, every execution mode --------------

/// Every bit an unforced threaded solve shares with its logical solve: the
/// threaded `off_history` is the values its sweeps' votes agreed on, so it
/// has no pre-sweep entry.
fn assert_stops_like_logical(threaded: &EigenResult, logical: &EigenResult, what: &str) {
    let mut want = eigen_bits(logical);
    want.2.remove(0);
    assert!(eigen_bits(threaded) == want, "{what}: threaded and logical solves differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn unforced_threaded_solves_equal_the_logical_solve_bit_for_bit(
        a in prop_oneof![ragged_symmetric(), symmetric(16), symmetric(32)],
        d in 0usize..=3,
        family in family_strategy(),
        cache in any::<bool>(),
        auto in any::<bool>(),
        fabric in fabric_strategy(),
    ) {
        // Convergence is one post-sweep measure: the nodes' eigen-residual
        // partials summed by dimension exchange, which the logical solver
        // folds in the same order over the sweep's final layout. So a
        // solve run to convergence — not only a forced one — stops at the
        // same sweep with the same bits, on even partitions (16 and 32
        // columns) and ragged ones with single-column and empty blocks,
        // whole-block or priced packets, any fabric.
        let pipe = if auto { Pipelining::Auto(Machine::all_port(1000.0, 100.0)) } else { Pipelining::Off };
        let opts = JacobiOptions {
            cache_diagonals: cache,
            pipelining: pipe,
            tail_pipelining: pipe,
            fabric,
            ..Default::default()
        };
        let logical = block_jacobi(&a, d, family, &opts);
        prop_assert!(logical.converged && logical.sweeps >= 1, "m={} d={}", a.cols(), d);
        let threaded = block_jacobi_threaded(&a, d, family, &opts).result;
        assert_stops_like_logical(&threaded, &logical, &format!("{family} m={} d={d}", a.cols()));
    }
}

#[test]
fn the_residual_vote_survives_a_dead_link_like_the_max_vote_did() {
    // A 3-cube whose edge (0, dim 1) is dead from the first sweep on: every
    // vote's dim-1 exchange between nodes 0 and 2 is relayed around it, and
    // the sum still reaches every node with the logical solve's bits.
    let a = mph_linalg::symmetric::random_symmetric(24, 9);
    let d = 3;
    let spec = ScenarioSpec {
        epochs: 4,
        hetero_spread: 1.0,
        deaths: vec![LinkDeath { node: 0, dim: 1, epoch: 0 }],
        ..ScenarioSpec::clean(5, Machine::all_port(500.0, 10.0))
    };
    let scenario = Arc::new(Scenario::new(d, spec).expect("one death leaves a 3-cube connected"));
    for adaptation in [Adaptation::Off, Adaptation::Reactive] {
        let opts = JacobiOptions {
            fabric: FabricModel::Degraded(scenario.clone()),
            adaptation,
            ..Default::default()
        };
        let logical = block_jacobi(&a, d, OrderingFamily::PermutedBr, &opts);
        let run = block_jacobi_threaded(&a, d, OrderingFamily::PermutedBr, &opts);
        assert!(run.adaptive.reroutes > 0, "{adaptation:?}: the dead edge carried traffic");
        assert_stops_like_logical(&run.result, &logical, &format!("{adaptation:?}"));
    }
}

// ---- degraded-fabric scenario properties -------------------------------

use mph_eigen::{Adaptation, ThreadedRun};
use mph_runtime::{LinkDeath, Scenario, ScenarioSpec};
use std::sync::Arc;

/// An arbitrary impaired (possibly deadly) scenario on a 2-cube: static
/// heterogeneity, jitter walks, Gilbert–Elliott episodes, and optionally
/// one scheduled link death — which can never disconnect a 2-cube.
fn scenario_strategy() -> impl Strategy<Value = Arc<Scenario>> {
    (
        0u64..1000,
        0.0f64..3.0,
        0.0f64..0.4,
        0.0f64..0.6,
        prop_oneof![Just(None), (0usize..4, 0usize..2, 0usize..3).prop_map(Some),],
    )
        .prop_map(|(seed, hetero_spread, jitter, episode_rate, death)| {
            let spec = ScenarioSpec {
                epochs: 5,
                hetero_spread,
                rate_jitter: jitter,
                delay_jitter: jitter,
                episode_rate,
                episode_recovery: 0.5,
                episode_severity: 4.0,
                deaths: death
                    .map(|(node, dim, epoch)| vec![LinkDeath { node, dim, epoch }])
                    .unwrap_or_default(),
                ..ScenarioSpec::clean(seed, Machine::all_port(500.0, 10.0))
            };
            Arc::new(Scenario::new(2, spec).expect("one death never disconnects a 2-cube"))
        })
}

fn adaptation_strategy() -> impl Strategy<Value = Adaptation> {
    prop_oneof![Just(Adaptation::Off), Just(Adaptation::Reactive), Just(Adaptation::Oracle)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn impaired_runs_are_bitwise_clean_and_replay_deterministically(
        a in symmetric(16),
        family in family_strategy(),
        scenario in scenario_strategy(),
        adaptation in adaptation_strategy(),
        sweeps in 1usize..=3,
    ) {
        // The degraded-fabric contract: impairments (heterogeneity,
        // jitter, episodes, even a dead link relayed around) change when
        // packets move, never what they carry — bits equal the clean run
        // under every adaptation mode — and the virtual timeline replays
        // bit-for-bit from the seed.
        let d = 2;
        let base = JacobiOptions { force_sweeps: Some(sweeps), ..Default::default() };
        let clean = block_jacobi_threaded(&a, d, family, &base).result;
        let opts = JacobiOptions {
            fabric: FabricModel::Degraded(scenario),
            adaptation,
            ..base
        };
        let ThreadedRun { result: r1, fabric: f1, adaptive: ad1, .. } = block_jacobi_threaded(&a, d, family, &opts);
        prop_assert_eq!(r1.rotations, clean.rotations, "{:?}", adaptation);
        for c in 0..16 {
            prop_assert_eq!(r1.eigenvalues[c], clean.eigenvalues[c], "λ_{}", c);
            prop_assert_eq!(r1.eigenvectors.col(c), clean.eigenvectors.col(c), "u_{}", c);
        }
        prop_assert!(f1.makespan.is_finite() && f1.makespan > 0.0);
        // Replay: the same scenario yields the exact same virtual clock
        // and adaptive behavior.
        let ThreadedRun { result: r2, fabric: f2, adaptive: ad2, .. } = block_jacobi_threaded(&a, d, family, &opts);
        prop_assert_eq!(f1.makespan.to_bits(), f2.makespan.to_bits(), "replay makespan");
        prop_assert_eq!(ad1, ad2, "replay adaptive report");
        prop_assert_eq!(r1.rotations, r2.rotations);
    }
}
