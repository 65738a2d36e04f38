//! The batch subsystem's load-bearing invariant, property-tested: for
//! random job mixes (sizes, dimensions, eigen/SVD kinds, diagonal cache
//! on/off, pipelining degrees) under every scheduling policy and fabric
//! model, **every job's output is bitwise equal to its solo run**, and on
//! a throttled fabric the batch's virtual makespan never exceeds the sum
//! of the jobs' solo makespans — interleaving can only fill bubbles,
//! never add work.
//!
//! Solo references are the *logical* drivers (`block_jacobi`,
//! `svd_block`), which the threaded drivers are proven bitwise-equal to in
//! `mph-eigen`'s own tests — one equality chain, three links.

use mph_batch::{solve_batch, BatchOptions, Job, Policy};
use mph_ccpipe::{Machine, PortModel};
use mph_core::OrderingFamily;
use mph_eigen::{block_jacobi, svd_block, JacobiOptions, Pipelining};
use mph_linalg::symmetric::random_symmetric;
use mph_runtime::{FabricModel, Scenario, ScenarioSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// A death-free degraded scenario (heterogeneity × jitter × episodes) —
/// the impairment classes the batch driver supports (death schedules are
/// rejected by `BatchOptions::new`: the relays live in the engine's
/// `JobNode`, but only a solo run carries relay tables).
fn degraded_fabric(seed: u64) -> FabricModel {
    let spec = ScenarioSpec {
        epochs: 3,
        hetero_spread: 2.0,
        rate_jitter: 0.25,
        delay_jitter: 0.25,
        episode_rate: 0.3,
        episode_recovery: 0.5,
        episode_severity: 4.0,
        ..ScenarioSpec::clean(seed, Machine::all_port(1000.0, 100.0))
    };
    FabricModel::Degraded(Arc::new(
        Scenario::new(2, spec).expect("death-free scenarios always compile"),
    ))
}

fn fabric_strategy() -> impl Strategy<Value = FabricModel> {
    prop_oneof![
        Just(FabricModel::Free),
        Just(FabricModel::Throttled(Machine::all_port(1000.0, 100.0))),
        Just(FabricModel::Throttled(Machine::one_port(1000.0, 100.0))),
        Just(FabricModel::Throttled(Machine { ts: 50.0, tw: 3.0, ports: PortModel::KPort(2) })),
        (0u64..500).prop_map(degraded_fabric),
    ]
}

fn policy_strategy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Fifo),
        Just(Policy::Interleave { stride: 1 }),
        Just(Policy::Interleave { stride: 2 }),
        Just(Policy::ShortestPlanFirst),
    ]
}

/// A deterministic pseudo-random job mix: kinds alternate, families
/// rotate, sizes vary (uneven partitions included), all derived from the
/// case's seed.
fn job_mix(njobs: usize, d: usize, seed: u64, opts: JacobiOptions) -> Vec<Job> {
    let nblocks = 2 << d;
    (0..njobs)
        .map(|i| {
            let s = seed as usize + i;
            let m = nblocks * (1 + (s % 2)) + ((seed as usize + 3 * i) % 3);
            let a = random_symmetric(m, seed + 31 * i as u64);
            let family = OrderingFamily::ALL[s % OrderingFamily::ALL.len()];
            if s.is_multiple_of(2) {
                Job::Eigen { a, family, opts: opts.clone() }
            } else {
                Job::Svd { a, family, opts: opts.clone() }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn batched_jobs_are_bitwise_solo_and_never_slower_than_serial(
        d in 1usize..=2,
        njobs in 1usize..=3,
        fabric in fabric_strategy(),
        policy in policy_strategy(),
        seed in 0u64..1000,
        cache in any::<bool>(),
        qsel in 0usize..=2,
        sweeps in 1usize..=2,
    ) {
        let pipelining = [Pipelining::Off, Pipelining::Fixed(2), Pipelining::Fixed(5)][qsel];
        let opts = JacobiOptions {
            force_sweeps: Some(sweeps),
            cache_diagonals: cache,
            pipelining,
            ..Default::default()
        };
        let jobs = job_mix(njobs, d, seed, opts);
        let report = solve_batch(d, &jobs, &BatchOptions { fabric: fabric.clone(), policy, ..Default::default() });

        // 1. Bitwise: every job's batched result == its solo run.
        for (i, job) in jobs.iter().enumerate() {
            match job {
                Job::Eigen { a, family, opts } => {
                    let solo = block_jacobi(a, d, *family, opts);
                    let got = report.results[i].eigen().expect("eigen result");
                    prop_assert_eq!(got.rotations, solo.rotations, "job {} rotations", i);
                    prop_assert_eq!(got.sweeps, solo.sweeps, "job {} sweeps", i);
                    for c in 0..a.cols() {
                        prop_assert_eq!(got.eigenvalues[c], solo.eigenvalues[c],
                            "job {} λ_{}", i, c);
                        prop_assert_eq!(got.eigenvectors.col(c), solo.eigenvectors.col(c),
                            "job {} u_{}", i, c);
                    }
                }
                Job::Svd { a, family, opts } => {
                    let solo = svd_block(a, d, *family, opts);
                    let got = report.results[i].svd().expect("svd result");
                    prop_assert_eq!(got.rotations, solo.rotations, "job {} rotations", i);
                    for c in 0..a.cols() {
                        prop_assert_eq!(got.singular_values[c], solo.singular_values[c],
                            "job {} σ_{}", i, c);
                        prop_assert_eq!(got.u.col(c), solo.u.col(c), "job {} u_{}", i, c);
                        prop_assert_eq!(got.v.col(c), solo.v.col(c), "job {} v_{}", i, c);
                    }
                }
            }
        }

        // 2. Per-job traffic partitions the blended totals exactly.
        let job_sum: u64 = (0..njobs).map(|j| report.meter.job_volume(j)).sum();
        prop_assert_eq!(job_sum, report.meter.total_volume());

        // 3. On the virtual clock, the batch never exceeds the sum of the
        //    solo makespans (each measured on the same fabric).
        if !matches!(fabric, FabricModel::Free) {
            let solo_sum: f64 = jobs
                .iter()
                .map(|job| {
                    solve_batch(
                        d,
                        std::slice::from_ref(job),
                        &BatchOptions { fabric: fabric.clone(), ..Default::default() },
                    )
                    .makespan
                })
                .sum();
            prop_assert!(
                report.makespan <= solo_sum * (1.0 + 1e-9),
                "batch {} vs Σ solo {}",
                report.makespan,
                solo_sum
            );
            prop_assert!(report.makespan > 0.0);
        }
    }

    #[test]
    fn tail_packetization_is_bitwise_invisible_through_solve_batch(
        d in 1usize..=2,
        seed in 0u64..1000,
        cache in any::<bool>(),
        fabric in fabric_strategy(),
        tsel in 0usize..=4,
    ) {
        // The batch driver's tail machine (TailSend/TailRecv) pairs each
        // division/last packet before shipping it — the reference pairing
        // re-tiled by packet boundary — so every tail degree (including Q
        // larger than any chained run and the cost-driven Auto choice)
        // reproduces the tail-off batch bit for bit on every fabric.
        let tail = [
            Pipelining::Fixed(1),
            Pipelining::Fixed(2),
            Pipelining::Fixed(5),
            Pipelining::Fixed(8),
            Pipelining::Auto(Machine::all_port(1000.0, 100.0)),
        ][tsel];
        let mk = |tail_pipelining| JacobiOptions {
            force_sweeps: Some(1),
            cache_diagonals: cache,
            tail_pipelining,
            ..Default::default()
        };
        let batch_opts = BatchOptions { fabric, ..Default::default() };
        let base = solve_batch(d, &job_mix(2, d, seed, mk(Pipelining::Off)), &batch_opts);
        let run = solve_batch(d, &job_mix(2, d, seed, mk(tail)), &batch_opts);
        for (i, (x, y)) in base.results.iter().zip(&run.results).enumerate() {
            match (x.eigen(), y.eigen()) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.rotations, b.rotations, "{:?} job {}", tail, i);
                    for c in 0..a.eigenvalues.len() {
                        prop_assert_eq!(a.eigenvalues[c], b.eigenvalues[c],
                            "{:?} job {} λ_{}", tail, i, c);
                        prop_assert_eq!(a.eigenvectors.col(c), b.eigenvectors.col(c),
                            "{:?} job {} u_{}", tail, i, c);
                    }
                }
                _ => {
                    let a = x.svd().expect("svd result");
                    let b = y.svd().expect("svd result");
                    prop_assert_eq!(a.rotations, b.rotations, "{:?} job {}", tail, i);
                    for c in 0..a.singular_values.len() {
                        prop_assert_eq!(a.singular_values[c], b.singular_values[c],
                            "{:?} job {} σ_{}", tail, i, c);
                        prop_assert_eq!(a.u.col(c), b.u.col(c), "{:?} job {} u_{}", tail, i, c);
                        prop_assert_eq!(a.v.col(c), b.v.col(c), "{:?} job {} v_{}", tail, i, c);
                    }
                }
            }
        }
    }
}
