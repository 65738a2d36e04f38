//! The serving layer's load-bearing invariants, property-tested over
//! random scenarios, fabrics, and admission disciplines:
//!
//! 1. **Bitwise solo**: every *served* job's result is bitwise identical
//!    to its solo logical solve — mid-flight admission at sweep
//!    boundaries, and relays around a link dead at the round's epoch,
//!    change when and how blocks move, never what any job computes.
//! 2. **No starvation**: preemption-free SPF admission finishes every
//!    admitted job — each served outcome has a finite, non-negative
//!    latency, and served + rejected partitions the scenario.

use mph_batch::{AdmissionConfig, Job, Policy};
use mph_ccpipe::Machine;
use mph_core::OrderingFamily;
use mph_eigen::{block_jacobi, svd_block, JacobiOptions, JobOutcome, JobResult};
use mph_runtime::{FabricModel, LinkDeath, Scenario, ScenarioSpec};
use mph_serve::{serve, JobClass, Rejected, ScenarioGen, ServeOptions};
use proptest::prelude::*;
use std::sync::Arc;

fn forced(sweeps: usize) -> JacobiOptions {
    JacobiOptions { force_sweeps: Some(sweeps), ..Default::default() }
}

fn scenario(seed: u64, n: usize, gap: f64, sweeps: usize) -> mph_serve::Scenario {
    let mut gen = ScenarioGen::new(
        seed,
        n,
        gap,
        vec![
            JobClass { m: 8, svd: false, family: OrderingFamily::Br, weight: 2.0 },
            JobClass { m: 8, svd: true, family: OrderingFamily::Br, weight: 1.0 },
            JobClass { m: 16, svd: false, family: OrderingFamily::Degree4, weight: 1.0 },
        ],
    );
    gen.opts = forced(sweeps);
    gen.generate()
}

/// A cube dimension in `1..=2` and a fabric for it: the throttled
/// all-port machine, or a degraded one (heterogeneity × jitter × episodes)
/// with an optional link death `(node, dim, epoch)`. A service runs one
/// epoch per round, from epoch 1. One death never disconnects a cube of
/// `d ≥ 2`; a 1-cube has no death to spare, so there it is dropped.
fn cube_and_fabric() -> impl Strategy<Value = (usize, FabricModel)> {
    (1usize..=2).prop_flat_map(|d| {
        let death = prop_oneof![Just(None), (0..1usize << d, 0..d, 0usize..=1).prop_map(Some)];
        let degraded = move |(seed, death): (u64, Option<(usize, usize, usize)>)| {
            let deaths = death.filter(|_| d >= 2);
            let spec = ScenarioSpec {
                epochs: 3,
                hetero_spread: 1.0,
                rate_jitter: 0.2,
                episode_rate: 0.3,
                episode_recovery: 0.5,
                episode_severity: 4.0,
                deaths: deaths
                    .map(|(node, dim, epoch)| LinkDeath { node, dim, epoch })
                    .into_iter()
                    .collect(),
                ..ScenarioSpec::clean(seed, Machine::all_port(1000.0, 100.0))
            };
            let sc = Scenario::new(d, spec).expect("one death never disconnects a cube of d ≥ 2");
            FabricModel::Degraded(Arc::new(sc))
        };
        let fabric = prop_oneof![
            Just(FabricModel::Throttled(Machine::all_port(1000.0, 100.0))),
            (0u64..500, death).prop_map(degraded),
        ];
        (Just(d), fabric)
    })
}

fn solo_matches(job: &Job, d: usize, got: &JobResult) -> bool {
    match job {
        Job::Eigen { a, family, opts } => {
            let solo = block_jacobi(a, d, *family, opts);
            let r = got.eigen().expect("kind preserved");
            r.rotations == solo.rotations
                && r.sweeps == solo.sweeps
                && r.eigenvalues == solo.eigenvalues
                && (0..r.eigenvalues.len())
                    .all(|c| r.eigenvectors.col(c) == solo.eigenvectors.col(c))
        }
        Job::Svd { a, family, opts } => {
            let solo = svd_block(a, d, *family, opts);
            let r = got.svd().expect("kind preserved");
            r.rotations == solo.rotations
                && r.sweeps == solo.sweeps
                && r.singular_values == solo.singular_values
                && (0..r.singular_values.len())
                    .all(|c| r.u.col(c) == solo.u.col(c) && r.v.col(c) == solo.v.col(c))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_served_job_is_bitwise_its_solo_run_and_nobody_starves(
        seed in 0u64..1000,
        cube in cube_and_fabric(),
        n in 2usize..=4,
        sweeps in 1usize..=2,
        burst in any::<bool>(),
        spf in any::<bool>(),
    ) {
        // Interarrival near the solo service time keeps the queue busy
        // without guaranteeing either an empty or a saturated system.
        let (d, fabric) = cube;
        let gap = if burst { 0.0 } else { 5.0e5 };
        let scenario = scenario(seed, n, gap, sweeps);
        let opts = ServeOptions {
            fabric,
            policy: if spf { Policy::ShortestPlanFirst } else { Policy::Fifo },
            admission: AdmissionConfig { queue_cap: 2, max_active: 2, stagger_slots: 2 },
            ..Default::default()
        };
        let report = serve(d, &scenario, &opts);

        // Served + rejected partitions the scenario.
        prop_assert_eq!(report.served() + report.rejected(), n);
        prop_assert!(report.served() >= 1, "the first arrival always admits");

        for (j, outcome) in report.run.outcomes.iter().enumerate() {
            match outcome {
                JobOutcome::Served { arrival, admitted, finish } => {
                    // No starvation: admitted jobs finish at a finite
                    // time, in causal order.
                    prop_assert!(finish.is_finite() && admitted.is_finite());
                    prop_assert!(arrival <= admitted && admitted <= finish);
                    prop_assert!(outcome.latency().expect("served") >= 0.0);
                    // Bitwise solo equality, mid-flight admission or not,
                    // a dead link or not.
                    let got = report.run.results[j].as_ref().expect("served jobs have results");
                    prop_assert!(
                        solo_matches(&scenario.jobs[j], d, got),
                        "job {} diverged from its solo run", j
                    );
                }
                JobOutcome::Rejected(Rejected::QueueFull { queue_depth, .. }) => {
                    // Backpressure is typed and honest about the cap.
                    prop_assert_eq!(*queue_depth, opts.admission.queue_cap);
                    prop_assert!(report.run.results[j].is_none());
                    prop_assert_eq!(report.run.meter.job_volume(j), 0);
                }
            }
        }
    }
}
