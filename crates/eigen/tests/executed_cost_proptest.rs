//! `mph_ccpipe::executed_cost` is the throttled fabric without the
//! fabric: for random cubes, machines, port models, job mixes (eigen and
//! SVD, diagonal cache on and off), exchange and tail pipelining settings
//! and interleaving orders, the schedule clock's makespan and every job's
//! finish time equal what the engine measures on the virtual clock —
//! exactly, not within a band — whenever the partition is uniform, and
//! bound the measurement from above when it is not (every message is then
//! priced at its phase's largest block). On every partition the engine
//! sends, message for message, the schedule the jobs were planned at.
//!
//! Both sides read one order — a sweep's program is
//! `CommPlan::op_after`, the jobs merge by `OrderCursor` — so what
//! this witnesses is that its two interpreters agree on the *clock*: the
//! engine's charges through the fabric's `LinkClock` and the schedule
//! clock's `charge` put the same sends and waits on `NodeClock`.
//!
//! This is the witness that lets every measured-vs-predicted assertion on
//! the *executed* schedule read 1e-9; comparisons against the paper's
//! stage model keep their bands and are labelled cross-model where they
//! stand (`fabric_conformance.rs`, `d4_window_runtime.rs`).

use mph_ccpipe::{executed_cost, BatchOrder, Machine, PlannedJob, PortModel};
use mph_core::{CommPlan, OrderingFamily};
use mph_eigen::{
    choose_tail_qs, lower_job, packetization_cap, planned_jobs, run_job_batch, FabricModel,
    JacobiOptions, JobSpec, Pipelining,
};
use mph_linalg::symmetric::random_symmetric;
use mph_linalg::Matrix;
use mph_runtime::SinkHandle;
use proptest::prelude::*;

fn machine_strategy() -> impl Strategy<Value = Machine> {
    let ports = prop_oneof![
        Just(PortModel::AllPort),
        Just(PortModel::OnePort),
        Just(PortModel::KPort(2)),
        Just(PortModel::KPort(3)),
    ];
    // Integer and non-representable Ts/Tw alike: the clock and the fabric
    // run one recurrence, so they round alike.
    let ts = prop_oneof![Just(1000.0), Just(0.0), 1.0f64..5000.0];
    let tw = prop_oneof![Just(100.0), 0.1f64..100.0];
    (ts, tw, ports).prop_map(|(ts, tw, ports)| Machine { ts, tw, ports })
}

/// `Off`, `Fixed(2..=4)` or `Auto` on the fabric's own machine.
fn pipelining(choice: usize, machine: Machine) -> Pipelining {
    match choice {
        0 => Pipelining::Off,
        1 => Pipelining::Auto(machine),
        q => Pipelining::Fixed(q),
    }
}

/// One job per draw: `(columns per block, family, svd, sweeps)` and
/// `(exchange pipelining, tail pipelining, diagonal cache)`.
type JobDraw = ((usize, usize, bool, usize), (usize, usize, bool));

fn job_strategy() -> impl Strategy<Value = Vec<JobDraw>> {
    let problem = (1usize..=3, 0usize..4, any::<bool>(), 1usize..=2);
    let schedule = (0usize..=4, 0usize..=3, any::<bool>());
    proptest::collection::vec((problem, schedule), 1..=4)
}

/// The drawn jobs' matrices on a `d`-cube; `ragged` extra columns make
/// every partition uneven.
fn matrices(draws: &[JobDraw], d: usize, ragged: usize, seed: u64) -> Vec<Matrix> {
    let draw = |(i, &((cols, ..), _)): (usize, &JobDraw)| {
        random_symmetric(cols * (2 << d) + ragged, seed + i as u64)
    };
    draws.iter().enumerate().map(draw).collect()
}

/// The drawn jobs over their [`matrices`].
fn specs<'a>(draws: &[JobDraw], mats: &'a [Matrix], machine: Machine) -> Vec<JobSpec<'a>> {
    draws
        .iter()
        .zip(mats)
        .map(|(&((_, family, svd, sweeps), (exchange, tail, cache)), a)| {
            let opts = JacobiOptions {
                force_sweeps: Some(sweeps),
                pipelining: pipelining(exchange, machine),
                tail_pipelining: pipelining(tail, machine),
                cache_diagonals: cache,
                ..Default::default()
            };
            let family = OrderingFamily::ALL[family];
            if svd {
                JobSpec::svd(a, family, opts)
            } else {
                JobSpec::eigen(a, family, opts)
            }
        })
        .collect()
}

/// `Serial` (stride 0) or `RoundRobin`, over the jobs rotated by `rot`.
fn order(njobs: usize, rot: usize, stride: usize) -> BatchOrder {
    let order: Vec<usize> = (0..njobs).map(|i| (i + rot) % njobs).collect();
    match stride {
        0 => BatchOrder::Serial(order),
        stride => BatchOrder::RoundRobin { order, stride },
    }
}

/// One side of a run: `[makespan, finish of job 0, 1, …]` and the
/// data-plane messages.
struct Side {
    times: Vec<f64>,
    messages: u64,
}

/// `(measured, predicted)`: the engine's run of the jobs' planned schedule
/// on the throttled fabric, and that schedule's `executed_cost` and
/// `messages_with_tail` counts.
fn measure_and_predict(
    specs: &[JobSpec],
    d: usize,
    machine: Machine,
    order: &BatchOrder,
) -> (Side, Side) {
    let lowered: Vec<(Vec<CommPlan>, Vec<Vec<usize>>)> =
        specs.iter().map(|spec| lower_job(spec, d)).collect();
    let planned = planned_jobs(specs, &lowered, d);
    let predicted = executed_cost(&planned, &machine, order);
    let sweeps = |job: &PlannedJob| -> u64 {
        job.plans.iter().zip(job.qs).map(|(p, qs)| p.messages_with_tail(qs, job.tail_q)).sum()
    };
    let fabric = FabricModel::Throttled(machine);
    let run = run_job_batch(d, specs, &planned, fabric, order, SinkHandle::nop());
    let measured = Side {
        times: std::iter::once(run.fabric.makespan)
            .chain(run.spans.iter().map(|s| s.finish))
            .collect(),
        messages: run.meter.total_messages(),
    };
    let predicted = Side {
        times: std::iter::once(predicted.makespan).chain(predicted.finish).collect(),
        messages: planned.iter().map(sweeps).sum(),
    };
    (measured, predicted)
}

/// 34 columns on 8 blocks under an `Auto` tail on the all-port machine:
/// its six plans would pick more than one tail degree each on its own, and
/// the job runs — message for message — the one it is planned at.
#[test]
fn an_uneven_job_runs_the_tail_degree_it_is_planned_at() {
    let (d, machine) = (2, Machine::all_port(1000.0, 100.0));
    let a = random_symmetric(34, 34);
    let tail = Pipelining::Auto(machine);
    let opts = JacobiOptions { force_sweeps: Some(6), tail_pipelining: tail, ..Default::default() };
    let specs = [JobSpec::eigen(&a, OrderingFamily::Br, opts)];
    let (plans, _) = lower_job(&specs[0], d);
    let mut degrees: Vec<usize> =
        plans.iter().map(|p| choose_tail_qs(p, &tail, packetization_cap(34, d))).collect();
    degrees.dedup();
    assert!(degrees.len() > 1, "the plans agree on one degree: {degrees:?}");
    let (measured, predicted) =
        measure_and_predict(&specs, d, machine, &BatchOrder::Serial(vec![0]));
    assert_eq!(measured.messages, predicted.messages);
    let (m, p) = (measured.times[0], predicted.times[0]);
    assert!(m <= p * (1.0 + 1e-9), "measured {m} above executed_cost {p}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn executed_cost_equals_the_fabric_on_uniform_partitions(
        d in 1usize..=3,
        machine in machine_strategy(),
        draws in job_strategy(),
        rot in 0usize..4,
        stride in 0usize..=5,
        seed in 0u64..1000,
    ) {
        let mats = matrices(&draws, d, 0, seed);
        let specs = specs(&draws, &mats, machine);
        let order = order(specs.len(), rot, stride);
        let (measured, predicted) = measure_and_predict(&specs, d, machine, &order);
        prop_assert_eq!(measured.messages, predicted.messages);
        for (i, (m, p)) in measured.times.iter().zip(&predicted.times).enumerate() {
            prop_assert!(
                (m - p).abs() <= 1e-9 * p,
                "{order:?} on {machine:?}: time {i} measured {m} vs executed_cost {p}"
            );
        }
    }

    #[test]
    fn executed_cost_bounds_the_fabric_on_uneven_partitions(
        d in 1usize..=3,
        machine in machine_strategy(),
        draws in job_strategy(),
        ragged in 1usize..4,
        rot in 0usize..4,
        stride in 0usize..=5,
        seed in 0u64..1000,
    ) {
        let mats = matrices(&draws, d, ragged, seed);
        let specs = specs(&draws, &mats, machine);
        let order = order(specs.len(), rot, stride);
        let (measured, predicted) = measure_and_predict(&specs, d, machine, &order);
        prop_assert_eq!(measured.messages, predicted.messages);
        for (i, (m, p)) in measured.times.iter().zip(&predicted.times).enumerate() {
            prop_assert!(
                *m <= p * (1.0 + 1e-9),
                "{order:?} on {machine:?}: time {i} measured {m} above executed_cost {p}"
            );
        }
    }
}
