//! The batch runner: lower, price, order, execute, report.

use crate::job::Job;
use crate::policy::Policy;
use mph_ccpipe::{batch_cost, BatchCost, BatchOrder, Machine};
use mph_core::CommPlan;
use mph_eigen::{lower_job, planned_jobs, run_job_batch, JobResult, JobSpan, JobSpec};
use mph_runtime::{FabricConfigError, FabricModel, FabricReport, SinkHandle, TrafficMeter};

/// Batch-level options.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOptions {
    /// The one fabric all jobs share. [`FabricModel::Throttled`] gives the
    /// report a measured virtual makespan (and throughput); the per-job
    /// `JacobiOptions::fabric` fields are ignored.
    pub fabric: FabricModel,
    /// How the jobs share it.
    pub policy: Policy,
    /// Trace sink the batch run records into (default: the zero-cost nop
    /// sink). When enabled, the fabric stamps every job's link/barrier
    /// events — tagged with job ids and packet (k, q) headers — on the
    /// shared virtual clock. Strictly observational: results are bitwise
    /// identical to the untraced run.
    pub trace: SinkHandle,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions { fabric: FabricModel::Free, policy: Policy::Fifo, trace: SinkHandle::nop() }
    }
}

/// A batch configuration the scheduler refuses to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchConfigError {
    /// `Policy::Interleave { stride: 0 }` grants no micro-ops per turn —
    /// it would interleave nothing. The legacy lowering path silently
    /// clamps it to 1 (see [`Policy::order`]); the checked constructor
    /// rejects it instead so the caller's intent stays visible.
    ZeroStride,
    /// The fabric itself cannot be enforced (see
    /// [`mph_runtime::FabricConfigError`]).
    InvalidFabric(FabricConfigError),
}

impl std::fmt::Display for BatchConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchConfigError::ZeroStride => {
                write!(f, "Policy::Interleave stride must be >= 1 (0 grants no micro-ops)")
            }
            BatchConfigError::InvalidFabric(e) => write!(f, "invalid fabric: {e}"),
        }
    }
}

impl std::error::Error for BatchConfigError {}

impl From<FabricConfigError> for BatchConfigError {
    fn from(e: FabricConfigError) -> Self {
        BatchConfigError::InvalidFabric(e)
    }
}

impl BatchOptions {
    /// Checked constructor: rejects configurations the direct struct
    /// literal would only clamp or that would assert mid-run — zero-stride
    /// interleaving ([`BatchConfigError::ZeroStride`]) and unenforceable
    /// fabrics ([`BatchConfigError::InvalidFabric`]).
    pub fn new(fabric: FabricModel, policy: Policy) -> Result<BatchOptions, BatchConfigError> {
        if matches!(policy, Policy::Interleave { stride: 0 }) {
            return Err(BatchConfigError::ZeroStride);
        }
        fabric.validate()?;
        Ok(BatchOptions { fabric, policy, trace: SinkHandle::nop() })
    }
}

/// Aggregate throughput on the fabric's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Completed jobs per unit of virtual time.
    pub jobs_per_time: f64,
    /// Data-plane elements moved per unit of virtual time.
    pub elems_per_time: f64,
}

impl Throughput {
    /// Rates `jobs` completions and `elems` moved elements against a
    /// measured virtual `makespan`. `None` when the makespan is zero —
    /// a [`FabricModel::Free`] run ticks no clock, so its rate is
    /// undefined, not infinite. Shared by the batch scheduler and the
    /// online serving layer.
    pub fn measure(jobs: usize, elems: u64, makespan: f64) -> Option<Throughput> {
        (makespan > 0.0).then(|| Throughput {
            jobs_per_time: jobs as f64 / makespan,
            elems_per_time: elems as f64 / makespan,
        })
    }
}

/// Everything a batch run produces.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job results, in submission order — each bitwise identical to
    /// the job's solo threaded run.
    pub results: Vec<JobResult>,
    /// Per-job virtual-clock spans, in submission order.
    pub spans: Vec<JobSpan>,
    /// The executed order (the policy's lowering).
    pub order: BatchOrder,
    /// The whole batch's measured virtual makespan (0 on a free fabric).
    pub makespan: f64,
    /// Shared traffic meter with per-job totals.
    pub meter: TrafficMeter,
    /// Fabric report (per-node final clocks).
    pub fabric: FabricReport,
    /// The cost sheet: per-job solo prices, FIFO-serial total, the
    /// executed schedule's predicted makespan for `order`, and the
    /// serial-tail share.
    pub cost: BatchCost,
    /// Aggregate throughput; `None` on a free fabric (no clock ticks).
    pub throughput: Option<Throughput>,
}

impl BatchReport {
    /// Mean per-job completion time (virtual clock) — the latency figure
    /// shortest-plan-first minimizes.
    pub fn mean_finish(&self) -> f64 {
        self.spans.iter().map(|s| s.finish).sum::<f64>() / self.spans.len().max(1) as f64
    }
}

/// Solves `jobs` on a `d`-cube of threads sharing one fabric. Lowers each
/// job to its [`CommPlan`] chain, prices the batch (shortest-plan-first
/// ordering, the [`BatchCost`] sheet) on the fabric's enforced machine —
/// the paper's Figure-2 machine on a free fabric — lowers the policy to a
/// concrete order, executes everything on one `run_spmd` instance, and
/// assembles the report.
///
/// The batch passes no barrier, so on a degraded fabric it runs at
/// scenario epoch 0 throughout, as it does for every impairment: its
/// sweeps relay around the links dead at epoch 0, and a later death is
/// never reached.
///
/// # Panics
/// On an empty batch.
pub fn solve_batch(d: usize, jobs: &[Job], opts: &BatchOptions) -> BatchReport {
    assert!(!jobs.is_empty(), "an empty batch solves nothing");
    let specs: Vec<JobSpec<'_>> = jobs.iter().map(Job::to_spec).collect();
    let lowered: Vec<(Vec<CommPlan>, Vec<Vec<usize>>)> =
        specs.iter().map(|s| lower_job(s, d)).collect();
    let planned = planned_jobs(&specs, &lowered, d);
    let machine = opts.fabric.machine().unwrap_or(Machine::paper_figure2());
    let order = opts.policy.order(&planned, &machine);
    let cost = batch_cost(&planned, &machine, &order);
    // The schedule that priced the batch is the one that runs it.
    let run = run_job_batch(d, &specs, &planned, opts.fabric.clone(), &order, opts.trace.clone());
    let makespan = run.fabric.makespan;
    let throughput = Throughput::measure(jobs.len(), run.meter.total_volume(), makespan);
    BatchReport {
        results: run.results,
        spans: run.spans,
        order,
        makespan,
        meter: run.meter,
        fabric: run.fabric,
        cost,
        throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_core::OrderingFamily;
    use mph_eigen::JacobiOptions;
    use mph_linalg::symmetric::random_symmetric;

    fn forced(sweeps: usize) -> JacobiOptions {
        JacobiOptions { force_sweeps: Some(sweeps), ..Default::default() }
    }

    fn mixed_jobs(m: usize) -> Vec<Job> {
        vec![
            Job::Eigen { a: random_symmetric(m, 1), family: OrderingFamily::Br, opts: forced(1) },
            Job::Svd {
                a: random_symmetric(m, 2),
                family: OrderingFamily::Degree4,
                opts: forced(1),
            },
            Job::Eigen {
                a: random_symmetric(m, 3),
                family: OrderingFamily::PermutedBr,
                opts: forced(1),
            },
        ]
    }

    #[test]
    fn checked_options_reject_a_zero_interleave_stride() {
        let err = BatchOptions::new(FabricModel::Free, Policy::Interleave { stride: 0 })
            .expect_err("stride 0 grants no micro-ops");
        assert_eq!(err, BatchConfigError::ZeroStride);
        assert!(err.to_string().contains("stride"));
        // Any stride >= 1 (and the non-interleaved policies) pass through.
        let ok = BatchOptions::new(FabricModel::Free, Policy::Interleave { stride: 1 })
            .expect("stride 1 is the minimal legal interleave");
        assert_eq!(ok.policy, Policy::Interleave { stride: 1 });
        assert!(BatchOptions::new(FabricModel::Free, Policy::Fifo).is_ok());
    }

    #[test]
    fn invalid_fabrics_are_typed_errors_and_death_schedules_batch() {
        use mph_ccpipe::PortModel;
        use mph_runtime::{LinkDeath, Scenario, ScenarioSpec};
        use std::sync::Arc;
        // KPort(0) surfaces as the wrapped fabric error...
        let bad = FabricModel::Throttled(Machine { ts: 1.0, tw: 1.0, ports: PortModel::KPort(0) });
        let err = BatchOptions::new(bad, Policy::Fifo).expect_err("KPort(0) cannot be enforced");
        assert_eq!(err, BatchConfigError::InvalidFabric(FabricConfigError::ZeroPorts));
        assert!(err.to_string().contains("KPort(0)"));
        // ...while a death schedule, dead from the start or dying later,
        // constructs and runs: the batch stays at epoch 0, relaying around
        // the link dead there, and every job keeps its logical bits.
        let jobs = mixed_jobs(16);
        for epoch in [0, 1] {
            let deadly = ScenarioSpec {
                epochs: 2,
                deaths: vec![LinkDeath { node: 0, dim: 0, epoch }],
                ..ScenarioSpec::clean(1, Machine::paper_figure2())
            };
            let sc = Scenario::new(2, deadly).expect("a single death keeps the 2-cube connected");
            let opts = BatchOptions::new(FabricModel::Degraded(Arc::new(sc)), Policy::Fifo)
                .expect("a batch relays around dead links");
            let report = solve_batch(2, &jobs, &opts);
            assert!(report.makespan > 0.0, "epoch {epoch}: a degraded fabric ticks the clock");
            assert_logical_bits(&jobs, &report, 2);
        }
    }

    #[test]
    fn degraded_death_free_batches_stay_bitwise_solo() {
        use mph_runtime::{Scenario, ScenarioSpec};
        use std::sync::Arc;
        // A heterogeneous (death-free) scenario re-times the batch but
        // changes no bits: every job still equals its solo logical run.
        let jobs = mixed_jobs(16);
        let spec = ScenarioSpec {
            epochs: 3,
            hetero_spread: 2.0,
            rate_jitter: 0.2,
            ..ScenarioSpec::clean(5, Machine::all_port(1000.0, 100.0))
        };
        let fabric =
            FabricModel::Degraded(Arc::new(Scenario::new(2, spec).expect("valid scenario")));
        let opts =
            BatchOptions::new(fabric, Policy::Fifo).expect("death-free scenarios are batchable");
        let report = solve_batch(2, &jobs, &opts);
        assert!(report.makespan > 0.0, "a degraded fabric ticks the clock");
        assert_logical_bits(&jobs, &report, 2);
    }

    /// Every job of `report` carries its logical solve's values and
    /// rotation count.
    fn assert_logical_bits(jobs: &[Job], report: &BatchReport, d: usize) {
        for (i, job) in jobs.iter().enumerate() {
            match job {
                Job::Eigen { a, family, opts } => {
                    let solo = mph_eigen::block_jacobi(a, d, *family, opts);
                    let got = report.results[i].eigen().expect("eigen result");
                    assert_eq!(got.rotations, solo.rotations, "job {i}");
                    for c in 0..a.cols() {
                        assert_eq!(got.eigenvalues[c], solo.eigenvalues[c], "job {i} λ_{c}");
                    }
                }
                Job::Svd { a, family, opts } => {
                    let solo = mph_eigen::svd_block(a, d, *family, opts);
                    let got = report.results[i].svd().expect("svd result");
                    assert_eq!(got.rotations, solo.rotations, "job {i}");
                    for c in 0..a.cols() {
                        assert_eq!(
                            got.singular_values[c], solo.singular_values[c],
                            "job {i} σ_{c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn throughput_measure_guards_the_zero_makespan() {
        assert_eq!(Throughput::measure(3, 600, 0.0), None, "free fabric: no clock, no rate");
        let t = Throughput::measure(3, 600, 2.0).expect("positive makespan rates");
        assert_eq!(t.jobs_per_time, 1.5);
        assert_eq!(t.elems_per_time, 300.0);
    }

    #[test]
    fn free_fabric_reports_no_throughput_but_full_results() {
        let report = solve_batch(2, &mixed_jobs(16), &BatchOptions::default());
        assert_eq!(report.results.len(), 3);
        assert!(report.throughput.is_none());
        assert_eq!(report.makespan, 0.0);
        // Per-job traffic still splits.
        assert!(report.meter.job_volume(0) > 0);
        assert_eq!(
            report.meter.job_volume(0) + report.meter.job_volume(1) + report.meter.job_volume(2),
            report.meter.total_volume()
        );
    }

    #[test]
    fn interleave_beats_fifo_on_the_throttled_all_port_fabric() {
        let jobs = mixed_jobs(32);
        let fabric = FabricModel::Throttled(Machine::all_port(1000.0, 100.0));
        let fifo =
            solve_batch(2, &jobs, &BatchOptions { fabric: fabric.clone(), ..Default::default() });
        let inter = solve_batch(
            2,
            &jobs,
            &BatchOptions {
                fabric: fabric.clone(),
                policy: Policy::Interleave { stride: 1 },
                ..Default::default()
            },
        );
        assert!(
            inter.makespan < fifo.makespan,
            "interleaved {} vs fifo {}",
            inter.makespan,
            fifo.makespan
        );
        let t_fifo = fifo.throughput.expect("throttled");
        let t_inter = inter.throughput.expect("throttled");
        assert!(t_inter.jobs_per_time > t_fifo.jobs_per_time);
        assert!(t_inter.elems_per_time > t_fifo.elems_per_time);
        // Results are identical across policies — scheduling is invisible
        // to the numerics.
        for (a, b) in fifo.results.iter().zip(&inter.results) {
            match (a, b) {
                (JobResult::Eigen(x), JobResult::Eigen(y)) => {
                    assert_eq!(x.eigenvalues, y.eigenvalues)
                }
                (JobResult::Svd(x), JobResult::Svd(y)) => {
                    assert_eq!(x.singular_values, y.singular_values)
                }
                _ => panic!("result kinds diverged"),
            }
        }
    }

    #[test]
    fn round_model_tracks_the_measured_interleaved_makespan() {
        // The cost sheet predicts by running the executed schedule on the
        // schedule clock: on uniform partitions the measurement IS the
        // prediction, interleaved or FIFO.
        let jobs = mixed_jobs(32);
        let fabric = FabricModel::Throttled(Machine::all_port(1000.0, 100.0));
        for policy in [Policy::Interleave { stride: 1 }, Policy::Fifo] {
            let report = solve_batch(
                2,
                &jobs,
                &BatchOptions { fabric: fabric.clone(), policy, ..Default::default() },
            );
            let predicted = report.cost.predicted;
            assert!(
                (report.makespan - predicted).abs() <= 1e-9 * predicted,
                "{policy:?}: measured {} vs predicted {predicted}",
                report.makespan
            );
        }
    }

    #[test]
    fn shortest_plan_first_minimizes_mean_completion() {
        // One big job submitted first, two small ones behind it: SPF must
        // cut the mean finish time without changing the total makespan.
        let jobs = vec![
            Job::Eigen { a: random_symmetric(48, 7), family: OrderingFamily::Br, opts: forced(1) },
            Job::Eigen { a: random_symmetric(16, 8), family: OrderingFamily::Br, opts: forced(1) },
            Job::Svd { a: random_symmetric(16, 9), family: OrderingFamily::Br, opts: forced(1) },
        ];
        let fabric = FabricModel::Throttled(Machine::all_port(1000.0, 100.0));
        let fifo =
            solve_batch(2, &jobs, &BatchOptions { fabric: fabric.clone(), ..Default::default() });
        let spf = solve_batch(
            2,
            &jobs,
            &BatchOptions {
                fabric: fabric.clone(),
                policy: Policy::ShortestPlanFirst,
                ..Default::default()
            },
        );
        assert_eq!(spf.order.jobs()[0], 1, "a small job goes first");
        assert!(
            spf.mean_finish() < fifo.mean_finish(),
            "SPF mean finish {} vs FIFO {}",
            spf.mean_finish(),
            fifo.mean_finish()
        );
        assert!((spf.makespan - fifo.makespan).abs() <= 1e-9 * fifo.makespan);
    }
}
