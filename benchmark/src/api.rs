//! The one file that names the repository's functions: one thin call per
//! layer, returning plain records the rest of the benchmark reads.
//!
//! When an entry point is renamed or folded into an options struct, only
//! the bodies here are re-pointed; no metric is redefined.

use std::ops::Range;
use std::sync::Arc;

use mph::batch::{service_plan, solve_batch, AdmissionConfig, BatchOptions, Policy};
use mph::ccpipe::{plan_cost_with_tail, plan_sweep_cost, plan_unpipelined_cost, PlannedJob};
use mph::core::CommPlan;
use mph::eigen::{
    block_jacobi, block_jacobi_threaded_fabric, choose_qs, choose_tail_qs, lower_job, lower_sweeps,
    packetization_cap, svd_block, two_sided_cyclic, JobResult,
};
use mph::linalg::matmul::{eigen_residual, orthogonality_defect};
use mph::runtime::{calibrate_channel_machine, RingSink, TraceEvent, TrafficMeter};
use mph::serve::{serve, ScenarioGen, ServeOptions, ServeReport};
use mph::simnet::{
    plan_pipelined_schedule, plan_unpipelined_schedule, simulate_synchronized, StartupModel,
};
use mph::trace::{chrome_trace_json, validate_chrome_trace, UtilizationMatrix};

pub use mph::batch::Job;
pub use mph::ccpipe::Machine;
pub use mph::core::OrderingFamily as Family;
pub use mph::eigen::{ColumnBlock, FabricModel, JacobiOptions, KernelPath, Pipelining};
pub use mph::linalg::Matrix;
pub use mph::runtime::SinkHandle;
pub use mph::serve::{JobClass, Scenario};

/// The four ordering families, in the order the paper's figures use.
pub const FAMILIES: [Family; 4] = Family::ALL;

/// The paper's Figure-2 machine: Ts = 1000, Tw = 100, all-port.
pub fn paper_machine() -> Machine {
    Machine::paper_figure2()
}

// ---- linalg ---------------------------------------------------------------

pub fn random_symmetric(m: usize, seed: u64) -> Matrix {
    mph::linalg::symmetric::random_symmetric(m, seed)
}

pub fn frobenius_norm(a: &Matrix) -> f64 {
    a.frobenius_norm()
}

/// Columns `cols` of `a` with their identity columns, as the drivers ship
/// them: `2m` elements per column.
pub fn column_block(a: &Matrix, cols: Range<usize>) -> ColumnBlock {
    ColumnBlock::from_matrix_with_identity(a, cols, a.cols())
}

/// Splits `block` into `q` packets and rebuilds it: what every hop of a
/// packetized exchange pays on top of the channel.
pub fn packetize_round_trip(block: ColumnBlock, q: usize) -> ColumnBlock {
    ColumnBlock::from_packets(block.split_columns(q))
}

pub fn payload_elems(block: &ColumnBlock) -> usize {
    block.payload_elems()
}

/// One Jacobi rotation of the column pairs `(ai, aj)` and `(ui, uj)`.
pub fn pair_rotate(
    path: KernelPath,
    ai: &mut [f64],
    aj: &mut [f64],
    ui: &mut [f64],
    uj: &mut [f64],
    c: f64,
    s: f64,
) {
    match path {
        KernelPath::Scalar => mph::linalg::pair_rotate(ai, aj, ui, uj, c, s),
        KernelPath::Lanes => mph::linalg::pair_rotate_lanes(ai, aj, ui, uj, c, s),
    }
}

// ---- eigen ----------------------------------------------------------------

/// Data-plane and control-plane traffic of one run, from the runtime's meter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Traffic {
    pub messages: u64,
    pub control_messages: u64,
    pub data_elems: u64,
    pub volume_by_dim: Vec<u64>,
}

impl Traffic {
    fn from_meter(meter: &TrafficMeter) -> Self {
        Traffic {
            messages: meter.total_messages(),
            control_messages: meter.total_control_messages(),
            data_elems: meter.total_volume(),
            volume_by_dim: meter.volume_by_dim(),
        }
    }
}

/// How far a factorization is from exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// `‖AV − VΛ‖ / ‖A‖` of an eigensolve, `‖A − UΣVᵀ‖ / ‖A‖` of an SVD.
    pub residual: f64,
    /// `‖VᵀV − I‖`.
    pub orthogonality: f64,
}

/// One finished solve.
#[derive(Debug, Clone)]
pub struct Solved {
    pub sweeps: u64,
    pub rotations: u64,
    pub converged: bool,
    /// All zero for the logical drivers, which move no messages.
    pub traffic: Traffic,
    /// The fabric's virtual makespan; 0 for the logical drivers.
    pub vtime: f64,
    factors: JobResult,
}

fn bits(values: &[f64]) -> impl Iterator<Item = u64> + '_ {
    values.iter().map(|v| v.to_bits())
}

fn same_bits(x: &JobResult, y: &JobResult) -> bool {
    match (x, y) {
        (JobResult::Eigen(x), JobResult::Eigen(y)) => {
            bits(&x.eigenvalues).eq(bits(&y.eigenvalues))
                && bits(x.eigenvectors.as_slice()).eq(bits(y.eigenvectors.as_slice()))
        }
        (JobResult::Svd(x), JobResult::Svd(y)) => {
            bits(&x.singular_values).eq(bits(&y.singular_values))
                && bits(x.u.as_slice()).eq(bits(y.u.as_slice()))
                && bits(x.v.as_slice()).eq(bits(y.v.as_slice()))
        }
        _ => false,
    }
}

/// FNV-1a over the bit patterns of `values`.
pub fn bit_checksum(values: &[f64]) -> u64 {
    bits(values).fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b).wrapping_mul(0x0000_0100_0000_01b3))
}

fn job_values(factors: &JobResult) -> &[f64] {
    match factors {
        JobResult::Eigen(r) => &r.eigenvalues,
        JobResult::Svd(r) => &r.singular_values,
    }
}

impl Solved {
    fn logical(factors: JobResult) -> Self {
        let (sweeps, rotations, converged) = match &factors {
            JobResult::Eigen(r) => (r.sweeps, r.rotations, r.converged),
            JobResult::Svd(r) => (r.sweeps, r.rotations, r.converged),
        };
        Solved {
            sweeps: sweeps as u64,
            rotations,
            converged,
            traffic: Traffic::default(),
            vtime: 0.0,
            factors,
        }
    }

    /// Eigenvalues (or singular values) in column order.
    pub fn values(&self) -> &[f64] {
        job_values(&self.factors)
    }

    pub fn sorted_values(&self) -> Vec<f64> {
        let mut v = self.values().to_vec();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn checksum(&self) -> u64 {
        bit_checksum(self.values())
    }

    /// Whether values and vectors equal `other`'s bit for bit.
    pub fn same_bits(&self, other: &Solved) -> bool {
        same_bits(&self.factors, &other.factors)
    }

    pub fn accuracy(&self, a: &Matrix) -> Accuracy {
        let norm = a.frobenius_norm().max(f64::MIN_POSITIVE);
        match &self.factors {
            JobResult::Eigen(r) => Accuracy {
                residual: eigen_residual(a, &r.eigenvectors, &r.eigenvalues) / norm,
                orthogonality: orthogonality_defect(&r.eigenvectors),
            },
            JobResult::Svd(r) => {
                let rebuilt = r.reconstruct();
                let diff: f64 = rebuilt
                    .as_slice()
                    .iter()
                    .zip(a.as_slice())
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum();
                Accuracy { residual: diff.sqrt() / norm, orthogonality: orthogonality_defect(&r.v) }
            }
        }
    }
}

/// The single-threaded block solver following the sweep schedule.
pub fn solve_logical(a: &Matrix, d: usize, family: Family, opts: &JacobiOptions) -> Solved {
    Solved::logical(JobResult::Eigen(block_jacobi(a, d, family, opts)))
}

fn solve_logical_svd(a: &Matrix, d: usize, family: Family, opts: &JacobiOptions) -> Solved {
    Solved::logical(JobResult::Svd(svd_block(a, d, family, opts)))
}

/// The same algorithm on `2^d` node threads exchanging block messages over
/// `opts.fabric`.
pub fn solve_threaded(a: &Matrix, d: usize, family: Family, opts: &JacobiOptions) -> Solved {
    let (result, meter, fabric) = block_jacobi_threaded_fabric(a, d, family, opts);
    Solved {
        traffic: Traffic::from_meter(&meter),
        vtime: fabric.makespan,
        ..Solved::logical(JobResult::Eigen(result))
    }
}

/// Ascending spectrum from the two-sided cyclic solver, the independent
/// oracle every converged solve is checked against.
pub fn reference_spectrum(a: &Matrix) -> Vec<f64> {
    let opts = JacobiOptions { tol: 1e-12, ..JacobiOptions::default() };
    two_sided_cyclic(a, &opts).sorted_eigenvalues()
}

// ---- core + ccpipe ----------------------------------------------------------

/// The communication plan of sweep 0 of an `m`-column solve on a `d`-cube.
pub fn lower_plan(m: usize, d: usize, family: Family) -> CommPlan {
    lower_sweeps(m, d, family, false, 1).swap_remove(0)
}

/// Per-dimension data volume the plans of `sweeps` sweeps predict.
pub fn planned_volume_by_dim(m: usize, d: usize, family: Family, sweeps: usize) -> Vec<u64> {
    let mut total = vec![0u64; d.max(1)];
    for plan in lower_sweeps(m, d, family, false, sweeps) {
        for (sum, v) in total.iter_mut().zip(plan.volume_by_dim()) {
            *sum += v;
        }
    }
    total
}

/// One plan's price on one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Priced {
    pub unpipelined: f64,
    /// With the per-phase optimal packet counts `qs`.
    pub pipelined: f64,
    pub qs: Vec<usize>,
}

pub fn price_plan(plan: &CommPlan, machine: &Machine, m: usize) -> Priced {
    let cost = plan_sweep_cost(plan, machine, packetization_cap(m, plan.d()) as f64);
    Priced {
        unpipelined: plan_unpipelined_cost(plan, machine),
        pipelined: cost.total,
        qs: cost.phases.iter().map(|p| p.q).collect(),
    }
}

/// The price of `sweeps` sweeps as `opts` would execute them: the packet
/// counts the threaded driver chooses, serial tail included.
pub fn predicted_vtime(
    m: usize,
    d: usize,
    family: Family,
    opts: &JacobiOptions,
    machine: &Machine,
    sweeps: usize,
) -> f64 {
    let cap = packetization_cap(m, d);
    lower_sweeps(m, d, family, opts.cache_diagonals, sweeps)
        .iter()
        .map(|plan| {
            let qs = choose_qs(plan, &opts.pipelining, cap);
            let tail = choose_tail_qs(plan, &opts.tail_pipelining, cap);
            plan_cost_with_tail(plan, machine, &qs, tail).total
        })
        .sum()
}

/// Packets per exchange phase `Pipelining::Auto(machine)` picks for sweep 0.
pub fn auto_packet_counts(m: usize, d: usize, family: Family, machine: &Machine) -> Vec<usize> {
    choose_qs(&lower_plan(m, d, family), &Pipelining::Auto(*machine), packetization_cap(m, d))
}

// ---- simnet -----------------------------------------------------------------

/// One plan replayed through the barrier-synchronized simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replayed {
    pub unpipelined: f64,
    pub pipelined: f64,
    pub messages: u64,
}

pub fn replay_plan(plan: &CommPlan, qs: &[usize], machine: &Machine) -> Replayed {
    let startup = StartupModel::SerializedThenParallel;
    let whole = simulate_synchronized(&plan_unpipelined_schedule(plan), machine, startup);
    let packets = simulate_synchronized(&plan_pipelined_schedule(plan, qs), machine, startup);
    Replayed {
        unpipelined: whole.makespan,
        pipelined: packets.makespan,
        messages: (whole.messages + packets.messages) as u64,
    }
}

// ---- runtime + trace --------------------------------------------------------

/// Wall-clock `(Ts seconds, Tw seconds per element)` of the live channels.
pub fn calibrate_channel(d: usize) -> (f64, f64) {
    let machine = calibrate_channel_machine(d);
    (machine.ts, machine.tw)
}

/// An in-memory sink for the runtime's virtual-clock trace events.
pub struct TraceRing(Arc<RingSink>);

impl TraceRing {
    pub fn new(d: usize, events_per_node: usize) -> Self {
        TraceRing(Arc::new(RingSink::new(d, events_per_node)))
    }

    /// The handle to put into `JacobiOptions::trace`.
    pub fn handle(&self) -> SinkHandle {
        SinkHandle::new(self.0.clone())
    }

    /// Events recorded so far, including any the ring overwrote.
    pub fn recorded(&self) -> u64 {
        self.0.total_recorded()
    }

    pub fn drain(&self) -> TraceLanes {
        TraceLanes(self.0.drain())
    }
}

/// The drained per-node event streams.
pub struct TraceLanes(Vec<Vec<TraceEvent>>);

/// What the link timelines of one traced run add up to.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkSummary {
    /// Busy time over all directed links ÷ (links × makespan).
    pub occupancy_mean: f64,
    /// Time sends waited for a port or link ÷ (waited + on the wire).
    pub port_wait_share: f64,
    /// Barriers node 0 passed.
    pub barriers: u64,
}

impl TraceLanes {
    pub fn events(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    pub fn link_summary(&self, d: usize) -> LinkSummary {
        let matrix = UtilizationMatrix::from_lanes(&self.0);
        let (mut busy, mut wait) = (0.0, 0.0);
        for (_, load) in matrix.cells() {
            busy += load.busy;
            wait += load.port_wait;
        }
        let link_time = (self.0.len() * d.max(1)) as f64 * matrix.makespan();
        let barriers = self.0.first().map_or(0, |lane| {
            lane.iter().filter(|e| matches!(e, TraceEvent::Barrier { .. })).count() as u64
        });
        LinkSummary {
            occupancy_mean: if link_time > 0.0 { busy / link_time } else { 0.0 },
            port_wait_share: if busy + wait > 0.0 { wait / (busy + wait) } else { 0.0 },
            barriers,
        }
    }

    /// The Chrome trace export, or why it is malformed.
    pub fn chrome_json(&self) -> Result<String, String> {
        let json = chrome_trace_json(&self.0);
        validate_chrome_trace(&json).map(|_| json)
    }
}

// ---- batch ------------------------------------------------------------------

pub fn eigen_job(a: Matrix, family: Family, opts: JacobiOptions) -> Job {
    Job::Eigen { a, family, opts }
}

pub fn svd_job(a: Matrix, family: Family, opts: JacobiOptions) -> Job {
    Job::Svd { a, family, opts }
}

/// Virtual makespan of `jobs` sharing one throttled fabric, back to back
/// (`interleave = false`) or with their micro-ops interleaved.
pub fn batch_makespan(d: usize, jobs: &[Job], machine: &Machine, interleave: bool) -> f64 {
    let policy = if interleave { Policy::Interleave { stride: 1 } } else { Policy::Fifo };
    let opts =
        BatchOptions { fabric: FabricModel::Throttled(*machine), policy, ..Default::default() };
    solve_batch(d, jobs, &opts).makespan
}

// ---- serve ------------------------------------------------------------------

/// How many of `n_jobs` jobs each class of `mix` gets: its weight's share,
/// rounded so that the counts add up (largest remainders first).
fn class_quota(mix: &[JobClass], n_jobs: usize) -> Vec<usize> {
    let total: f64 = mix.iter().map(|c| c.weight).sum();
    let exact: Vec<f64> = mix.iter().map(|c| n_jobs as f64 * c.weight / total).collect();
    let mut quota: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..mix.len()).collect();
    by_remainder.sort_by(|&a, &b| exact[b].fract().total_cmp(&exact[a].fract()));
    let short = n_jobs - quota.iter().sum::<usize>();
    for &class in by_remainder.iter().take(short) {
        quota[class] += 1;
    }
    quota
}

/// `n_jobs` jobs of `mix` with exponential gaps of mean `mean_gap` on the
/// virtual clock (all at 0 when `mean_gap` is 0); every job runs exactly
/// `force_sweeps` sweeps.
///
/// The seed decides the matrices, the order of the classes and the arrival
/// instants, not how many jobs a class gets: the generator's stream is
/// drawn longer than needed and each class keeps its first jobs up to its
/// exact share. Left to the draw, the share of the largest class moved by a
/// fifth from seed to seed and the work per request with it (113 572 to
/// 133 478 elements shipped per job over ten seeds, `job_wall_x_ref` 0.063 to
/// 0.077 in step), which is a difference between inputs, not between runs.
pub fn generate_scenario(
    seed: u64,
    n_jobs: usize,
    mean_gap: f64,
    mix: &[JobClass],
    force_sweeps: usize,
) -> Scenario {
    let class_of = |job: &Job| {
        let (a, family, svd) = match job {
            Job::Eigen { a, family, .. } => (a, family, false),
            Job::Svd { a, family, .. } => (a, family, true),
        };
        mix.iter()
            .position(|c| (c.m, c.svd, c.family) == (a.cols(), svd, *family))
            .expect("the generator draws from the mix")
    };
    let mut drawn = 2 * n_jobs;
    loop {
        let mut gen = ScenarioGen::new(seed, drawn, mean_gap, mix.to_vec());
        gen.opts = JacobiOptions { force_sweeps: Some(force_sweeps), ..Default::default() };
        let stream = gen.generate();
        let mut left = class_quota(mix, n_jobs);
        let mut jobs = Vec::with_capacity(n_jobs);
        for job in stream.jobs {
            let class = class_of(&job);
            if left[class] > 0 {
                left[class] -= 1;
                jobs.push(job);
            }
        }
        if jobs.len() == n_jobs {
            return Scenario { jobs, arrivals: stream.arrivals[..n_jobs].to_vec() };
        }
        // A stream that ran out of some class (many standard deviations
        // away at twice the length): draw a longer one.
        drawn *= 2;
    }
}

/// The same jobs arriving at other instants.
pub fn with_arrivals(scenario: &Scenario, arrivals: Vec<f64>) -> Scenario {
    Scenario { jobs: scenario.jobs.clone(), arrivals }
}

pub fn scenario_len(scenario: &Scenario) -> usize {
    scenario.jobs.len()
}

/// Job `j` solved alone by the logical driver, with the job's own options.
pub fn solve_scenario_job_logically(scenario: &Scenario, j: usize, d: usize) -> Solved {
    match &scenario.jobs[j] {
        Job::Eigen { a, family, opts } => solve_logical(a, d, *family, opts),
        Job::Svd { a, family, opts } => solve_logical_svd(a, d, *family, opts),
    }
}

fn serve_options(machine: &Machine, queue_cap: usize, trace: SinkHandle) -> ServeOptions {
    ServeOptions {
        fabric: FabricModel::Throttled(*machine),
        policy: Policy::ShortestPlanFirst,
        admission: AdmissionConfig { queue_cap, max_active: 4, stagger_slots: 2 },
        trace,
        ..Default::default()
    }
}

/// One replay of a scenario through the service.
pub struct Served {
    pub served: u64,
    pub rejected: u64,
    pub peak_queue_depth: u64,
    /// Arrival → finish of every served job, in job order.
    pub latencies: Vec<f64>,
    /// Arrival → admission of every served job, in job order.
    pub queue_waits: Vec<f64>,
    /// When the service drained, on the virtual clock.
    pub makespan: f64,
    /// Share of the makespan during which at least one job was active.
    pub busy_share: f64,
    pub traffic: Traffic,
    results: Vec<Option<JobResult>>,
}

impl Served {
    fn from_report(report: ServeReport) -> Self {
        let busy: f64 = report
            .backlog
            .windows(2)
            .filter(|w| w[0].active > 0)
            .map(|w| w[1].time - w[0].time)
            .sum();
        Served {
            served: report.served() as u64,
            rejected: report.rejected() as u64,
            peak_queue_depth: report.peak_queue_depth() as u64,
            latencies: report.run.outcomes.iter().filter_map(|o| o.latency()).collect(),
            queue_waits: report.run.outcomes.iter().filter_map(|o| o.queue_wait()).collect(),
            makespan: report.makespan,
            busy_share: if report.makespan > 0.0 { busy / report.makespan } else { 0.0 },
            traffic: Traffic::from_meter(&report.run.meter),
            results: report.run.results,
        }
    }

    /// One checksum over every served job's values, in job order.
    pub fn checksum(&self) -> u64 {
        self.results.iter().flatten().fold(0, |h, r| h.rotate_left(7) ^ bit_checksum(job_values(r)))
    }

    /// Whether served job `j` equals `solo` bit for bit (false if shed).
    pub fn job_same_bits(&self, j: usize, solo: &Solved) -> bool {
        self.results[j].as_ref().is_some_and(|r| same_bits(r, &solo.factors))
    }
}

/// Serves `scenario` on a `d`-cube: shortest-plan-first admission, four
/// jobs interleaved, a queue of `queue_cap`.
pub fn serve_replay(
    d: usize,
    scenario: &Scenario,
    machine: &Machine,
    queue_cap: usize,
    trace: SinkHandle,
) -> Served {
    Served::from_report(serve(d, scenario, &serve_options(machine, queue_cap, trace)))
}

/// The admission plan the service computes before it starts: lowers and
/// prices every job. Returns the number of jobs planned.
pub fn plan_service(d: usize, scenario: &Scenario, machine: &Machine, queue_cap: usize) -> usize {
    let lowered: Vec<_> = scenario.jobs.iter().map(|j| lower_job(&j.to_spec(), d)).collect();
    let planned: Vec<PlannedJob<'_>> =
        lowered.iter().map(|(plans, qs)| PlannedJob { plans, qs, tail_q: 1 }).collect();
    let opts = serve_options(machine, queue_cap, SinkHandle::nop());
    let plan = service_plan(
        &scenario.jobs,
        &planned,
        scenario.arrivals.clone(),
        &opts.policy,
        machine,
        &opts.admission,
    );
    plan.arrivals.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_gives_each_class_its_exact_share_in_its_own_order() {
        let mix = [
            JobClass { m: 8, svd: false, family: Family::Br, weight: 2.0 },
            JobClass { m: 16, svd: false, family: Family::PermutedBr, weight: 2.0 },
            JobClass { m: 16, svd: true, family: Family::Degree4, weight: 1.0 },
            JobClass { m: 32, svd: false, family: Family::MinAlpha, weight: 0.5 },
        ];
        assert_eq!(class_quota(&mix, 1000), [364, 363, 182, 91]);
        assert_eq!(class_quota(&mix, 64), [23, 23, 12, 6]);
        let sizes = |seed| -> Vec<usize> {
            let scenario = generate_scenario(seed, 64, 100.0, &mix, 1);
            assert_eq!(scenario.arrivals.len(), 64);
            assert!(scenario.arrivals.windows(2).all(|w| w[0] <= w[1]));
            let size = |job: &Job| match job {
                Job::Eigen { a, .. } | Job::Svd { a, .. } => a.cols(),
            };
            scenario.jobs.iter().map(size).collect()
        };
        let (one, other) = (sizes(1), sizes(2));
        assert_ne!(one, other, "the seed orders the classes");
        for m in [8, 16, 32] {
            let count = |sizes: &[usize]| sizes.iter().filter(|&&s| s == m).count();
            assert_eq!(count(&one), count(&other), "m = {m}");
        }
        assert_eq!(one.iter().filter(|&&s| s == 32).count(), 6);
    }
}
