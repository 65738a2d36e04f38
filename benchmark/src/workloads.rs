//! The six workloads: their inputs, one job of each, and the correctness
//! gate every job passes through.

use std::hint::black_box;
use std::time::Instant;

use crate::api::{
    self, Accuracy, FabricModel, Family, JacobiOptions, JobClass, KernelPath, Machine, Matrix,
    Pipelining, Scenario, Served, Solved, TraceRing, FAMILIES,
};
use crate::spans::Recorder;
use crate::speedometer::{self, Speedometer};
use crate::{alloc, stats};

/// Cube dimension of every solve and of the service: 8 nodes.
pub const D: usize = 3;
pub const NODES: usize = 1 << D;

/// Mean gap between arrivals of `serve_load`, on the virtual clock. A
/// constant: the mix saturates at about 890 000 vtime per job, so the
/// service runs at 0.74 of capacity and its queue is rarely empty.
pub const SERVE_MEAN_GAP: f64 = 1_200_000.0;
/// Mean gap of the overload replay of the traced pass: beyond capacity.
pub const OVERLOAD_MEAN_GAP: f64 = 800_000.0;
/// The overload replay's queue: short enough that it sheds.
pub const OVERLOAD_QUEUE_CAP: usize = 16;
/// Over 40 seeds the queue peaked between 9 and 22 deep; 64 leaves room for
/// every seed, so no request of `serve_load` is shed.
pub const SERVE_QUEUE_CAP: usize = 64;
/// Served jobs compared bit for bit with their solo logical solve.
const SERVE_BITWISE_SAMPLE: usize = 16;

/// A converged spectrum lies within this share of `‖A‖_F` of the two-sided
/// cyclic reference.
const SPECTRUM_TOL: f64 = 1e-9;
/// `‖AV − VΛ‖ / ‖A‖` (or `‖A − UΣVᵀ‖ / ‖A‖`) of a converged solve.
const RESIDUAL_TOL: f64 = 1e-7;
/// `‖VᵀV − I‖` of any solve, converged or not.
const ORTHOGONALITY_TOL: f64 = 1e-10;
/// Simulated over priced time of a plan, whole-block and packetized.
const MODEL_GAP_TOL: f64 = 1e-9;

// ---- the virtual-time gate ----------------------------------------------------
//
// Virtual time repeats bit for bit and does not depend on the matrix: every
// run of a workload reads the same `job_vtime_p50`, whatever the seed. The
// driver's contract refuses a bounded metric that never varies, so virtual
// time is gated here instead: a job whose virtual time exceeds the value
// recorded below, from the commit that defined the benchmark, has failed. A
// change that lowers virtual time passes, and the next correction of the
// benchmark lowers the ceiling after it.

/// Rounding, nothing more.
const VTIME_SLACK: f64 = 1e-9;
/// Summed Auto-pipelined price of the full `model_sweep` grid.
const MODEL_GRID_VTIME_CEILING: f64 = 7_985_662_600.0;
/// The service's latencies depend on the seed's arrivals, so it warms up on
/// the scenario of this seed, whatever `--seed` is ...
const PINNED_SEED: u64 = 424_242;
/// ... whose median and 90th-percentile latency these are.
const PINNED_SERVE_LATENCY_CEILING: [(f64, f64); 2] =
    [(50.0, 7_414_643.628941581), (90.0, 14_414_499.095531702)];

fn over_ceiling(what: &str, vtime: f64, ceiling: f64) -> Option<String> {
    (vtime.is_nan() || vtime > ceiling * (1.0 + VTIME_SLACK))
        .then(|| format!("{what} is {vtime} vtime, above the recorded {ceiling}"))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LogicalSolve,
    LogicalPool,
    ThreadedBlocks,
    ThreadedPackets,
    ServeLoad,
    ModelSweep,
}

impl Workload {
    /// In the fixed order a round runs them.
    pub const ALL: [Workload; 6] = [
        Workload::LogicalSolve,
        Workload::LogicalPool,
        Workload::ThreadedBlocks,
        Workload::ThreadedPackets,
        Workload::ServeLoad,
        Workload::ModelSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LogicalSolve => "logical_solve",
            Workload::LogicalPool => "logical_pool",
            Workload::ThreadedBlocks => "threaded_blocks",
            Workload::ThreadedPackets => "threaded_packets",
            Workload::ServeLoad => "serve_load",
            Workload::ModelSweep => "model_sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs (replays for `serve_load`) in one round's slice: about a second
    /// of work each, reference-loop readings included.
    pub fn slice_jobs(self) -> usize {
        match self {
            Workload::LogicalSolve | Workload::LogicalPool => 5,
            Workload::ThreadedBlocks | Workload::ThreadedPackets => 8,
            Workload::ServeLoad => 1,
            Workload::ModelSweep => 15,
        }
    }

    /// Jobs the traced pass runs, once untraced and once traced.
    pub fn traced_jobs(self) -> usize {
        match self {
            Workload::ServeLoad => 1,
            Workload::ModelSweep => 10,
            _ => 8,
        }
    }

    /// Set-ups the driver's run times, one before each equal slice of its
    /// measuring window: the host's speed shifts every few seconds, and
    /// set-ups timed back to back would all land in one phase of it. More
    /// where one set-up is too short to time steadily.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::ModelSweep => 15,
            _ => 3,
        }
    }

    /// Readings of the reference loop taken on each side of a timed job
    /// (their median counts). A replay is a second long and a run holds only
    /// about ten, so one reading per side says too little about it.
    fn readings_per_side(self) -> usize {
        match self {
            Workload::ServeLoad => 3,
            _ => 1,
        }
    }

    pub fn is_threaded(self) -> bool {
        matches!(self, Workload::ThreadedBlocks | Workload::ThreadedPackets)
    }

    /// Virtual time per sweep of one full-scale solve under each ordering
    /// ([`FAMILIES`] order), the paper's second factor: the Auto-pipelined
    /// price for the logical drivers, the fabric's makespan ÷ sweeps (one
    /// convergence all-reduce per sweep included) for the threaded ones.
    fn vtime_per_sweep_ceiling(self) -> Option<[f64; 4]> {
        match self {
            Workload::LogicalSolve | Workload::LogicalPool => {
                Some([9_036_200.0, 8_465_800.0, 9_036_200.0, 8_465_800.0])
            }
            Workload::ThreadedBlocks => Some([12_306_300.0; 4]),
            Workload::ThreadedPackets => Some([7_482_500.0, 6_765_700.0, 7_482_500.0, 6_765_700.0]),
            Workload::ServeLoad | Workload::ModelSweep => None,
        }
    }

    fn solve_options(self, machine: Machine) -> JacobiOptions {
        let throttled = FabricModel::Throttled(machine);
        match self {
            Workload::LogicalPool => JacobiOptions {
                kernel: KernelPath::Lanes,
                cache_diagonals: true,
                workers: 2,
                ..Default::default()
            },
            Workload::ThreadedBlocks => JacobiOptions { fabric: throttled, ..Default::default() },
            Workload::ThreadedPackets => JacobiOptions {
                fabric: throttled,
                pipelining: Pipelining::Auto(machine),
                tail_pipelining: Pipelining::Auto(machine),
                ..Default::default()
            },
            _ => JacobiOptions::default(),
        }
    }
}

/// Problem sizes: the full benchmark, or the `--smoke` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Matrix size of the four solve workloads.
    pub m: usize,
    pub serve_jobs: usize,
    /// Halves the four `serve_load` class sizes (32/64/64/128) when set.
    pub serve_halved: bool,
    /// Largest cube dimension of the `model_sweep` grid (from 3).
    pub model_max_d: usize,
}

impl Scale {
    pub const FULL: Scale = Scale { m: 256, serve_jobs: 1000, serve_halved: false, model_max_d: 7 };
    /// 64 jobs: the queue holds them all, so none is shed.
    pub const SMOKE: Scale = Scale { m: 64, serve_jobs: 64, serve_halved: true, model_max_d: 4 };
}

struct SolveInputs {
    mats: Vec<Matrix>,
    norms: Vec<f64>,
    /// Ascending reference spectrum of each matrix.
    spectra: Vec<Vec<f64>>,
    opts: JacobiOptions,
    threaded: bool,
    /// Auto-pipelined price of one sweep per family: the logical drivers'
    /// virtual time is `sweeps ×` this.
    sweep_price: Vec<f64>,
}

impl SolveInputs {
    /// Distinct job `key`: the family cycles fastest, so any four
    /// consecutive jobs cover all four orderings.
    fn job(&self, key: usize) -> (&Matrix, Family) {
        (&self.mats[self.matrix_of(key)], FAMILIES[key % FAMILIES.len()])
    }

    fn matrix_of(&self, key: usize) -> usize {
        key / FAMILIES.len() % self.mats.len()
    }
}

struct ServeInputs {
    scenario: Scenario,
    /// `(job, its solo logical solve)` for the bitwise sample.
    solo: Vec<(usize, Solved)>,
}

enum Inputs {
    Solve(Box<SolveInputs>),
    Serve(ServeInputs),
    /// `(d, m, family)` of every cell of the model grid.
    Model(Vec<(usize, usize, Family)>),
}

/// What must repeat exactly when the same job runs again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Signature {
    checksum: u64,
    sweeps: u64,
    rotations: u64,
    messages: u64,
    vtime_bits: u64,
}

/// One cell of the model grid, priced and replayed.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCell {
    pub d: usize,
    pub family: Family,
    pub priced: api::Priced,
    pub replayed: api::Replayed,
}

impl ModelCell {
    /// Largest `|simulated − priced| ÷ priced` of the two schedules.
    pub fn gap(&self) -> f64 {
        let rel = |sim: f64, price: f64| (sim - price).abs() / price.max(f64::MIN_POSITIVE);
        rel(self.replayed.unpipelined, self.priced.unpipelined)
            .max(rel(self.replayed.pipelined, self.priced.pipelined))
    }
}

pub enum Detail {
    Solve { solved: Solved, accuracy: Option<Accuracy> },
    Serve(Served),
    Model(Vec<ModelCell>),
}

/// One executed job (one replay of 1 000 requests for `serve_load`).
pub struct JobRun {
    /// Wall seconds inside the layer call, checks excluded.
    pub wall_s: f64,
    /// Jobs this run counts for: 1, or the requests of a replay.
    pub jobs: u64,
    pub failed: u64,
    /// Virtual time of each of those jobs, arrival to finish.
    pub vtimes: Vec<f64>,
    pub detail: Detail,
}

/// How a job is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing switched on: the only runs that feed the end-to-end samples.
    Timed,
    /// The program's allocations are counted (see [`crate::alloc`]).
    Counted,
    /// Spans and, where the workload has one, the runtime's trace sink
    /// record; the result gets the full check.
    Traced,
}

/// One workload, set up and accumulating results.
pub struct Session {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    pub machine: Machine,
    inputs: Inputs,
    /// First-seen signature of each distinct job.
    first: Vec<Option<Signature>>,
    next_job: usize,
    speedometer: Speedometer,
    /// The reference loop's reading taken after the previous timed job, if
    /// nothing else ran since.
    last_reading: Option<f64>,
    /// Every reading of the reference loop, in seconds.
    pub readings_s: Vec<f64>,
    /// Per-job wall ÷ the reference loop's wall around it, one per run.
    pub samples_x_ref: Vec<f64>,
    /// Wall milliseconds per job, one sample per run.
    pub samples_ms: Vec<f64>,
    /// Summed wall seconds of the timed runs.
    pub timed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Wall seconds of every set-up so far.
    pub setups_s: Vec<f64>,
    /// Why jobs failed (the first few).
    pub failures: Vec<String>,
}

impl Session {
    /// Sets the workload up, timing it.
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Session {
        let machine = api::paper_machine();
        let (inputs, failures, setup_s) = set_up(workload, seed, scale, &machine);
        let distinct = match &inputs {
            Inputs::Solve(s) => s.mats.len() * FAMILIES.len(),
            Inputs::Serve(_) | Inputs::Model(_) => 1,
        };
        Session {
            workload,
            seed,
            scale,
            machine,
            inputs,
            first: vec![None; distinct],
            next_job: 0,
            speedometer: Speedometer::new(),
            last_reading: None,
            readings_s: Vec::new(),
            samples_x_ref: Vec::new(),
            samples_ms: Vec::new(),
            timed_s: 0.0,
            // A warm-up that went through the virtual-time gate is a job.
            attempted: u64::from(workload == Workload::ServeLoad && scale == Scale::FULL),
            failed: u64::from(!failures.is_empty()),
            setups_s: vec![setup_s],
            failures,
        }
    }

    /// Sets the workload up once more, timing it: the same inputs again.
    pub fn repeat_setup(&mut self) {
        // The warm-up's gate is deterministic: its verdict is already booked.
        let (inputs, _, setup_s) = set_up(self.workload, self.seed, self.scale, &self.machine);
        self.inputs = inputs;
        self.setups_s.push(setup_s);
    }

    /// Distinct jobs the workload cycles through.
    pub fn distinct_jobs(&self) -> usize {
        self.first.len()
    }

    /// Matrix size of the solve workloads (0 for the others).
    pub fn m(&self) -> usize {
        match &self.inputs {
            Inputs::Solve(s) => s.mats[0].cols(),
            _ => 0,
        }
    }

    pub fn solve_options(&self) -> Option<&JacobiOptions> {
        match &self.inputs {
            Inputs::Solve(s) => Some(&s.opts),
            _ => None,
        }
    }

    /// Matrix and family of distinct job `key` of a solve workload.
    pub fn solve_job(&self, key: usize) -> Option<(&Matrix, Family)> {
        match &self.inputs {
            Inputs::Solve(s) => Some(s.job(key)),
            _ => None,
        }
    }

    pub fn scenario(&self) -> Option<&Scenario> {
        match &self.inputs {
            Inputs::Serve(s) => Some(&s.scenario),
            _ => None,
        }
    }

    /// Restarts the job cycle, so the next run is distinct job 0 again.
    pub fn rewind(&mut self) {
        self.next_job = 0;
    }

    fn read_speedometer(&mut self) -> f64 {
        let readings: Vec<f64> = (0..self.workload.readings_per_side())
            .map(|_| {
                let jacobi = self.speedometer.read();
                // The service's time goes into threads waking each other.
                let exchange = (self.workload == Workload::ServeLoad)
                    .then(|| black_box(speedometer::read_exchange()).0);
                jacobi + exchange.unwrap_or(0.0)
            })
            .collect();
        self.readings_s.extend_from_slice(&readings);
        stats::median(&readings)
    }

    /// Runs the next job of the cycle in `mode`, checks it, and books it.
    pub fn run_next(&mut self, mode: Mode, rec: &mut Recorder, ring: Option<&TraceRing>) -> JobRun {
        let key = self.next_job % self.distinct_jobs();
        self.next_job += 1;
        rec.set_job(self.attempted);
        // A timed job sits between two readings of the reference loop; the
        // one after it serves the next job too.
        let stale = self.last_reading.take();
        let before =
            (mode == Mode::Timed).then(|| stale.unwrap_or_else(|| self.read_speedometer()));
        let mut run = rec.span("job.run", |rec| {
            if mode == Mode::Counted {
                alloc::resume();
            }
            let mut run = execute(&self.inputs, &self.machine, key, rec, ring);
            alloc::pause();
            if let Some(before) = before {
                let after = self.read_speedometer();
                self.last_reading = Some(after);
                let per_job_s = run.wall_s / run.jobs as f64;
                self.samples_x_ref.push(per_job_s / (0.5 * (before + after)));
                self.samples_ms.push(per_job_s * 1e3);
                self.timed_s += run.wall_s;
            }
            let full_check = mode == Mode::Traced || self.first[key].is_none();
            if full_check {
                // The check is real work: the reading taken before it says
                // nothing about the host after it.
                self.last_reading = None;
            }
            let problems = rec.span("check.result", |_| self.check(key, &mut run, full_check));
            if !problems.is_empty() {
                run.failed = run.failed.max(1);
                for p in problems {
                    if self.failures.len() < 8 {
                        self.failures.push(format!("{} job {key}: {p}", self.workload.name()));
                    }
                }
            }
            run
        });
        run.failed = run.failed.min(run.jobs);
        self.attempted += run.jobs;
        self.failed += run.failed;
        run
    }

    /// Runs whole timed jobs until `seconds` have passed, checks and
    /// readings of the reference loop included.
    pub fn run_for(&mut self, seconds: f64) {
        let start = Instant::now();
        self.last_reading = None;
        let mut rec = Recorder::new(false);
        while self.samples_ms.is_empty() || start.elapsed().as_secs_f64() < seconds {
            self.run_next(Mode::Timed, &mut rec, None);
        }
    }

    /// Runs `jobs` jobs in `mode` with spans and trace sink off.
    pub fn run_jobs(&mut self, mode: Mode, jobs: usize) -> Vec<JobRun> {
        let mut rec = Recorder::new(false);
        self.last_reading = None;
        (0..jobs).map(|_| self.run_next(mode, &mut rec, None)).collect()
    }

    /// Served jobs of the bitwise sample that differ from their solo solve.
    pub fn serve_bitwise_mismatches(&self, served: &Served) -> usize {
        match &self.inputs {
            Inputs::Serve(s) => {
                s.solo.iter().filter(|(j, solo)| !served.job_same_bits(*j, solo)).count()
            }
            _ => 0,
        }
    }

    /// The correctness gate. A job's first run (and every traced run) is
    /// checked against independent references; every run must repeat the
    /// first one's signature exactly. Returns what is wrong.
    fn check(&mut self, key: usize, run: &mut JobRun, full: bool) -> Vec<String> {
        let mut problems = Vec::new();
        let signature = match (&self.inputs, &mut run.detail) {
            (Inputs::Solve(s), Detail::Solve { solved, accuracy }) => {
                if full {
                    let i = s.matrix_of(key);
                    if !solved.converged {
                        problems.push(format!("not converged after {} sweeps", solved.sweeps));
                    }
                    let worst = solved
                        .sorted_values()
                        .iter()
                        .zip(&s.spectra[i])
                        .map(|(x, y)| (x - y).abs())
                        .fold(0.0, f64::max);
                    if worst.is_nan() || worst > SPECTRUM_TOL * s.norms[i] {
                        problems.push(format!("spectrum off the reference by {worst:e}"));
                    }
                    let acc = solved.accuracy(&s.mats[i]);
                    problems.extend(accuracy_problems(&acc));
                    *accuracy = Some(acc);
                }
                // The smoke sizes have no recorded values.
                let ceilings = self.workload.vtime_per_sweep_ceiling();
                if let Some(ceilings) = ceilings.filter(|_| self.scale == Scale::FULL) {
                    let per_sweep = run.vtimes[0] / solved.sweeps as f64;
                    let ceiling = ceilings[key % FAMILIES.len()];
                    problems.extend(over_ceiling("a sweep", per_sweep, ceiling));
                }
                Signature {
                    checksum: solved.checksum(),
                    sweeps: solved.sweeps,
                    rotations: solved.rotations,
                    messages: solved.traffic.messages,
                    vtime_bits: solved.vtime.to_bits(),
                }
            }
            (Inputs::Serve(s), Detail::Serve(served)) => {
                if full {
                    let n = api::scenario_len(&s.scenario) as u64;
                    if served.served + served.rejected != n {
                        problems.push(format!("{} of {n} jobs accounted for", served.served));
                    }
                    let mismatched = self.serve_bitwise_mismatches(served);
                    if mismatched > 0 {
                        problems.push(format!("{mismatched} served jobs differ from solo solves"));
                        run.failed += mismatched as u64;
                    }
                }
                Signature {
                    checksum: served.checksum(),
                    sweeps: served.served,
                    rotations: served.peak_queue_depth,
                    messages: served.traffic.messages,
                    vtime_bits: served.makespan.to_bits(),
                }
            }
            (Inputs::Model(_), Detail::Model(cells)) => {
                if full {
                    problems.extend(model_problems(cells));
                }
                if self.scale == Scale::FULL {
                    problems.extend(over_ceiling(
                        "the grid",
                        run.vtimes[0],
                        MODEL_GRID_VTIME_CEILING,
                    ));
                }
                let flat: Vec<f64> = cells
                    .iter()
                    .flat_map(|c| {
                        [
                            c.priced.unpipelined,
                            c.priced.pipelined,
                            c.replayed.unpipelined,
                            c.replayed.pipelined,
                        ]
                    })
                    .collect();
                Signature {
                    checksum: api::bit_checksum(&flat),
                    sweeps: cells.len() as u64,
                    rotations: cells.iter().map(|c| c.priced.qs.iter().sum::<usize>() as u64).sum(),
                    messages: cells.iter().map(|c| c.replayed.messages).sum(),
                    vtime_bits: run.vtimes[0].to_bits(),
                }
            }
            _ => unreachable!("a session runs the jobs of its own inputs"),
        };
        match self.first[key] {
            None => self.first[key] = Some(signature),
            Some(first) if first != signature => {
                problems.push(format!("changed between runs: {first:?} then {signature:?}"));
            }
            Some(_) => {}
        }
        problems
    }

    /// The end-to-end metrics of everything timed so far.
    pub fn end_to_end(&self) -> crate::metrics::Values {
        crate::metrics::Values::from([
            ("job_wall_x_ref", stats::median(&self.samples_x_ref)),
            ("setup_s", stats::median(&self.setups_s)),
        ])
    }

    /// Jobs completed ÷ summed wall seconds of the timed runs.
    pub fn jobs_per_s(&self) -> f64 {
        let per_run = match &self.inputs {
            Inputs::Serve(s) => api::scenario_len(&s.scenario),
            _ => 1,
        };
        (self.samples_ms.len() * per_run) as f64 / self.timed_s.max(f64::MIN_POSITIVE)
    }
}

/// One set-up: inputs from `seed`, references, and the warm-up job. Returns
/// the inputs, what the warm-up's gate found wrong, and the wall seconds.
fn set_up(
    workload: Workload,
    seed: u64,
    scale: Scale,
    machine: &Machine,
) -> (Inputs, Vec<String>, f64) {
    let t0 = Instant::now();
    let inputs = build_inputs(workload, seed, scale, *machine);
    let failures = warm_up(&inputs, scale, machine);
    (inputs, failures, t0.elapsed().as_secs_f64())
}

/// The untimed job that ends a set-up: pages in code and data and spawns the
/// first threads. The full-scale service warms up on the pinned scenario and
/// returns what of it is over its recorded latency ceilings.
fn warm_up(inputs: &Inputs, scale: Scale, machine: &Machine) -> Vec<String> {
    if !(matches!(inputs, Inputs::Serve(_)) && scale == Scale::FULL) {
        std::hint::black_box(execute(inputs, machine, 0, &mut Recorder::new(false), None));
        return Vec::new();
    }
    let pinned = serve_scenario(PINNED_SEED, scale, SERVE_MEAN_GAP);
    let served = api::serve_replay(D, &pinned, machine, SERVE_QUEUE_CAP, api::SinkHandle::nop());
    let latencies = stats::sorted(&served.latencies);
    PINNED_SERVE_LATENCY_CEILING
        .iter()
        .filter_map(|&(p, ceiling)| {
            let what = format!("serve_load warm-up: p{p} latency of seed {PINNED_SEED}");
            over_ceiling(&what, stats::percentile(&latencies, p), ceiling)
        })
        .collect()
}

/// Runs distinct job `key` of `inputs`, timing only the call into the layer.
fn execute(
    inputs: &Inputs,
    machine: &Machine,
    key: usize,
    rec: &mut Recorder,
    ring: Option<&TraceRing>,
) -> JobRun {
    let trace = ring.map_or_else(api::SinkHandle::nop, TraceRing::handle);
    match inputs {
        Inputs::Solve(s) => {
            let (a, family) = s.job(key);
            let opts = JacobiOptions { trace, ..s.opts.clone() };
            let t0 = Instant::now();
            let solved = rec.span("eigen.solve", |_| {
                if s.threaded {
                    api::solve_threaded(a, D, family, &opts)
                } else {
                    api::solve_logical(a, D, family, &opts)
                }
            });
            let wall_s = t0.elapsed().as_secs_f64();
            let vtime = if s.threaded {
                solved.vtime
            } else {
                solved.sweeps as f64 * s.sweep_price[key % FAMILIES.len()]
            };
            JobRun {
                wall_s,
                jobs: 1,
                failed: 0,
                vtimes: vec![vtime],
                detail: Detail::Solve { solved, accuracy: None },
            }
        }
        Inputs::Serve(s) => {
            let t0 = Instant::now();
            let served = rec.span("serve.serve", |_| {
                api::serve_replay(D, &s.scenario, machine, SERVE_QUEUE_CAP, trace)
            });
            let wall_s = t0.elapsed().as_secs_f64();
            JobRun {
                wall_s,
                jobs: api::scenario_len(&s.scenario) as u64,
                // A request shed with `Rejected::QueueFull` has failed.
                failed: served.rejected,
                vtimes: served.latencies.clone(),
                detail: Detail::Serve(served),
            }
        }
        Inputs::Model(grid) => {
            let t0 = Instant::now();
            let cells: Vec<ModelCell> = grid
                .iter()
                .map(|&(d, m, family)| {
                    let plan = rec.span("core.lower", |_| api::lower_plan(m, d, family));
                    let priced = rec.span("ccpipe.price", |_| api::price_plan(&plan, machine, m));
                    let replayed =
                        rec.span("simnet.replay", |_| api::replay_plan(&plan, &priced.qs, machine));
                    ModelCell { d, family, priced, replayed }
                })
                .collect();
            let wall_s = t0.elapsed().as_secs_f64();
            let vtime = cells.iter().map(|c| c.priced.pipelined).sum();
            JobRun { wall_s, jobs: 1, failed: 0, vtimes: vec![vtime], detail: Detail::Model(cells) }
        }
    }
}

/// What is wrong with a converged factorization's accuracy.
fn accuracy_problems(acc: &Accuracy) -> Vec<String> {
    let mut problems = Vec::new();
    if acc.residual.is_nan() || acc.residual > RESIDUAL_TOL {
        problems.push(format!("residual {:e} over {RESIDUAL_TOL:e}", acc.residual));
    }
    if acc.orthogonality.is_nan() || acc.orthogonality > ORTHOGONALITY_TOL {
        problems.push(format!("orthogonality {:e} over {ORTHOGONALITY_TOL:e}", acc.orthogonality));
    }
    problems
}

/// The model grid's invariants: the simulator reproduces the priced time of
/// both schedules, pipelining never costs more than whole blocks, and at
/// `d ≥ 5` the paper's orderings beat BR under pipelining (Figure 2).
fn model_problems(cells: &[ModelCell]) -> Vec<String> {
    let mut problems = Vec::new();
    for c in cells {
        if c.gap().is_nan() || c.gap() > MODEL_GAP_TOL {
            problems.push(format!("d={} {}: simulated off priced by {:e}", c.d, c.family, c.gap()));
        }
        if c.priced.pipelined > c.priced.unpipelined {
            problems.push(format!("d={} {}: pipelining priced as a loss", c.d, c.family));
        }
    }
    for br in cells.iter().filter(|c| c.family == Family::Br && c.d >= 5) {
        for other in cells.iter().filter(|c| c.d == br.d && c.family != Family::Br) {
            if other.priced.pipelined >= br.priced.pipelined {
                problems.push(format!("d={}: {} does not beat BR", br.d, other.family));
            }
        }
    }
    problems
}

/// The job classes of `serve_load`: eigen m=32 BR ×2, eigen m=64 permuted-BR
/// ×2, SVD m=64 degree-4 ×1, eigen m=128 minimum-α ×0.5.
fn serve_mix(halved: bool) -> Vec<JobClass> {
    let m = |full: usize| if halved { full / 2 } else { full };
    vec![
        JobClass { m: m(32), svd: false, family: Family::Br, weight: 2.0 },
        JobClass { m: m(64), svd: false, family: Family::PermutedBr, weight: 2.0 },
        JobClass { m: m(64), svd: true, family: Family::Degree4, weight: 1.0 },
        JobClass { m: m(128), svd: false, family: Family::MinAlpha, weight: 0.5 },
    ]
}

/// The `serve_load` jobs of `seed` at another arrival rate (0: all at once).
pub fn serve_scenario(seed: u64, scale: Scale, mean_gap: f64) -> Scenario {
    api::generate_scenario(seed, scale.serve_jobs, mean_gap, &serve_mix(scale.serve_halved), 2)
}

fn build_inputs(workload: Workload, seed: u64, scale: Scale, machine: Machine) -> Inputs {
    match workload {
        Workload::ServeLoad => {
            let scenario = serve_scenario(seed, scale, SERVE_MEAN_GAP);
            let n = api::scenario_len(&scenario);
            let sample = SERVE_BITWISE_SAMPLE.min(n);
            let solo = (0..sample)
                .map(|k| k * n / sample)
                .map(|j| (j, api::solve_scenario_job_logically(&scenario, j, D)))
                .collect();
            Inputs::Serve(ServeInputs { scenario, solo })
        }
        Workload::ModelSweep => Inputs::Model(
            (3..=scale.model_max_d)
                .flat_map(|d| FAMILIES.map(|family| (d, 32 << d, family)))
                .collect(),
        ),
        _ => {
            let mats: Vec<Matrix> =
                (0..4).map(|i| api::random_symmetric(scale.m, seed + i)).collect();
            Inputs::Solve(Box::new(SolveInputs {
                norms: mats.iter().map(api::frobenius_norm).collect(),
                spectra: mats.iter().map(api::reference_spectrum).collect(),
                sweep_price: FAMILIES
                    .iter()
                    .map(|&f| {
                        api::price_plan(&api::lower_plan(scale.m, D, f), &machine, scale.m)
                            .pipelined
                    })
                    .collect(),
                opts: workload.solve_options(machine),
                threaded: workload.is_threaded(),
                mats,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_ceiling_passes_the_recorded_value_and_anything_lower_and_fails_the_rest() {
        assert_eq!(over_ceiling("a sweep", 12_306_300.0, 12_306_300.0), None);
        assert_eq!(over_ceiling("a sweep", 6_765_700.0, 12_306_300.0), None, "an improvement");
        assert_eq!(over_ceiling("a sweep", 12_306_300.0 * (1.0 + 1e-12), 12_306_300.0), None);
        let over = over_ceiling("a sweep", 12_306_301.0, 12_306_300.0).expect("one vtime more");
        assert!(over.contains("above the recorded 12306300"), "{over}");
        assert!(over_ceiling("a sweep", f64::NAN, 1.0).is_some());
        assert!(over_ceiling("a sweep", f64::INFINITY, 1.0).is_some(), "a job of no sweeps");
    }
}
