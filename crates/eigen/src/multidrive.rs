//! The micro-op engine: the one phase machine of the workspace, walking
//! one job's [`CommPlan`] chain or several chains at once over ONE shared
//! link fabric.
//!
//! The *order* of a sweep's micro-ops is not written here: it is the
//! program of the sweep's plan under its framing ([`CommPlan::op_after`]),
//! which this engine executes and `mph_ccpipe::executed_cost` prices. Each
//! job becomes a per-node `JobNode` whose `step` executes the program's
//! next [`MicroOp`] — pair-and-send a transition, consume a received
//! block, charge one pipeline packet to the clock, drain an epilogue
//! packet, or cast a convergence vote — and a
//! deterministic interleaving order ([`BatchOrder`], produced by the
//! `mph-batch` policies, walked by an [`OrderCursor`]) merges the jobs'
//! programs. Every node executes the *same* merged sequence, so sends and
//! receives pair up exactly as in a solo SPMD program; the messages carry
//! job tags, every link keeps one FIFO queue per job, and a job's receive
//! takes from its own ([`NodeCtx::recv`]), so per-`(link, job)` FIFO
//! order survives any interleaving.
//!
//! # Steps that yield
//!
//! A node is an `async` program [`run_spmd`] polls (`mph_runtime::spmd`:
//! the `2^d` programs on `min(2^d, available CPUs)` worker threads), so
//! nothing here parks: each wait is one `.await` on [`NodeCtx::recv`] or
//! [`NodeCtx::barrier`], and the node goes on from there once the message
//! has come or the barrier has gathered. Virtual time is max-plus dataflow
//! over each link's FIFO order, so no worker count or step order moves a
//! bit or a clock.
//!
//! # The phase machine
//!
//! A node owns two [`ColumnBlock`]s per job (the A- and U-columns of its
//! two blocks in one flat allocation each) and walks every sweep's plan —
//! the same plan the cost model prices and the network simulator replays:
//!
//! * an **exchange phase** `e` is a CC-cube loop of `K = 2^e − 1`
//!   iterations: pair the resident block against the mobile block, then
//!   ship the mobile block through the phase's next link. With pipelining
//!   (see [`Pipelining`]) the mobile payload travels as `Q` column
//!   packets: packet `q` of iteration `k` arrives from the previous link
//!   and is forwarded on its own arrival stamp — the paper's stage
//!   `s = k + q` wavefront (§2.4), the `Pipe`/`Drain` micro-ops;
//! * **division** and **last** transitions are whole-block moves,
//!   slot-asymmetric exactly as in [`mph_core::TransitionKind::Division`],
//!   or — with a tail degree above 1 — packets chained through each run of
//!   single-link transitions (`TailSend`/`TailRecv`).
//!
//! # A packet is a clock fact, a round is a host message
//!
//! Packets exist so that transmission overlaps computation on a machine
//! whose `Ts` and `Tw` are real. Here that machine is the fabric's virtual
//! clock; the host moves a block by pointer, and every node is busy with
//! its own pairings in every iteration, so cutting the block up buys the
//! host nothing. The program therefore has one micro-op per packet — the
//! meter, the trace and `mph_ccpipe::executed_cost` all key on them — and
//! the engine separates what each one *charges* from what the iteration
//! *moves*:
//!
//! * **per packet** (`Pipe{k, q}`, `TailSend{q}`): one
//!   [`NodeCtx::charge`] — a metered message and a transmission on the
//!   link clock, traced under its `(k, q)` header, departing on that
//!   packet's own readiness stamp, of the size
//!   [`CommPlan::packet_size`] gives packet `q` of the block (what
//!   `ColumnBlock::split_columns` would have cut; an empty packet is a
//!   `Ts`-only transmission). The arrival stamp it returns is kept;
//! * **per round** (the `Q` packets of one iteration): at `q = 0` the
//!   upstream round is received and the whole block paired once; at
//!   `q = Q − 1` the block and its `Q` stamps cross the channel as one
//!   `BatchMsg::Round` ([`NodeCtx::ship`]: no books). A chained tail
//!   transition pairs once at `q = 0`, before anything is charged;
//! * **per consumed packet** (`Pipe{k ≥ 1, q}`, `Drain{q}`,
//!   `TailRecv{q}`): its `TraceEvent::Recv`, and its stamp put to use —
//!   the readiness of the packet it becomes (`Pipe`, `TailRecv`) or a
//!   clock advance (`Drain`, the end of a tail run).
//!
//! A pipelined solve thus meters, prices and traces `Q` messages per
//! transition and moves one ([`TrafficMeter::shipments`]). The stamp
//! vector a round brings is the one the next round leaves with.
//!
//! This module is the engine only. Its three doors are [`run_job_batch`],
//! [`run_job_service`] and, for [`crate::threaded`]'s two solo solvers
//! ([`block_jacobi_threaded`], [`svd_block_threaded`]), `solve_solo`: a
//! batch of one plus what only a solo run has, the job's own
//! [`JacobiOptions::adaptation`]: sweep markers in the trace and, on a
//! degraded fabric, an epoch barrier per sweep and mid-run re-pricing.
//!
//! Every door sets a run up the same way, once, before the node programs
//! start (`Run::new`): it checks the jobs, frames each job's plans, and
//! cuts every node's relay script for each dimension from the fabric's
//! death schedule (`Relays`, one table per stretch of fabric epochs,
//! [`NodeCtx::epoch`]). A node only reads what the run holds: a sweep
//! relays around the links dead at the epoch it starts at. Only what moves
//! the epoch is the door's: a solo solve passes a barrier per sweep, a
//! service one per round, a batch none.
//!
//! # Why interleave at micro-op granularity
//!
//! The virtual clock charges start-ups serially on the node CPU but lets
//! transmissions ride the links concurrently (per port model). A solo
//! solve's serial tail — division and last transitions, `Ts + S·Tw` each
//! with the CPU idle while the wire drains — and its pipeline
//! prologues/epilogues are exactly the slots where a *different* job's
//! sends are issued here before the first job's arrivals are consumed, so
//! problem B's packets occupy links problem A left idle. On a one-port
//! machine the single transmit port serializes everything and batching
//! buys ~nothing; on the paper's multi-port machines it converts bubbles
//! into throughput — the measured counterpart of `mph_ccpipe::batch_cost`.
//!
//! # Bitwise equality, by construction
//!
//! Packets never interact: a cross-block pairing touches one resident and
//! one mobile column, packets partition the mobile columns, and both
//! packet-by-packet pairing and the whole-block pairing visit each
//! column's pairings in the same relative order. Reordering whole pairings
//! that share no column is exact (they touch disjoint memory), so the one
//! whole-block pairing of a round *is* its `Q` per-packet pairings
//! (`tests/pipeline_traffic.rs` pins it on the kernel), and a job performs
//! *identical* floating-point work for every `Q`, with the diagonal cache
//! on or off.
//! Jobs share no data either: interleaving changes *when* a job's ops run,
//! never *which* ops run or in what per-job order. Every pairing goes
//! through the shared kernel in [`crate::kernel`] on the same storage as
//! the logical drivers ([`block_jacobi`], [`svd_block`]), so every job is
//! bitwise equal to its logical solve when forced to the same number of
//! sweeps — under every policy, port model, pipelining degree and fabric
//! impairment. This is asserted in the tests below and in
//! `crate::threaded`'s, and proptested across random job mixes in
//! `mph-batch`.
//!
//! Convergence is decided per job by one scalar all-reduce at the end of
//! each sweep — `d` exchanges per node, control-plane messages riding the
//! same links, metered separately from the block traffic the paper's
//! tables count. An eigen job **sums** its nodes' eigen-residuals of the
//! columns they hold *after* the sweep ([`crate::offnorm`]): the logical
//! solver's `off(UᵀA₀U)`, folded in the same order, so a job run to
//! convergence stops at the sweep its logical solve stops at and carries
//! the same bits, `off_history` included. An SVD job takes the **max** of
//! the largest cosine its pairings met, the rule of
//! [`svd_block`](crate::svd::svd_block). Either is held to the bar of the
//! job's [`JobKind`], the rule every logical driver stops on too.
//!
//! [`block_jacobi_threaded`]: crate::threaded::block_jacobi_threaded
//! [`svd_block_threaded`]: crate::threaded::svd_block_threaded
//! [`block_jacobi`]: crate::blockjacobi::block_jacobi
//! [`svd_block`]: crate::svd::svd_block
//! [`Pipelining`]: crate::options::Pipelining

use crate::blockjacobi::eigenpairs;
use crate::kernel::{refresh_block_diag, PairingRule, SweepAccumulator, SweepKernel};
use crate::offnorm::node_residual_sq;
use crate::options::{Adaptation, EigenResult, JacobiOptions, Pipelining};
use crate::svd::{extract_usv_blocks, SvdResult};
use crate::threaded::{choose_qs, choose_tail_qs, packetization_cap, AdaptiveReport, ThreadedRun};
use mph_ccpipe::{BatchOrder, OrderCursor, PlannedJob};
use mph_core::{BlockPartition, CommPlan, Framing, MicroOp, OpKind, OrderingFamily, PhaseKind};
use mph_hypercube::surviving_route;
use mph_linalg::block::ColumnBlock;
use mph_linalg::Matrix;
use mph_runtime::{
    run_spmd, FabricModel, FabricReport, Machine, Meterable, NodeCtx, Scenario, SinkHandle, Spmd,
    SpmdRun, TraceEvent, TrafficMeter,
};
use std::sync::Arc;

/// What kind of factorization a job asks for — and so how every driver,
/// logical or engine, pairs, stops and reports `converged` on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Symmetric eigendecomposition (`A` must be square symmetric).
    Eigen,
    /// One-sided Jacobi SVD of a `rows × n` matrix.
    Svd,
}

impl JobKind {
    /// The pairing rule its sweeps rotate by.
    pub(crate) fn rule(self) -> PairingRule {
        match self {
            JobKind::Eigen => PairingRule::Implicit,
            JobKind::Svd => PairingRule::Gram,
        }
    }

    /// The bar a sweep's measure is held to: `tol · ‖A‖_F` for `off(M)`,
    /// `tol` for the largest SVD pair cosine; none when forced (so its
    /// norm, a serial m² add chain, is never computed).
    pub(crate) fn bar(self, a: &Matrix, opts: &JacobiOptions) -> Bar {
        Bar(opts.force_sweeps.is_none().then(|| match self {
            JobKind::Eigen => opts.tol * a.frobenius_norm(),
            JobKind::Svd => opts.tol,
        }))
    }

    /// The most sweeps a solve runs: `force_sweeps`, else `max_sweeps`.
    pub(crate) fn budget(self, opts: &JacobiOptions) -> usize {
        opts.force_sweeps.unwrap_or(opts.max_sweeps)
    }
}

/// A solve's stop bar ([`JobKind::bar`]).
#[derive(Clone, Copy)]
pub(crate) struct Bar(Option<f64>);

impl Bar {
    /// Whether a sweep's measure `v` ends the solve: never when forced.
    pub(crate) fn met(self, v: f64) -> bool {
        self.0.is_some_and(|bar| v <= bar)
    }

    /// What a solve reports as `converged`: forced, or its bar `met`.
    pub(crate) fn converged(self, met: bool) -> bool {
        self.0.is_none() || met
    }
}

/// One problem of a batch: a view of the caller's matrix, its ordering
/// family, and the solver options. The per-job [`JacobiOptions::fabric`]
/// field is ignored — the batch runs on the fabric the *scheduler* was
/// given, which is the whole point of sharing one.
#[derive(Debug, Clone)]
pub struct JobSpec<'a> {
    pub kind: JobKind,
    pub a: &'a Matrix,
    pub family: OrderingFamily,
    pub opts: JacobiOptions,
}

impl<'a> JobSpec<'a> {
    /// An eigenproblem job.
    pub fn eigen(a: &'a Matrix, family: OrderingFamily, opts: JacobiOptions) -> Self {
        JobSpec { kind: JobKind::Eigen, a, family, opts }
    }

    /// An SVD job.
    pub fn svd(a: &'a Matrix, family: OrderingFamily, opts: JacobiOptions) -> Self {
        JobSpec { kind: JobKind::Svd, a, family, opts }
    }
}

/// Lowers one job's full communication up front: the sweep-chained plans
/// (sweep `s` starts from sweep `s − 1`'s final layout) plus the per-phase
/// pipelining degrees the driver will execute. For eigen jobs this is
/// exactly [`crate::threaded::lower_sweeps`] + [`choose_qs`]; SVD jobs
/// differ only in the per-column payload (`rows + n` elements instead of
/// `2m`). Public so the batch scheduler prices (`mph_ccpipe::batch_cost`)
/// and replays (`mph_simnet`) the very plans the runtime executes.
pub fn lower_job(spec: &JobSpec<'_>, d: usize) -> (Vec<CommPlan>, Vec<Vec<usize>>) {
    let n = spec.a.cols();
    let elems_per_col = spec.a.rows() + n + usize::from(spec.opts.cache_diagonals);
    let plans = CommPlan::chain(n, d, spec.family, elems_per_col, spec.kind.budget(&spec.opts));
    let q_cap = packetization_cap(n, d);
    let qs = once_per_distinct(
        plans.len(),
        |t, s| plans[t].same_traffic(&plans[s]),
        |s| choose_qs(&plans[s], &spec.opts.pipelining, q_cap),
    );
    (plans, qs)
}

/// The cost model's view of `lowered[j]` = [`lower_job`]`(specs[j], d)`:
/// the plans and exchange degrees as lowered, plus the tail degree the
/// job's first plan picks ([`choose_tail_qs`]) — how batch, serve and the
/// executed-cost proptest price a job.
///
/// The engine picks the tail degree per plan. `Off` and `Fixed` pick one
/// per job; `Auto` may pick others on later plans of an uneven partition,
/// which this price does not describe. In one sample (`Auto` on the paper
/// machine and on one- and all-port machines at `Ts = 1000`, `Tw = 100`;
/// d = 1–4; 14 sizes of 16–130 columns; four families; six sweeps) 60 of
/// 624 jobs did, all uneven; forcing the first plan's degree moved their
/// virtual makespan on the paper machine by −0.6 % to +0.8 %.
/// `mph_ccpipe::executed_cost` still bounds these runs: it prices every
/// message at its phase's largest block.
pub fn planned_jobs<'a>(
    specs: &[JobSpec<'_>],
    lowered: &'a [(Vec<CommPlan>, Vec<Vec<usize>>)],
    d: usize,
) -> Vec<PlannedJob<'a>> {
    lowered
        .iter()
        .zip(specs)
        .map(|((plans, qs), spec)| {
            let q_cap = packetization_cap(spec.a.cols(), d);
            let tail = &spec.opts.tail_pipelining;
            let tail_q = plans.first().map_or(1, |plan| choose_tail_qs(plan, tail, q_cap));
            PlannedJob { plans, qs, tail_q }
        })
        .collect()
}

/// `price(s)` for every sweep `s < n`, computed for the first of each run
/// of sweeps that are the `same` to it and cloned for the rest. A job
/// lowers `max_sweeps` plans up front and the link rotation brings the
/// same traffic back every `d` sweeps, so `Auto` pricing — a cost-model
/// search per plan — runs on a handful of plans instead of on all thirty.
fn once_per_distinct<T: Clone>(
    n: usize,
    same: impl Fn(usize, usize) -> bool,
    mut price: impl FnMut(usize) -> T,
) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(n);
    for s in 0..n {
        let priced = (0..s).find(|&t| same(t, s)).map_or_else(|| price(s), |t| out[t].clone());
        out.push(priced);
    }
    out
}

/// What the nodes of one run read: the jobs with what each is priced
/// at, the degraded fabric's scenario with the relay scripts cut from it,
/// and a solo solve's adaptation — worked out once by [`Run::new`], before
/// the node programs start, and borrowed by all of them. Every door's one
/// setup.
struct Run<'a> {
    d: usize,
    jobs: Vec<JobRun<'a>>,
    /// The degraded fabric's scenario; `None` on free and throttled ones.
    scenario: Option<Arc<Scenario>>,
    relays: Relays,
    /// What only a solo solve has, its [`Adaptation`] (batch and serve
    /// pass none): it marks sweeps in the trace, and on a
    /// [`FabricModel::Degraded`] fabric it passes an epoch barrier at every
    /// sweep end — so sweep `s` runs at scenario epoch `s` — and re-prices
    /// each sweep. The jobs of a batch or a service share no sweep end.
    solo: Option<Adaptation>,
}

/// One job of a run, as its `2^d` nodes read it.
struct JobRun<'a> {
    spec: &'a JobSpec<'a>,
    plans: &'a [CommPlan],
    /// The job's schedule: the [`Framing`] of each lowered plan — the tail
    /// degree ([`choose_tail_qs`]) is priced once per plan rather than on
    /// every node. A sweep that meets a dead link, or a re-priced degraded
    /// solo sweep, overrides its entry (`JobNode::reprice`).
    framings: Vec<Framing>,
    /// The bar a sweep's vote is held to; a forced job casts none.
    bar: Bar,
}

impl<'a> Run<'a> {
    /// Checks `jobs` against `lowered[j]` = [`lower_job`]`(jobs[j], d)` and
    /// works out what their nodes read on `fabric`.
    fn new(
        d: usize,
        jobs: &'a [JobSpec<'a>],
        lowered: &'a [(Vec<CommPlan>, Vec<Vec<usize>>)],
        fabric: &FabricModel,
        solo: Option<Adaptation>,
    ) -> Self {
        assert!(!jobs.is_empty(), "a run needs at least one job");
        assert_eq!(jobs.len(), lowered.len(), "one lowered plan chain per job");
        let jobs = jobs.iter().zip(lowered).enumerate().map(|(j, (spec, (plans, qs)))| {
            if spec.kind == JobKind::Eigen {
                assert_eq!(spec.a.rows(), spec.a.cols(), "eigen job {j} needs a square matrix");
            }
            let q_cap = packetization_cap(spec.a.cols(), d);
            let tail = &spec.opts.tail_pipelining;
            let framings = once_per_distinct(
                plans.len(),
                |t, s| plans[t].same_traffic(&plans[s]) && qs[t] == qs[s],
                |s| plans[s].framing(&qs[s], choose_tail_qs(&plans[s], tail, q_cap)),
            );
            JobRun { spec, plans, framings, bar: spec.kind.bar(spec.a, &spec.opts) }
        });
        let scenario = fabric.scenario().cloned();
        let relays = Relays::new(d, scenario.as_deref());
        Run { d, jobs: jobs.collect(), scenario, relays, solo }
    }
}

/// One node's part, across one dimension, in the relays around the edges
/// dead there at a stretch of epochs: pure scenario data, cut once per run,
/// so the relay runs as a fixed global script with no negotiation.
#[derive(Default)]
struct Script {
    /// Whether the node's own edge across the dimension is dead: its
    /// payload waits for the relay instead of crossing.
    dead: bool,
    /// The node's hops in script order — dead edges ascending, each one's
    /// forward route then its reverse, hop by hop — as origin, relay or
    /// destination of each.
    hops: Vec<Hop>,
}

/// The relay scripts of one run, cut once from its fabric's death schedule
/// and read by every node: one table per stretch of fabric epochs with the
/// same dead edges, keyed by the stretch's first epoch, ascending, holding
/// each node's [`Script`] for each dimension. None before the first death,
/// so none on a clean fabric.
struct Relays(Vec<(usize, Vec<Vec<Script>>)>);

impl Relays {
    fn new(d: usize, scenario: Option<&Scenario>) -> Self {
        let Some(sc) = scenario else { return Relays(Vec::new()) };
        let table = |epoch| {
            let dead = sc.dead_edges(epoch);
            let mut scripts: Vec<Vec<Script>> =
                (0..1usize << d).map(|_| (0..d).map(|_| Script::default()).collect()).collect();
            for &(u, link) in &dead {
                let v = u ^ (1 << link);
                for (src, dst) in [(u, v), (v, u)] {
                    scripts[src][link].dead = true;
                    let route = surviving_route(d, src, dst, &dead)
                        .expect("scenarios reject disconnecting death schedules");
                    let mut cur = src;
                    for dim in route {
                        let nxt = cur ^ (1 << dim);
                        scripts[cur][link].hops.push(Hop::Send { dim, origin: cur == src });
                        scripts[nxt][link].hops.push(Hop::Recv { dim, delivers: nxt == dst });
                        cur = nxt;
                    }
                }
            }
            (epoch, scripts)
        };
        Relays(sc.death_epochs().into_iter().map(table).collect())
    }

    /// `node`'s scripts at `epoch`, one per dimension: empty before the
    /// first death, and only then, on every node alike.
    fn at(&self, epoch: usize, node: usize) -> &[Script] {
        match self.0.partition_point(|&(from, _)| from <= epoch).checked_sub(1) {
            Some(i) => &self.0[i].1[node],
            None => &[],
        }
    }
}

/// The batch wire protocol: every frame carries its job tag, so N
/// problems' blocks, pipeline rounds, and convergence votes share one set
/// of links, each job's frames in a queue of their own.
///
/// A `Round` is the block that iteration `k` of a packetized phase (0 in a
/// chained tail) forwards, whole, with the arrival stamp of each of the
/// packets the sender's clock was charged for it. Receivers assert the
/// header, turning a protocol slip into an immediate panic.
#[derive(Debug, Clone)]
pub(crate) enum BatchMsg {
    Block { job: u32, block: ColumnBlock },
    Round { job: u32, k: u32, block: ColumnBlock, stamps: Vec<f64> },
    Scalar { job: u32, v: f64 },
}

impl Meterable for BatchMsg {
    fn elems(&self) -> u64 {
        match self {
            BatchMsg::Block { block, .. } => block.payload_elems() as u64,
            BatchMsg::Round { block, .. } => block.payload_elems() as u64,
            BatchMsg::Scalar { .. } => 1,
        }
    }

    fn is_control(&self) -> bool {
        matches!(self, BatchMsg::Scalar { .. })
    }

    fn job(&self) -> u32 {
        match self {
            BatchMsg::Block { job, .. }
            | BatchMsg::Round { job, .. }
            | BatchMsg::Scalar { job, .. } => *job,
        }
    }
}

fn expect_block(msg: BatchMsg) -> ColumnBlock {
    match msg {
        BatchMsg::Block { block, .. } => {
            // A block crosses a link by pointer: it arrives as aligned as
            // it left.
            debug_assert_eq!(block.misaligned_columns(), 0);
            block
        }
        other => panic!("batch protocol error: expected a block, got {other:?}"),
    }
}

fn expect_scalar(msg: BatchMsg) -> f64 {
    match msg {
        BatchMsg::Scalar { v, .. } => v,
        other => panic!("batch protocol error: expected a scalar, got {other:?}"),
    }
}

/// One job's result.
#[derive(Debug, Clone)]
pub enum JobResult {
    Eigen(EigenResult),
    Svd(SvdResult),
}

impl JobResult {
    pub fn eigen(&self) -> Option<&EigenResult> {
        match self {
            JobResult::Eigen(r) => Some(r),
            JobResult::Svd(_) => None,
        }
    }

    pub fn svd(&self) -> Option<&SvdResult> {
        match self {
            JobResult::Svd(r) => Some(r),
            JobResult::Eigen(_) => None,
        }
    }
}

/// One job's virtual-clock span within the batch: `start` is the earliest
/// any node began its first op, `finish` the latest any node completed its
/// last (both 0 on a [`FabricModel::Free`] fabric, which runs no clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpan {
    pub start: f64,
    pub finish: f64,
}

/// Outcome of a batch run.
#[derive(Debug)]
pub struct BatchRun {
    /// Per-job results, in job order.
    pub results: Vec<JobResult>,
    /// Per-job virtual-clock spans, in job order.
    pub spans: Vec<JobSpan>,
    /// The shared meter, with per-job totals
    /// ([`TrafficMeter::job_volume`] and friends).
    pub meter: TrafficMeter,
    /// The fabric report; `fabric.makespan` is the whole batch's measured
    /// virtual makespan.
    pub fabric: FabricReport,
    /// The relay work around dead links, summed over jobs
    /// (`recalibrations` is a solo solve's: always 0 here).
    pub adaptive: AdaptiveReport,
}

/// One hop of a dead edge's relay script that this node plays a part in.
#[derive(Clone, Copy)]
enum Hop {
    /// Send across `dim`: the parked payload if this node is its origin,
    /// else the one it carries.
    Send { dim: usize, origin: bool },
    /// Receive across `dim`: the exchange's incoming payload if this node
    /// is its destination, else one to carry on.
    Recv { dim: usize, delivers: bool },
}

/// One node's part of one job: the two resident blocks plus the cursor
/// into its plan chain's programs. `step` executes one micro-op, awaiting
/// whatever it receives; the merged schedule across jobs is the order's
/// grant walk over an [`OrderCursor`] (`Round::walk`).
struct JobNode<'a> {
    /// The job's tag on the wire: its index in the run.
    tag: u32,
    job: &'a JobRun<'a>,
    run: &'a Run<'a>,
    kern: SweepKernel,
    node: usize,
    slot0: ColumnBlock,
    slot1: ColumnBlock,
    acc: SweepAccumulator,
    sweeps: usize,
    rotations: u64,
    /// The value each sweep's vote agreed on (eigen jobs; the same on
    /// every node).
    off_history: Vec<f64>,
    /// Whether a sweep's vote met the job's bar.
    met: bool,
    /// The op `step` executes next ([`CommPlan::op_after`] of the last
    /// one); `None` once the job has finished.
    next: Option<MicroOp>,
    /// One stamp per packet of the round in hand: the packet's readiness
    /// (phase entry, or its arrival from upstream) until it is charged,
    /// its own arrival stamp after. The vector travels with the round, and
    /// the one a received round brings is the next to leave, so a steady
    /// pipeline allocates none.
    stamps: Vec<f64>,
    /// The current sweep's schedule where it overrides `job.framings`
    /// ([`Self::reprice`]).
    repriced: Option<Framing>,
    /// This node's relay scripts at the epoch the current sweep started
    /// at ([`Relays::at`]), kept until the next sweep starts: empty on
    /// every clean epoch.
    relays: &'a [Script],
    /// A payload whose direct edge is dead, parked between `send_via` and
    /// the relay script of `recv_via`.
    outbox: Option<BatchMsg>,
    /// The machine Reactive re-pricing last agreed on: the scenario's
    /// clean base (the spec sheet) until live windows re-fit it.
    machine: Machine,
    /// This node's share of the solve's [`AdaptiveReport`].
    adaptive: AdaptiveReport,
    start: f64,
    finish: f64,
}

/// One node's share of one finished job.
struct JobNodeOutput {
    sweeps: usize,
    rotations: u64,
    off_history: Vec<f64>,
    converged: bool,
    start: f64,
    finish: f64,
    adaptive: AdaptiveReport,
    /// The node's two blocks as the job left them, moved out of its slots.
    blocks: [ColumnBlock; 2],
}

impl<'a> JobNode<'a> {
    /// Node `node`'s part of job `job` of `run`, its blocks cut from the
    /// job's matrix.
    fn new(job: usize, run: &'a Run<'a>, node: usize) -> Self {
        let (tag, spec) = (job as u32, run.jobs[job].spec);
        let p = 1usize << run.d;
        let n = spec.a.cols();
        let partition = BlockPartition::new(n, 2 * p);
        // The accumulated factor is n × n for both kinds: U for the
        // eigensolver, V for the SVD.
        let urows = n;
        let slot0 = ColumnBlock::from_matrix_with_identity(spec.a, partition.cols(node), urows);
        let slot1 = ColumnBlock::from_matrix_with_identity(spec.a, partition.cols(node + p), urows);
        JobNode {
            tag,
            job: &run.jobs[job],
            run,
            kern: SweepKernel { rule: spec.kind.rule() },
            node,
            slot0,
            slot1,
            acc: SweepAccumulator::default(),
            sweeps: 0,
            rotations: 0,
            off_history: Vec::new(),
            met: false,
            next: (spec.kind.budget(&spec.opts) > 0).then_some(MicroOp::SWEEP_START),
            stamps: Vec::new(),
            repriced: None,
            relays: &[],
            outbox: None,
            machine: run.scenario.as_ref().map_or_else(Machine::paper_figure2, |sc| sc.base()),
            adaptive: AdaptiveReport::default(),
            start: 0.0,
            finish: 0.0,
        }
    }

    fn done(&self) -> bool {
        self.next.is_none()
    }

    /// Takes this job's next message from `link`; consuming the arrival
    /// advances the virtual clock.
    async fn recv(&self, ctx: &NodeCtx<'_, BatchMsg>, link: usize) -> BatchMsg {
        let (msg, stamp) = ctx.recv(link, self.tag).await;
        ctx.advance_clock_to(stamp);
        ctx.trace_recv(link, msg.elems(), self.tag, None, msg.is_control(), stamp);
        msg
    }

    /// The slot whose block travels in phase `idx`: the mobile (slot1),
    /// but for the division slot asymmetry — a division's bit = 0 endpoint
    /// sends its mobile and receives the partner's resident into slot1; its
    /// bit = 1 endpoint sends its resident (slot0) and receives the
    /// partner's mobile into slot0.
    fn travelling(&mut self, idx: usize) -> &mut ColumnBlock {
        let ph = &self.job.plans[self.sweeps].phases()[idx];
        if matches!(ph.kind, PhaseKind::Division { .. }) && self.node & (1 << ph.links[0]) != 0 {
            &mut self.slot0
        } else {
            &mut self.slot1
        }
    }

    /// Receives round `k` of phase `idx` into the travelling slot, and
    /// into `stamps` the arrival of each of its packets — consumed one per
    /// micro-op by [`Self::consume_packet`], the clock untouched here.
    async fn recv_round(&mut self, ctx: &NodeCtx<'_, BatchMsg>, idx: usize, k: usize) {
        let link = self.job.plans[self.sweeps].phases()[idx].links[k];
        match ctx.recv(link, self.tag).await.0 {
            BatchMsg::Round { job, k: sent_k, block, stamps } => {
                assert_eq!((job, sent_k), (self.tag, k as u32), "batch round protocol violation");
                debug_assert_eq!(block.misaligned_columns(), 0);
                *self.travelling(idx) = block;
                self.stamps = stamps;
            }
            other => panic!("batch protocol error: expected a round, got {other:?}"),
        }
    }

    /// The link round `k` of `op`'s phase crosses and the elements of
    /// `op`'s packet: the size `mph_ccpipe::executed_cost` prices, and the
    /// payload of the `q`-th block [`ColumnBlock::split_columns`] would
    /// cut from the travelling one (pinned in `tests/pipeline_traffic.rs`).
    fn packet(&mut self, op: MicroOp, k: usize) -> (usize, u64) {
        let plan = &self.job.plans[self.sweeps];
        let block_elems = self.travelling(op.phase).payload_elems() as u64;
        (plan.phases()[op.phase].links[k], plan.packet_size(block_elems, op.of, op.q))
    }

    /// Consumes `op`'s packet of the received round `k`: records its
    /// arrival and returns the stamp, which the caller forwards as a
    /// readiness or advances the clock to.
    fn consume_packet(&mut self, ctx: &NodeCtx<'_, BatchMsg>, op: MicroOp, k: usize) -> f64 {
        let (link, elems) = self.packet(op, k);
        let kq = Some((k as u32, op.q as u32));
        ctx.trace_recv(link, elems, self.tag, kq, false, self.stamps[op.q]);
        self.stamps[op.q]
    }

    /// Charges `op`'s packet of round `op.k` to the clock: a transmission
    /// of that packet's share of the travelling block, departing on the
    /// packet's own readiness stamp — which its arrival stamp replaces.
    /// Nothing moves until the round's last packet is charged; then block
    /// and stamps cross the link once.
    fn charge_packet(&mut self, ctx: &NodeCtx<'_, BatchMsg>, op: MicroOp) {
        let (link, elems) = self.packet(op, op.k);
        let kq = Some((op.k as u32, op.q as u32));
        self.stamps[op.q] = ctx.charge(link, elems, self.tag, kq, false, self.stamps[op.q]);
        if op.q + 1 == op.of {
            let (job, k) = (self.tag, op.k as u32);
            let block = self.travelling(op.phase).take();
            let stamps = std::mem::take(&mut self.stamps);
            ctx.ship(link, BatchMsg::Round { job, k, block, stamps });
        }
    }

    /// First half of a whole-message exchange across `link`: ships `msg`
    /// — unless this node's `link`-edge is dead this sweep, in which case
    /// the payload waits for the relay script of [`Self::recv_via`].
    fn send_via(&mut self, ctx: &NodeCtx<'_, BatchMsg>, link: usize, msg: BatchMsg) {
        if self.relays.get(link).is_some_and(|script| script.dead) {
            self.outbox = Some(msg);
        } else {
            ctx.send(link, msg);
        }
    }

    /// Second half: returns the partner's message across `link`, once this
    /// node has played its part in the relays around every dead `link`-edge
    /// (its [`Script`]'s hops).
    ///
    /// Sends never block, each receive's producer appears strictly earlier
    /// in the global script order, and the per-(node, dim, job) links are
    /// FIFO, so the script is deadlock-free and deterministic. With no dead
    /// edge on `link` this is a plain receive.
    async fn recv_via(&mut self, ctx: &NodeCtx<'_, BatchMsg>, link: usize) -> BatchMsg {
        // A parked payload means the direct edge is dead: nothing crosses it.
        let mut incoming = match self.outbox {
            None => Some(self.recv(ctx, link).await),
            Some(_) => None,
        };
        let mut carried = None;
        let relays = self.relays;
        for &hop in relays.get(link).map_or(&[][..], |script| &script.hops) {
            match hop {
                Hop::Send { dim, origin: true } => {
                    let m = self.outbox.take().expect("one relayed payload per direction");
                    self.adaptive.reroutes += 1;
                    self.adaptive.rerouted_elems += m.elems();
                    ctx.trace_event(|| TraceEvent::Relay {
                        dim: link,
                        elems: m.elems(),
                        time: ctx.virtual_now(),
                    });
                    ctx.send(dim, m);
                }
                Hop::Send { dim, origin: false } => {
                    ctx.send(dim, carried.take().expect("relay hop carries the payload"));
                }
                Hop::Recv { dim, delivers } => {
                    let got = Some(self.recv(ctx, dim).await);
                    if delivers {
                        incoming = got;
                    } else {
                        carried = got;
                    }
                }
            }
        }
        incoming.expect("every exchange delivers: scenarios reject disconnecting deaths")
    }

    /// All-reduces `vals` by `op`, one value after another: every node
    /// combines its running value with its partner's across each dimension
    /// in turn, so all end on the same bits. Every hop is relay-aware —
    /// convergence votes and machine agreement survive dead links like any
    /// other exchange.
    async fn reduce(
        &mut self,
        ctx: &NodeCtx<'_, BatchMsg>,
        vals: &mut [f64],
        op: fn(f64, f64) -> f64,
    ) {
        for v in vals {
            for dim in 0..self.run.d {
                self.send_via(ctx, dim, BatchMsg::Scalar { job: self.tag, v: *v });
                *v = op(*v, expect_scalar(self.recv_via(ctx, dim).await));
            }
        }
    }

    /// What a sweep start does before its pairings: takes the node's relay
    /// scripts at the epoch it stands at, stamps the job's start, marks a
    /// solo sweep in the trace, and — at a reactive degraded solo sweep
    /// after the first — agrees on a machine: each node fits one to the
    /// service times its link clock measured last sweep, and the nodes
    /// max-reduce its `Ts` and `Tw`, so every node prices against the same
    /// (slowest-observed) machine. A change is counted and traced.
    async fn open_sweep(&mut self, ctx: &NodeCtx<'_, BatchMsg>) {
        self.relays = self.run.relays.at(ctx.epoch(), self.node);
        if self.sweeps == 0 {
            self.start = ctx.virtual_now();
        }
        let Some(adaptation) = self.run.solo else { return };
        let sweep = self.sweeps;
        ctx.trace_event(|| TraceEvent::SweepBegin { sweep, time: ctx.virtual_now() });
        if self.run.scenario.is_none() || adaptation != Adaptation::Reactive || sweep == 0 {
            return;
        }
        let ports = self.machine.ports;
        let local = Machine::calibrate(&ctx.take_fabric_window())
            .map_or(self.machine, |fit| Machine { ts: fit.ts, tw: fit.tw, ports });
        let mut agreed = [local.ts, local.tw];
        self.reduce(ctx, &mut agreed, f64::max).await;
        let [ts, tw] = agreed;
        let agreed = Machine { ts, tw, ports };
        if agreed != self.machine {
            self.machine = agreed;
            self.adaptive.recalibrations += 1;
            ctx.trace_event(|| TraceEvent::Recalibrate { sweep, ts, tw, time: ctx.virtual_now() });
        }
    }

    /// The current sweep's schedule where it overrides the pre-run one. A
    /// sweep that meets a dead link runs whole-block, whichever door its
    /// job came in by: the packet pipelines assume direct links, and `Q`
    /// never changes bits. Otherwise a degraded solo sweep is re-priced:
    /// Reactive against the machine the nodes last agreed on, Oracle
    /// against the scenario's worst alive machine.
    fn reprice(&self, plan: &CommPlan) -> Option<Framing> {
        let pricing = if self.relays.is_empty() {
            let (adaptation, scenario) = (self.run.solo?, self.run.scenario.as_ref()?);
            Pipelining::Auto(match adaptation {
                Adaptation::Off => return None,
                Adaptation::Reactive => self.machine,
                Adaptation::Oracle => scenario.worst_alive_machine(self.sweeps),
            })
        } else {
            Pipelining::Off
        };
        let q_cap = packetization_cap(self.job.spec.a.cols(), self.run.d);
        let tail_q = choose_tail_qs(plan, &pricing, q_cap);
        Some(plan.framing(&choose_qs(plan, &pricing, q_cap), tail_q))
    }

    /// The convergence vote a sweep ends with, unless the job is forced:
    /// one dimension-exchange all-reduce on the job's own link queues,
    /// relayed like the sweep's blocks (module docs) — the sum of the
    /// nodes' eigen-residuals, or the max of their SVD cosines — held
    /// against the bar. The decision is global, so every node finishes (or
    /// goes on) together.
    async fn vote(&mut self, ctx: &NodeCtx<'_, BatchMsg>) {
        if self.job.bar.0.is_none() {
            return;
        }
        let kind = self.job.spec.kind;
        let (mut v, op): ([f64; 1], fn(f64, f64) -> f64) = match kind {
            JobKind::Eigen => ([node_residual_sq(&self.slot0, &self.slot1)], |a, b| a + b),
            JobKind::Svd => ([self.acc.max_off], f64::max),
        };
        self.reduce(ctx, &mut v, op).await;
        let v = match kind {
            JobKind::Eigen => {
                let off = v[0].sqrt();
                self.off_history.push(off);
                off
            }
            JobKind::Svd => v[0],
        };
        self.met = self.job.bar.met(v);
    }

    /// Pairs the resident block against the mobile one. This and
    /// [`Self::pair_within`] keep the kernel out of the state machine the
    /// compiler writes for [`Self::step`]: with both inlined there, ten
    /// alternating benchmark pairs (seed 7, one CPU of a 2-CPU AVX-512 VM)
    /// read `threaded_blocks` 1.6 % slower, the out-of-line form winning 7
    /// of 10, and `threaded_packets` 0.4 % slower.
    #[inline(never)]
    fn pair_across(&mut self) {
        self.acc.merge(self.kern.across(&mut self.slot0, &mut self.slot1));
    }

    /// Pairs the columns within each of the two blocks.
    #[inline(never)]
    fn pair_within(&mut self) {
        self.acc.merge(self.kern.within([&mut self.slot0, &mut self.slot1]));
    }

    /// Executes the job's next micro-op — the arms say what each kind
    /// *does*; which op follows is [`CommPlan::op_after`]'s to say — pairing
    /// on the node's worker and awaiting whatever the op receives. The
    /// caller guarantees every node invokes every job's steps in the same
    /// merged order.
    async fn step(&mut self, ctx: &NodeCtx<'_, BatchMsg>) {
        let op = self.next.expect("the order walk steps unfinished jobs only");
        let plan = &self.job.plans[self.sweeps];
        match op.kind {
            OpKind::SweepStart => {
                self.open_sweep(ctx).await;
                self.repriced = self.reprice(plan);
                self.acc = SweepAccumulator::default();
                if self.job.spec.opts.cache_diagonals {
                    refresh_block_diag(&mut self.slot0, self.kern.rule);
                    refresh_block_diag(&mut self.slot1, self.kern.rule);
                }
                self.pair_within();
                if plan.phases().is_empty() {
                    // d = 0: the whole sweep is step 0's pairings.
                    self.pair_across();
                }
            }
            OpKind::Send => {
                let link = plan.phases()[op.phase].links[op.k];
                self.pair_across();
                let block = self.travelling(op.phase).take();
                self.send_via(ctx, link, BatchMsg::Block { job: self.tag, block });
            }
            OpKind::Recv => {
                let link = plan.phases()[op.phase].links[op.k];
                let block = expect_block(self.recv_via(ctx, link).await);
                *self.travelling(op.phase) = block;
            }
            OpKind::Pipe | OpKind::TailSend => {
                if op.q == 0 {
                    if op.entry {
                        // Phase or run entry: every local packet is ready now.
                        self.stamps.clear();
                        self.stamps.resize(op.of, ctx.virtual_now());
                    } else if op.k > 0 {
                        self.recv_round(ctx, op.phase, op.k - 1).await;
                    }
                    // One pairing of the whole mobile block, before anything
                    // is charged — the per-packet pairings, which share no
                    // mobile column (module docs).
                    self.pair_across();
                }
                // Each packet's forwarding departs when *its own* input
                // has arrived (the fabric's stamp), not when the node's
                // program counter gets there — the comm-processor model.
                if op.k > 0 {
                    self.consume_packet(ctx, op, op.k - 1);
                }
                self.charge_packet(ctx, op);
            }
            OpKind::Drain | OpKind::TailRecv => {
                if op.q == 0 {
                    self.recv_round(ctx, op.phase, op.k).await;
                }
                let stamp = self.consume_packet(ctx, op, op.k);
                if op.kind == OpKind::Drain {
                    // The phase completes for this packet when the node
                    // holds it: consuming the arrival advances the clock.
                    ctx.advance_clock_to(stamp);
                } else if op.last {
                    // In a chained run the stamp is the next transition's
                    // readiness; one clock advance for the whole run, when
                    // its last packets have landed.
                    for &s in &self.stamps {
                        ctx.advance_clock_to(s);
                    }
                }
            }
            OpKind::SweepEnd => {
                if self.run.solo.is_some() {
                    let sweep = self.sweeps;
                    ctx.trace_event(|| TraceEvent::SweepEnd { sweep, time: ctx.virtual_now() });
                }
                self.rotations += self.acc.rotations;
                self.vote(ctx).await;
                // A degraded solo run's end-of-sweep barrier: advances the
                // fabric epoch, so sweep s runs at scenario epoch s on
                // every node — the deterministic clock the impairment
                // timelines key on.
                let degraded = self.run.solo.is_some() && self.run.scenario.is_some();
                if degraded && !self.met {
                    ctx.barrier().await;
                }
                self.sweeps += 1;
                self.repriced = None;
                if self.met || self.sweeps >= self.job.spec.kind.budget(&self.job.spec.opts) {
                    self.finish = ctx.virtual_now();
                    self.next = None;
                } else {
                    self.next = Some(MicroOp::SWEEP_START);
                }
                return;
            }
        }
        let framing = self.repriced.as_ref().unwrap_or(&self.job.framings[self.sweeps]);
        self.next = plan.op_after(op, framing);
    }

    fn into_output(self) -> JobNodeOutput {
        assert!(self.done(), "collecting an unfinished job");
        JobNodeOutput {
            sweeps: self.sweeps,
            rotations: self.rotations,
            off_history: self.off_history,
            converged: self.job.bar.converged(self.met),
            start: self.start,
            finish: self.finish,
            adaptive: self.adaptive,
            blocks: [self.slot0, self.slot1],
        }
    }
}

/// Runs `jobs` concurrently on one `d`-cube over one `fabric`,
/// interleaving their communication per `order`. Returns per-job results
/// (each bitwise identical to the job's solo threaded run), per-job
/// virtual-clock spans, the shared per-job-metered traffic meter, and the
/// fabric report whose makespan is the batch's measured virtual time.
///
/// `lowered[j]` is [`lower_job`]`(jobs[j], d)`: a scheduler lowers the
/// plans once, to price and order the batch (`mph-batch`) and to execute
/// it. The fabric records every job's link/barrier events (tagged with job
/// and packet headers) into `sink`, stamped on the shared virtual clock;
/// tracing is strictly observational — results are bitwise identical to
/// the untraced run ([`SinkHandle::nop`]).
///
/// Jobs of a batch share no sweep boundary, so the run passes no barrier:
/// on a [`FabricModel::Degraded`] fabric every sweep runs at scenario
/// epoch 0, relayed around the links dead at epoch 0 — a later death is
/// never reached.
pub fn run_job_batch(
    d: usize,
    jobs: &[JobSpec<'_>],
    lowered: &[(Vec<CommPlan>, Vec<Vec<usize>>)],
    fabric: FabricModel,
    order: &BatchOrder,
    sink: SinkHandle,
) -> BatchRun {
    let SpmdRun { results: outputs, meter, fabric } =
        run_nodes(d, jobs, lowered, fabric, order, sink, None);
    let mut per_node: Vec<_> = outputs.into_iter().map(Vec::into_iter).collect();
    let mut adaptive = AdaptiveReport::default();
    let (results, spans) = jobs
        .iter()
        .map(|spec| {
            let shares = per_node.iter_mut().map(|o| o.next().expect("one share per job"));
            assemble_job(spec, shares.collect(), &mut adaptive, job_answer(spec.kind))
        })
        .unzip();
    BatchRun { results, spans, meter, fabric, adaptive }
}

/// The engine pass behind every batch and — as a batch of one carrying
/// its [`Adaptation`] — every solo solve: every node steps its
/// [`JobNode`]s to completion in `order` and returns each job's share,
/// indexed `[node][job]`.
fn run_nodes(
    d: usize,
    jobs: &[JobSpec<'_>],
    lowered: &[(Vec<CommPlan>, Vec<Vec<usize>>)],
    fabric: FabricModel,
    order: &BatchOrder,
    sink: SinkHandle,
    solo: Option<Adaptation>,
) -> SpmdRun<Vec<JobNodeOutput>> {
    let run = Run::new(d, jobs, lowered, &fabric, solo);
    order.validate(jobs.len());

    let spmd = Spmd { fabric, njobs: jobs.len(), trace: sink };
    run_spmd(d, spmd, async |ctx: &NodeCtx<'_, BatchMsg>| {
        let mut nodes: Vec<Option<JobNode>> =
            (0..jobs.len()).map(|j| Some(JobNode::new(j, &run, ctx.id()))).collect();
        Round::new(order.clone(), (0..jobs.len()).collect()).walk(&mut nodes, ctx).await;
        nodes.into_iter().flatten().map(JobNode::into_output).collect()
    })
}

/// A walk of `order` over some of a node's jobs — a batch's whole run, or
/// one service round — stepping each granted job until the grant is spent,
/// the job is done, or its part of the round is over.
struct Round {
    order: BatchOrder,
    /// `jobs[i]`: the job `order` calls `i`.
    jobs: Vec<usize>,
    /// Turns job `i` burns before its first op (a service round's
    /// de-phasing); each counts against its grants.
    skip: Vec<usize>,
    /// The sweep count at which job `i`'s part ends: one more sweep in a
    /// service round, never in a batch.
    until: Vec<usize>,
}

impl Round {
    /// The whole of `jobs`' programs, merged by `order`.
    fn new(order: BatchOrder, jobs: Vec<usize>) -> Self {
        let n = jobs.len();
        Round { order, jobs, skip: vec![0; n], until: vec![usize::MAX; n] }
    }

    /// Runs the walk through.
    async fn walk(mut self, nodes: &mut [Option<JobNode<'_>>], ctx: &NodeCtx<'_, BatchMsg>) {
        let mut cursor = OrderCursor::default();
        while let Some((i, grant)) = cursor.turn(&self.order) {
            // Ops run or skipped in this turn.
            let mut used = 0;
            if let Some(node) = nodes[self.jobs[i]].as_mut() {
                while used < grant && !node.done() && node.sweeps < self.until[i] {
                    if self.skip[i] > 0 {
                        self.skip[i] -= 1;
                    } else {
                        node.step(ctx).await;
                    }
                    used += 1;
                }
            }
            cursor.end_turn(&self.order, used > 0);
        }
    }
}

/// The one solo entry: `spec` as a batch of one on the engine, on its own
/// options' fabric and trace sink, with the [`Adaptation`] its options
/// call for, its answer read off its blocks by `answer` ([`eigen_answer`] or
/// [`svd_answer`], after `spec`'s kind). Both solo solvers of
/// [`crate::threaded`] are this.
pub(crate) fn solve_solo<R>(
    spec: &JobSpec<'_>,
    d: usize,
    answer: impl FnOnce(&Matrix, &[ColumnBlock], Tally) -> R,
) -> ThreadedRun<R> {
    let SpmdRun { results, meter, fabric } = run_nodes(
        d,
        std::slice::from_ref(spec),
        &[lower_job(spec, d)],
        spec.opts.fabric.clone(),
        &BatchOrder::Serial(vec![0]),
        spec.opts.trace.clone(),
        Some(spec.opts.adaptation),
    );
    let mut adaptive = AdaptiveReport::default();
    let (result, _) =
        assemble_job(spec, results.into_iter().flatten().collect(), &mut adaptive, answer);
    ThreadedRun { result, meter, fabric, adaptive }
}

/// What one job's nodes agree on or sum to besides its blocks, or a
/// logical solve counts: the counters every answer carries.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) sweeps: usize,
    pub(crate) rotations: u64,
    pub(crate) off_history: Vec<f64>,
    pub(crate) converged: bool,
}

/// Merges one job's per-node shares into its answer and virtual-clock
/// span — the assembly every door performs once its SPMD run returns —
/// and adds the job's relay work to `adaptive`. The answer is read off the
/// nodes' blocks by `answer`, which is the logical drivers' own assembly
/// ([`eigenpairs`], [`extract_usv_blocks`]), so it is theirs to the bit.
fn assemble_job<R>(
    spec: &JobSpec<'_>,
    mut shares: Vec<JobNodeOutput>,
    adaptive: &mut AdaptiveReport,
    answer: impl FnOnce(&Matrix, &[ColumnBlock], Tally) -> R,
) -> (R, JobSpan) {
    // Every node holds the votes' agreed values.
    let off_history = std::mem::take(&mut shares[0].off_history);
    let mut tally = Tally { sweeps: 0, rotations: 0, off_history, converged: true };
    let mut span = JobSpan { start: f64::INFINITY, finish: 0.0 };
    let mut blocks = Vec::with_capacity(2 * shares.len());
    for o in shares {
        tally.sweeps = tally.sweeps.max(o.sweeps);
        tally.rotations += o.rotations;
        tally.converged &= o.converged;
        span.start = span.start.min(o.start);
        span.finish = span.finish.max(o.finish);
        // Recalibrations are globally agreed (same count everywhere);
        // reroute work is per-origin and sums.
        adaptive.recalibrations = adaptive.recalibrations.max(o.adaptive.recalibrations);
        adaptive.reroutes += o.adaptive.reroutes;
        adaptive.rerouted_elems += o.adaptive.rerouted_elems;
        blocks.extend(o.blocks);
    }
    (answer(spec.a, &blocks, tally), span)
}

/// An eigen solve's answer: [`eigenpairs`] of its blocks.
pub(crate) fn eigen_answer(_: &Matrix, blocks: &[ColumnBlock], t: Tally) -> EigenResult {
    let (eigenvalues, eigenvectors) = eigenpairs(blocks);
    let Tally { sweeps, rotations, off_history, converged } = t;
    EigenResult { eigenvalues, eigenvectors, sweeps, rotations, off_history, converged }
}

/// An SVD solve's answer: [`extract_usv_blocks`] of its blocks.
pub(crate) fn svd_answer(a: &Matrix, blocks: &[ColumnBlock], t: Tally) -> SvdResult {
    let (singular_values, u, v) = extract_usv_blocks(blocks, a.rows(), a.cols());
    let Tally { sweeps, rotations, converged, .. } = t;
    SvdResult { singular_values, u, v, sweeps, rotations, converged }
}

/// A batch or service job's answer, of its `kind`.
fn job_answer(kind: JobKind) -> impl FnOnce(&Matrix, &[ColumnBlock], Tally) -> JobResult {
    move |a, blocks, t| match kind {
        JobKind::Eigen => JobResult::Eigen(eigen_answer(a, blocks, t)),
        JobKind::Svd => JobResult::Svd(svd_answer(a, blocks, t)),
    }
}

/// The admission script of an online service run (see
/// [`run_job_service`]): when each job arrives on the fabric's virtual
/// clock, how deep the bounded admission queue is, how many jobs may be
/// interleaved mid-flight at once, each job's admission priority, and the
/// de-phasing applied to same-key jobs.
///
/// The script is *data*, fixed before the run starts: every node reads
/// the same plan and, because sweep boundaries synchronize the virtual
/// clocks (a barrier adopts the maximum), every node makes the identical
/// admission/rejection decision at the identical boundary — the service
/// loop stays an SPMD program even though its job set changes mid-flight.
#[derive(Debug, Clone)]
pub struct ServicePlan {
    /// Arrival time of job `j` on the virtual clock, finite and
    /// non-decreasing in `j`. Throttled and degraded fabrics run that
    /// clock; a [`FabricModel::Free`] fabric runs none, so there every job
    /// is treated as already arrived (the service still bounds its queue
    /// and active set, but latencies collapse to 0).
    pub arrivals: Vec<f64>,
    /// Bounded admission queue: an arrival finding this many jobs queued
    /// is shed with [`Rejected::QueueFull`] — the backpressure signal.
    pub queue_cap: usize,
    /// At most this many jobs interleave mid-flight at once.
    pub max_active: usize,
    /// Admission priority of each job: smaller admits first (ties fall
    /// back to arrival order). Shortest-plan-first admission passes the
    /// jobs' priced solo costs (`mph_ccpipe::solo_plan_costs`) here.
    pub priority: Vec<f64>,
    /// De-phasing key: same-key jobs walk the same link sequence (same
    /// family and size), so each service round staggers them by
    /// `stagger_slots` micro-ops per rank to pull their sends onto
    /// different links of the round.
    pub stagger_key: Vec<u32>,
    /// Micro-op offset between same-key active jobs per service round
    /// (0 disables de-phasing).
    pub stagger_slots: usize,
    /// Micro-ops granted per job per pass of a service round, the
    /// round-robin stride of the merged op walk.
    pub stride: usize,
}

impl ServicePlan {
    /// The plainest service: jobs admitted in arrival order, no
    /// de-phasing, queue and active set wide enough to never shed.
    pub fn fifo(arrivals: Vec<f64>) -> Self {
        let n = arrivals.len();
        ServicePlan {
            queue_cap: n.max(1),
            max_active: n.max(1),
            priority: (0..n).map(|j| j as f64).collect(),
            stagger_key: (0..n).map(|j| j as u32).collect(),
            stagger_slots: 0,
            stride: 1,
            arrivals,
        }
    }

    fn validate(&self, njobs: usize) {
        assert_eq!(self.arrivals.len(), njobs, "one arrival time per job");
        assert_eq!(self.priority.len(), njobs, "one priority per job");
        assert_eq!(self.stagger_key.len(), njobs, "one stagger key per job");
        assert!(self.queue_cap >= 1, "a service needs at least one queue slot");
        assert!(self.max_active >= 1, "a service must run at least one job at a time");
        assert!(self.stride >= 1, "a service round must grant at least one op");
        let mut prev = 0.0f64;
        for (j, &t) in self.arrivals.iter().enumerate() {
            assert!(
                t.is_finite() && t >= prev,
                "arrival {j} ({t}) must be finite, non-negative, and non-decreasing"
            );
            prev = t;
        }
        for (j, &p) in self.priority.iter().enumerate() {
            assert!(p.is_finite(), "priority {j} ({p}) must be finite");
        }
    }
}

/// Why the service shed a job — the typed backpressure outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rejected {
    /// The bounded admission queue was full when the job arrived:
    /// `queue_depth` jobs (the cap) were already waiting at `arrival`.
    QueueFull { arrival: f64, queue_depth: usize },
}

/// Per-job outcome of a service run, on the fabric's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobOutcome {
    /// Admitted at a sweep boundary and solved to completion.
    Served { arrival: f64, admitted: f64, finish: f64 },
    /// Shed by backpressure; the job never touched the fabric.
    Rejected(Rejected),
}

impl JobOutcome {
    /// Arrival→finish latency — the SLO quantity (`None` if rejected).
    pub fn latency(&self) -> Option<f64> {
        match self {
            JobOutcome::Served { arrival, finish, .. } => Some(finish - arrival),
            JobOutcome::Rejected(_) => None,
        }
    }

    /// Time spent in the admission queue (`None` if rejected).
    pub fn queue_wait(&self) -> Option<f64> {
        match self {
            JobOutcome::Served { arrival, admitted, .. } => Some(admitted - arrival),
            JobOutcome::Rejected(_) => None,
        }
    }

    /// Whether the job was shed.
    fn is_rejected(&self) -> bool {
        matches!(self, JobOutcome::Rejected(_))
    }
}

/// One sweep-boundary snapshot: the service-level time series a dashboard
/// would plot. Identical on every node (asserted by [`run_job_service`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundarySample {
    /// The boundary's barrier-synchronized virtual time.
    pub time: f64,
    /// Jobs waiting in the admission queue after this boundary's
    /// admissions, in arrival order.
    pub queued: Vec<usize>,
    /// Jobs admitted at this boundary, in admission order.
    pub admitted: Vec<usize>,
    /// The active set after admission: `(job, sweeps completed)`.
    pub active: Vec<(usize, usize)>,
    /// Jobs completed before this boundary.
    pub completed: usize,
}

impl BoundarySample {
    /// Queue depth after this boundary's admissions.
    pub fn queue_depth(&self) -> usize {
        self.queued.len()
    }
}

/// Outcome of a service run.
#[derive(Debug)]
pub struct ServiceRun {
    /// Per-job results in job order; `None` for rejected jobs. Every
    /// served result is bitwise identical to the job's solo threaded run.
    pub results: Vec<Option<JobResult>>,
    /// Per-job outcomes in job order.
    pub outcomes: Vec<JobOutcome>,
    /// The sweep-boundary time series.
    pub boundaries: Vec<BoundarySample>,
    /// Shared traffic meter with per-job totals (rejected jobs meter 0).
    pub meter: TrafficMeter,
    /// Fabric report; its makespan is when the service drained.
    pub fabric: FabricReport,
    /// The relay work around dead links, summed over served jobs
    /// (`recalibrations` is a solo solve's: always 0 here).
    pub adaptive: AdaptiveReport,
}

impl ServiceRun {
    /// Number of jobs served to completion.
    pub fn served(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.is_rejected()).count()
    }

    /// Number of jobs shed by backpressure.
    pub fn rejected(&self) -> usize {
        self.outcomes.len() - self.served()
    }
}

/// One node's record of a service run: per-job outputs plus the admission
/// trace, which must come out identical on every node.
#[derive(Default)]
struct NodeService {
    outputs: Vec<Option<JobNodeOutput>>,
    admitted_at: Vec<Option<f64>>,
    rejected: Vec<Option<Rejected>>,
    boundaries: Vec<BoundarySample>,
}

/// One node's service loop (see [`run_job_service`]): a sweep-boundary
/// barrier, intake and admission, then one service round, until the
/// service drains.
struct ServiceNode<'a> {
    plan: &'a ServicePlan,
    run: &'a Run<'a>,
    /// Whether the fabric has a machine, and so a clock to read arrivals on.
    clocked: bool,
    nodes: Vec<Option<JobNode<'a>>>,
    queue: Vec<usize>,
    active: Vec<usize>,
    next_arrival: usize,
    completed: usize,
    log: NodeService,
}

impl<'a> ServiceNode<'a> {
    async fn serve(mut self, ctx: &NodeCtx<'_, BatchMsg>) -> NodeService {
        loop {
            // 1. Sweep boundary: one shared clock across the cube.
            ctx.barrier().await;
            if self.active.is_empty() && self.queue.is_empty() {
                let Some(&arrival) = self.plan.arrivals.get(self.next_arrival) else { break };
                ctx.advance_clock_to(arrival);
            }
            self.admit(ctx).walk(&mut self.nodes, ctx).await;
            self.retire();
        }
        // Drained.
        self.log.outputs = self.nodes.into_iter().map(|n| n.map(JobNode::into_output)).collect();
        self.log
    }

    /// Steps 2 and 3 of a boundary, intake and admission, and the round
    /// they leave: every active job one sweep further, same-key jobs
    /// burning `plan.stagger_slots` skip turns per rank first.
    fn admit(&mut self, ctx: &NodeCtx<'_, BatchMsg>) -> Round {
        let plan = self.plan;
        let now = ctx.virtual_now();
        // Only a free fabric runs no clock: there every job has "arrived".
        let horizon = if self.clocked { now } else { f64::INFINITY };
        let trace = |event: &dyn Fn() -> TraceEvent| {
            if ctx.id() == 0 {
                ctx.trace_event(event);
            }
        };

        // Intake and admission, interleaved in arrival order: an arrival
        // finding the active set with room is admitted straight through
        // (the queue never holds it); one finding the queue full is shed.
        // Between arrivals the queued job with the smallest priority (ties
        // to the earlier arrival) takes any freed capacity — the
        // preemption-free SPF discipline.
        let mut admitted: Vec<usize> = Vec::new();
        loop {
            while self.active.len() < plan.max_active {
                let Some(pick) = (0..self.queue.len()).min_by(|&a, &b| {
                    let (ja, jb) = (self.queue[a], self.queue[b]);
                    plan.priority[ja].total_cmp(&plan.priority[jb]).then(ja.cmp(&jb))
                }) else {
                    break;
                };
                let j = self.queue.remove(pick);
                self.nodes[j] = Some(JobNode::new(j, self.run, ctx.id()));
                self.log.admitted_at[j] = Some(now);
                self.active.push(j);
                admitted.push(j);
                let queue_depth = self.queue.len();
                trace(&|| TraceEvent::Admit { job: j as u32, time: now, queue_depth });
            }
            let j = self.next_arrival;
            match plan.arrivals.get(j) {
                Some(&arrival) if arrival <= horizon => self.next_arrival += 1,
                _ => break,
            }
            let queue_depth = self.queue.len();
            if queue_depth >= plan.queue_cap {
                let arrival = plan.arrivals[j];
                self.log.rejected[j] = Some(Rejected::QueueFull { arrival, queue_depth });
                trace(&|| TraceEvent::Reject { job: j as u32, time: arrival, queue_depth });
            } else {
                self.queue.push(j);
            }
        }

        let sweeps = |j: usize| self.nodes[j].as_ref().map_or(0, |node| node.sweeps);
        self.log.boundaries.push(BoundarySample {
            time: now,
            queued: self.queue.clone(),
            admitted,
            active: self.active.iter().map(|&j| (j, sweeps(j))).collect(),
            completed: self.completed,
        });

        let mut round = Round::new(
            BatchOrder::RoundRobin { order: (0..self.active.len()).collect(), stride: plan.stride },
            self.active.clone(),
        );
        for (i, &j) in self.active.iter().enumerate() {
            let key = plan.stagger_key[j];
            let rank = self.active[..i].iter().filter(|&&o| plan.stagger_key[o] == key).count();
            let slots = rank * plan.stagger_slots;
            if slots > 0 {
                trace(&|| TraceEvent::Stagger { job: j as u32, slots, time: now });
            }
            round.skip[i] = slots;
            round.until[i] = sweeps(j) + 1;
        }
        round
    }

    /// Step 4's end: jobs that finished (convergence vote or budget) leave
    /// the active set.
    fn retire(&mut self) {
        let nodes = &self.nodes;
        let before = self.active.len();
        self.active.retain(|&j| !nodes[j].as_ref().is_some_and(JobNode::done));
        self.completed += before - self.active.len();
    }
}

/// Runs an *online* job service on one `d`-cube sharing one
/// `fabric`: jobs arrive on the virtual clock per `plan.arrivals`, wait in
/// a bounded queue, and join the running mix at sweep boundaries.
///
/// The service loop per node:
/// 1. **Sweep boundary** — a barrier synchronizes every node's virtual
///    clock to the maximum, so all nodes share one notion of "now". If
///    the fabric is idle (nothing active or queued), the clock skips
///    forward to the next arrival.
/// 2. **Intake** — every job with `arrival ≤ now` joins the bounded
///    queue; arrivals finding it full are shed with
///    [`Rejected::QueueFull`]. (A throttled or degraded fabric runs the
///    clock; on a free fabric it never moves, so all arrivals are taken at
///    the first boundary.)
/// 3. **Admission** — while the active set has room, the queued job with
///    the smallest `plan.priority` (ties to the earlier arrival) is
///    admitted, preemption-free: its `JobNode` is built and joins the
///    interleave at the *next* micro-op, never mid-sweep.
/// 4. **Service round** — every active job advances exactly one sweep,
///    round-robin with `plan.stride` micro-ops per turn; same-key jobs
///    are staggered by `plan.stagger_slots` micro-ops per rank, which
///    de-phases identical link walks onto different wires. Jobs that
///    finish (convergence vote or budget) retire at the round's end.
///
/// Every decision above is a function of barrier-synced time and the
/// shared `plan`, so all nodes run the same merged op sequence and the
/// batch driver's pairing guarantees carry over unchanged — including
/// bitwise equality of every served job with its solo run.
///
/// Each boundary's barrier advances the fabric epoch, so a service runs
/// one epoch per round: on a [`FabricModel::Degraded`] fabric a round's
/// sweeps relay around the links dead at its epoch, a death scheduled
/// mid-service taking effect at the round it lands in.
///
/// Besides the fabric's link/barrier events, `sink` receives every
/// admission decision — [`TraceEvent::Admit`] / [`TraceEvent::Reject`] at
/// sweep boundaries and [`TraceEvent::Stagger`] skip assignments.
/// Admission state is barrier-synced and identical on every node (asserted
/// below), so those events are recorded by node 0 only — one lane is the
/// record, not 2^d copies. Tracing never changes results.
pub fn run_job_service(
    d: usize,
    jobs: &[JobSpec<'_>],
    lowered: &[(Vec<CommPlan>, Vec<Vec<usize>>)],
    fabric: FabricModel,
    plan: &ServicePlan,
    sink: SinkHandle,
) -> ServiceRun {
    let run = Run::new(d, jobs, lowered, &fabric, None);
    plan.validate(jobs.len());
    let njobs = jobs.len();
    let clocked = fabric.machine().is_some();

    let spmd = Spmd { fabric, njobs, trace: sink };
    let SpmdRun { results: mut node_logs, meter, fabric } = run_spmd(d, spmd, async |ctx| {
        let node = ServiceNode {
            plan,
            run: &run,
            clocked,
            nodes: (0..njobs).map(|_| None).collect(),
            queue: Vec::new(),
            active: Vec::new(),
            next_arrival: 0,
            completed: 0,
            log: NodeService {
                admitted_at: vec![None; njobs],
                rejected: vec![None; njobs],
                ..NodeService::default()
            },
        };
        node.serve(ctx).await
    });

    // The admission trace is a function of barrier-synced state, so every
    // node must have recorded the same one; node 0's is the record.
    let log0 = &node_logs[0];
    for (n, log) in node_logs.iter().enumerate().skip(1) {
        assert_eq!(log.admitted_at, log0.admitted_at, "node {n} admitted differently");
        assert_eq!(log.rejected, log0.rejected, "node {n} rejected differently");
        assert_eq!(log.boundaries, log0.boundaries, "node {n} saw different boundaries");
    }

    let mut outputs: Vec<_> =
        node_logs.iter_mut().map(|log| std::mem::take(&mut log.outputs)).collect();
    let log0 = node_logs.swap_remove(0);
    let mut results: Vec<Option<JobResult>> = Vec::with_capacity(njobs);
    let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(njobs);
    let mut adaptive = AdaptiveReport::default();
    for (j, spec) in jobs.iter().enumerate() {
        if let Some(rej) = log0.rejected[j] {
            results.push(None);
            outcomes.push(JobOutcome::Rejected(rej));
            continue;
        }
        let shares = outputs.iter_mut().map(|o| o[j].take().expect("admitted on every node"));
        let (result, span) =
            assemble_job(spec, shares.collect(), &mut adaptive, job_answer(spec.kind));
        let admitted = log0.admitted_at[j].expect("a job is admitted or rejected");
        // A zero-budget job never steps, so its span is empty; it
        // finishes the moment it is admitted.
        let finish = span.finish.max(admitted);
        // Served instants live on the virtual clock; only a free fabric
        // runs none, so there everything happens at 0 and latencies vanish.
        let arrival = if clocked { plan.arrivals[j] } else { 0.0 };
        results.push(Some(result));
        outcomes.push(JobOutcome::Served { arrival, admitted, finish });
    }
    ServiceRun { results, outcomes, boundaries: log0.boundaries, meter, fabric, adaptive }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockjacobi::block_jacobi;
    use crate::options::Pipelining;
    use crate::svd::svd_block;
    use crate::threaded::{block_jacobi_threaded, svd_block_threaded};
    use mph_ccpipe::Machine;
    use mph_linalg::matmul::eigen_residual;
    use mph_linalg::symmetric::random_symmetric;

    fn lower_all(jobs: &[JobSpec], d: usize) -> Vec<(Vec<CommPlan>, Vec<Vec<usize>>)> {
        jobs.iter().map(|s| lower_job(s, d)).collect()
    }

    /// One BR eigen job per matrix, all under `opts`.
    fn br_jobs<'a>(mats: &'a [Matrix], opts: &JacobiOptions) -> Vec<JobSpec<'a>> {
        mats.iter().map(|a| JobSpec::eigen(a, OrderingFamily::Br, opts.clone())).collect()
    }

    #[test]
    fn a_job_is_priced_once_per_distinct_plan_and_reads_as_if_priced_per_sweep() {
        // Even partitions bring the same traffic back every d sweeps;
        // uneven ones (36 and 18 columns on 8 blocks) mostly do not.
        let auto = Pipelining::Auto(Machine::paper_figure2());
        let opts = JacobiOptions { pipelining: auto, tail_pipelining: auto, ..Default::default() };
        for (m, d) in [(64usize, 3usize), (36, 2), (18, 2), (8, 1)] {
            let (a, q_cap) = (random_symmetric(m, 3), packetization_cap(m, d));
            for family in OrderingFamily::ALL {
                let spec = JobSpec::eigen(&a, family, opts.clone());
                let lowered = [lower_job(&spec, d)];
                let run =
                    Run::new(d, std::slice::from_ref(&spec), &lowered, &FabricModel::Free, None);
                let (plans, qs) = &lowered[0];
                for (s, plan) in plans.iter().enumerate() {
                    assert_eq!(qs[s], choose_qs(plan, &auto, q_cap), "{family} m={m} sweep {s}");
                    let framing = plan.framing(&qs[s], choose_tail_qs(plan, &auto, q_cap));
                    assert_eq!(run.jobs[0].framings[s], framing, "{family} m={m} sweep {s}");
                }
                let mut priced = 0;
                let same = |t: usize, s: usize| plans[t].same_traffic(&plans[s]);
                once_per_distinct(plans.len(), same, |_| priced += 1);
                assert!(priced == d || m % (2 << d) != 0, "{family} m={m} d={d}: {priced}");
            }
        }
    }

    #[test]
    fn every_stretch_cuts_each_node_a_script_its_neighbors_match() {
        // Seeded death schedules on d = 2..=4. At every stretch of epochs:
        // exactly the two endpoints of each dead edge park their payload
        // across its dimension; every hop a node sends across `h` is one
        // its neighbor across `h` receives; and each direction of each
        // dead edge leaves its origin once and is delivered once.
        use mph_runtime::{LinkDeath, ScenarioSpec};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        fn count(hops: &[Hop], pick: impl Fn(Hop) -> bool) -> usize {
            hops.iter().filter(|&&hop| pick(hop)).count()
        }
        let mut rng = StdRng::seed_from_u64(39);
        let mut stretches = 0;
        for d in 2..=4usize {
            for _ in 0..24 {
                let deaths = (0..rng.gen_range(1..=d)).map(|_| LinkDeath {
                    node: rng.gen_range(0..1 << d),
                    dim: rng.gen_range(0..d),
                    epoch: rng.gen_range(0..3),
                });
                let machine = Machine::all_port(1000.0, 100.0);
                let spec =
                    ScenarioSpec { deaths: deaths.collect(), ..ScenarioSpec::clean(1, machine) };
                // A schedule that disconnects the cube is refused up front.
                let Ok(sc) = Scenario::new(d, spec) else { continue };
                let relays = Relays::new(d, Some(&sc));
                let keys: Vec<usize> = relays.0.iter().map(|&(epoch, _)| epoch).collect();
                assert_eq!(keys, sc.death_epochs(), "d={d}: one table per stretch");
                for (epoch, scripts) in &relays.0 {
                    stretches += 1;
                    let dead = sc.dead_edges(*epoch);
                    for (n, node) in scripts.iter().enumerate() {
                        for (link, script) in node.iter().enumerate() {
                            let what = format!("d={d} epoch {epoch} node {n} link {link}");
                            let own = dead.contains(&(n.min(n ^ (1 << link)), link));
                            assert_eq!(script.dead, own, "{what}: dead");
                            let hops = &script.hops;
                            let origins =
                                count(hops, |h| matches!(h, Hop::Send { origin: true, .. }));
                            let delivered =
                                count(hops, |h| matches!(h, Hop::Recv { delivers: true, .. }));
                            assert_eq!((origins, delivered), (own.into(), own.into()), "{what}");
                            for h in 0..d {
                                let peer = &scripts[n ^ (1 << h)][link].hops;
                                let sends =
                                    count(hops, |x| matches!(x, Hop::Send { dim, .. } if dim == h));
                                let recvs =
                                    count(peer, |x| matches!(x, Hop::Recv { dim, .. } if dim == h));
                                assert_eq!(sends, recvs, "{what}: hops across {h}");
                            }
                        }
                    }
                }
            }
        }
        assert!(stretches >= 40, "only {stretches} stretches drawn");
    }

    /// An untraced batch of freshly lowered `jobs`.
    fn batch(d: usize, jobs: &[JobSpec], fabric: FabricModel, order: &BatchOrder) -> BatchRun {
        run_job_batch(d, jobs, &lower_all(jobs, d), fabric, order, SinkHandle::nop())
    }

    /// An untraced service run.
    fn service(
        d: usize,
        jobs: &[JobSpec],
        lowered: &[(Vec<CommPlan>, Vec<Vec<usize>>)],
        fabric: FabricModel,
        plan: &ServicePlan,
    ) -> ServiceRun {
        run_job_service(d, jobs, lowered, fabric, plan, SinkHandle::nop())
    }

    fn assert_eigen_bitwise(a: &EigenResult, b: &EigenResult, what: &str) {
        assert_eq!(a.rotations, b.rotations, "{what}: rotations");
        assert_eq!(a.sweeps, b.sweeps, "{what}: sweeps");
        for c in 0..a.eigenvalues.len() {
            assert_eq!(a.eigenvalues[c], b.eigenvalues[c], "{what}: λ_{c}");
            assert_eq!(a.eigenvectors.col(c), b.eigenvectors.col(c), "{what}: u_{c}");
        }
    }

    #[test]
    fn unforced_jobs_stop_where_their_logical_solves_stop_in_a_batch_and_in_service() {
        // Two unforced eigen jobs of different shape, interleaved op by op
        // on a throttled all-port fabric and then served mid-flight: each
        // sums its own residuals through the shared links, so each stops
        // at its logical solve's sweep with its bits — the voted values
        // being the logical `off_history` past the pre-sweep entry.
        let d = 2;
        let mats = [random_symmetric(18, 71), random_symmetric(24, 72)];
        let cached = JacobiOptions { cache_diagonals: true, ..Default::default() };
        let jobs = [
            JobSpec::eigen(&mats[0], OrderingFamily::PermutedBr, JacobiOptions::default()),
            JobSpec::eigen(&mats[1], OrderingFamily::Degree4, cached),
        ];
        let fabric = FabricModel::Throttled(Machine::all_port(1000.0, 100.0));
        let order = BatchOrder::RoundRobin { order: vec![0, 1], stride: 1 };
        let run = batch(d, &jobs, fabric.clone(), &order);
        let plan = ServicePlan::fifo(vec![0.0, 0.0]);
        let served = service(d, &jobs, &lower_all(&jobs, d), fabric, &plan);
        for (j, spec) in jobs.iter().enumerate() {
            let logical = block_jacobi(spec.a, d, spec.family, &spec.opts);
            assert!(logical.converged && logical.sweeps > 2, "job {j}");
            let served = served.results[j].as_ref().and_then(JobResult::eigen);
            for (what, got) in [("batch", run.results[j].eigen()), ("service", served)] {
                let got = got.expect("an eigen result");
                assert_eigen_bitwise(got, &logical, what);
                assert!(got.converged, "{what} job {j}");
                assert_eq!(got.off_history, logical.off_history[1..], "{what} job {j}");
            }
        }
    }

    fn assert_svd_bitwise(a: &SvdResult, b: &SvdResult, what: &str) {
        assert_eq!(a.rotations, b.rotations, "{what}: rotations");
        assert_eq!(a.sweeps, b.sweeps, "{what}: sweeps");
        for c in 0..a.singular_values.len() {
            assert_eq!(a.singular_values[c], b.singular_values[c], "{what}: σ_{c}");
            assert_eq!(a.u.col(c), b.u.col(c), "{what}: u_{c}");
            assert_eq!(a.v.col(c), b.v.col(c), "{what}: v_{c}");
        }
    }

    #[test]
    fn single_eigen_job_batch_is_the_solo_threaded_run_bitwise() {
        // A solo solve is a one-job engine pass: same bits, and the meter
        // comes back through `ThreadedRun` intact.
        let auto = Pipelining::Auto(Machine::paper_figure2());
        let mut inputs = Vec::new();
        for cache in [false, true] {
            for q in [Pipelining::Off, Pipelining::Fixed(3)] {
                let opts = JacobiOptions {
                    force_sweeps: Some(2),
                    cache_diagonals: cache,
                    pipelining: q,
                    ..Default::default()
                };
                inputs.push((random_symmetric(16, 90), opts, vec![1usize, 2]));
            }
        }
        // Free-running on an uneven partition, both pipelines cost-model
        // scheduled: votes, per-plan tail degrees and ragged packets.
        let free_running =
            JacobiOptions { pipelining: auto, tail_pipelining: auto, ..Default::default() };
        inputs.push((random_symmetric(40, 91), free_running, vec![2]));
        for (a, opts, ds) in inputs {
            for d in ds {
                for family in [OrderingFamily::Br, OrderingFamily::Degree4] {
                    let ThreadedRun { result: solo, meter: solo_meter, .. } =
                        block_jacobi_threaded(&a, d, family, &opts);
                    let run = batch(
                        d,
                        &[JobSpec::eigen(&a, family, opts.clone())],
                        FabricModel::Free,
                        &BatchOrder::Serial(vec![0]),
                    );
                    let what = format!("{family} m={} d={d} {opts:?}", a.cols());
                    let got = run.results[0].eigen().expect("eigen job");
                    assert_eigen_bitwise(got, &solo, &what);
                    assert_eq!(run.meter.volume_by_dim(), solo_meter.volume_by_dim(), "{what}");
                    assert_eq!(run.meter.total_messages(), solo_meter.total_messages(), "{what}");
                    assert_eq!(
                        run.meter.total_control_messages(),
                        solo_meter.total_control_messages(),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn interleaved_jobs_on_one_node_each_equal_their_logical_solve() {
        // d = 0: one node holds both blocks of every job (m = 40 → 20
        // columns, 3 tiles each). Interleaved micro-op by micro-op on that
        // node, every job still equals its solo logical solve bit for bit.
        let mats: Vec<Matrix> = (0..3).map(|i| random_symmetric(40, 300 + i)).collect();
        let opts = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
        let jobs = [
            JobSpec::eigen(&mats[0], OrderingFamily::Br, opts.clone()),
            JobSpec::svd(&mats[1], OrderingFamily::Br, opts.clone()),
            JobSpec::eigen(&mats[2], OrderingFamily::Br, opts),
        ];
        let order = BatchOrder::RoundRobin { order: vec![2, 0, 1], stride: 1 };
        let run = batch(0, &jobs, FabricModel::Free, &order);
        for (i, spec) in jobs.iter().enumerate() {
            match &run.results[i] {
                JobResult::Eigen(got) => {
                    let solo = block_jacobi(spec.a, 0, spec.family, &spec.opts);
                    assert_eigen_bitwise(got, &solo, &format!("job {i}"));
                }
                JobResult::Svd(got) => {
                    let solo = svd_block(spec.a, 0, spec.family, &spec.opts);
                    assert_svd_bitwise(got, &solo, &format!("job {i}"));
                }
            }
        }
    }

    #[test]
    fn svd_block_threaded_equals_logical_svd_block_bitwise() {
        // The ROADMAP item: the SVD on the threaded/pipelined phase
        // machine, bitwise-equal to the logical block driver — whole-block
        // and packetized, cache on and off.
        let a = random_symmetric(16, 33);
        for cache in [false, true] {
            for q in [Pipelining::Off, Pipelining::Fixed(2), Pipelining::Fixed(5)] {
                let opts = JacobiOptions {
                    force_sweeps: Some(2),
                    cache_diagonals: cache,
                    pipelining: q,
                    ..Default::default()
                };
                for d in [1usize, 2] {
                    for family in OrderingFamily::ALL {
                        let logical = svd_block(&a, d, family, &opts);
                        let threaded = svd_block_threaded(&a, d, family, &opts).result;
                        assert_svd_bitwise(
                            &threaded,
                            &logical,
                            &format!("{family} d={d} cache={cache} {q:?}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn svd_block_threaded_converges_free_running() {
        let a = random_symmetric(12, 7);
        let r =
            svd_block_threaded(&a, 1, OrderingFamily::PermutedBr, &JacobiOptions::default()).result;
        assert!(r.converged);
        let reference = svd_block(&a, 1, OrderingFamily::PermutedBr, &JacobiOptions::default());
        assert_svd_bitwise(&r, &reference, "free-running");
    }

    #[test]
    fn a_tall_svd_job_is_bitwise_its_logical_solve_solo_batched_and_served() {
        // Every other engine input is square. Here the `W`-columns are 7
        // elements longer than the `V`-columns, so a block's payload, its
        // packets and the assembled `U` are rectangular: solo, interleaved
        // with an eigen job, and served, the job keeps its logical bits.
        let n = 12;
        let square = random_symmetric(n + 7, 37);
        let tall = Matrix::from_fn(n + 7, n, |r, c| square[(r, c)]);
        let a = random_symmetric(16, 38);
        let (d, family) = (2, OrderingFamily::PermutedBr);
        let fabric = FabricModel::Throttled(Machine::all_port(1000.0, 100.0));
        for pipelining in [Pipelining::Off, Pipelining::Fixed(2)] {
            let opts = JacobiOptions { force_sweeps: Some(2), pipelining, ..Default::default() };
            let logical = svd_block(&tall, d, family, &opts);
            assert_eq!((logical.u.rows(), logical.u.cols()), (n + 7, n));
            let solo = svd_block_threaded(&tall, d, family, &opts).result;
            assert_svd_bitwise(&solo, &logical, &format!("solo {pipelining:?}"));
            let jobs = [
                JobSpec::eigen(&a, OrderingFamily::Br, opts.clone()),
                JobSpec::svd(&tall, family, opts.clone()),
            ];
            let order = BatchOrder::RoundRobin { order: vec![0, 1], stride: 1 };
            let run = batch(d, &jobs, fabric.clone(), &order);
            let got = run.results[1].svd().expect("svd");
            assert_svd_bitwise(got, &logical, &format!("batch {pipelining:?}"));
            let plan = ServicePlan::fifo(vec![0.0, 0.0]);
            let served = service(d, &jobs, &lower_all(&jobs, d), fabric.clone(), &plan);
            let got = served.results[1].as_ref().and_then(JobResult::svd).expect("served");
            assert_svd_bitwise(got, &logical, &format!("service {pipelining:?}"));
        }
    }

    #[test]
    fn solo_svd_on_a_degraded_fabric_runs_sweep_s_at_epoch_s() {
        // The SVD rides the same solo hooks as the eigensolver: with a
        // link death scheduled at epoch 1, sweep 0 crosses the edge
        // directly and sweeps ≥ 1 relay around it — which needs the
        // per-sweep epoch barrier, the relay script and the sweep markers.
        use mph_runtime::{LinkDeath, RingSink, ScenarioSpec};
        let a = random_symmetric(16, 35);
        let (d, sweeps) = (2usize, 3usize);
        let spec = ScenarioSpec {
            epochs: 4,
            deaths: vec![LinkDeath { node: 0, dim: 0, epoch: 1 }],
            ..ScenarioSpec::clean(3, Machine::all_port(500.0, 10.0))
        };
        let ring = Arc::new(RingSink::new(d, 1 << 14));
        let opts = JacobiOptions {
            force_sweeps: Some(sweeps),
            fabric: FabricModel::Degraded(Arc::new(Scenario::new(d, spec).expect("valid"))),
            trace: SinkHandle::new(ring.clone()),
            ..Default::default()
        };
        let ThreadedRun { result: threaded, adaptive, .. } =
            svd_block_threaded(&a, d, OrderingFamily::Br, &opts);
        let logical = svd_block(&a, d, OrderingFamily::Br, &opts);
        assert_svd_bitwise(&threaded, &logical, "degraded solo svd");
        let lanes = ring.drain();
        assert_eq!(lanes.len(), 1 << d);
        let count = |lane: &[TraceEvent], pick: fn(&TraceEvent) -> bool| {
            lane.iter().filter(|e| pick(e)).count()
        };
        for (n, lane) in lanes.iter().enumerate() {
            let begins = count(lane, |e| matches!(e, TraceEvent::SweepBegin { .. }));
            let ends = count(lane, |e| matches!(e, TraceEvent::SweepEnd { .. }));
            assert_eq!((begins, ends), (sweeps, sweeps), "node {n}: one marker pair per sweep");
        }
        let relays: usize =
            lanes.iter().map(|lane| count(lane, |e| matches!(e, TraceEvent::Relay { .. }))).sum();
        assert!(relays >= 1, "sweeps at epochs ≥ 1 must relay around the dead edge");
        assert_eq!(adaptive.reroutes, relays as u64, "the SVD reports its relays like the eigen");
    }

    #[test]
    fn two_traced_runs_into_a_small_ring_keep_the_tail_of_each_nodes_stream() {
        // Each node's book records into its own lane, bounded at the ring's
        // cap, and the run appends it to the ring's lane when it returns. A
        // pipelined solve that overflows the cap, then a whole-block one
        // that does not, leave every node the last `cap` events of its two
        // streams and count all of them — what the same two solves leave
        // in a ring that keeps everything.
        use mph_runtime::RingSink;
        let (d, cap) = (2usize, 40usize);
        let a = random_symmetric(16, 41);
        let solve = |sweeps, pipelining, ring: &Arc<RingSink>| {
            let opts = JacobiOptions {
                force_sweeps: Some(sweeps),
                pipelining,
                fabric: FabricModel::Throttled(Machine::paper_figure2()),
                trace: SinkHandle::new(ring.clone()),
                ..Default::default()
            };
            block_jacobi_threaded(&a, d, OrderingFamily::Br, &opts);
        };
        let runs = [(2, Pipelining::Fixed(2)), (1, Pipelining::Off)];
        let new_ring = |cap| Arc::new(RingSink::new(d, cap));
        let (small, whole) = (new_ring(cap), new_ring(1 << 16));
        let mut alone = Vec::new();
        for (sweeps, pipelining) in runs {
            let ring = new_ring(1 << 16);
            solve(sweeps, pipelining, &ring);
            alone.push(ring.drain());
            solve(sweeps, pipelining, &small);
            solve(sweeps, pipelining, &whole);
        }
        let whole = whole.drain();
        let recorded: usize = whole.iter().map(Vec::len).sum();
        assert_eq!(small.total_recorded(), recorded as u64, "the count spans both runs");
        for (n, lane) in small.drain().iter().enumerate() {
            let (one, two) = (&alone[0][n], &alone[1][n]);
            assert!(one.len() > cap && two.len() < cap, "node {n}: {} {}", one.len(), two.len());
            assert_eq!(whole[n], [&one[..], &two[..]].concat(), "node {n}: run one, then two");
            assert_eq!(lane[..], whole[n][whole[n].len() - cap..], "node {n}");
        }
    }

    #[test]
    fn interleaved_mixed_batch_is_bitwise_solo_per_job() {
        // The tentpole invariant in miniature: an eigen job and an SVD job
        // interleaved op-by-op over one fabric each produce exactly their
        // solo bits — under a throttled fabric too.
        let a0 = random_symmetric(16, 1);
        let a1 = random_symmetric(12, 2);
        let opts = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
        let d = 2;
        let jobs = [
            JobSpec::eigen(&a0, OrderingFamily::Br, opts.clone()),
            JobSpec::svd(&a1, OrderingFamily::Degree4, opts.clone()),
        ];
        let solo_e = block_jacobi(&a0, d, OrderingFamily::Br, &opts);
        let solo_s = svd_block(&a1, d, OrderingFamily::Degree4, &opts);
        for fabric in [FabricModel::Free, FabricModel::Throttled(Machine::all_port(1000.0, 100.0))]
        {
            for stride in [1usize, 2] {
                let order = BatchOrder::RoundRobin { order: vec![0, 1], stride };
                let run = batch(d, &jobs, fabric.clone(), &order);
                assert_eigen_bitwise(
                    run.results[0].eigen().expect("eigen"),
                    &solo_e,
                    &format!("eigen stride={stride}"),
                );
                assert_svd_bitwise(
                    run.results[1].svd().expect("svd"),
                    &solo_s,
                    &format!("svd stride={stride}"),
                );
            }
        }
    }

    #[test]
    fn per_job_traffic_is_metered_apart_and_sums_to_the_blend() {
        let a0 = random_symmetric(16, 5);
        let a1 = random_symmetric(16, 6);
        let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        let d = 2;
        let jobs = [
            JobSpec::eigen(&a0, OrderingFamily::Br, opts.clone()),
            JobSpec::eigen(&a1, OrderingFamily::PermutedBr, opts.clone()),
        ];
        let order = BatchOrder::RoundRobin { order: vec![0, 1], stride: 1 };
        let run = batch(d, &jobs, FabricModel::Free, &order);
        // Each job's metered volume equals its solo run's.
        for (j, (family, a)) in
            [(OrderingFamily::Br, &a0), (OrderingFamily::PermutedBr, &a1)].iter().enumerate()
        {
            let solo_meter = block_jacobi_threaded(a, d, *family, &opts).meter;
            assert_eq!(run.meter.job_volume(j), solo_meter.total_volume(), "job {j}");
        }
        assert_eq!(
            run.meter.job_volume(0) + run.meter.job_volume(1),
            run.meter.total_volume(),
            "per-job volumes partition the blend"
        );
        // Forced sweeps cast no votes: the control plane stays silent.
        assert_eq!(run.meter.total_control_messages(), 0);
    }

    #[test]
    fn interleaving_fills_bubbles_on_the_throttled_all_port_fabric() {
        // Two jobs with different link sequences: the interleaved batch
        // must beat FIFO-serial on the virtual clock (all-port), and each
        // job's span must sit inside the batch makespan.
        let a0 = random_symmetric(32, 11);
        let a1 = random_symmetric(32, 12);
        let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        let d = 2;
        let machine = Machine::all_port(1000.0, 100.0);
        let fabric = FabricModel::Throttled(machine);
        let jobs = [
            JobSpec::eigen(&a0, OrderingFamily::Br, opts.clone()),
            JobSpec::eigen(&a1, OrderingFamily::Degree4, opts.clone()),
        ];
        let serial = batch(d, &jobs, fabric.clone(), &BatchOrder::Serial(vec![0, 1]));
        let inter =
            batch(d, &jobs, fabric, &BatchOrder::RoundRobin { order: vec![0, 1], stride: 1 });
        assert!(
            inter.fabric.makespan < serial.fabric.makespan,
            "interleaved {} vs serial {}",
            inter.fabric.makespan,
            serial.fabric.makespan
        );
        for span in &inter.spans {
            assert!(span.finish <= inter.fabric.makespan + 1e-9);
            assert!(span.start >= 0.0 && span.finish > span.start);
        }
        // Serial spans tile the serial makespan: job 1 starts where job 0
        // ended (up to barrier-free node skew).
        assert!(serial.spans[1].start >= serial.spans[0].start);
        assert!(
            (serial.spans[1].finish - serial.fabric.makespan).abs() < 1e-9,
            "last serial job ends the batch"
        );
    }

    #[test]
    fn batch_results_are_numerically_sound() {
        // Beyond bitwise parity: a free-running mixed batch converges and
        // reconstructs.
        let a0 = random_symmetric(16, 21);
        let a1 = random_symmetric(10, 22);
        let jobs = [
            JobSpec::eigen(&a0, OrderingFamily::PermutedBr, JacobiOptions::default()),
            JobSpec::svd(&a1, OrderingFamily::Br, JacobiOptions::default()),
        ];
        let order = BatchOrder::RoundRobin { order: vec![0, 1], stride: 1 };
        let run = batch(2, &jobs, FabricModel::Free, &order);
        let e = run.results[0].eigen().expect("eigen");
        assert!(e.converged);
        assert!(eigen_residual(&a0, &e.eigenvectors, &e.eigenvalues) < 1e-6);
        let s = run.results[1].svd().expect("svd");
        assert!(s.converged);
        let rec = s.reconstruct();
        let mut err = 0.0f64;
        for c in 0..a1.cols() {
            for r in 0..a1.rows() {
                err += (a1[(r, c)] - rec[(r, c)]).powi(2);
            }
        }
        assert!(err.sqrt() < 1e-8, "reconstruction error {}", err.sqrt());
    }

    #[test]
    fn service_of_one_job_is_the_solo_run_bitwise() {
        let a = random_symmetric(16, 61);
        let opts = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
        let d = 2;
        let solo = block_jacobi_threaded(&a, d, OrderingFamily::Br, &opts).result;
        let jobs = [JobSpec::eigen(&a, OrderingFamily::Br, opts.clone())];
        let lowered = lower_all(&jobs, d);
        for fabric in [FabricModel::Free, FabricModel::Throttled(Machine::all_port(1000.0, 100.0))]
        {
            let run = service(d, &jobs, &lowered, fabric.clone(), &ServicePlan::fifo(vec![0.0]));
            assert_eq!(run.served(), 1);
            assert_eq!(run.rejected(), 0);
            let got = run.results[0].as_ref().and_then(JobResult::eigen).expect("served");
            assert_eigen_bitwise(got, &solo, "service of one");
        }
    }

    #[test]
    fn mid_flight_admission_keeps_every_job_bitwise_solo() {
        // Job 1 arrives while job 0 is mid-run: it must join at a sweep
        // boundary (admitted strictly after its arrival and after the
        // service started job 0), and both results stay bitwise solo. A
        // death-free degraded fabric runs a clock too, and the service
        // reads arrivals against it exactly as on a throttled one.
        use mph_runtime::ScenarioSpec;
        let a0 = random_symmetric(16, 71);
        let a1 = random_symmetric(12, 72);
        let opts = JacobiOptions { force_sweeps: Some(3), ..Default::default() };
        let d = 2;
        let jobs = [
            JobSpec::eigen(&a0, OrderingFamily::Br, opts.clone()),
            JobSpec::svd(&a1, OrderingFamily::Degree4, opts.clone()),
        ];
        let lowered = lower_all(&jobs, d);
        let machine = Machine::all_port(1000.0, 100.0);
        let spec = ScenarioSpec { hetero_spread: 1.0, ..ScenarioSpec::clean(5, machine) };
        let degraded = Scenario::new(d, spec).expect("a death-free scenario");
        let solo_e = block_jacobi_threaded(&a0, d, OrderingFamily::Br, &opts).result;
        let solo_s = svd_block(&a1, d, OrderingFamily::Degree4, &opts);
        let fabrics = [
            ("throttled", FabricModel::Throttled(machine)),
            ("degraded", FabricModel::Degraded(Arc::new(degraded))),
        ];
        for (what, fabric) in fabrics {
            // First measure job 0 alone to place job 1's arrival mid-run.
            let probe = ServicePlan::fifo(vec![0.0]);
            let probe = service(d, &jobs[..1], &lowered[..1], fabric.clone(), &probe);
            let mid = run_outcome_finish(&probe.outcomes[0]) * 0.4;
            let run = service(d, &jobs, &lowered, fabric, &ServicePlan::fifo(vec![0.0, mid]));
            assert_eq!(run.served(), 2, "{what}");
            match run.outcomes[1] {
                JobOutcome::Served { arrival, admitted, finish } => {
                    assert_eq!(arrival, mid, "{what}");
                    assert!(admitted >= arrival, "{what}: admission waits for the arrival");
                    assert!(
                        run.boundaries.iter().any(|b| b.admitted.contains(&1) && b.time > 0.0),
                        "{what}: job 1 joined at a later sweep boundary"
                    );
                    assert!(finish > admitted, "{what}");
                }
                ref other => panic!("{what}: job 1 should be served, got {other:?}"),
            }
            assert_eigen_bitwise(
                run.results[0].as_ref().and_then(JobResult::eigen).expect("eigen"),
                &solo_e,
                &format!("mid-flight eigen, {what}"),
            );
            assert_svd_bitwise(
                run.results[1].as_ref().and_then(JobResult::svd).expect("svd"),
                &solo_s,
                &format!("mid-flight svd, {what}"),
            );
        }
    }

    fn run_outcome_finish(o: &JobOutcome) -> f64 {
        match o {
            JobOutcome::Served { finish, .. } => *finish,
            JobOutcome::Rejected(_) => panic!("expected a served job"),
        }
    }

    #[test]
    fn full_queue_sheds_with_a_typed_rejection() {
        // queue_cap 1, max_active 1, three simultaneous arrivals on a
        // throttled fabric: one runs, one queues, one is shed.
        let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        let d = 1;
        let mats: Vec<Matrix> = (0..3).map(|s| random_symmetric(8, 80 + s)).collect();
        let jobs = br_jobs(&mats, &opts);
        let lowered = lower_all(&jobs, d);
        let plan =
            ServicePlan { queue_cap: 1, max_active: 1, ..ServicePlan::fifo(vec![0.0, 0.0, 0.0]) };
        let run = service(
            d,
            &jobs,
            &lowered,
            FabricModel::Throttled(Machine::all_port(1000.0, 100.0)),
            &plan,
        );
        assert_eq!(run.served(), 2);
        assert_eq!(run.rejected(), 1);
        assert_eq!(
            run.outcomes[2],
            JobOutcome::Rejected(Rejected::QueueFull { arrival: 0.0, queue_depth: 1 }),
            "the third simultaneous arrival finds the single queue slot taken"
        );
        assert!(run.results[2].is_none());
        assert_eq!(run.meter.job_volume(2), 0, "a shed job never touches the fabric");
        assert!(run.meter.job_volume(0) > 0 && run.meter.job_volume(1) > 0);
    }

    #[test]
    fn priority_admission_picks_the_cheapest_queued_job() {
        // Big job running; a big and a small job queued behind it with
        // SPF-style priorities: the small one must be admitted first.
        let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        let d = 1;
        let mats = [random_symmetric(24, 91), random_symmetric(24, 92), random_symmetric(8, 93)];
        let jobs = br_jobs(&mats, &opts);
        let lowered = lower_all(&jobs, d);
        let plan = ServicePlan {
            max_active: 1,
            priority: vec![10.0, 10.0, 1.0],
            ..ServicePlan::fifo(vec![0.0, 0.0, 0.0])
        };
        let run = service(
            d,
            &jobs,
            &lowered,
            FabricModel::Throttled(Machine::all_port(1000.0, 100.0)),
            &plan,
        );
        let admit = |j: usize| match run.outcomes[j] {
            JobOutcome::Served { admitted, .. } => admitted,
            _ => panic!("all served"),
        };
        assert!(admit(2) < admit(1), "the cheap job jumps the earlier expensive one");
        assert_eq!(admit(0), 0.0, "the first arrival starts immediately");
    }

    #[test]
    fn idle_service_advances_the_clock_to_the_next_arrival() {
        // A late lone arrival: the drained service must skip its clock
        // forward instead of spinning, and the job's queue wait is 0.
        let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        let d = 1;
        let mats = [random_symmetric(8, 95)];
        let jobs = br_jobs(&mats, &opts);
        let lowered = lower_all(&jobs, d);
        let late = 1e6;
        let run = service(
            d,
            &jobs,
            &lowered,
            FabricModel::Throttled(Machine::all_port(1000.0, 100.0)),
            &ServicePlan::fifo(vec![late]),
        );
        match run.outcomes[0] {
            JobOutcome::Served { arrival, admitted, finish } => {
                assert_eq!(arrival, late);
                assert_eq!(admitted, late, "an idle service admits on arrival");
                assert!(finish > late);
            }
            ref other => panic!("served expected, got {other:?}"),
        }
        assert!(run.fabric.makespan > late);
    }

    #[test]
    fn service_runs_are_deterministic() {
        let opts = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
        let d = 2;
        let mats: Vec<Matrix> =
            (0..4).map(|s| random_symmetric(12 + 4 * (s % 2), 60 + s as u64)).collect();
        let jobs = br_jobs(&mats, &opts);
        let lowered = lower_all(&jobs, d);
        let plan = ServicePlan {
            max_active: 2,
            stagger_slots: 2,
            stagger_key: vec![0, 1, 0, 1],
            ..ServicePlan::fifo(vec![0.0, 10_000.0, 20_000.0, 30_000.0])
        };
        let fabric = FabricModel::Throttled(Machine::all_port(1000.0, 100.0));
        let a = service(d, &jobs, &lowered, fabric.clone(), &plan);
        let b = service(d, &jobs, &lowered, fabric.clone(), &plan);
        assert_eq!(a.outcomes, b.outcomes, "virtual-clock outcomes must not depend on scheduling");
        assert_eq!(a.boundaries, b.boundaries);
        assert_eq!(a.fabric.makespan, b.fabric.makespan);
    }

    #[test]
    fn free_fabric_service_takes_everything_at_once() {
        // No clock: all arrivals land at the first boundary, latencies
        // collapse to 0, but queue/active bounds still apply.
        let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        let d = 1;
        let mats: Vec<Matrix> = (0..3).map(|s| random_symmetric(8, 50 + s)).collect();
        let jobs = br_jobs(&mats, &opts);
        let lowered = lower_all(&jobs, d);
        let plan = ServicePlan { max_active: 2, ..ServicePlan::fifo(vec![0.0, 5_000.0, 10_000.0]) };
        let run = service(d, &jobs, &lowered, FabricModel::Free, &plan);
        assert_eq!(run.served(), 3);
        for o in &run.outcomes {
            assert_eq!(o.latency(), Some(0.0), "a free fabric has no virtual latency");
        }
        assert_eq!(run.boundaries[0].active.len(), 2, "active set still bounded");
        assert_eq!(run.boundaries[0].queue_depth(), 1);
    }

    #[test]
    fn staggered_same_family_jobs_drop_the_all_port_makespan() {
        // Two identical-family, identical-size jobs collide on every link
        // when in phase; a one-transition stagger pulls their sends onto
        // different links of each round, which the all-port fabric
        // overlaps. De-phasing must not cost anything and must win here.
        let opts = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
        let d = 2;
        let mats = [random_symmetric(32, 55), random_symmetric(32, 56)];
        let jobs = br_jobs(&mats, &opts);
        let lowered = lower_all(&jobs, d);
        let fabric = FabricModel::Throttled(Machine::all_port(1000.0, 100.0));
        let base = ServicePlan { stagger_key: vec![7, 7], ..ServicePlan::fifo(vec![0.0, 0.0]) };
        let in_phase = service(d, &jobs, &lowered, fabric.clone(), &base);
        let staggered =
            service(d, &jobs, &lowered, fabric, &ServicePlan { stagger_slots: 2, ..base.clone() });
        assert!(
            staggered.fabric.makespan < in_phase.fabric.makespan,
            "staggered {} vs in-phase {}",
            staggered.fabric.makespan,
            in_phase.fabric.makespan
        );
        // De-phasing shifts schedules, never bits.
        for j in 0..2 {
            match (&in_phase.results[j], &staggered.results[j]) {
                (Some(JobResult::Eigen(x)), Some(JobResult::Eigen(y))) => {
                    assert_eigen_bitwise(x, y, "stagger invariance")
                }
                _ => panic!("both eigen results present"),
            }
        }
    }

    #[test]
    fn throttled_single_job_batch_reproduces_the_solo_makespan() {
        // A Serial([0]) batch is the solo threaded run: same bits AND the
        // same measured virtual makespan — with the tail whole-block and
        // chained alike, forced and free-running — and a clean fabric
        // leaves the solo run's adaptive report empty.
        let machine = Machine::all_port(500.0, 10.0);
        let auto = Pipelining::Auto(machine);
        let forced = |tail| JacobiOptions {
            force_sweeps: Some(2),
            tail_pipelining: tail,
            ..Default::default()
        };
        let free_running =
            JacobiOptions { pipelining: auto, tail_pipelining: auto, ..Default::default() };
        for (m, opts) in
            [(32, forced(Pipelining::Off)), (32, forced(Pipelining::Fixed(3))), (40, free_running)]
        {
            let a = random_symmetric(m, 44);
            let opts = JacobiOptions { fabric: FabricModel::Throttled(machine), ..opts };
            let ThreadedRun { fabric: solo_report, adaptive, .. } =
                block_jacobi_threaded(&a, 2, OrderingFamily::Br, &opts);
            let run = batch(
                2,
                &[JobSpec::eigen(&a, OrderingFamily::Br, opts.clone())],
                FabricModel::Throttled(machine),
                &BatchOrder::Serial(vec![0]),
            );
            assert!(
                (run.fabric.makespan - solo_report.makespan).abs() <= 1e-9 * solo_report.makespan,
                "m={m} {:?}: batch {} vs solo {}",
                opts.tail_pipelining,
                run.fabric.makespan,
                solo_report.makespan
            );
            assert_eq!(adaptive, AdaptiveReport::default(), "m={m}: nothing to adapt to");
        }
    }

    #[test]
    fn tail_pipelined_batch_jobs_stay_bitwise_solo() {
        // The tail pipeline through the batch state machine: eigen and SVD
        // jobs with chained tails, interleaved over free and throttled
        // fabrics, still produce exactly their solo (whole-block) bits —
        // alone, combined with exchange pipelining, and across degrees.
        let a0 = random_symmetric(16, 12);
        let a1 = random_symmetric(12, 13);
        let d = 2;
        let base = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
        let solo_e = block_jacobi(&a0, d, OrderingFamily::Br, &base);
        let solo_s = svd_block(&a1, d, OrderingFamily::Degree4, &base);
        for tq in [2usize, 3, 5] {
            for pipelining in [Pipelining::Off, Pipelining::Fixed(2)] {
                let opts = JacobiOptions {
                    pipelining,
                    tail_pipelining: Pipelining::Fixed(tq),
                    ..base.clone()
                };
                let jobs = [
                    JobSpec::eigen(&a0, OrderingFamily::Br, opts.clone()),
                    JobSpec::svd(&a1, OrderingFamily::Degree4, opts.clone()),
                ];
                for fabric in
                    [FabricModel::Free, FabricModel::Throttled(Machine::all_port(1000.0, 100.0))]
                {
                    let order = BatchOrder::RoundRobin { order: vec![0, 1], stride: 2 };
                    let run = batch(d, &jobs, fabric.clone(), &order);
                    assert_eigen_bitwise(
                        run.results[0].eigen().expect("eigen"),
                        &solo_e,
                        &format!("eigen tail_q={tq} {pipelining:?}"),
                    );
                    assert_svd_bitwise(
                        run.results[1].svd().expect("svd"),
                        &solo_s,
                        &format!("svd tail_q={tq} {pipelining:?}"),
                    );
                }
            }
        }
    }
}
