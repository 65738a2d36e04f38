//! SPMD execution: `2^d` node programs stepped on no more worker threads
//! than the process has CPUs, one FIFO queue per link direction and job.
//!
//! A node is a *program* — an `async` closure [`run_spmd`] calls with the
//! node's [`NodeCtx`] — that runs until it finishes with its result or
//! awaits what has not happened yet: a message not yet queued
//! ([`NodeCtx::recv`]) or a barrier still gathering ([`NodeCtx::barrier`]).
//! Those two are the only things a program may `.await`: the runtime
//! polls each node's future with a no-op waker and registers no wake-up, so
//! any other future would never be polled again at the right time. Nothing
//! in a node parks. The run puts its `2^d` nodes on
//! `W = min(2^d, available_parallelism())` workers, read afresh on every
//! run: each worker polls a contiguous range of labels (so the low
//! dimensions' links stay inside one worker), each node until it waits,
//! and parks only when all of its nodes wait and nothing has come for them.
//! The calling thread is worker 0. `W = 2^d` is one thread per node;
//! `W = 1` steps every node on the calling thread and never wakes anything.
//!
//! Sends never block: queues are unbounded, so the symmetric
//! send-then-receive pattern of the Jacobi transitions cannot deadlock.
//! Several jobs may share the links ([`Spmd::njobs`]): every message
//! declares its job ([`Meterable::job`]), each link direction keeps one
//! FIFO queue per job, and a receive names the job it takes
//! ([`NodeCtx::recv`]) — so per-`(link, job)` order survives any
//! interleaving of the jobs, and a job never waits behind another's
//! message. All communication is neighbor-to-neighbor — exactly the
//! discipline the paper's algorithms obey on a real hypercube
//! multicomputer — which is what makes this runtime a faithful stand-in
//! for an MPI-on-hypercube deployment.
//!
//! Every message travels in an envelope carrying a virtual-time arrival
//! stamp from the sender's [`LinkClock`]. Under the default
//! [`FabricModel::Free`] the stamps are zero and the clocks idle; under
//! [`FabricModel::Throttled`] ([`Spmd::fabric`]) each send is charged
//! `Ts + S·Tw` against the machine's port configuration, and barriers
//! synchronize the nodes' clocks — see [`crate::fabric`]. The clocks are
//! max-plus dataflow over each link's FIFO order, so virtual time, like
//! every result, is the same under any `W` and any step order.
//!
//! # Books and channels
//!
//! A node owns its books. Its [`NodeCtx`] — its view of the links and one
//! [`LinkClock`]: virtual clock, barrier epoch, calibration window,
//! traffic counters and, on a traced run, its trace lane — lives on its
//! worker, so booking or recording a send shares nothing and locks nothing
//! (`NodeCtx` is `Send` and not `Sync`: the compiler rejects lending it to
//! a second thread). What crosses workers — the queues, the barrier, the
//! park books — is the scheduler's (`sched.rs`). At the end every worker
//! hands its nodes' books back: [`SpmdRun::meter`] and
//! [`FabricReport::node_times`] are read off them once, and each lane goes
//! to [`Spmd::trace`]'s ring once — before a node's panic is re-raised or
//! a deadlock reported, so a run that fails keeps the events it recorded.
//!
//! A node that panics ends the run: its worker catches the payload and
//! stops every worker, and [`run_spmd`] re-raises the payload of the
//! lowest label that panicked, whatever its peers were waiting on. A run
//! whose nodes are all blocked with nothing in flight — a protocol slip —
//! panics too, naming what each node waits on.
//!
//! What the model charges and what the host moves are separate calls.
//! [`NodeCtx::charge`] keeps the books of one modelled transmission —
//! meter, link clock, send span — and moves nothing; [`NodeCtx::ship`]
//! puts one message on the link and writes nothing down but the shipment
//! count. [`NodeCtx::send`] is both, for a message that is one
//! transmission. A program whose model splits a payload into packets the
//! host has no reason to move apart charges each packet, collects the
//! stamps, and ships payload and stamps once (the micro-op engine's
//! pipeline rounds, `mph_eigen::multidrive`). The receive side mirrors it:
//! [`NodeCtx::recv`] takes a message and its stamp off the link,
//! [`NodeCtx::trace_recv`] records one consumed arrival, and
//! [`NodeCtx::advance_clock_to`] spends the wait.

use crate::fabric::{FabricModel, FabricReport, LinkClock};
use crate::meter::TrafficMeter;
use crate::sched::{Arrival, Links, Sched};
use crate::trace::{SinkHandle, TraceEvent};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::task::{Context, Poll, Waker};

/// The number of elements a message contributes to traffic accounting,
/// and which accounting plane it belongs to.
pub trait Meterable {
    /// Data volume in elements (used only for metering; default 0).
    fn elems(&self) -> u64 {
        0
    }

    /// Whether this is a *control-plane* message (convergence votes,
    /// protocol bookkeeping) rather than block data. Control messages are
    /// metered separately so they never pollute the data-plane totals the
    /// paper's tables count. Default: data plane.
    fn is_control(&self) -> bool {
        false
    }

    /// Which batch job this message belongs to, when several independent
    /// problems share one fabric (see [`Spmd::njobs`]): the meter keeps
    /// per-job totals, and the message waits in its link's queue for this
    /// job, taken only by a [`NodeCtx::recv`] of the same job. Solo
    /// programs use the default job 0.
    fn job(&self) -> u32 {
        0
    }
}

impl Meterable for () {}
impl Meterable for u64 {
    fn elems(&self) -> u64 {
        1
    }
}
impl Meterable for f64 {
    fn elems(&self) -> u64 {
        1
    }
}
impl Meterable for Vec<f64> {
    fn elems(&self) -> u64 {
        self.len() as u64
    }
}

/// A message plus its virtual-time arrival stamp (0 on a free fabric, and
/// for a bare [`NodeCtx::ship`]ment, whose contents carry their own).
struct Envelope<M> {
    msg: M,
    stamp: f64,
}

/// What a blocked node waits on: reported by a run that deadlocks.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wait {
    /// A message of `job` across `dim`.
    Recv {
        dim: usize,
        job: u32,
    },
    Barrier,
}

/// Per-node handle: identity, links, barrier, and the node's book (fabric
/// clock and traffic counters). Lives on the node's worker.
pub struct NodeCtx<'r, M> {
    id: usize,
    d: usize,
    worker: usize,
    links: &'r Links<Envelope<M>>,
    sched: &'r Sched,
    book: RefCell<LinkClock>,
    /// What the node last found it could not take.
    wait: Cell<Option<Wait>>,
}

impl<'r, M: Send + Meterable> NodeCtx<'r, M> {
    /// This node's label (`0..2^d`).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Cube dimension `d`.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The neighbor across `dim`.
    fn neighbor(&self, dim: usize) -> usize {
        self.id ^ (1 << dim)
    }

    /// This node's virtual clock, in machine time units (always 0 on a
    /// [`FabricModel::Free`] fabric).
    pub fn virtual_now(&self) -> f64 {
        self.book.borrow().now()
    }

    /// Sends `msg` to the neighbor across `dim` (never blocks; on a
    /// throttled fabric the message is charged `Ts + S·Tw` against this
    /// node's ports and outgoing link on the virtual clock): one
    /// [`NodeCtx::charge`] of the whole message, then its shipment under
    /// the stamp that returned.
    pub fn send(&self, dim: usize, msg: M) {
        let stamp = self.charge(dim, msg.elems(), msg.job(), None, msg.is_control(), 0.0);
        self.post(dim, msg, stamp);
    }

    /// The books of one transmission of `elems` elements across `dim`, and
    /// nothing else: the meter counts it for `job` on its plane, the link
    /// clock charges it `Ts + S·Tw` departing no earlier than `ready`
    /// (typically the arrival stamp of the packet this transmission
    /// forwards, from [`NodeCtx::recv`]: the CPU issues start-ups
    /// serially in program order but does not wait for the data — the
    /// comm-processor model that lets a software pipeline overlap
    /// iterations on the virtual clock), and the trace records the send
    /// span under its pipeline header `kq` (`None` for a whole message).
    /// Returns the arrival stamp (0 on a free fabric). No message moves:
    /// whoever charges a payload piece by piece [`NodeCtx::ship`]s it once,
    /// with the stamps inside.
    pub fn charge(
        &self,
        dim: usize,
        elems: u64,
        job: u32,
        kq: Option<(u32, u32)>,
        control: bool,
        ready: f64,
    ) -> f64 {
        self.book.borrow_mut().charge(dim, elems, job, kq, control, ready)
    }

    /// Moves `msg` to the neighbor across `dim` and keeps no books beyond
    /// the meter's shipment count: nothing is charged, no span recorded,
    /// and the envelope carries no stamp of its own. For a payload whose
    /// transmissions were [`NodeCtx::charge`]d one by one.
    pub fn ship(&self, dim: usize, msg: M) {
        self.post(dim, msg, 0.0);
    }

    /// One link message, stamped.
    fn post(&self, dim: usize, msg: M, stamp: f64) {
        self.book.borrow_mut().count_shipment();
        let to = self.neighbor(dim);
        self.links.push(to, dim, msg.job(), Envelope { msg, stamp });
        self.sched.stir(self.worker, self.sched.worker_of(to));
    }

    /// Takes the next message of `job` ([`Meterable::job`]) from the
    /// neighbor across `dim` with its virtual arrival stamp, waiting until
    /// one has come. Each job has its own FIFO queue on every link, so the
    /// jobs' messages never overtake their own kind and never wait behind
    /// another's. The clock is *not* advanced and the arrival not recorded:
    /// the caller owns the dependency bookkeeping (forward the stamp into
    /// [`NodeCtx::charge`], [`NodeCtx::advance_clock_to`] the stamps it
    /// ultimately consumes, and [`NodeCtx::trace_recv`] each arrival where
    /// it consumes it). On a free fabric the stamp is 0.
    pub async fn recv(&self, dim: usize, job: u32) -> (M, f64) {
        poll_fn(|_| match self.links.pop(self.id, dim, job) {
            Some(env) => Poll::Ready((env.msg, env.stamp)),
            None => {
                self.wait.set(Some(Wait::Recv { dim, job }));
                Poll::Pending
            }
        })
        .await
    }

    /// Records the event `event` builds into this node's trace lane, next
    /// to the link events its book records: a driver's own span boundaries
    /// (sweeps, recalibrations, relay hops, admission decisions). `event`
    /// runs only on a traced run, before the book is borrowed to record.
    pub fn trace_event(&self, event: impl FnOnce() -> TraceEvent) {
        if self.book.borrow().lane.is_some() {
            let event = event();
            if let Some(lane) = &mut self.book.borrow_mut().lane {
                lane.push(event);
            }
        }
    }

    /// Records one consumed arrival — the receive-side counterpart of the
    /// span [`NodeCtx::charge`] records, with the same `elems`, `job`,
    /// `kq` and `control` and the stamp that charge returned. Recv events
    /// only exist on throttled fabrics, matching the send spans (a free
    /// fabric has no virtual clock to stamp them on).
    pub fn trace_recv(
        &self,
        dim: usize,
        elems: u64,
        job: u32,
        kq: Option<(u32, u32)>,
        control: bool,
        stamp: f64,
    ) {
        let mut book = self.book.borrow_mut();
        if book.throttled() {
            if let Some(lane) = &mut book.lane {
                lane.push(TraceEvent::Recv { dim, elems, job, kq, control, stamp });
            }
        }
    }

    /// Advances this node's virtual clock to `t` (no-op if already past,
    /// or on a free fabric): the moment a stamped arrival is consumed.
    pub fn advance_clock_to(&self, t: f64) {
        self.book.borrow_mut().wait(t);
    }

    /// Drains this node's live send-cost window (degraded fabrics only;
    /// always empty otherwise): `(elems, service time)` samples an
    /// adaptive driver feeds to `Machine::calibrate` mid-run.
    pub fn take_fabric_window(&self) -> crate::machine::FabricStats {
        self.book.borrow_mut().take_window()
    }

    /// The fabric epoch this node's sends are charged at: the barriers it
    /// has passed (always 0 on a [`FabricModel::Free`] fabric).
    pub fn epoch(&self) -> usize {
        self.book.borrow().epoch()
    }

    /// The barrier: through once all `2^d` nodes have reached it. On a
    /// throttled fabric the nodes also synchronize their virtual clocks:
    /// everyone leaves at the latest participant's time, as a real barrier
    /// would make them.
    pub async fn barrier(&self) {
        let t = match self.sched.arrive(self.worker, self.virtual_now()) {
            Arrival::Released(t) => t,
            Arrival::Waits(generation) => {
                poll_fn(|_| match self.sched.passed(generation) {
                    Some(t) => Poll::Ready(t),
                    None => {
                        self.wait.set(Some(Wait::Barrier));
                        Poll::Pending
                    }
                })
                .await
            }
        };
        self.book.borrow_mut().pass_barrier(t);
    }
}

/// How an SPMD run is set up: what its links enforce, how many jobs its
/// messages multiplex, and where its events are recorded. The default is
/// the raw transport — a [`FabricModel::Free`] fabric, one job, tracing
/// off.
#[derive(Debug, Clone)]
pub struct Spmd {
    /// What the links run under: with [`FabricModel::Throttled`] every
    /// message is charged against the machine's `Ts`/`Tw`/ports on a
    /// deterministic virtual clock, and [`SpmdRun::fabric`] carries the
    /// measured virtual makespan.
    pub fabric: FabricModel,
    /// How many independent batch jobs the program multiplexes over the
    /// links, which bounds the job tag messages declare via
    /// [`Meterable::job`]: every link keeps one FIFO queue per job, and the
    /// traffic meter keeps per-job totals next to the blended per-dimension
    /// ones.
    pub njobs: usize,
    /// Where the run's events end up (see [`crate::trace`]): each node's
    /// book records its transmissions, arrivals, barrier crossings and
    /// [`NodeCtx::trace_event`]s into a lane of its own, handed to the ring
    /// when the run returns. Tracing is observational only — results are
    /// bitwise-identical to the untraced run ([`SinkHandle::nop`]).
    pub trace: SinkHandle,
}

impl Default for Spmd {
    fn default() -> Self {
        Spmd { fabric: FabricModel::Free, njobs: 1, trace: SinkHandle::nop() }
    }
}

/// What an SPMD run returns.
#[derive(Debug)]
pub struct SpmdRun<R> {
    /// The per-node results, in label order.
    pub results: Vec<R>,
    /// The run's traffic meter.
    pub meter: TrafficMeter,
    /// The link fabric's report (all zeros on a free fabric).
    pub fabric: FabricReport,
}

/// How a node's program ended when its worker stopped.
enum End<R> {
    Done(R),
    Panicked(Box<dyn Any + Send>),
    /// The run stopped with the node blocked, on what it last waited for.
    Blocked(Option<Wait>),
}

/// Runs a node program on every node of a `d`-cube under `spmd`.
///
/// `program` is called once per node with its [`NodeCtx`], and the future
/// it returns is polled until it finishes with the node's result (the
/// module docs say who polls it, on how many threads). It may await only
/// its context's [`NodeCtx::recv`] and [`NodeCtx::barrier`]: the runtime
/// registers no waker, and polls a node again only once a message or a
/// barrier release may let it go on. `M` is the message type the links
/// carry.
///
/// A panic in any node ends the run: every worker stops, and the payload of
/// the lowest label that panicked is re-raised, whatever its peers were
/// waiting on — a message or the barrier. A run in which every node left is
/// blocked and nothing is in flight panics, naming what each one waits on;
/// a node waiting on a neighbor that has returned is reported as hung up.
/// A run whose nodes all returned with a message still queued — one sent
/// that no receive took, a protocol slip — panics naming its
/// `(node, dim, job)`.
pub fn run_spmd<M, R, F>(d: usize, spmd: Spmd, program: F) -> SpmdRun<R>
where
    M: Send + Meterable,
    R: Send,
    F: AsyncFn(&NodeCtx<'_, M>) -> R + Sync,
{
    let Spmd { fabric, njobs, trace } = spmd;
    // Misconfigured fabrics are rejected by the checked option
    // constructors upstream; this is the last line of defense for callers
    // that skipped them — one clear failure before any node starts instead
    // of 2^d asserts racing inside the workers.
    if let Err(err) = fabric.validate() {
        panic!("invalid fabric model: {err}");
    }
    let p = 1usize << d;
    let sched = Sched::new(p, workers(p));
    let mut links = Links::new(p, d, njobs.max(1));
    let work = |w: usize| {
        let ctxs = sched.nodes_of(w).map(|n| NodeCtx {
            id: n,
            d,
            worker: w,
            links: &links,
            sched: &sched,
            book: RefCell::new(LinkClock::new(fabric.clone(), n, d, njobs, trace.lane())),
            wait: Cell::new(None),
        });
        step_nodes(&sched, w, ctxs.collect(), &program)
    };
    let work = &work;
    let mut ends: Vec<(End<R>, LinkClock)> = crossbeam::thread::scope(|scope| {
        let others: Vec<_> = (1..sched.workers()).map(|w| scope.spawn(move |_| work(w))).collect();
        let mut ends = work(0);
        for worker in others {
            ends.extend(worker.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        ends
    })
    .unwrap_or_else(|payload| resume_unwind(payload));

    let mut results = Vec::with_capacity(p);
    let mut meter = TrafficMeter::with_jobs(d, njobs);
    let mut node_times = Vec::with_capacity(p);
    let mut stuck = Vec::new();
    // Before a panic is re-raised or a deadlock reported: a run that fails
    // keeps what it recorded.
    trace.collect(ends.iter_mut().filter_map(|(_, book)| book.lane.take()));
    for (n, (end, book)) in ends.into_iter().enumerate() {
        match end {
            // The root cause, re-raised as the node raised it.
            End::Panicked(payload) => resume_unwind(payload),
            End::Blocked(wait) => stuck.push((n, wait)),
            End::Done(result) => results.push(result),
        }
        meter.absorb(book.meter());
        node_times.push(book.now());
    }
    if !stuck.is_empty() {
        panic!("{}", deadlock_report(&stuck));
    }
    if let Some((n, dim, job)) = links.first_queued() {
        panic!("every node returned, yet node {n} has a message queued on (dim {dim}, job {job})");
    }
    let makespan = node_times.iter().fold(0.0f64, |a, &b| a.max(b));
    SpmdRun { results, meter, fabric: FabricReport { makespan, node_times } }
}

/// `W`: one worker per CPU the process may run on, and never more than
/// nodes. Read on every run — what a process may use can change between
/// runs (the repository benchmark confines its timed runs to one CPU).
fn workers(p: usize) -> usize {
    #[cfg(test)]
    if let Some(w) = step_order::workers() {
        return w.min(p);
    }
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(p)
}

/// Worker `w`'s loop: poll every node it owns, each until it finishes or
/// waits, pass after pass; park when a whole pass found every node waiting
/// and nothing was posted to them or released since the pass began. Hands
/// back each node's end and book, in label order.
fn step_nodes<M, R, F>(
    sched: &Sched,
    w: usize,
    ctxs: Vec<NodeCtx<'_, M>>,
    program: &F,
) -> Vec<(End<R>, LinkClock)>
where
    M: Send + Meterable,
    F: AsyncFn(&NodeCtx<'_, M>) -> R,
{
    sched.register(w);
    // No program registers a wake-up: the scheduler's books say when a
    // node may go on.
    let mut cx = Context::from_waker(Waker::noop());
    // Each node's program, pinned once. The call sits inside the future, so
    // whatever `program` runs before it first awaits — the node's setup —
    // runs in the first poll, under that poll's `catch_unwind`.
    let mut programs: Vec<_> =
        ctxs.iter().map(|ctx| Some(Box::pin(async move { program(ctx).await }))).collect();
    let mut ends: Vec<Option<End<R>>> = ctxs.iter().map(|_| None).collect();
    let mut running = ctxs.len();
    // The order a pass visits the nodes in: by label, but under the test
    // hook (`step_order`).
    #[cfg_attr(not(test), allow(unused_mut))]
    let mut order: Vec<usize> = (0..ctxs.len()).collect();
    while running > 0 && !sched.is_over() {
        #[cfg(test)]
        step_order::shuffle(&mut order);
        for &i in &order {
            let Some(node) = programs[i].as_mut() else { continue };
            let end = match catch_unwind(AssertUnwindSafe(|| node.as_mut().poll(&mut cx))) {
                Ok(Poll::Pending) => continue,
                Ok(Poll::Ready(result)) => End::Done(result),
                Err(payload) => {
                    sched.abort();
                    End::Panicked(payload)
                }
            };
            programs[i] = None;
            ends[i] = Some(end);
            running -= 1;
        }
        if running > 0 && !sched.idle(w) {
            break;
        }
    }
    if running == 0 {
        sched.retire(w);
    }
    drop(programs);
    let ends = ctxs.into_iter().zip(ends).map(|(ctx, end)| {
        let end = end.unwrap_or_else(|| End::Blocked(ctx.wait.get()));
        (end, ctx.book.into_inner())
    });
    ends.collect()
}

/// The panic of a run whose nodes are all finished or blocked for good.
fn deadlock_report(stuck: &[(usize, Option<Wait>)]) -> String {
    let finished = |n: usize| !stuck.iter().any(|&(s, _)| s == n);
    let waits: Vec<String> = stuck
        .iter()
        .map(|&(n, wait)| match wait {
            Some(Wait::Recv { dim, .. }) if finished(n ^ (1 << dim)) => {
                format!("node {n}: the neighbor across dimension {dim} hung up")
            }
            Some(Wait::Recv { dim, job }) => format!("node {n} waits on (dim {dim}, job {job})"),
            Some(Wait::Barrier) => format!("node {n} waits at the barrier"),
            None => format!("node {n} is blocked"),
        })
        .collect();
    format!(
        "deadlock, every node left is blocked and no message is in flight: {}",
        waits.join("; ")
    )
}

/// The test hooks that sweep schedules the host never produces: under a
/// seed, a run steps its nodes on one worker, visiting them in an order
/// drawn afresh each pass; under a worker count, it uses that many workers
/// whatever the CPUs. Not an option of the runtime — they exist only in
/// its own test build.
#[cfg(test)]
pub(crate) mod step_order {
    use std::cell::Cell;

    thread_local! {
        static SEED: Cell<Option<u64>> = const { Cell::new(None) };
        static WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Runs `f` with every `run_spmd` it makes on this thread stepped in
    /// the order `seed` draws.
    pub(crate) fn with_seed<T>(seed: u64, f: impl FnOnce() -> T) -> T {
        SEED.set(Some(seed));
        let out = f();
        SEED.set(None);
        out
    }

    /// Runs `f` with every `run_spmd` it makes on this thread on `w`
    /// workers (at most one per node).
    pub(crate) fn with_workers<T>(w: usize, f: impl FnOnce() -> T) -> T {
        WORKERS.set(Some(w));
        let out = f();
        WORKERS.set(None);
        out
    }

    pub(super) fn workers() -> Option<usize> {
        SEED.get().map(|_| 1).or(WORKERS.get())
    }

    /// Shuffles one pass's visiting order (Fisher–Yates on a splitmix64
    /// stream) when a seed is set.
    pub(super) fn shuffle(order: &mut [usize]) {
        let Some(mut state) = SEED.get() else { return };
        for i in (1..order.len()).rev() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            order.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
        }
        SEED.set(Some(state));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn on(fabric: FabricModel) -> Spmd {
        Spmd { fabric, ..Spmd::default() }
    }

    /// Takes the next message across `dim` and spends its wait: the
    /// receive half of a plain exchange.
    async fn recv<M: Send + Meterable>(ctx: &NodeCtx<'_, M>, dim: usize) -> M {
        let (msg, stamp) = ctx.recv(dim, 0).await;
        ctx.advance_clock_to(stamp);
        msg
    }

    /// Sends `msg` across `dim`, then takes the neighbor's.
    async fn swap<M: Send + Meterable>(ctx: &NodeCtx<'_, M>, dim: usize, msg: M) -> M {
        ctx.send(dim, msg);
        recv(ctx, dim).await
    }

    /// Dimension-exchange fold: `d` exchanges leave the fold of every
    /// node's `value` at every node.
    async fn all_reduce(ctx: &NodeCtx<'_, f64>, value: f64, fold: fn(f64, f64) -> f64) -> f64 {
        let mut v = value;
        for dim in 0..ctx.dim() {
            v = fold(v, swap(ctx, dim, v).await);
        }
        v
    }

    fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    /// Runs `f` on a thread of its own and returns its panic's text, or
    /// fails if it has neither panicked nor returned in 5 s — a run that
    /// hangs fails here instead of hanging the suite.
    fn panics_within_5s(f: impl FnOnce() + Send + 'static) -> String {
        let run = std::thread::spawn(|| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
        let start = std::time::Instant::now();
        while !run.is_finished() {
            assert!(start.elapsed().as_secs() < 5, "run_spmd is still running 5 s later");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let caught = run.join().expect("the run's panic was caught on its own thread");
        panic_text(&*caught.expect_err("the run must panic"))
    }

    #[test]
    fn neighbors_identify_each_other() {
        let results = run_spmd(3, Spmd::default(), async |ctx: &NodeCtx<'_, u64>| {
            let mut got = Vec::new();
            for dim in 0..3 {
                got.push(swap(ctx, dim, ctx.id() as u64).await);
            }
            got
        })
        .results;
        for (n, got) in results.iter().enumerate() {
            for dim in 0..3 {
                assert_eq!(got[dim], (n ^ (1 << dim)) as u64);
            }
        }
    }

    #[test]
    fn allreduce_sum_over_cube() {
        for d in 0..=4 {
            let results = run_spmd(d, Spmd::default(), async |ctx| {
                all_reduce(ctx, ctx.id() as f64, |a, b| a + b).await
            })
            .results;
            let expect = ((1usize << d) * ((1usize << d) - 1) / 2) as f64;
            for r in results {
                assert_eq!(r, expect);
            }
        }
    }

    #[test]
    fn allreduce_max_over_cube() {
        let results = run_spmd(3, Spmd::default(), async |ctx| {
            all_reduce(ctx, (ctx.id() as f64 * 7.0) % 5.0, f64::max).await
        })
        .results;
        let expect = (0..8).map(|n| (n as f64 * 7.0) % 5.0).fold(0.0f64, f64::max);
        for r in results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn meter_counts_volume() {
        let meter = run_spmd(2, Spmd::default(), async |ctx: &NodeCtx<'_, Vec<f64>>| {
            swap(ctx, 0, vec![0.0; 10]).await;
            swap(ctx, 1, vec![0.0; 3]).await;
        })
        .meter;
        assert_eq!(meter.messages(0), 4);
        assert_eq!(meter.volume(0), 40);
        assert_eq!(meter.volume(1), 12);
    }

    #[test]
    fn barrier_separates_rounds() {
        // Without the barrier a fast node could lap a slow one; the
        // per-dimension FIFO still keeps exchanges paired, so this test
        // checks the barrier API plus two sequential exchange rounds.
        let results = run_spmd(2, Spmd::default(), async |ctx: &NodeCtx<'_, u64>| {
            let first = swap(ctx, 0, ctx.id() as u64).await;
            ctx.barrier().await;
            (first, swap(ctx, 0, first).await)
        })
        .results;
        for (n, (first, second)) in results.iter().enumerate() {
            assert_eq!(*first, (n ^ 1) as u64);
            assert_eq!(*second, n as u64); // own id comes back
        }
    }

    #[test]
    fn d0_single_node_runs() {
        let results =
            run_spmd(0, Spmd::default(), async |ctx: &NodeCtx<'_, ()>| ctx.id() + 100).results;
        assert_eq!(results, vec![100]);
    }

    #[test]
    fn free_fabric_reports_zero_makespan() {
        // The default the narrow entry points used to hard-code: the raw
        // transport, one job, tracing off.
        let spmd = Spmd::default();
        assert_eq!((&spmd.fabric, spmd.njobs), (&FabricModel::Free, 1));
        assert!(!spmd.trace.is_enabled());
        let report = run_spmd(2, spmd, async |ctx| all_reduce(ctx, 1.0, |a, b| a + b).await).fabric;
        assert_eq!(report.makespan, 0.0);
        assert_eq!(report.node_times, vec![0.0; 4]);
    }

    #[test]
    fn throttled_exchange_costs_ts_plus_s_tw_per_transition() {
        // The canonical symmetric transition: every exchange of an
        // S-element message advances every node's clock by exactly
        // Ts + S·Tw, and the makespan is deterministic.
        let fabric = FabricModel::Throttled(Machine::all_port(10.0, 2.0));
        let run = || {
            run_spmd(2, on(fabric.clone()), async |ctx: &NodeCtx<'_, Vec<f64>>| {
                for dim in [0, 1, 0] {
                    swap(ctx, dim, vec![0.0; 5]).await;
                }
            })
            .fabric
        };
        let report = run();
        let expect = 3.0 * (10.0 + 5.0 * 2.0);
        assert_eq!(report.makespan, expect);
        assert_eq!(report.node_times, vec![expect; 4]);
        assert_eq!(run(), report, "virtual time must not depend on scheduling");
    }

    #[test]
    fn throttled_one_port_serializes_concurrent_sends() {
        // Two sends on distinct links before any receive: all-port
        // overlaps the transmissions, one-port queues them.
        let time_with = |machine: Machine| {
            let fabric = FabricModel::Throttled(machine);
            run_spmd(2, on(fabric), async |ctx: &NodeCtx<'_, Vec<f64>>| {
                ctx.send(0, vec![0.0; 100]);
                ctx.send(1, vec![0.0; 100]);
                for dim in 0..2 {
                    recv(ctx, dim).await;
                }
            })
            .fabric
            .makespan
        };
        let all = time_with(Machine::all_port(1.0, 1.0));
        let one = time_with(Machine::one_port(1.0, 1.0));
        assert_eq!(all, 2.0 + 100.0); // start-ups serial, wires parallel
                                      // One port: the second transmission queues behind the first
                                      // (its start-up overlaps the first transmission).
        assert_eq!(one, 1.0 + 100.0 + 100.0);
    }

    #[test]
    fn charging_piecewise_and_shipping_once_keeps_the_books_of_separate_sends() {
        // Three 5-element transmissions per node across dim 0: moved as
        // three messages, or charged as three and shipped as one with the
        // stamps inside. Same stamps, same meter — a third of the link
        // messages, and the bare shipment is itself neither metered nor
        // stamped.
        let fabric = FabricModel::Throttled(Machine::all_port(10.0, 2.0));
        let sent = run_spmd(1, on(fabric.clone()), async |ctx: &NodeCtx<'_, Vec<f64>>| {
            for _ in 0..3 {
                ctx.send(0, vec![0.0; 5]);
            }
            let mut stamps = Vec::new();
            for _ in 0..3 {
                stamps.push(ctx.recv(0, 0).await.1);
            }
            stamps
        });
        let charged = run_spmd(1, on(fabric), async |ctx: &NodeCtx<'_, Vec<f64>>| {
            let stamps = (0..3).map(|q| ctx.charge(0, 5, 0, Some((0, q)), false, 0.0)).collect();
            ctx.ship(0, stamps);
            let (stamps, envelope) = ctx.recv(0, 0).await;
            assert_eq!(envelope, 0.0);
            stamps
        });
        assert_eq!(sent.results, vec![vec![20.0, 30.0, 40.0]; 2]);
        assert_eq!(charged.results, sent.results);
        for meter in [&sent.meter, &charged.meter] {
            assert_eq!((meter.total_messages(), meter.total_volume()), (6, 30));
        }
        assert_eq!((sent.meter.shipments(), charged.meter.shipments()), (6, 2));
    }

    #[test]
    fn repeated_throttled_barriers_resync_deterministically() {
        // The review repro: a fast pair races ahead to its next barrier
        // while a slow pair is still leaving the previous one. The times
        // each barrier releases are exact and identical across runs
        // regardless of scheduling.
        let fabric = FabricModel::Throttled(Machine::all_port(0.0, 1.0));
        let run = || {
            run_spmd(2, on(fabric.clone()), async |ctx: &NodeCtx<'_, Vec<f64>>| {
                let mut times = Vec::new();
                // Round 1: pair (0,1) heavy, pair (2,3) light; round 2:
                // roles swapped.
                for round in 0..2 {
                    let heavy = (ctx.id() < 2) == (round == 0);
                    swap(ctx, 0, vec![0.0; if heavy { 1000 } else { 10 }]).await;
                    ctx.barrier().await;
                    times.push(ctx.virtual_now());
                }
                times
            })
            .results
        };
        let want = vec![vec![1000.0, 2000.0]; 4];
        for i in 0..20 {
            assert_eq!(run(), want, "run {i} diverged");
        }
    }

    #[test]
    fn worker_panics_propagate_their_own_payload() {
        // The root-cause contract: when one node fails, the panic that
        // escapes the runtime is *that node's*, not a report from its peers.
        let caught = std::panic::catch_unwind(|| {
            run_spmd(2, Spmd::default(), async |ctx: &NodeCtx<'_, u64>| {
                swap(ctx, 0, ctx.id() as u64).await;
                if ctx.id() == 3 {
                    panic!("original failure in node 3");
                }
                // Peers keep touching their clocks after the panic; none of
                // that may replace the payload below.
                let _ = ctx.virtual_now();
            });
        });
        let msg = panic_text(&*caught.expect_err("the node panic must escape"));
        assert!(
            msg.contains("original failure in node 3"),
            "expected the worker's own payload, got: {msg:?}"
        );
    }

    #[test]
    fn a_node_that_dies_before_it_sends_ends_the_run_with_its_own_payload() {
        // Node 1 waits on a link only node 0 writes to. Node 0's panic ends
        // the run, and the payload that escapes is node 0's — not a report
        // of node 1 left waiting.
        let msg = panics_within_5s(|| {
            run_spmd(1, Spmd::default(), async |ctx: &NodeCtx<'_, u64>| {
                if ctx.id() == 0 {
                    panic!("node 0 died before its first send");
                }
                recv(ctx, 0).await;
            });
        });
        assert!(msg.contains("node 0 died before its first send"), "got: {msg:?}");
    }

    #[test]
    fn a_node_that_dies_while_its_peers_wait_at_a_barrier_ends_the_run_with_its_own_payload() {
        // The last hang: three nodes reach the barrier, the fourth dies
        // first. A barrier that is awaited cannot park its waiters, so the
        // run ends with the dead node's own payload.
        for fabric in [FabricModel::Free, FabricModel::Throttled(Machine::all_port(1.0, 1.0))] {
            let msg = panics_within_5s(move || {
                run_spmd(2, on(fabric), async |ctx: &NodeCtx<'_, u64>| {
                    if ctx.id() == 2 {
                        panic!("node 2 died on its way to the barrier");
                    }
                    ctx.barrier().await
                });
            });
            assert!(msg.contains("node 2 died on its way to the barrier"), "got: {msg:?}");
        }
    }

    #[test]
    fn a_node_that_returns_early_is_reported_when_no_node_failed() {
        // No root cause to re-raise: node 0 simply returns while node 1
        // still expects a message. The run ends and says which link.
        let msg = panics_within_5s(|| {
            run_spmd(1, Spmd::default(), async |ctx: &NodeCtx<'_, u64>| {
                if ctx.id() == 1 {
                    recv(ctx, 0).await;
                }
            });
        });
        assert!(msg.contains("node 1: the neighbor across dimension 0 hung up"), "got: {msg:?}");
    }

    #[test]
    fn a_post_to_a_node_that_returned_on_another_worker_wakes_nothing() {
        // Node 0's worker retires as soon as node 0 returns; node 1, on a
        // worker of its own, then sends to it and waits for a reply. The
        // post marks the retired worker, and that mark must not keep the
        // run from seeing that nothing can ever wake node 1.
        let msg = panics_within_5s(|| {
            step_order::with_workers(2, || {
                run_spmd(1, Spmd::default(), async |ctx: &NodeCtx<'_, u64>| {
                    if ctx.id() == 1 {
                        ctx.send(0, 1);
                        recv(ctx, 0).await;
                    }
                });
            });
        });
        assert!(msg.contains("node 1: the neighbor across dimension 0 hung up"), "got: {msg:?}");
    }

    #[test]
    fn two_nodes_that_both_receive_first_deadlock_and_the_panic_names_their_waits() {
        // Each node asks for job 1's message before it sends its own: every
        // node is blocked and nothing is in flight. The run panics, naming
        // what each node waits on, instead of hanging.
        let msg = panics_within_5s(|| {
            let spmd = Spmd { njobs: 2, ..Spmd::default() };
            run_spmd(1, spmd, async |ctx: &NodeCtx<'_, u64>| {
                ctx.recv(0, 1).await;
                ctx.send(0, 7);
            });
        });
        assert!(msg.contains("deadlock"), "got: {msg:?}");
        for node in 0..2 {
            assert!(msg.contains(&format!("node {node} waits on (dim 0, job 1)")), "got: {msg:?}");
        }
    }

    #[test]
    fn a_node_ctx_is_send_and_not_sync() {
        // Checked by the compiler: a context lives on its node's worker and
        // could move to another (`Send`) but cannot be lent to a second one
        // (`!Sync`), which is why nothing in a node's book is atomic or
        // locked. If `NodeCtx` were `Sync`, both impls below would apply
        // and `_` would be ambiguous.
        trait AmbiguousIfSync<A> {
            fn check() {}
        }
        impl<T: ?Sized> AmbiguousIfSync<()> for T {}
        impl<T: ?Sized + Sync> AmbiguousIfSync<u8> for T {}
        fn is_send<T: Send>() {}
        is_send::<NodeCtx<'_, Vec<f64>>>();
        <NodeCtx<'_, Vec<f64>> as AmbiguousIfSync<_>>::check();
    }

    #[test]
    fn degraded_fabric_replays_and_charges_per_link() {
        use crate::scenario::{Scenario, ScenarioSpec};
        use std::sync::Arc;

        // A heterogeneous scenario: per-link machines differ, so the
        // makespan exceeds the clean-base one, and every run replays the
        // same virtual times from the seed.
        let base = Machine::all_port(10.0, 2.0);
        let spec = ScenarioSpec { hetero_spread: 2.0, ..ScenarioSpec::clean(77, base) };
        let sc = Arc::new(Scenario::new(2, spec).expect("valid spec"));
        let run = |fabric: FabricModel| {
            run_spmd(2, on(fabric), async |ctx: &NodeCtx<'_, Vec<f64>>| {
                for dim in [0, 1, 0] {
                    swap(ctx, dim, vec![0.0; 5]).await;
                }
                ctx.barrier().await;
            })
            .fabric
        };
        let clean = run(FabricModel::Throttled(base));
        let degraded = run(FabricModel::Degraded(sc.clone()));
        assert!(
            degraded.makespan > clean.makespan,
            "impaired links must cost more: {} vs {}",
            degraded.makespan,
            clean.makespan
        );
        let replay = run(FabricModel::Degraded(sc));
        assert_eq!(replay, degraded, "scenario runs must replay bit for bit");
    }

    #[test]
    fn invalid_fabric_fails_before_spawn_with_the_typed_message() {
        use crate::machine::PortModel;
        let bad = Machine { ts: 1.0, tw: 1.0, ports: PortModel::KPort(0) };
        let caught = std::panic::catch_unwind(|| {
            run_spmd(1, on(FabricModel::Throttled(bad)), async |_: &NodeCtx<'_, u64>| {});
        });
        let msg = panic_text(&*caught.expect_err("KPort(0) must be rejected"));
        assert!(msg.contains("invalid fabric model"), "got: {msg:?}");
    }

    #[test]
    fn throttled_barrier_synchronizes_clocks() {
        // Node pairs across dim 0 exchange unequal payloads; after a
        // barrier every node's clock sits at the slowest participant.
        let fabric = FabricModel::Throttled(Machine::all_port(0.0, 1.0));
        let report = run_spmd(2, on(fabric), async |ctx: &NodeCtx<'_, Vec<f64>>| {
            swap(ctx, 0, vec![0.0; if ctx.id() < 2 { 10 } else { 1000 }]).await;
            ctx.barrier().await;
            ctx.virtual_now()
        })
        .fabric;
        assert_eq!(report.node_times, vec![1000.0; 4]);
    }

    /// A job-tagged payload: the seeded-order program's message.
    struct Tagged {
        job: u32,
        v: Vec<f64>,
    }

    impl Meterable for Tagged {
        fn elems(&self) -> u64 {
            self.v.len() as u64
        }

        fn job(&self) -> u32 {
            self.job
        }
    }

    /// What a node of the seeded-order program returns: its all-reduced
    /// sum, `(job, elems, stamp)` of each tagged arrival, and its clock past
    /// the barrier.
    type Mixed = (f64, Vec<(u32, usize, f64)>, f64);

    /// A `d`-cube program of every kind of wait a node can meet: an
    /// all-reduce over every dimension; then, per dimension, two jobs
    /// interleaved on the same link — job 1's message out before job 0's,
    /// job 0's taken first, so job 1's waits in its own queue while the
    /// neighbor's second one may or may not have come; then a throttled
    /// barrier.
    async fn mixed(ctx: &NodeCtx<'_, Tagged>) -> Mixed {
        let (id, d) = (ctx.id(), ctx.dim());
        // The next message of `job` across `dim`, its wait spent.
        let take = async |dim, job| {
            let (msg, stamp) = ctx.recv(dim, job).await;
            ctx.advance_clock_to(stamp);
            (msg, stamp)
        };
        let mut sum = id as f64;
        for dim in 0..d {
            ctx.send(dim, Tagged { job: 0, v: vec![sum; 1] });
            sum += take(dim, 0).await.0.v[0];
        }
        let mut got = Vec::new();
        for dim in 0..d {
            let send = |job, elems| ctx.send(dim, Tagged { job, v: vec![sum; elems] });
            send(1, 3 + id);
            send(0, 1 + 2 * id);
            let mut tally = async |job| {
                let (msg, stamp) = take(dim, job).await;
                got.push((msg.job, msg.v.len(), stamp));
            };
            tally(0).await;
            send(1, 5 + id);
            tally(1).await;
            tally(1).await;
        }
        ctx.barrier().await;
        (sum, got, ctx.virtual_now())
    }

    #[test]
    fn every_seeded_step_order_gives_the_results_meter_and_clocks_of_the_default_one() {
        // Virtual time is a max-plus recurrence over each link's FIFO order,
        // so no order of steps may move a result, a count or a clock: 64
        // seeded orders on one worker against the default schedule.
        let fabric = FabricModel::Throttled(Machine::one_port(100.0, 3.0));
        let run =
            || run_spmd(3, Spmd { fabric: fabric.clone(), njobs: 2, ..Spmd::default() }, mixed);
        let books = |run: &SpmdRun<Mixed>| {
            let m = &run.meter;
            let jobs = (m.job_volume(0), m.job_volume(1));
            (m.total_messages(), m.volume_by_dim(), jobs, m.shipments(), run.fabric.clone())
        };
        let want = run();
        assert!(want.results.iter().all(|r| r.0 == 28.0), "the sum of 0..8 everywhere");
        assert!(want.fabric.node_times.iter().all(|&t| t == want.fabric.makespan));
        for seed in 0..64 {
            let got = step_order::with_seed(seed, run);
            assert_eq!(got.results, want.results, "seed {seed}: results");
            assert_eq!(books(&got), books(&want), "seed {seed}: meter and clocks");
        }
    }

    #[test]
    fn every_worker_count_gives_the_results_meter_and_clocks_of_one_worker() {
        // From one worker stepping all eight nodes to one thread per node:
        // the workers wake one another across the cube's top dimensions
        // (and, with three, mid-range), and nothing they do may move a
        // result, a count or a clock.
        let fabric = FabricModel::Throttled(Machine::one_port(100.0, 3.0));
        let run =
            || run_spmd(3, Spmd { fabric: fabric.clone(), njobs: 2, ..Spmd::default() }, mixed);
        let want = step_order::with_workers(1, run);
        for w in [2, 3, 8, 8, 8] {
            let got = step_order::with_workers(w, run);
            assert_eq!(got.results, want.results, "{w} workers: results");
            assert_eq!(got.meter.volume_by_dim(), want.meter.volume_by_dim(), "{w} workers");
            assert_eq!(got.meter.shipments(), want.meter.shipments(), "{w} workers");
            assert_eq!(got.fabric, want.fabric, "{w} workers: clocks");
        }
        // A protocol slip stays a panic, not a hang, on every worker count.
        for w in [2, 8] {
            let msg = panics_within_5s(move || {
                step_order::with_workers(w, || {
                    run_spmd(3, Spmd::default(), async |ctx: &NodeCtx<'_, u64>| {
                        ctx.recv(0, 0).await;
                    });
                });
            });
            assert!(msg.contains("node 7 waits on (dim 0, job 0)"), "{w} workers: {msg:?}");
        }
    }

    #[test]
    fn each_job_takes_its_own_messages_in_send_order_across_interleavings() {
        // Sender order on dim 0: job 1, job 0, job 1, job 0. The receiver
        // asks for job 0's first: each job's queue hands it its own
        // messages in send order, and nothing of job 1 is in the way.
        let spmd = Spmd { njobs: 2, ..Spmd::default() };
        let SpmdRun { results, meter, .. } =
            run_spmd(1, spmd, async |ctx: &NodeCtx<'_, Tagged>| {
                let base = ctx.id() as f64 * 10.0;
                for (job, v) in [(1u32, 0.0), (0, 1.0), (1, 2.0), (0, 3.0)] {
                    ctx.send(0, Tagged { job, v: vec![base + v] });
                }
                let mut got = Vec::new();
                for job in [0u32, 0, 1, 1] {
                    let (m, _) = ctx.recv(0, job).await;
                    got.push((m.job, m.v[0]));
                }
                got
            });
        // Two messages per job per node, one element each, metered apart.
        assert_eq!(meter.job_volume(0), 4);
        let peer = |n: usize| ((n ^ 1) as f64) * 10.0;
        for (n, got) in results.iter().enumerate() {
            let b = peer(n);
            assert_eq!(got, &vec![(0, b + 1.0), (0, b + 3.0), (1, b + 0.0), (1, b + 2.0)]);
        }
    }

    #[test]
    fn a_message_taken_after_another_jobs_keeps_its_own_stamp() {
        // Throttled fabric: job 1's message is sent first (earlier stamp),
        // job 0's second. Receiving job 0 first must not lose or reorder
        // job 1's stamp.
        let fabric = FabricModel::Throttled(Machine::all_port(10.0, 1.0));
        let spmd = Spmd { fabric, njobs: 2, ..Spmd::default() };
        let results = run_spmd(1, spmd, async |ctx: &NodeCtx<'_, Tagged>| {
            ctx.send(0, Tagged { job: 1, v: vec![1.0] }); // stamp 10 + 1 = 11
            ctx.send(0, Tagged { job: 0, v: vec![0.0] }); // stamp 20 + 1 = 21
            let (_, s0) = ctx.recv(0, 0).await;
            let (_, s1) = ctx.recv(0, 1).await;
            (s0, s1)
        })
        .results;
        for (s0, s1) in results {
            assert_eq!(s1, 11.0, "job 1's stamp is its own send time");
            assert_eq!(s0, 21.0);
        }
    }

    #[test]
    fn a_run_that_ends_with_a_message_queued_panics_naming_it() {
        // Every node returns, but node 1 sent job 1 a message across
        // dimension 0 that node 0 never took: the framing is corrupt, and
        // the run says where the message waits.
        let msg = panics_within_5s(|| {
            let spmd = Spmd { njobs: 2, ..Spmd::default() };
            run_spmd(1, spmd, async |ctx: &NodeCtx<'_, Tagged>| {
                if ctx.id() == 1 {
                    ctx.send(0, Tagged { job: 1, v: vec![0.0] });
                }
            });
        });
        assert!(msg.contains("node 0 has a message queued on (dim 0, job 1)"), "got: {msg:?}");
    }
}
