//! SPMD execution: one OS thread per hypercube node, one channel per link
//! direction.
//!
//! [`run_spmd`] spawns `2^d` threads, each handed a [`NodeCtx`] that can
//! exchange messages with its `d` neighbors and synchronize at barriers.
//! Channels are unbounded, so the symmetric send-then-receive pattern of
//! the Jacobi transitions cannot deadlock. All communication is
//! neighbor-to-neighbor — exactly the discipline the paper's algorithms
//! obey on a real hypercube multicomputer — which is what makes this
//! runtime a faithful stand-in for an MPI-on-hypercube deployment.
//!
//! Every message travels in an envelope carrying a virtual-time arrival
//! stamp from the sender's [`LinkClock`]. Under the default
//! [`FabricModel::Free`] the stamps are zero and the clocks idle; under
//! [`FabricModel::Throttled`] ([`Spmd::fabric`]) each send is charged
//! `Ts + S·Tw` against the machine's port configuration, and barriers
//! synchronize the nodes' clocks — see [`crate::fabric`].
//!
//! # Books and channels
//!
//! A node owns its books. Its [`NodeCtx`] — channel ends and one
//! [`LinkClock`]: virtual clock, barrier epoch, calibration window,
//! traffic counters — is moved into its thread, so booking a send shares
//! nothing and locks nothing (`NodeCtx` is `Send` and not `Sync`: the
//! compiler rejects lending it to a second thread). What the nodes do
//! share is the barrier and the two slots its virtual time is agreed
//! through. At join every thread hands its book back, and
//! [`SpmdRun::meter`] and [`FabricReport::node_times`] are read off them
//! once. Because a node also owns its channel ends, one that panics
//! drops them as it unwinds: its peers' sends and receives see the
//! hang-up and end, and [`run_spmd`] re-raises the failed node's own
//! payload, not a peer's report of the hang-up.
//!
//! What the model charges and what the host moves are separate calls.
//! [`NodeCtx::charge`] keeps the books of one modelled transmission —
//! meter, link clock, send span — and moves nothing; [`NodeCtx::ship`]
//! puts one message on the channel and writes nothing down but the
//! shipment count. [`NodeCtx::send`] is both, for a message that is one
//! transmission. A program whose model splits a payload into packets
//! the host has no reason to move apart charges each packet, collects the
//! stamps, and ships payload and stamps once (the micro-op engine's
//! pipeline rounds, `mph_eigen::multidrive`). The receive side mirrors it:
//! [`NodeCtx::recv_stamped`] takes a message off the channel,
//! [`NodeCtx::trace_recv`] records one consumed arrival, and
//! [`NodeCtx::recv`] is both plus the clock advance.

use crate::fabric::{FabricModel, FabricReport, LinkClock, SharedClock};
use crate::meter::TrafficMeter;
use crate::trace::{SinkHandle, TraceEvent};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::cell::RefCell;
use std::panic::{panic_any, resume_unwind};
use std::sync::Barrier;

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
    /// problems share one fabric (see [`Spmd::njobs`]). The
    /// meter keeps per-job totals and the job demultiplexer
    /// ([`crate::jobmux::JobMux`]) routes by this tag. Solo programs use
    /// the default job 0.
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

/// The panic of a node whose neighbor dropped its end of their link: a
/// consequence of that neighbor's failure, never the cause of the run's.
/// A payload type of its own lets [`run_spmd`] tell the two apart.
struct NeighborHungUp {
    node: usize,
    dim: usize,
}

/// Per-node handle: identity, neighbor channels, barrier, and the node's
/// book (fabric clock and traffic counters). Owned by the node's thread.
pub struct NodeCtx<'a, M: Send> {
    id: usize,
    d: usize,
    /// `tx[dim]` sends to the neighbor across `dim`.
    tx: Vec<Sender<Envelope<M>>>,
    /// `rx[dim]` receives from the neighbor across `dim`.
    rx: Vec<Receiver<Envelope<M>>>,
    barrier: &'a Barrier,
    shared_clock: &'a SharedClock,
    sink: SinkHandle,
    book: RefCell<LinkClock>,
}

impl<'a, M: Send + Meterable> NodeCtx<'a, M> {
    /// This node's label (`0..2^d`).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Cube dimension `d`.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The neighbor across `dim`.
    pub fn neighbor(&self, dim: usize) -> usize {
        self.id ^ (1 << dim)
    }

    /// This node's virtual clock, in machine time units (always 0 on a
    /// [`FabricModel::Free`] fabric).
    pub fn virtual_now(&self) -> f64 {
        self.book.borrow().now()
    }

    /// Sends `msg` to the neighbor across `dim` (non-blocking in real
    /// time; on a throttled fabric the message is charged `Ts + S·Tw`
    /// against this node's ports and outgoing link on the virtual clock):
    /// one [`NodeCtx::charge`] of the whole message, then its shipment
    /// under the stamp that returned.
    pub fn send(&self, dim: usize, msg: M) {
        let stamp = self.charge(dim, msg.elems(), msg.job(), None, msg.is_control(), 0.0);
        self.post(dim, msg, stamp);
    }

    /// Receives the next message from the neighbor across `dim` (blocking;
    /// on a throttled fabric this node's clock advances to the message's
    /// arrival stamp — waiting for data is virtual time spent).
    pub fn recv(&self, dim: usize) -> M {
        let (msg, stamp) = self.recv_stamped(dim);
        self.advance_clock_to(stamp);
        self.trace_recv(dim, msg.elems(), msg.job(), None, msg.is_control(), stamp);
        msg
    }

    /// Symmetric exchange: send `msg` across `dim` and receive the
    /// neighbor's counterpart — the primitive behind every transition.
    pub fn exchange(&self, dim: usize, msg: M) -> M {
        self.send(dim, msg);
        self.recv(dim)
    }

    /// The books of one transmission of `elems` elements across `dim`, and
    /// nothing else: the meter counts it for `job` on its plane, the link
    /// clock charges it `Ts + S·Tw` departing no earlier than `ready`
    /// (typically the arrival stamp of the packet this transmission
    /// forwards, from [`NodeCtx::recv_stamped`]: the CPU issues start-ups
    /// serially in program order but does not wait for the data — the
    /// comm-processor model that lets a software pipeline overlap
    /// iterations on the virtual clock), and the trace records the send span under its pipeline header `kq`
    /// (`None` for a whole message). Returns the arrival stamp (0 on a
    /// free fabric). No message moves: whoever charges a payload piece by
    /// piece [`NodeCtx::ship`]s it once, with the stamps inside.
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

    /// One channel message, stamped.
    fn post(&self, dim: usize, msg: M, stamp: f64) {
        self.book.borrow_mut().count_shipment();
        if self.tx[dim].send(Envelope { msg, stamp }).is_err() {
            self.hung_up(dim);
        }
    }

    fn hung_up(&self, dim: usize) -> ! {
        panic_any(NeighborHungUp { node: self.id, dim })
    }

    /// Like [`NodeCtx::recv`], but returns the message's virtual arrival
    /// stamp *without* advancing this node's clock or recording the
    /// arrival: the caller owns the dependency bookkeeping (forward the
    /// stamp into [`NodeCtx::charge`], [`NodeCtx::advance_clock_to`]
    /// the stamps it ultimately consumes, and [`NodeCtx::trace_recv`] each
    /// arrival where it consumes it). On a free fabric the stamp is 0.
    pub fn recv_stamped(&self, dim: usize) -> (M, f64) {
        match self.rx[dim].recv() {
            Ok(env) => (env.msg, env.stamp),
            Err(_) => self.hung_up(dim),
        }
    }

    /// The node's trace sink handle, for drivers that record their own
    /// span boundaries (sweeps, recalibrations, relay hops, admission
    /// decisions) next to the link events the clock records. Disabled
    /// (the default [`crate::trace::NopSink`]) unless the run was given a
    /// live [`Spmd::trace`].
    pub fn trace(&self) -> &SinkHandle {
        &self.sink
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
        if self.sink.is_enabled() && self.book.borrow().throttled() {
            self.sink.emit(self.id, || TraceEvent::Recv { dim, elems, job, kq, control, stamp });
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

    /// Waits until all `2^d` nodes reach the barrier. On a throttled
    /// fabric the nodes also synchronize their virtual clocks: everyone
    /// leaves at the latest participant's time, as a real barrier would
    /// make them. The sync is two-phase over per-generation slots (fold →
    /// wait → adopt + reset-other → wait), so a fast node can never fold
    /// its *next* barrier's time into a slot a slow node is still
    /// adopting — virtual times stay scheduling-independent.
    pub fn barrier(&self) {
        let slot = self.book.borrow_mut().begin_barrier(self.shared_clock);
        self.barrier.wait();
        if let Some(slot) = slot {
            self.book.borrow_mut().finish_barrier(self.shared_clock, slot);
            self.barrier.wait();
        }
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
    /// links: the traffic meter keeps per-job totals (messages declare
    /// their job via [`Meterable::job`]) next to the blended per-dimension
    /// ones.
    pub njobs: usize,
    /// Every node's link clock records its transmissions, arrivals, and
    /// barrier crossings here (see [`crate::trace`]), and `body` can
    /// record driver-level events through [`NodeCtx::trace`]. Tracing is
    /// observational only — results are bitwise-identical to the untraced
    /// run ([`SinkHandle::nop`]).
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
    /// The per-node results of `body`, in label order.
    pub results: Vec<R>,
    /// The run's traffic meter.
    pub meter: TrafficMeter,
    /// The link fabric's report (all zeros on a free fabric).
    pub fabric: FabricReport,
}

/// Runs `body` on every node of a `d`-cube, one thread each, under `spmd`.
///
/// `M` is the message type carried by the links; `body` receives the node's
/// [`NodeCtx`]. A panic in any node ends the run: the node's channel ends
/// drop as it unwinds, peers that wait on it (or send to it) end with it,
/// every thread is joined, and the panic of the first node in label order
/// that failed on its own account is re-raised. (A peer already parked in
/// [`NodeCtx::barrier`] stays parked — `std::sync::Barrier` cannot be
/// interrupted.)
pub fn run_spmd<M, R, F>(d: usize, spmd: Spmd, body: F) -> SpmdRun<R>
where
    M: Send + Meterable,
    R: Send,
    F: Fn(&NodeCtx<'_, M>) -> R + Sync,
{
    let Spmd { fabric, njobs, trace } = spmd;
    // Misconfigured fabrics are rejected by the checked option
    // constructors upstream; this is the last line of defense for callers
    // that skipped them — one clear failure before any thread spawns
    // instead of 2^d asserts racing inside the workers.
    if let Err(err) = fabric.validate() {
        panic!("invalid fabric model: {err}");
    }
    let p = 1usize << d;
    let barrier = Barrier::new(p);
    let shared_clock = SharedClock::new();

    // One directed channel delivering to n across dim, for every (n, dim);
    // its sender belongs to n's neighbor. Dimension by dimension, so each
    // node's ends are pushed in `dim` order: (n, dim) ↦ (n ^ 2^dim, dim)
    // is a bijection, one sender per node per round.
    let mut tx: Vec<Vec<Sender<Envelope<M>>>> = (0..p).map(|_| Vec::with_capacity(d)).collect();
    let mut rx: Vec<Vec<Receiver<Envelope<M>>>> = (0..p).map(|_| Vec::with_capacity(d)).collect();
    for dim in 0..d {
        for n in 0..p {
            let (to_n, at_n) = unbounded();
            tx[n ^ (1 << dim)].push(to_n);
            rx[n].push(at_n);
        }
    }
    // Every channel end moves into its node here and nothing keeps a
    // clone: a sender that outlived its node would leave the node's peers
    // waiting on a link nobody will ever write to.
    let ctxs = tx.into_iter().zip(rx).enumerate().map(|(n, (tx, rx))| NodeCtx {
        id: n,
        d,
        tx,
        rx,
        barrier: &barrier,
        shared_clock: &shared_clock,
        sink: trace.clone(),
        book: RefCell::new(LinkClock::new(fabric.clone(), n, d, njobs, trace.clone())),
    });

    let body = &body;
    let joined: Vec<std::thread::Result<(R, LinkClock)>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> =
            ctxs.map(|ctx| scope.spawn(move |_| (body(&ctx), ctx.book.into_inner()))).collect();
        handles.into_iter().map(|h| h.join()).collect()
    })
    .unwrap_or_else(|payload| resume_unwind(payload));

    let mut results = Vec::with_capacity(p);
    let mut meter = TrafficMeter::with_jobs(d, njobs);
    let mut node_times = Vec::with_capacity(p);
    let mut hung_up = None;
    for node in joined {
        match node {
            Ok((result, book)) => {
                results.push(result);
                meter.absorb(book.meter());
                node_times.push(book.now());
            }
            Err(payload) => match payload.downcast::<NeighborHungUp>() {
                Ok(peer) => hung_up = hung_up.or(Some(peer)),
                // The root cause, re-raised as the node raised it.
                Err(root) => resume_unwind(root),
            },
        }
    }
    if let Some(peer) = hung_up {
        // No node failed on its own account: one returned while a
        // neighbor still had a message to exchange with it.
        panic!("node {}: the neighbor across dimension {} hung up", peer.node, peer.dim);
    }
    let makespan = node_times.iter().fold(0.0f64, |a, &b| a.max(b));
    SpmdRun { results, meter, fabric: FabricReport { model: fabric, makespan, node_times } }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn on(fabric: FabricModel) -> Spmd {
        Spmd { fabric, ..Spmd::default() }
    }

    /// Dimension-exchange fold: `d` exchanges leave the fold of every
    /// node's `value` at every node.
    fn all_reduce(ctx: &NodeCtx<'_, f64>, mut value: f64, fold: fn(f64, f64) -> f64) -> f64 {
        for dim in 0..ctx.dim() {
            value = fold(value, ctx.exchange(dim, value));
        }
        value
    }

    fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn neighbors_identify_each_other() {
        let results = run_spmd::<u64, Vec<u64>, _>(3, Spmd::default(), |ctx| {
            (0..3).map(|dim| ctx.exchange(dim, ctx.id() as u64)).collect()
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
            let results = run_spmd::<f64, f64, _>(d, Spmd::default(), |ctx| {
                all_reduce(ctx, ctx.id() as f64, |a, b| a + b)
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
        let results = run_spmd::<f64, f64, _>(3, Spmd::default(), |ctx| {
            let v = (ctx.id() as f64 * 7.0) % 5.0;
            all_reduce(ctx, v, f64::max)
        })
        .results;
        let expect = (0..8).map(|n| (n as f64 * 7.0) % 5.0).fold(0.0f64, f64::max);
        for r in results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn meter_counts_volume() {
        let meter = run_spmd::<Vec<f64>, (), _>(2, Spmd::default(), |ctx| {
            let _ = ctx.exchange(0, vec![0.0; 10]);
            let _ = ctx.exchange(1, vec![0.0; 3]);
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
        let results = run_spmd::<u64, (u64, u64), _>(2, Spmd::default(), |ctx| {
            let first = ctx.exchange(0, ctx.id() as u64);
            ctx.barrier();
            let second = ctx.exchange(0, first);
            (first, second)
        })
        .results;
        for (n, (first, second)) in results.iter().enumerate() {
            assert_eq!(*first, (n ^ 1) as u64);
            assert_eq!(*second, n as u64); // own id comes back
        }
    }

    #[test]
    fn d0_single_node_runs() {
        let results = run_spmd::<(), usize, _>(0, Spmd::default(), |ctx| ctx.id() + 100).results;
        assert_eq!(results, vec![100]);
    }

    #[test]
    fn free_fabric_reports_zero_makespan() {
        // The default the narrow entry points used to hard-code: the raw
        // transport, one job, tracing off.
        let spmd = Spmd::default();
        assert_eq!((&spmd.fabric, spmd.njobs), (&FabricModel::Free, 1));
        assert!(!spmd.trace.is_enabled());
        let report =
            run_spmd::<f64, f64, _>(2, spmd, |ctx| all_reduce(ctx, 1.0, |a, b| a + b)).fabric;
        assert_eq!(report.model, FabricModel::Free);
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
            run_spmd::<Vec<f64>, (), _>(2, on(fabric.clone()), |ctx| {
                for dim in [0usize, 1, 0] {
                    let _ = ctx.exchange(dim, vec![0.0; 5]);
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
            run_spmd::<Vec<f64>, (), _>(2, on(FabricModel::Throttled(machine)), |ctx| {
                ctx.send(0, vec![0.0; 100]);
                ctx.send(1, vec![0.0; 100]);
                let _ = ctx.recv(0);
                let _ = ctx.recv(1);
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
        // stamps inside. Same stamps, same meter — a third of the channel
        // messages, and the bare shipment is itself neither metered nor
        // stamped.
        let fabric = FabricModel::Throttled(Machine::all_port(10.0, 2.0));
        let sent = run_spmd::<Vec<f64>, Vec<f64>, _>(1, on(fabric.clone()), |ctx| {
            for _ in 0..3 {
                ctx.send(0, vec![0.0; 5]);
            }
            (0..3).map(|_| ctx.recv_stamped(0).1).collect()
        });
        let charged = run_spmd::<Vec<f64>, Vec<f64>, _>(1, on(fabric), |ctx| {
            let stamps = (0..3).map(|q| ctx.charge(0, 5, 0, Some((0, q)), false, 0.0)).collect();
            ctx.ship(0, stamps);
            let (stamps, envelope) = ctx.recv_stamped(0);
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
        // while a slow pair is still adopting the previous one. With
        // per-generation slots the adopted times are exact and identical
        // across runs regardless of scheduling.
        let fabric = FabricModel::Throttled(Machine::all_port(0.0, 1.0));
        let run = || {
            run_spmd::<Vec<f64>, Vec<f64>, _>(2, on(fabric.clone()), |ctx| {
                let mut times = Vec::new();
                // Round 1: pair (0,1) heavy, pair (2,3) light.
                let elems = if ctx.id() < 2 { 1000 } else { 10 };
                let _ = ctx.exchange(0, vec![0.0; elems]);
                ctx.barrier();
                times.push(ctx.virtual_now());
                // Round 2: roles swapped.
                let elems = if ctx.id() < 2 { 10 } else { 1000 };
                let _ = ctx.exchange(0, vec![0.0; elems]);
                ctx.barrier();
                times.push(ctx.virtual_now());
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
        // The root-cause contract behind the poison-recovery fix: when one
        // node fails, the panic that escapes the runtime is *that node's*,
        // not a generic join/poison cascade from its peers.
        let caught = std::panic::catch_unwind(|| {
            run_spmd::<u64, (), _>(2, Spmd::default(), |ctx| {
                let _ = ctx.exchange(0, ctx.id() as u64);
                if ctx.id() == 3 {
                    panic!("original failure in node 3");
                }
                // Peers keep touching their clocks/channels after the
                // panic; none of that may replace the payload below.
                let _ = ctx.virtual_now();
            });
        });
        let payload = caught.expect_err("the node panic must escape");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("original failure in node 3"),
            "expected the worker's own payload, got: {msg:?}"
        );
    }

    #[test]
    fn a_node_that_dies_before_it_sends_ends_the_run_with_its_own_payload() {
        // Node 1 is parked in `recv` on a link only node 0 writes to. When
        // node 0 unwinds it drops that link's sender, node 1 sees the
        // hang-up, and the payload that escapes is node 0's — not node 1's
        // consequence of it. Run from a watchdog thread: if any clone of the
        // sender outlives node 0, `run_spmd` never returns, and this fails
        // at the timeout instead of hanging the suite.
        let (done, watchdog) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || {
            let caught = std::panic::catch_unwind(|| {
                run_spmd::<u64, (), _>(1, Spmd::default(), |ctx| {
                    if ctx.id() == 0 {
                        panic!("node 0 died before its first send");
                    }
                    let _ = ctx.recv(0);
                });
            });
            let _ = done.send(caught);
        });
        let caught = watchdog
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("run_spmd is still blocked 5 s after node 0 died");
        run.join().expect("the run's panic was caught on its own thread");
        let msg = panic_text(&*caught.expect_err("node 0's panic must escape"));
        assert!(msg.contains("node 0 died before its first send"), "got: {msg:?}");
    }

    #[test]
    fn a_node_that_returns_early_is_reported_when_no_node_failed() {
        // No root cause to re-raise: node 0 simply returns while node 1
        // still expects a message. The run ends and says which link.
        let caught = std::panic::catch_unwind(|| {
            run_spmd::<u64, (), _>(1, Spmd::default(), |ctx| {
                if ctx.id() == 1 {
                    let _ = ctx.recv(0);
                }
            });
        });
        let msg = panic_text(&*caught.expect_err("a hung-up link must end the run"));
        assert!(msg.contains("node 1: the neighbor across dimension 0 hung up"), "got: {msg:?}");
    }

    #[test]
    fn a_node_ctx_is_send_and_not_sync() {
        // Checked by the compiler: a context moves into its node's thread
        // (`Send`) and cannot be lent to a second one (`!Sync`), which is
        // why nothing in a node's book is atomic or locked. If `NodeCtx`
        // were `Sync`, both impls below would apply and `_` would be
        // ambiguous.
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
            run_spmd::<Vec<f64>, (), _>(2, on(fabric), |ctx| {
                for dim in [0usize, 1, 0] {
                    let _ = ctx.exchange(dim, vec![0.0; 5]);
                }
                ctx.barrier();
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
            run_spmd::<u64, (), _>(1, on(FabricModel::Throttled(bad)), |_| {});
        });
        let msg = panic_text(&*caught.expect_err("KPort(0) must be rejected"));
        assert!(msg.contains("invalid fabric model"), "got: {msg:?}");
    }

    #[test]
    fn throttled_barrier_synchronizes_clocks() {
        // Node pairs across dim 0 exchange unequal payloads; after a
        // barrier every node's clock sits at the slowest participant.
        let fabric = FabricModel::Throttled(Machine::all_port(0.0, 1.0));
        let report = run_spmd::<Vec<f64>, f64, _>(2, on(fabric), |ctx| {
            let elems = if ctx.id() < 2 { 10 } else { 1000 };
            let _ = ctx.exchange(0, vec![0.0; elems]);
            ctx.barrier();
            ctx.virtual_now()
        })
        .fabric;
        assert_eq!(report.node_times, vec![1000.0; 4]);
    }
}
