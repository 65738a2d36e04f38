//! What the workers of one run share: the links' message queues, the
//! barrier, and the books that say when a worker may park and when every
//! worker has stopped for good.
//!
//! [`run_spmd`](crate::spmd::run_spmd) steps the `2^d` node programs of a
//! run on `W` worker threads. A node's own books
//! ([`LinkClock`](crate::fabric::LinkClock)) never leave its worker; this
//! file holds everything that crosses workers, and is the one file of the
//! runtime with locks and atomics in it:
//!
//! * [`Links`]: one FIFO queue per `(node, dimension, job)`, written by
//!   the neighbor across that dimension and taken from by the node;
//! * [`Sched`]'s barrier: each arrival folds its virtual clock into the
//!   generation's maximum, and the last one releases every node at it;
//! * [`Sched`]'s idle books: every post to a node and every barrier
//!   release marks the node's worker *dirty*, and a worker looks at its
//!   nodes again while it is marked; one whose nodes are all blocked and
//!   that is not marked parks ([`std::thread::park`]) until it is. When
//!   every live worker is parked and none is marked, nothing can ever wake
//!   one: the run is deadlocked, and ends. A worker whose nodes have all
//!   finished has retired, and what is posted to it changes nothing.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;

/// Locks `m`. Every lock here guards plain data that no caller's code runs
/// under, so a poisoned one still holds consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The links of a `d`-cube carrying `njobs` jobs: `queue[(node · d + dim) ·
/// njobs + job]` holds what the neighbor across `dim` sent `node` for `job`
/// and `node` has not yet taken, in send order. A queue allocates only
/// once something is posted to it, so a run of a thousand jobs holds a
/// thousand empty queues per link and nothing more.
pub(crate) struct Links<M> {
    d: usize,
    njobs: usize,
    queues: Vec<Mutex<VecDeque<M>>>,
}

impl<M> Links<M> {
    pub(crate) fn new(p: usize, d: usize, njobs: usize) -> Self {
        let queues = (0..p * d * njobs).map(|_| Mutex::new(VecDeque::new())).collect();
        Links { d, njobs, queues }
    }

    fn queue(&self, node: usize, dim: usize, job: u32) -> &Mutex<VecDeque<M>> {
        let njobs = self.njobs;
        assert!((job as usize) < njobs, "message tagged job {job}, the run carries {njobs}");
        &self.queues[(node * self.d + dim) * njobs + job as usize]
    }

    /// Queues `msg` of `job` for `node`, arriving across `dim`.
    pub(crate) fn push(&self, node: usize, dim: usize, job: u32, msg: M) {
        lock(self.queue(node, dim, job)).push_back(msg);
    }

    /// The oldest message of `job` queued for `node` across `dim`, if any.
    pub(crate) fn pop(&self, node: usize, dim: usize, job: u32) -> Option<M> {
        lock(self.queue(node, dim, job)).pop_front()
    }

    /// The first `(node, dim, job)` with a message still queued, if any.
    pub(crate) fn first_queued(&mut self) -> Option<(usize, usize, u32)> {
        let queued = |q: &mut Mutex<VecDeque<M>>| {
            !q.get_mut().unwrap_or_else(PoisonError::into_inner).is_empty()
        };
        let at = self.queues.iter_mut().position(queued)?;
        let (link, job) = (at / self.njobs, at % self.njobs);
        Some((link / self.d, link % self.d, job as u32))
    }
}

/// What an arrival at the barrier learns.
pub(crate) enum Arrival {
    /// It was the last: every node leaves at this virtual time.
    Released(f64),
    /// Others are still to come: the generation it waits to see pass.
    Waits(u64),
}

/// The barrier's books. `latest` folds the clocks of the generation being
/// gathered; `released_at` is the previous generation's maximum, which
/// stays readable until every node has left with it — none can arrive at
/// the next barrier before it has left this one, so the next release
/// cannot overwrite it early.
#[derive(Default)]
struct BarrierBook {
    arrived: usize,
    latest: f64,
    generation: u64,
    released_at: f64,
}

/// Workers that are parked, workers that still have nodes to step, and
/// which ones have none left.
struct Idle {
    parked: usize,
    live: usize,
    retired: Vec<bool>,
}

/// One worker as the others see it.
#[derive(Default)]
struct Worker {
    thread: OnceLock<Thread>,
    /// Something was posted to one of its nodes, or a barrier released,
    /// since it last looked. Stored with `Release` after the message is
    /// queued or the barrier released, taken with `Acquire` before the
    /// worker looks at its nodes again, so what was posted is visible then.
    dirty: AtomicBool,
}

/// The scheduler of one run: which worker steps which node, the barrier,
/// and the park/wake books (module docs).
pub(crate) struct Sched {
    /// `owner[n]`: the worker that steps node `n`.
    owner: Vec<usize>,
    workers: Vec<Worker>,
    barrier: Mutex<BarrierBook>,
    idle: Mutex<Idle>,
    /// The run is over before its programs are: a node panicked, or every
    /// node left is blocked for good. Stored under the idle lock with
    /// `Release`, read with `Acquire`; it publishes nothing but itself.
    over: AtomicBool,
}

impl Sched {
    /// `p` nodes on `w` workers, each worker a contiguous range of labels —
    /// so the low dimensions' links stay inside one worker.
    pub(crate) fn new(p: usize, w: usize) -> Self {
        Sched {
            owner: (0..p).map(|n| n * w / p).collect(),
            workers: (0..w).map(|_| Worker::default()).collect(),
            barrier: Mutex::new(BarrierBook::default()),
            idle: Mutex::new(Idle { parked: 0, live: w, retired: vec![false; w] }),
            over: AtomicBool::new(false),
        }
    }

    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The labels worker `w` steps.
    pub(crate) fn nodes_of(&self, w: usize) -> Range<usize> {
        let start = self.owner.partition_point(|&o| o < w);
        start..self.owner.partition_point(|&o| o <= w)
    }

    pub(crate) fn worker_of(&self, node: usize) -> usize {
        self.owner[node]
    }

    /// Called by worker `w`'s thread before it steps anything, so posts and
    /// releases can unpark it.
    pub(crate) fn register(&self, w: usize) {
        let _ = self.workers[w].thread.set(std::thread::current());
    }

    /// Worker `from` posted to a node of worker `to`, or released a barrier
    /// `to`'s nodes wait at: mark `to`, and wake it if it is another worker
    /// — a worker is never parked while it posts. Unparking a thread that
    /// is not parked costs one atomic exchange.
    pub(crate) fn stir(&self, from: usize, to: usize) {
        let worker = &self.workers[to];
        worker.dirty.store(true, Ordering::Release);
        if from != to {
            if let Some(thread) = worker.thread.get() {
                thread.unpark();
            }
        }
    }

    /// A node of worker `from` at virtual time `now` arrives at the barrier.
    pub(crate) fn arrive(&self, from: usize, now: f64) -> Arrival {
        let mut b = lock(&self.barrier);
        b.latest = b.latest.max(now);
        b.arrived += 1;
        if b.arrived < self.owner.len() {
            return Arrival::Waits(b.generation);
        }
        let released_at = std::mem::take(&mut b.latest);
        *b = BarrierBook { generation: b.generation + 1, released_at, ..BarrierBook::default() };
        drop(b);
        for to in 0..self.workers.len() {
            self.stir(from, to);
        }
        Arrival::Released(released_at)
    }

    /// The time generation `generation` was released at, once it has been.
    pub(crate) fn passed(&self, generation: u64) -> Option<f64> {
        let b = lock(&self.barrier);
        (b.generation > generation).then_some(b.released_at)
    }

    pub(crate) fn is_over(&self) -> bool {
        self.over.load(Ordering::Acquire)
    }

    /// Worker `w` stepped every node it has: true at once if it is marked —
    /// a post or a release since it last looked may let a node go on —
    /// and otherwise once a post or a release marks it, parked until then.
    /// False once the run is over — a node panicked, or this was the last
    /// worker awake with nothing marked anywhere, which no later event can
    /// change.
    pub(crate) fn idle(&self, w: usize) -> bool {
        let me = &self.workers[w];
        let mut idle = lock(&self.idle);
        let mut counted = false;
        loop {
            if self.is_over() {
                return false;
            }
            if me.dirty.swap(false, Ordering::Acquire) {
                if counted {
                    idle.parked -= 1;
                }
                return true;
            }
            if !counted {
                counted = true;
                idle.parked += 1;
                if self.stalled(&idle) {
                    self.end();
                    return false;
                }
            }
            drop(idle);
            std::thread::park();
            idle = lock(&self.idle);
        }
    }

    /// Every node of worker `w` has finished: it leaves the books — a mark
    /// it has, or gets from a post to a node that returned, can wake
    /// nothing — and if every worker left is parked with nothing marked,
    /// the run is over.
    pub(crate) fn retire(&self, w: usize) {
        let mut idle = lock(&self.idle);
        idle.live -= 1;
        idle.retired[w] = true;
        if idle.live > 0 && self.stalled(&idle) {
            self.end();
        }
    }

    /// A node panicked: every worker stops at its next look.
    pub(crate) fn abort(&self) {
        let _idle = lock(&self.idle);
        self.end();
    }

    /// Whether no worker can ever be woken again. Only a running worker
    /// posts or releases, and with the idle lock held every live worker is
    /// parked, so nothing can change this once it holds.
    fn stalled(&self, idle: &Idle) -> bool {
        idle.parked == idle.live
            && self
                .workers
                .iter()
                .zip(&idle.retired)
                .all(|(w, &retired)| retired || !w.dirty.load(Ordering::Acquire))
    }

    /// Ends the run: called with the idle lock held, so no worker parks
    /// after reading `over` false and misses the wake below.
    fn end(&self) {
        self.over.store(true, Ordering::Release);
        for worker in &self.workers {
            if let Some(thread) = worker.thread.get() {
                thread.unpark();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_take_contiguous_labels_and_cover_every_node_once() {
        for (p, w) in [(1usize, 1usize), (8, 1), (8, 2), (8, 3), (8, 8), (16, 5)] {
            let sched = Sched::new(p, w);
            let mut next = 0;
            for k in 0..w {
                let nodes = sched.nodes_of(k);
                assert_eq!(
                    nodes.start,
                    next,
                    "p={p} w={w}: worker {k} starts where {} ends",
                    k - 1
                );
                assert!(!nodes.is_empty(), "p={p} w={w}: worker {k} has a node");
                assert!(nodes.clone().all(|n| sched.worker_of(n) == k));
                next = nodes.end;
            }
            assert_eq!(next, p);
        }
        // Eight nodes on two workers: dimensions 0 and 1 stay inside one.
        let sched = Sched::new(8, 2);
        assert_eq!((sched.nodes_of(0), sched.nodes_of(1)), (0..4, 4..8));
    }

    #[test]
    fn the_last_arrival_releases_at_the_latest_clock_until_everyone_has_left() {
        // Three nodes on one worker. The release time of a generation stays
        // readable while a fast node arrives at the next barrier and folds
        // a later clock into it: a slow node still leaves with its own
        // generation's maximum.
        let sched = Sched::new(3, 1);
        let Arrival::Waits(g) = sched.arrive(0, 10.0) else { panic!("two still to come") };
        assert!(matches!(sched.arrive(0, 40.0), Arrival::Waits(h) if h == g));
        assert_eq!(sched.passed(g), None);
        assert!(matches!(sched.arrive(0, 25.0), Arrival::Released(t) if t == 40.0));
        assert_eq!(sched.passed(g), Some(40.0));
        // The fast node is at the next barrier before the slow ones left.
        let Arrival::Waits(next) = sched.arrive(0, 90.0) else { panic!("two still to come") };
        assert_eq!(next, g + 1);
        assert_eq!(sched.passed(g), Some(40.0), "the slow nodes leave at 40, not 90");
        assert_eq!(sched.passed(next), None);
        sched.arrive(0, 0.0);
        assert!(matches!(sched.arrive(0, 0.0), Arrival::Released(t) if t == 90.0));
    }

    #[test]
    fn a_worker_alone_with_nothing_marked_is_stalled_and_a_marked_one_is_not() {
        let sched = Sched::new(2, 1);
        sched.register(0);
        sched.stir(0, 0); // a post between two nodes of the worker marks it
        assert!(sched.idle(0), "a marked worker goes back to its nodes");
        assert!(!sched.idle(0), "one worker, nothing marked: nothing can wake it");
        assert!(sched.is_over());
    }
}
