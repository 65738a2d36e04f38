//! The solve-lifetime helper pool behind the kernel's tile tournament.
//!
//! A tournament round is an antichain of column-disjoint tile tasks
//! (paper §2.2: pairings on disjoint columns commute exactly); only the
//! edge *between* rounds needs a synchronisation. [`PairingPool`] pays for
//! exactly that: its helper threads are created once — per solve by the
//! logical drivers, per node by the threaded and batch drivers —
//! and sleep on a condition variable between rounds. [`PairingPool::run`]
//! publishes one round's job, wakes the helpers the round seats, **runs
//! the job on the calling thread too**, and returns once every helper that
//! joined has left it. The job is a claim loop over the round's tasks (see
//! `SweepKernel` in [`crate::kernel`]): a lane takes its own share first
//! and then whatever the others have not claimed, so on a host where
//! caller and helper share one CPU the caller simply works through the
//! round instead of waiting for a helper that has not been scheduled yet.
//!
//! Every wait blocks in the kernel (mutex + condvar, no spinning), so a
//! caller and a helper confined to one core hand the core to each other
//! rather than burn a time slice each.
//!
//! A job borrows the solver's column data, while the helpers are ordinary
//! `'static` threads; [`PairingPool::run`] holds the one `unsafe` block
//! that bridges the two, and the protocol around it — a helper can only
//! obtain the job while `run` is on the caller's stack, and `run` does
//! not return or unwind before every such helper has finished — is what
//! makes it sound.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// One round's work, called concurrently by every participating thread
/// with its lane: 0 on the caller, `i + 1` on helper `i`.
type Job<'a> = dyn Fn(usize) + Sync + 'a;

struct State {
    /// The round in flight; `None` between rounds, so a helper that wakes
    /// late finds nothing to join.
    job: Option<&'static Job<'static>>,
    /// Helpers `0..seats` take part in the round in flight.
    seats: usize,
    /// Helpers currently inside the job.
    active: usize,
    /// Round counter: a helper joins a given round at most once.
    round: u64,
    /// The first panic a helper's job raised this round.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Helper `i` sleeps on `wake[i]` between rounds, so a round wakes
    /// exactly the helpers it seats — and always the same ones, which
    /// keeps a lane's columns in one core's cache from round to round.
    wake: Vec<Condvar>,
    /// The caller sleeps here until the last helper leaves the job.
    done: Condvar,
}

impl Shared {
    /// Locks the state. Jobs run outside the lock (and under
    /// `catch_unwind`), and every critical section is a few field stores
    /// that leave the state valid at each step, so a poisoned lock still
    /// guards a consistent state and is recovered rather than re-raised.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Helper threads parked between tournament rounds; see the module docs.
pub struct PairingPool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

#[cfg(test)]
thread_local! {
    /// Helper threads spawned *by this thread* since it started — a test
    /// thread's own count, undisturbed by tests running beside it.
    static SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Helper threads the calling thread spawns while running `f`.
#[cfg(test)]
pub(crate) fn spawned_by(f: impl FnOnce()) -> usize {
    let before = SPAWNED.with(|n| n.get());
    f();
    SPAWNED.with(|n| n.get()) - before
}

/// The message of a caught panic payload.
#[cfg(test)]
pub(crate) fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast::<&'static str>().map(|s| s.to_string()).unwrap(),
    }
}

impl PairingPool {
    /// A pool for rounds of up to `lanes` concurrent threads: the caller
    /// plus `lanes − 1` helpers, spawned here and joined on drop.
    /// `lanes ≤ 1` spawns nothing. Callers clamp `lanes` to the most tasks
    /// any round can hold, which is what keeps `workers: usize::MAX` from
    /// asking for that many threads.
    pub fn new(lanes: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                seats: 0,
                active: 0,
                round: 0,
                panic: None,
                shutdown: false,
            }),
            wake: (1..lanes).map(|_| Condvar::new()).collect(),
            done: Condvar::new(),
        });
        let mut helpers = Vec::new();
        for index in 0..shared.wake.len() {
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name("mph-pairing".into())
                .spawn(move || helper_loop(&shared, index));
            // A host that refuses another thread gets a smaller pool: the
            // tournament's bits do not depend on how many threads run it.
            let Ok(handle) = spawned else { break };
            helpers.push(handle);
            #[cfg(test)]
            SPAWNED.with(|n| n.set(n.get() + 1));
        }
        PairingPool { shared, helpers }
    }

    /// Runs `job(0)` on the calling thread and, concurrently, `job(l)` on
    /// helper `l − 1` for every other lane `l < lanes`; returns when all of
    /// them have returned from it. With `lanes ≤ 1` (or no helpers) this is
    /// a plain call. A helper the scheduler has not run by the time the
    /// caller's own call returns sits the round out: the job must not
    /// count on every lane showing up.
    ///
    /// If the job panics on any thread, the others still run it to the
    /// end, and then the panic is re-raised here with its own payload —
    /// the caller's first, else the first helper's. The helpers survive
    /// and are joined when the pool drops.
    pub fn run(&mut self, lanes: usize, job: &Job<'_>) {
        let seats = lanes.saturating_sub(1).min(self.helpers.len());
        if seats == 0 {
            return job(0);
        }
        // SAFETY: the transmute only widens the reference's lifetimes; the
        // pointee is used strictly inside this call. A helper copies the
        // reference out of `state.job` under the lock and counts itself in
        // `state.active` in the same critical section. Below, after the
        // caller's own share (panic caught, so no early unwind), this
        // function clears `state.job` under the lock — no helper can
        // obtain the reference any more — and then blocks until
        // `state.active` is zero, i.e. until every helper that did obtain
        // it has returned from the call and dropped it. Only then does it
        // return or resume unwinding, so the reference never outlives the
        // borrow it was made from. `Sync` on the job makes the concurrent
        // `&`-calls themselves sound.
        let erased = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
        {
            let mut st = self.shared.lock();
            st.job = Some(erased);
            st.seats = seats;
            st.round += 1;
        }
        for wake in &self.shared.wake[..seats] {
            wake.notify_one();
        }
        let mine = catch_unwind(AssertUnwindSafe(|| job(0)));
        let mut st = self.shared.lock();
        st.job = None;
        while st.active > 0 {
            st = self.shared.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let theirs = st.panic.take();
        drop(st);
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            resume_unwind(payload);
        }
    }
}

impl Drop for PairingPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        for wake in &self.shared.wake {
            wake.notify_one();
        }
        for helper in self.helpers.drain(..) {
            // A helper only runs jobs under `catch_unwind`; there is no
            // panic of its own to report, and `drop` must not raise one.
            let _ = helper.join();
        }
    }
}

fn helper_loop(shared: &Shared, index: usize) {
    let mut joined = 0u64;
    let mut st = shared.lock();
    loop {
        if st.shutdown {
            return;
        }
        match st.job {
            Some(job) if index < st.seats && st.round != joined => {
                joined = st.round;
                st.active += 1;
                drop(st);
                let outcome = catch_unwind(AssertUnwindSafe(|| job(index + 1)));
                st = shared.lock();
                if let Err(payload) = outcome {
                    st.panic.get_or_insert(payload);
                }
                st.active -= 1;
                if st.active == 0 {
                    shared.done.notify_one();
                }
            }
            _ => st = shared.wake[index].wait(st).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn spawns_lanes_minus_one_helpers_and_none_for_one_lane() {
        for (lanes, want) in [(0usize, 0usize), (1, 0), (2, 1), (5, 4)] {
            let mut pool = None;
            assert_eq!(spawned_by(|| pool = Some(PairingPool::new(lanes))), want, "lanes={lanes}");
            assert_eq!(pool.unwrap().helpers.len(), want, "lanes={lanes}");
        }
    }

    #[test]
    fn every_lane_runs_the_job_concurrently() {
        // The barrier forces the interleaving: it only opens when all
        // three threads are inside the job at the same time.
        let mut pool = PairingPool::new(3);
        let gate = Barrier::new(3);
        let calls = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(3, &|_| {
                gate.wait();
                calls.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(calls.load(Ordering::SeqCst), 150);
    }

    #[test]
    fn run_uses_no_more_lanes_than_asked() {
        // Two lanes on a four-lane pool. Each thread that enters counts
        // itself and holds the round open until the second has arrived
        // (yielding, so an unwanted third would get in and be counted).
        let mut pool = PairingPool::new(4);
        for _ in 0..50 {
            let inside = AtomicUsize::new(0);
            pool.run(2, &|_| {
                inside.fetch_add(1, Ordering::SeqCst);
                while inside.load(Ordering::SeqCst) < 2 {
                    std::thread::yield_now();
                }
            });
            assert_eq!(inside.load(Ordering::SeqCst), 2);
        }
        let calls = AtomicUsize::new(0);
        pool.run(1, &|_| {
            calls.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn jobs_may_borrow_the_callers_stack() {
        let mut pool = PairingPool::new(2);
        for round in 0..20usize {
            let cells: Vec<Mutex<usize>> = (0..8).map(|_| Mutex::new(0)).collect();
            let next = AtomicUsize::new(0);
            pool.run(2, &|_| {
                while let Some(cell) = cells.get(next.fetch_add(1, Ordering::Relaxed)) {
                    *cell.lock().unwrap() += round;
                }
            });
            assert!(cells.iter().all(|c| *c.lock().unwrap() == round));
        }
    }

    #[test]
    fn a_helpers_panic_reaches_the_caller_with_its_own_message() {
        let mut pool = PairingPool::new(2);
        let gate = Barrier::new(2);
        let caller = std::thread::current().id();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|_| {
                // Both threads are inside before the helper panics, so it
                // is the helper's payload that must travel.
                gate.wait();
                if std::thread::current().id() != caller {
                    panic!("tile task 7 failed");
                }
            })
        }));
        assert_eq!(panic_message(outcome.unwrap_err()), "tile task 7 failed");
        // The helper survived its job's panic and serves the next round.
        let calls = AtomicUsize::new(0);
        pool.run(2, &|_| {
            gate.wait();
            calls.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_callers_panic_waits_for_the_helper_before_unwinding() {
        let mut pool = PairingPool::new(2);
        let gate = Barrier::new(2);
        let caller = std::thread::current().id();
        let helper_finished = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|_| {
                gate.wait();
                if std::thread::current().id() == caller {
                    panic!("caller's share failed");
                }
                std::thread::yield_now();
                helper_finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert_eq!(panic_message(outcome.unwrap_err()), "caller's share failed");
        // `run` only unwound after the helper had left the job.
        assert_eq!(helper_finished.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropping_the_pool_joins_parked_helpers() {
        // `join` inside `drop` would hang this test if a parked helper
        // missed the shutdown wake-up.
        for _ in 0..20 {
            let mut pool = PairingPool::new(3);
            pool.run(3, &|_| {});
            drop(pool);
        }
    }
}
