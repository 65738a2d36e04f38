//! Job demultiplexing: several independent problems sharing one set of
//! FIFO links.
//!
//! The batch scheduler interleaves the communication of `N` independent
//! jobs over a single channel fabric so that one job's packets fill the
//! link idle time (pipeline bubbles, serial tails) another leaves behind.
//! The links themselves stay plain FIFO channels; what makes the
//! multiplexing sound is that *every* message declares its job via
//! [`Meterable::job`] (the batch drivers' block/round/vote frames all
//! carry the tag), and each node routes arrivals through a [`JobMux`]:
//!
//! * [`JobMux::try_recv_for`] returns the next message *of the requested
//!   job* from a dimension, taking from the link and stashing any other
//!   job's messages it passes over — so per-`(dimension, job)` FIFO order
//!   is preserved exactly however the nodes' interleaving schedules drift
//!   apart — or `Poll::Pending` if that job's message has not come yet;
//! * arrival stamps travel with the stashed messages
//!   ([`NodeCtx::try_recv`] semantics), so a stashed message charges
//!   the virtual clock — and is recorded as an arrival — when *its* job
//!   consumes it, not when it happened to be taken off the link. Waiting
//!   for another job's data never bills this job's clock.
//!
//! Link arbitration on the virtual clock needs no extra machinery: the
//! fabric's [`LinkClock`](crate::fabric) grants ports and links to
//! transmissions in the order the node issues them, so the scheduler's
//! interleaving order *is* the arbitration order — first issued, first on
//! the wire, deterministically.

use crate::spmd::{Meterable, NodeCtx};
use std::collections::VecDeque;
use std::task::Poll;

/// A job-demultiplexing view of one node's links. See the module docs.
pub struct JobMux<M> {
    /// `stash[dim]`: arrivals taken past while looking for another job,
    /// in arrival order, with their virtual-time stamps.
    stash: Vec<VecDeque<(M, f64)>>,
}

impl<M: Send + Meterable> JobMux<M> {
    /// A demultiplexer over the links of a node of a `d`-cube.
    pub fn new(d: usize) -> Self {
        JobMux { stash: (0..d.max(1)).map(|_| VecDeque::new()).collect() }
    }

    /// Takes the next message of `job` from the neighbor across `dim`,
    /// together with its virtual arrival stamp, or `Poll::Pending` if it
    /// has not come: a blocked node is reported waiting on `(dim, job)`.
    /// Messages of other jobs met on the way are stashed for their own
    /// calls. The node's clock is *not* advanced — the caller owns the
    /// dependency bookkeeping, exactly as with [`NodeCtx::try_recv`].
    pub fn try_recv_for(&mut self, ctx: &NodeCtx<'_, M>, dim: usize, job: u32) -> Poll<(M, f64)> {
        let stash = &mut self.stash[dim];
        let stashed = stash.iter().position(|(m, _)| m.job() == job);
        if let Some(found) = stashed.and_then(|pos| stash.remove(pos)) {
            return Poll::Ready(found);
        }
        loop {
            let (msg, stamp) = std::task::ready!(ctx.take(dim, Some(job)));
            if msg.job() == job {
                return Poll::Ready((msg, stamp));
            }
            stash.push_back((msg, stamp));
        }
    }

    /// Messages currently stashed (all dimensions). A clean batch run ends
    /// with 0 — anything left over means a job sent more than its partners
    /// consumed, i.e. the framing is corrupt.
    pub fn stashed(&self) -> usize {
        self.stash.iter().map(VecDeque::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricModel;
    use crate::spmd::{run_spmd, Spmd, SpmdRun};
    use std::task::ready;

    /// A two-job wire protocol: every message is one tagged f64.
    #[derive(Debug, Clone, PartialEq)]
    struct Tagged {
        job: u32,
        v: f64,
    }

    impl Meterable for Tagged {
        fn elems(&self) -> u64 {
            1
        }

        fn job(&self) -> u32 {
            self.job
        }
    }

    #[test]
    fn demux_restores_per_job_fifo_order_across_interleavings() {
        // Sender order on dim 0: job1, job0, job1, job0. The receiver asks
        // job 0 first: the mux must stash job 1's messages and hand each
        // job its own messages in send order.
        let SpmdRun { results, meter, .. } = run_spmd::<Tagged, Vec<(u32, f64)>, _, _>(
            1,
            Spmd { njobs: 2, ..Spmd::default() },
            |ctx| {
                let base = ctx.id() as f64 * 10.0;
                for (job, v) in [(1u32, 0.0), (0, 1.0), (1, 2.0), (0, 3.0)] {
                    ctx.send(0, Tagged { job, v: base + v });
                }
                let mut mux = JobMux::new(ctx.dim());
                let mut got = Vec::new();
                move |ctx| {
                    for job in [0u32, 0, 1, 1].into_iter().skip(got.len()) {
                        let (m, _) = ready!(mux.try_recv_for(ctx, 0, job));
                        got.push((m.job, m.v));
                    }
                    assert_eq!(mux.stashed(), 0, "clean runs drain the stash");
                    Poll::Ready(got.clone())
                }
            },
        );
        // Two messages per job per node, one element each, metered apart.
        assert_eq!(meter.job_volume(0), 4);
        let peer = |n: usize| ((n ^ 1) as f64) * 10.0;
        for (n, got) in results.iter().enumerate() {
            let b = peer(n);
            assert_eq!(got, &vec![(0, b + 1.0), (0, b + 3.0), (1, b + 0.0), (1, b + 2.0)]);
        }
    }

    #[test]
    fn stamps_travel_with_stashed_messages() {
        use crate::machine::Machine;
        // Throttled fabric: job 1's message is sent first (earlier stamp),
        // job 0's second. Receiving job 0 first must not lose or reorder
        // job 1's stamp.
        let fabric = FabricModel::Throttled(Machine::all_port(10.0, 1.0));
        let results = run_spmd::<Tagged, (f64, f64), _, _>(
            1,
            Spmd { fabric, njobs: 2, ..Spmd::default() },
            |ctx| {
                ctx.send(0, Tagged { job: 1, v: 1.0 }); // stamp 10 + 1 = 11
                ctx.send(0, Tagged { job: 0, v: 0.0 }); // stamp 20 + 1 = 21
                let mut mux = JobMux::new(ctx.dim());
                let mut s0 = None;
                move |ctx| {
                    if s0.is_none() {
                        s0 = Some(ready!(mux.try_recv_for(ctx, 0, 0)).1);
                    }
                    let (_, s1) = ready!(mux.try_recv_for(ctx, 0, 1));
                    Poll::Ready((s0.unwrap_or_default(), s1))
                }
            },
        )
        .results;
        for (s0, s1) in results {
            assert_eq!(s1, 11.0, "job 1's stamp is its own send time");
            assert_eq!(s0, 21.0);
        }
    }
}
