//! Framed packets: the wire unit of the paper's communication pipelining
//! (§2.4).
//!
//! A pipelined exchange phase splits its mobile payload into `Q` packets;
//! packet `q` of iteration `k` is received from `links[k−1]`, processed,
//! and forwarded through `links[k]` on its own arrival stamp, so it
//! occupies hop `k` of the link path at pipeline depth `s = k + q` — the
//! paper's prologue, kernel and epilogue in dataflow form. The pipeline
//! itself is the micro-op engine's (`mph_eigen::multidrive`: its
//! `Pipe`/`Drain`/`TailSend`/`TailRecv` ops over
//! [`NodeCtx::send_after`](crate::spmd::NodeCtx::send_after) and
//! [`JobMux::recv_for`](crate::jobmux::JobMux::recv_for)); this module
//! owns the frame it moves.

use crate::spmd::Meterable;

/// A framed packet: pipeline coordinates plus payload.
///
/// `job` is the id of the problem the packet belongs to (several
/// independent problems may multiplex one fabric), `k` the iteration (hop)
/// that sent it and `q` its index within the payload split. Receivers
/// assert the header, turning a silent protocol slip into an immediate
/// panic; the job tag is what lets a receiver demultiplex interleaved
/// jobs' packets off one FIFO link ([`crate::jobmux::JobMux`]), and the
/// frame carries [`Meterable`] accounting through a mixed link protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet<P> {
    pub job: u32,
    pub k: u32,
    pub q: u32,
    pub payload: P,
}

impl<P> Packet<P> {
    /// Packet `q` of iteration `k` of job `job`.
    pub fn for_job(job: u32, k: u32, q: u32, payload: P) -> Self {
        Packet { job, k, q, payload }
    }
}

impl<P: Meterable> Meterable for Packet<P> {
    fn elems(&self) -> u64 {
        self.payload.elems()
    }

    fn is_control(&self) -> bool {
        self.payload.is_control()
    }

    fn job(&self) -> u32 {
        self.job
    }

    fn kq(&self) -> Option<(u32, u32)> {
        Some((self.k, self.q))
    }
}
