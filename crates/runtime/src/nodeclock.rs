//! One node's virtual clock: the send/wait recurrence of the
//! `Ts`/`Tw`/port machine, stated once.
//!
//! * a **send** charges a serial start-up (`now += Ts`), then transmits
//!   for `elems · Tw` from the latest of the CPU, the data's readiness,
//!   the outgoing link's previous transmission and the earliest transmit
//!   port;
//! * a **wait** advances `now` to an arrival stamp.
//!
//! Three drivers run it. The throttled fabric's
//! [`LinkClock`](crate::fabric::LinkClock) charges every message a node
//! thread really sends, at the `Ts`/`Tw` of the link and epoch it crosses;
//! `mph_ccpipe::executed_cost` charges the micro-ops of a lowered schedule
//! without running a thread; `mph_simnet::simulate_synchronized` replays
//! each barrier-separated stage of the paper's model on a clock as good
//! as idle at the stage's start.
//! Because all three drive this type, a predicted and a measured makespan
//! are the same arithmetic in the same order and round alike. The paper's
//! closed form (`mph_ccpipe::PhaseCostModel`) writes the port model once
//! more, packing a stage's messages onto `k` ports largest first (LPT);
//! the stage builder issues each stage largest first, so this clock's
//! earliest free port replays that packing on every port model.

use crate::machine::PortModel;

/// When one send was issued, when it got the wire, and when it arrives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendTimes {
    /// The CPU's clock once the start-up is paid.
    pub issued: f64,
    /// Transmission start: `issued`, or later if the data, the link or a
    /// port was not ready.
    pub start: f64,
    /// Transmission end — the stamp that travels with the message.
    pub end: f64,
}

/// The CPU's current virtual time plus the availability horizon of every
/// outgoing link and transmit port of one node.
#[derive(Debug, Clone)]
pub struct NodeClock {
    now: f64,
    /// `link_free[dim]`: when this node's outgoing link across `dim` ends
    /// its current transmission. Links are full-duplex — each direction is
    /// owned by its sender — so this state is node-local, which is what
    /// keeps the clock deterministic under real thread scheduling.
    link_free: Vec<f64>,
    /// Transmit-port availability; empty for all-port (the link array
    /// already *is* one port per link).
    port_free: Vec<f64>,
}

impl NodeClock {
    /// An idle node of a `d`-cube at time 0. `KPort(0)` is rejected at
    /// configuration time by `FabricModel::validate`; clamping it to one
    /// port keeps this constructor infallible for the validated models.
    pub fn new(ports: PortModel, d: usize) -> Self {
        let ports = match ports {
            PortModel::AllPort => 0,
            PortModel::OnePort => 1,
            PortModel::KPort(k) => k.max(1),
        };
        NodeClock { now: 0.0, link_free: vec![0.0; d.max(1)], port_free: vec![0.0; ports] }
    }

    /// The CPU's current virtual time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Issues an `elems`-element message across `dim` on a link charging
    /// `ts`/`tw`, whose data is ready at `ready`. The CPU pays the
    /// start-up in program order and does not wait for the data: this is
    /// the comm-processor model a pipelined phase needs, where iteration
    /// `k+1`'s early packets depart while iteration `k`'s late ones are
    /// still in flight. Ports are acquired earliest-available, a list
    /// schedule: on sends issued largest first it is the cost model's LPT.
    #[inline]
    pub fn send(&mut self, ts: f64, tw: f64, dim: usize, elems: f64, ready: f64) -> SendTimes {
        self.now += ts;
        let issued = self.now;
        let mut start = issued.max(ready).max(self.link_free[dim]);
        let port = (0..self.port_free.len())
            .min_by(|&a, &b| self.port_free[a].total_cmp(&self.port_free[b]));
        if let Some(p) = port {
            start = start.max(self.port_free[p]);
            self.port_free[p] = start + elems * tw;
        }
        let end = start + elems * tw;
        self.link_free[dim] = end;
        SendTimes { issued, start, end }
    }

    /// Advances the clock to `t` — an arrival stamp or a barrier's
    /// maximum; a stamp from the past rewinds nothing.
    #[inline]
    pub fn wait(&mut self, t: f64) {
        self.now = self.now.max(t);
    }
}
