//! The schedule clock: the price of the schedule the engine *executes*.
//!
//! The paper's stage-synchronous model ([`crate::cost`], witnessed by
//! `mph_simnet::simulate_synchronized`) prices a phase as a sequence of
//! barrier-separated stages. The engine (`mph_eigen`'s micro-op machine on
//! the throttled fabric) runs something the paper does not define: a
//! barrier-free dataflow in which a packet departs on its own arrival
//! stamp, the serial tail is chained packet by packet across phases, and
//! several jobs' micro-ops interleave on one set of links. This module
//! prices that schedule by running it: [`executed_cost`] merges the jobs'
//! micro-op streams in the order the engine's `run_nodes` does and charges
//! every op to one [`NodeClock`] — the type the throttled fabric charges
//! its live sends to, so there is one recurrence and both round alike.
//!
//! SPMD symmetry is what makes one clock enough: on a uniform partition
//! every node issues the same ops with the same sizes, so a node's
//! arrivals carry exactly the stamps of its own sends and the result
//! *equals* the fabric's measured makespan and every job's finish time
//! (proptested to 1e-9 in `mph-eigen`). On uneven partitions every
//! message is priced at its phase's largest, which bounds the measurement
//! from above. Convergence votes are control traffic the clock does not
//! price: compare against forced-sweep runs.

use crate::batchcost::{BatchOrder, PlannedJob};
use crate::machine::Machine;
use mph_core::{CommPlan, Frame, PlanPhase};
use mph_runtime::NodeClock;
use std::ops::Range;

/// One scheduler micro-op as the clock sees it. A job keeps one arrival
/// stamp per packet *lane*; a send departs on its lane's stamp and leaves
/// its own arrival there, which by symmetry is the stamp the node's next
/// receive on that lane carries.
enum Op {
    /// A slot that moves no clock: sweep start and end (pairings are free
    /// on the virtual clock) and the receives inside a chained tail run.
    Slot,
    /// `entry` marks the first send of a phase or tail run: every lane
    /// becomes ready now. (A whole-block send is its own entry — a ready
    /// time not after `now` never binds.)
    Send { dim: usize, elems: f64, lane: usize, entry: bool },
    /// Consumes the arrivals of these lanes.
    Wait(Range<usize>),
}

/// One job's micro-ops in program order, with the cursor and lane stamps
/// of their execution.
#[derive(Default)]
struct OpStream {
    ops: Vec<Op>,
    pc: usize,
    stamps: Vec<f64>,
}

impl OpStream {
    /// The `q` packet sends of transition `k` of `ph`, sized as the
    /// phase's largest block split into balanced column packets.
    fn sends(&mut self, plan: &CommPlan, ph: &PlanPhase, k: usize, q: usize, entry: bool) {
        if self.stamps.len() < q {
            self.stamps.resize(q, 0.0);
        }
        let dim = ph.links[k];
        for (lane, elems) in plan.packet_elems(ph.max_message_elems(), q).enumerate() {
            self.ops.push(Op::Send { dim, elems: elems as f64, lane, entry: entry && lane == 0 });
        }
    }

    /// Phases `run` of `plan` chained at degree `q`: each phase ships its
    /// `q` packets on their predecessors' stamps and takes `q` receive
    /// slots; only the run's last receive waits, on every lane.
    fn chained(&mut self, plan: &CommPlan, run: Range<usize>, q: usize) {
        for idx in run.clone() {
            self.sends(plan, &plan.phases()[idx], 0, q, idx == run.start);
            self.ops.extend((1..q).map(|_| Op::Slot));
            self.ops.push(if idx + 1 == run.end { Op::Wait(0..q) } else { Op::Slot });
        }
    }

    /// One sweep as the engine's `JobNode` steps it under `qs`/`tail_q`.
    fn sweep(&mut self, plan: &CommPlan, qs: &[usize], tail_q: usize) {
        let framing = plan.framing(qs, tail_q);
        self.ops.push(Op::Slot);
        let mut idx = 0;
        while let Some(ph) = plan.phases().get(idx) {
            idx = match framing.frame(idx) {
                Frame::Whole => {
                    for k in 0..ph.k() {
                        self.sends(plan, ph, k, 1, true);
                        self.ops.push(Op::Wait(0..1));
                    }
                    idx + 1
                }
                Frame::Packets(q) => {
                    for k in 0..ph.k() {
                        self.sends(plan, ph, k, q, k == 0);
                    }
                    self.ops.extend((0..q).map(|lane| Op::Wait(lane..lane + 1)));
                    idx + 1
                }
                Frame::Chained { q, start, end } => {
                    self.chained(plan, start..end, q);
                    end
                }
            };
        }
        self.ops.push(Op::Slot);
    }

    fn done(&self) -> bool {
        self.pc == self.ops.len()
    }

    /// Executes the next op on `clock`, every link charging `machine`.
    fn step(&mut self, clock: &mut NodeClock, machine: &Machine) {
        match &self.ops[self.pc] {
            Op::Slot => {}
            &Op::Send { dim, elems, lane, entry } => {
                if entry {
                    self.stamps.fill(clock.now());
                }
                self.stamps[lane] =
                    clock.send(machine.ts, machine.tw, dim, elems, self.stamps[lane]).end;
            }
            Op::Wait(lanes) => {
                for &stamp in &self.stamps[lanes.clone()] {
                    clock.wait(stamp);
                }
            }
        }
        self.pc += 1;
    }
}

/// Time from entry to the last arrival of phases `run` of `plan` chained
/// at degree `q` (1 chains whole blocks), on an otherwise idle node.
pub(crate) fn chained_run_cost(
    plan: &CommPlan,
    machine: &Machine,
    run: Range<usize>,
    q: usize,
) -> f64 {
    let mut stream = OpStream::default();
    stream.chained(plan, run, q);
    let mut clock = NodeClock::new(machine.ports, plan.d());
    while !stream.done() {
        stream.step(&mut clock, machine);
    }
    clock.now()
}

/// What [`executed_cost`] returns: virtual times on the machine's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutedCost {
    /// When the last job finishes — the fabric report's makespan.
    pub makespan: f64,
    /// When each job finishes, in `jobs` order — its `JobSpan::finish`.
    pub finish: Vec<f64>,
}

/// The virtual time the engine takes to run `jobs` on `machine` under
/// `order`, every sweep of every job forced (see the module docs): equal
/// to the throttled fabric's measurement on uniform partitions, an upper
/// bound on uneven ones.
pub fn executed_cost(jobs: &[PlannedJob], machine: &Machine, order: &BatchOrder) -> ExecutedCost {
    order.validate(jobs.len());
    let d = jobs.iter().flat_map(|job| job.plans).map(CommPlan::d).max().unwrap_or(0);
    let mut clock = NodeClock::new(machine.ports, d);
    let mut streams: Vec<OpStream> = jobs
        .iter()
        .map(|job| {
            assert_eq!(job.plans.len(), job.qs.len(), "one qs vector per sweep plan");
            let mut stream = OpStream::default();
            for (plan, qs) in job.plans.iter().zip(job.qs) {
                stream.sweep(plan, qs, job.tail_q);
            }
            stream
        })
        .collect();
    let mut finish = vec![0.0; jobs.len()];
    // One turn of job `j`, as `run_nodes` grants it: up to `grant`
    // micro-ops; whether any ran.
    let mut turn = |j: usize, grant: usize| {
        let stream = &mut streams[j];
        let before = stream.pc;
        while !stream.done() && stream.pc - before < grant {
            stream.step(&mut clock, machine);
            finish[j] = clock.now();
        }
        stream.pc > before
    };
    match order {
        BatchOrder::Serial(order) => {
            for &j in order {
                turn(j, usize::MAX);
            }
        }
        BatchOrder::RoundRobin { order, stride } => loop {
            let mut active = false;
            for &j in order {
                active |= turn(j, *stride);
            }
            if !active {
                break;
            }
        },
    }
    ExecutedCost { makespan: clock.now(), finish }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::lower_chain;
    use mph_core::OrderingFamily;

    #[test]
    fn a_d1_sweep_by_hand_whole_packetized_and_chained() {
        // m = 8 on d = 1: X_1, Div_1, Last, each one 32-element block over
        // link 0; Ts = 10, Tw = 1.
        let machine = Machine::all_port(10.0, 1.0);
        let plans = lower_chain(8, 1, OrderingFamily::Br, 1);
        let run = |q: usize, tail_q: usize| {
            let qs = [vec![q]];
            let job = PlannedJob { plans: &plans, qs: &qs, tail_q };
            executed_cost(&[job], &machine, &BatchOrder::Serial(vec![0])).makespan
        };
        // Whole blocks: three times 10 + 32.
        assert_eq!(run(1, 1), 126.0);
        // X_1 as two 16-element packets on the one link: 10..26, then the
        // second start-up hides under the first transmission, 26..42 —
        // nothing gained, and the whole-block tail adds its 84.
        assert_eq!(run(2, 1), 126.0);
        // The whole plan chained at 2: packet 0 crosses at 10..26, 42..58,
        // 74..90 and packet 1 at 26..42, 58..74, 90..106 — the link never
        // idles after the first start-up, where whole blocks leave it idle
        // for each of their three.
        assert_eq!(run(1, 2), 106.0);
        assert_eq!(run(2, 2), 106.0, "a chained run overrides the in-run exchange degree");
    }

    #[test]
    fn orders_merge_the_streams_as_the_engine_does() {
        let machine = Machine::all_port(1000.0, 100.0);
        let (a, b) = (
            lower_chain(32, 2, OrderingFamily::Br, 2),
            lower_chain(16, 2, OrderingFamily::Degree4, 1),
        );
        let qs = |plans: &[CommPlan], q: usize| -> Vec<Vec<usize>> {
            plans.iter().map(|p| p.exchange_phases().map(|_| q).collect()).collect()
        };
        let (qa, qb) = (qs(&a, 2), qs(&b, 1));
        let jobs = [
            PlannedJob { plans: &a, qs: &qa, tail_q: 2 },
            PlannedJob { plans: &b, qs: &qb, tail_q: 1 },
        ];
        let solo =
            |j: usize| executed_cost(&jobs[j..=j], &machine, &BatchOrder::Serial(vec![0])).makespan;
        // Serial: the second job starts where the first finished; `finish`
        // is in job order whatever the order visits first.
        let serial = executed_cost(&jobs, &machine, &BatchOrder::Serial(vec![1, 0]));
        assert_eq!(serial.finish, [solo(1) + solo(0), solo(1)]);
        assert_eq!(serial.makespan, solo(0) + solo(1));
        // A stride longer than any job is the serial order.
        let order = BatchOrder::RoundRobin { order: vec![1, 0], stride: usize::MAX };
        assert_eq!(executed_cost(&jobs, &machine, &order), serial);
        // Stride 1 fills one job's bubbles with the other's sends.
        let order = BatchOrder::RoundRobin { order: vec![0, 1], stride: 1 };
        let mixed = executed_cost(&jobs, &machine, &order);
        assert!(mixed.makespan < serial.makespan, "{} vs {}", mixed.makespan, serial.makespan);
        assert!(mixed.finish.iter().all(|&f| f <= mixed.makespan));
        // Serializing the transmit ports can only slow a schedule down,
        // serial or interleaved.
        let one_port = Machine::one_port(machine.ts, machine.tw);
        for (order, all_port) in [(BatchOrder::Serial(vec![1, 0]), &serial), (order, &mixed)] {
            let slowed = executed_cost(&jobs, &one_port, &order);
            assert!(
                slowed.makespan >= all_port.makespan,
                "{order:?}: one-port {} beat all-port {}",
                slowed.makespan,
                all_port.makespan
            );
        }
    }
}
