//! The schedule clock: the price of the schedule the engine *executes*.
//!
//! The paper's stage-synchronous model ([`crate::cost`], witnessed by
//! `mph_simnet::simulate_synchronized`, a stage-by-stage replay on
//! [`NodeClock`]) prices a phase as a sequence of barrier-separated
//! stages. The engine (`mph_eigen`'s micro-op machine on
//! the throttled fabric) runs something the paper does not define: a
//! barrier-free dataflow in which a packet departs on its own arrival
//! stamp, the serial tail is chained packet by packet across phases, and
//! several jobs' micro-ops interleave on one set of links. This module
//! prices that schedule by running it. The order is not written here: a
//! sweep's program is [`CommPlan::program`] and the jobs' programs merge by
//! an [`OrderCursor`], the two definitions the engine executes too.
//! [`executed_cost`] is their second interpreter — it charges every op to
//! one [`NodeClock`], the type the throttled fabric charges its live sends
//! to, so there is one recurrence and both round alike.
//!
//! SPMD symmetry is what makes one clock enough: on a uniform partition
//! every node issues the same ops with the same sizes, so a node's
//! arrivals carry exactly the stamps of its own sends and the result
//! *equals* the fabric's measured makespan and every job's finish time
//! (proptested to 1e-9 in `mph-eigen`). On uneven partitions every
//! message is priced at its phase's largest, which bounds the measurement
//! from above. Convergence votes are control traffic the clock does not
//! price: compare against forced-sweep runs.

use crate::batchcost::{BatchOrder, OrderCursor, PlannedJob};
use crate::machine::{Machine, NodeClock};
use mph_core::{CommPlan, Framing, MicroOp, OpKind};
use std::ops::Range;

/// One job's state on the clock: an arrival stamp per packet *lane* — a
/// send departs on its lane's stamp and leaves its own arrival there,
/// which by symmetry is the stamp the node's next receive on that lane
/// carries — and the size the round in hand is priced at.
#[derive(Default, Clone)]
struct Lanes {
    stamps: Vec<f64>,
    block_elems: u64,
}

/// Runs `op` of `plan` on `clock`, every link charging `machine`: a
/// charging op sends its packet of the phase's largest block, a consuming
/// one waits for its lane, the rest move no clock (pairings are free on the
/// virtual clock, and inside a chained run only the last receive waits).
fn charge(plan: &CommPlan, op: MicroOp, lanes: &mut Lanes, clock: &mut NodeClock, m: &Machine) {
    let stamps = &mut lanes.stamps;
    if op.charges() {
        let ph = &plan.phases()[op.phase];
        if op.entry {
            stamps.clear();
            stamps.resize(op.of, clock.now());
        }
        if op.q == 0 {
            lanes.block_elems = ph.max_message_elems();
        }
        let elems = plan.packet_size(lanes.block_elems, op.of, op.q) as f64;
        stamps[op.q] = clock.send(m.ts, m.tw, ph.links[op.k], elems, stamps[op.q]).end;
    } else if op.last {
        stamps.iter().for_each(|&stamp| clock.wait(stamp));
    } else if matches!(op.kind, OpKind::Recv | OpKind::Drain) {
        clock.wait(stamps[op.q]);
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
    let mut clock = NodeClock::new(machine.ports, plan.d());
    let mut lanes = Lanes::default();
    for op in plan.chained_run(run, q) {
        charge(plan, op, &mut lanes, &mut clock, machine);
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
    let framings: Vec<Vec<Framing>> = jobs.iter().map(PlannedJob::framings).collect();
    // Each job's sweep programs end to end, consumed a grant at a time.
    let mut programs: Vec<_> = jobs
        .iter()
        .zip(&framings)
        .map(|(job, framings)| {
            let sweeps = job.plans.iter().zip(framings);
            sweeps.flat_map(|(plan, framing)| plan.program(framing).map(move |op| (plan, op)))
        })
        .collect();
    let mut lanes = vec![Lanes::default(); jobs.len()];
    let mut finish = vec![0.0; jobs.len()];
    let mut cursor = OrderCursor::default();
    while let Some((j, grant)) = cursor.turn(order) {
        let mut ran = false;
        for (plan, op) in programs[j].by_ref().take(grant) {
            charge(plan, op, &mut lanes[j], &mut clock, machine);
            finish[j] = clock.now();
            ran = true;
        }
        cursor.end_turn(order, ran);
    }
    ExecutedCost { makespan: clock.now(), finish }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_core::OrderingFamily;

    #[test]
    fn a_d1_sweep_by_hand_whole_packetized_and_chained() {
        // m = 8 on d = 1: X_1, Div_1, Last, each one 32-element block over
        // link 0; Ts = 10, Tw = 1.
        let machine = Machine::all_port(10.0, 1.0);
        let plans = CommPlan::chain(8, 1, OrderingFamily::Br, 16, 1);
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
            CommPlan::chain(32, 2, OrderingFamily::Br, 64, 2),
            CommPlan::chain(16, 2, OrderingFamily::Degree4, 32, 1),
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
