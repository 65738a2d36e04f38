//! Pricing a *batch* of independent problems multiplexed over one link
//! fabric — the cost-model layer of the `mph-batch` scheduler.
//!
//! A solo solve leaves the links idle whenever its dependency chain stalls:
//! the serial tail (division + last transitions, one whole-block
//! `Ts + S·Tw` each) and the
//! prologue/epilogue bubbles of shallow pipelines. Interleaving a second
//! problem's messages into those bubbles is pure throughput — the wires
//! were paid for and unused. This module prices that opportunity:
//!
//! * [`batch_cost`] returns, for a set of lowered jobs and an interleaving
//!   [`BatchOrder`]:
//!   - the **solo** cost of each job (the plan-priced makespan of running
//!     it alone, [`plan_cost_with_tail`] summed over its sweep chain) —
//!     the paper-model number that orders and admits jobs,
//!   - the **serial total** `Σ solo` — what FIFO back-to-back execution
//!     costs, the paper's economics repeated `N` times, bubbles included;
//!   - the **predicted** makespan of executing the order: the jobs'
//!     micro-ops merged as the cooperative driver merges them and run on
//!     the schedule clock ([`executed_cost`]) — equal to the throttled
//!     fabric's measurement on uniform partitions, for `Serial` orders too
//!     (where it differs from `Σ solo` by what dataflow pipelining gains
//!     on the stage model);
//!   - the **tail** cost `Σ` over jobs of their serial-tail messages —
//!     exactly which bubbles batching fills, reported separately so the
//!     model *explains* the gain instead of just asserting it.
//!
//! Convergence votes are control-plane traffic the model does not price —
//! compare against forced-sweep runs, as every conformance test does.

use crate::machine::Machine;
use crate::plancost::plan_cost_with_tail;
use crate::schedclock::executed_cost;
use crate::sweepcost::SweepCost;
use mph_core::{CommPlan, Framing};

/// How a batch of jobs shares the fabric — the schedule shape the batch
/// policies (`mph-batch`) lower to and the cooperative driver
/// (`mph-eigen`) executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOrder {
    /// Jobs run back-to-back in the given order (FIFO / shortest-first):
    /// job `order[i+1]` starts where `order[i]` finished.
    Serial(Vec<usize>),
    /// Round-robin interleave: each round grants every listed job up to
    /// `stride` scheduler micro-ops (a send or a receive), in order.
    RoundRobin { order: Vec<usize>, stride: usize },
}

impl BatchOrder {
    /// The job permutation this order visits.
    pub fn jobs(&self) -> &[usize] {
        match self {
            BatchOrder::Serial(o) => o,
            BatchOrder::RoundRobin { order, .. } => order,
        }
    }

    /// Asserts the order is a permutation of `0..njobs`.
    pub fn validate(&self, njobs: usize) {
        let order = self.jobs();
        assert_eq!(order.len(), njobs, "order must list every job exactly once");
        let mut seen = vec![false; njobs];
        for &j in order {
            assert!(j < njobs, "order names job {j}, batch has {njobs}");
            assert!(!seen[j], "order lists job {j} twice");
            seen[j] = true;
        }
        if let BatchOrder::RoundRobin { stride, .. } = self {
            assert!(*stride >= 1, "a round-robin stride must grant at least one op");
        }
    }
}

/// Where the grant walk of a [`BatchOrder`] stands — the one walk both
/// interpreters merge their jobs' programs by: the schedule clock turn by
/// turn, the engine's nodes stopping in the middle of a turn and coming
/// back. A serial order grants each job all of its ops in turn; a
/// round-robin one grants every job `stride` per pass, until a pass in
/// which none ran.
#[derive(Debug, Clone, Default)]
pub struct OrderCursor {
    /// Turns taken.
    turns: usize,
    /// Whether a turn of the round-robin pass in hand ran an op.
    ran: bool,
    /// A round-robin pass ran nothing: the walk is through.
    through: bool,
}

impl OrderCursor {
    /// The turn in hand — the job, and how many of its ops the turn grants
    /// — or `None` once the walk is through.
    pub fn turn(&self, order: &BatchOrder) -> Option<(usize, usize)> {
        match order {
            _ if self.through => None,
            BatchOrder::Serial(order) => order.get(self.turns).map(|&j| (j, usize::MAX)),
            BatchOrder::RoundRobin { order, stride } => {
                let slot = self.turns.checked_rem(order.len())?;
                Some((order[slot], *stride))
            }
        }
    }

    /// Ends the turn in hand; `ran` says whether any of its ops ran.
    pub fn end_turn(&mut self, order: &BatchOrder, ran: bool) {
        self.turns += 1;
        if let BatchOrder::RoundRobin { order, .. } = order {
            self.ran |= ran;
            if self.turns.is_multiple_of(order.len()) {
                self.through = !std::mem::take(&mut self.ran);
            }
        }
    }
}

/// One lowered job as the cost model sees it and the engine runs it: its
/// sweep-chained plans, the per-phase pipelining degrees (one `Vec` per
/// sweep, one entry per exchange phase — `choose_qs` output) and the one
/// tail degree of all its sweeps — its schedule, decided once at lowering.
#[derive(Debug, Clone, Copy)]
pub struct PlannedJob<'a> {
    pub plans: &'a [CommPlan],
    pub qs: &'a [Vec<usize>],
    /// Packet degree of the serial tail (division/last transitions).
    /// `1` is the classical whole-block tail; `> 1` chains the tail run's
    /// packets across phases exactly as the driver executes them.
    pub tail_q: usize,
}

impl PlannedJob<'_> {
    /// The [`Framing`] of each sweep, in chain order: the schedule the
    /// engine runs and [`executed_cost`] prices.
    pub fn framings(&self) -> Vec<Framing> {
        assert_eq!(self.plans.len(), self.qs.len(), "one qs vector per sweep plan");
        self.plans.iter().zip(self.qs).map(|(plan, qs)| plan.framing(qs, self.tail_q)).collect()
    }

    /// [`plan_cost_with_tail`] of each sweep, in chain order: the one
    /// per-sweep price of a job — its solo cost, the batch tail and a
    /// service's backlog all read it.
    pub fn sweep_prices(&self, machine: &Machine) -> Vec<SweepCost> {
        let sweeps = self.plans.iter().zip(self.qs);
        sweeps.map(|(plan, qs)| plan_cost_with_tail(plan, machine, qs, self.tail_q)).collect()
    }
}

/// The batch price sheet. All quantities are virtual-clock times per the
/// machine's `Ts`/`Tw`/ports; see the module docs for definitions.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchCost {
    /// Plan-priced solo makespan of each job.
    pub solo: Vec<f64>,
    /// `Σ solo` — the FIFO-serial prediction of the paper model.
    pub serial_total: f64,
    /// The executed schedule's makespan under the given [`BatchOrder`].
    pub predicted: f64,
    /// Serial-tail cost summed over jobs — the bubbles batching fills.
    pub tail: f64,
}

/// A job's solo cost from its [`PlannedJob::sweep_prices`]: their
/// totals, summed.
fn solo_of(prices: &[SweepCost]) -> f64 {
    prices.iter().map(|c| c.total).sum()
}

/// Plan-priced solo cost of each job — the communication makespan of
/// running it alone with the degrees its driver will use
/// ([`plan_cost_with_tail`] summed over the sweep chain). This is *the*
/// solo pricing: [`batch_cost`]'s `solo` column and the shortest-plan-first
/// policy order both come from here, so they can never diverge.
pub fn solo_plan_costs(jobs: &[PlannedJob], machine: &Machine) -> Vec<f64> {
    jobs.iter().map(|job| solo_of(&job.sweep_prices(machine))).collect()
}

/// Prices a batch of lowered jobs under `machine` for a given
/// interleaving order. See the module docs for the exact model. Each plan
/// is priced once: its `total` counts toward its job's `solo`, its
/// `serial` toward `tail`.
pub fn batch_cost(jobs: &[PlannedJob], machine: &Machine, order: &BatchOrder) -> BatchCost {
    assert!(!jobs.is_empty(), "an empty batch has no cost");
    order.validate(jobs.len());

    let prices: Vec<Vec<SweepCost>> = jobs.iter().map(|job| job.sweep_prices(machine)).collect();
    let solo: Vec<f64> = prices.iter().map(|p| solo_of(p)).collect();
    let serial_total: f64 = solo.iter().sum();
    let tail = prices.iter().flatten().fold(0.0f64, |tail, c| tail + c.serial);
    let predicted = executed_cost(jobs, machine, order).makespan;

    BatchCost { solo, serial_total, predicted, tail }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plancost::{chained_tail_cost, plan_unpipelined_cost};
    use mph_core::OrderingFamily;

    fn ones(plans: &[CommPlan]) -> Vec<Vec<usize>> {
        plans.iter().map(|p| p.exchange_phases().map(|_| 1).collect()).collect()
    }

    #[test]
    fn the_cursor_takes_the_turns_of_the_walk() {
        // Jobs of 0, 1, 4 and 7 ops, each turn running what its grant and
        // the job's ops left allow. Each order with the grant of its every
        // turn and, turn by turn, the job and the ops it ran — the walk
        // written out by hand, down to the last round-robin pass, which ran
        // nothing.
        const ALL: usize = usize::MAX;
        let orders = [
            (BatchOrder::Serial(vec![]), ALL, vec![]),
            (BatchOrder::Serial(vec![2, 0, 3, 1]), ALL, vec![(2, 4), (0, 0), (3, 7), (1, 1)]),
            (BatchOrder::RoundRobin { order: vec![], stride: 2 }, 2, vec![]),
            (
                BatchOrder::RoundRobin { order: vec![2, 1, 3], stride: 3 },
                3,
                vec![
                    (2, 3),
                    (1, 1),
                    (3, 3),
                    (2, 1),
                    (1, 0),
                    (3, 3),
                    (2, 0),
                    (1, 0),
                    (3, 1),
                    (2, 0),
                    (1, 0),
                    (3, 0),
                ],
            ),
            (
                BatchOrder::RoundRobin { order: vec![3, 1, 0, 2], stride: ALL },
                ALL,
                vec![(3, 7), (1, 1), (0, 0), (2, 4), (3, 0), (1, 0), (0, 0), (2, 0)],
            ),
        ];
        for (order, every_grant, want) in &orders {
            let mut left = [0, 1, 4, 7];
            let mut turns = Vec::new();
            let mut cursor = OrderCursor::default();
            while let Some((j, grant)) = cursor.turn(order) {
                assert_eq!(grant, *every_grant, "{order:?}");
                let ran = grant.min(left[j]);
                left[j] -= ran;
                turns.push((j, ran));
                cursor.end_turn(order, ran > 0);
            }
            assert_eq!(&turns, want, "{order:?}");
        }
    }

    #[test]
    fn single_unpipelined_job_prices_like_the_plan_everywhere() {
        // One job, q = 1: solo, serial, and the executed schedule must all
        // equal the chained plan_unpipelined_cost — an unpipelined solo
        // run is where the paper model and the schedule clock coincide.
        let machine = Machine::all_port(1000.0, 100.0);
        let plans = CommPlan::chain(32, 2, OrderingFamily::Br, 64, 2);
        let qs = ones(&plans);
        let job = PlannedJob { plans: &plans, qs: &qs, tail_q: 1 };
        let want: f64 = plans.iter().map(|p| plan_unpipelined_cost(p, &machine)).sum();
        for order in
            [BatchOrder::Serial(vec![0]), BatchOrder::RoundRobin { order: vec![0], stride: 1 }]
        {
            let c = batch_cost(&[job], &machine, &order);
            assert!((c.solo[0] - want).abs() < 1e-9 * want);
            assert!((c.serial_total - want).abs() < 1e-9 * want);
            assert!((c.predicted - want).abs() < 1e-9 * want, "{order:?}: {}", c.predicted);
        }
    }

    #[test]
    fn one_port_interleaving_buys_nothing() {
        // A single transmit port serializes every wire second, so the
        // interleave buys no wire time: all it can hide is one job's
        // start-ups under the other's transmissions.
        let machine = Machine::one_port(1000.0, 100.0);
        let plans_a = CommPlan::chain(32, 2, OrderingFamily::Br, 64, 1);
        let plans_b = CommPlan::chain(32, 2, OrderingFamily::Degree4, 64, 1);
        let (qa, qb) = (ones(&plans_a), ones(&plans_b));
        let jobs = [
            PlannedJob { plans: &plans_a, qs: &qa, tail_q: 1 },
            PlannedJob { plans: &plans_b, qs: &qb, tail_q: 1 },
        ];
        let order = BatchOrder::RoundRobin { order: vec![0, 1], stride: 1 };
        let c = batch_cost(&jobs, &machine, &order);
        let per_node = (plans_a[0].messages_with_tail(&qa[0], 1)
            + plans_b[0].messages_with_tail(&qb[0], 1))
            / 4;
        let startups = per_node as f64 * machine.ts;
        assert!(c.predicted <= c.serial_total, "{} vs {}", c.predicted, c.serial_total);
        assert!(
            c.predicted >= c.serial_total - startups - 1e-9,
            "one-port predicted {} hides more than the start-ups of serial {}",
            c.predicted,
            c.serial_total
        );
    }

    #[test]
    fn all_port_interleaving_of_disjoint_links_overlaps_wires() {
        // Jobs with different families hit different links in many rounds:
        // the all-port prediction must fall strictly below the serial
        // total, and no lower than the longest job run alone.
        let machine = Machine::all_port(1000.0, 100.0);
        let families = [OrderingFamily::Br, OrderingFamily::Degree4, OrderingFamily::PermutedBr];
        let chains: Vec<Vec<CommPlan>> =
            families.iter().map(|&f| CommPlan::chain(64, 3, f, 128, 1)).collect();
        let qss: Vec<Vec<Vec<usize>>> = chains.iter().map(|c| ones(c)).collect();
        let jobs: Vec<PlannedJob> = chains
            .iter()
            .zip(&qss)
            .map(|(plans, qs)| PlannedJob { plans, qs, tail_q: 1 })
            .collect();
        let order = BatchOrder::RoundRobin { order: vec![0, 1, 2], stride: 1 };
        let c = batch_cost(&jobs, &machine, &order);
        assert!(
            c.predicted < c.serial_total - 1e-9,
            "interleave should beat serial: {} vs {}",
            c.predicted,
            c.serial_total
        );
        let longest = c.solo.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(
            c.predicted >= longest - 1e-9,
            "three jobs finished before the longest one alone: {} vs {longest}",
            c.predicted
        );
    }

    #[test]
    fn tail_prices_the_serial_transitions() {
        // d divisions + last per sweep, one whole block each: the batch
        // tail is N·sweeps·(d+1)·(Ts + S·Tw) for uniform blocks.
        let machine = Machine::all_port(1000.0, 100.0);
        let d = 2usize;
        let m = 32usize;
        let plans = CommPlan::chain(m, d, OrderingFamily::Br, 2 * m, 2);
        let qs = ones(&plans);
        let job = PlannedJob { plans: &plans, qs: &qs, tail_q: 1 };
        let c = batch_cost(&[job, job], &machine, &BatchOrder::Serial(vec![0, 1]));
        let block = (m / (2 << d)) as f64 * (2 * m) as f64;
        let want = 2.0 * 2.0 * (d as f64 + 1.0) * machine.single_message_cost(block);
        assert!((c.tail - want).abs() < 1e-9 * want, "{} vs {want}", c.tail);
    }

    #[test]
    fn tail_packetized_jobs_price_the_chained_tail() {
        // tail_q > 1 swaps the whole-block serial sum for the chained-run
        // price in the solo column, the tail line and the prediction.
        let machine = Machine::all_port(1000.0, 100.0);
        let plans = CommPlan::chain(256, 3, OrderingFamily::Br, 512, 1);
        let qs = ones(&plans);
        let base = PlannedJob { plans: &plans, qs: &qs, tail_q: 1 };
        let piped = PlannedJob { plans: &plans, qs: &qs, tail_q: 4 };
        let order = BatchOrder::Serial(vec![0]);
        let cb = batch_cost(&[base], &machine, &order);
        let cp = batch_cost(&[piped], &machine, &order);
        let want: f64 = plans.iter().map(|p| chained_tail_cost(p, &machine, 4)).sum();
        assert!((cp.tail - want).abs() < 1e-9 * want, "{} vs {want}", cp.tail);
        assert!(cp.tail < cb.tail, "chaining must undercut the serial sum");
        assert!(cp.solo[0] < cb.solo[0], "solo price must inherit the cheaper tail");
        // The executed schedule inherits it too.
        assert!(cp.predicted < cb.predicted, "{} vs {}", cp.predicted, cb.predicted);
    }

    #[test]
    #[should_panic(expected = "lists job 0 twice")]
    fn duplicate_order_is_rejected() {
        let machine = Machine::paper_figure2();
        let plans = CommPlan::chain(16, 1, OrderingFamily::Br, 32, 1);
        let qs = ones(&plans);
        let job = PlannedJob { plans: &plans, qs: &qs, tail_q: 1 };
        let _ = batch_cost(&[job, job], &machine, &BatchOrder::Serial(vec![0, 0]));
    }
}
