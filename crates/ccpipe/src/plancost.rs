//! Pricing a lowered [`CommPlan`]: the cost-model view of the one
//! communication description the whole workspace shares.
//!
//! Each exchange phase of a plan *is* a CC-cube algorithm — its link
//! sequence plus a message size — so the Figure-2 machinery applies to it
//! unchanged: [`plan_pipelining`] runs ref \[9\]'s optimal-degree
//! procedure on every exchange phase (this is what the threaded solver
//! calls to *schedule* itself), and [`plan_sweep_cost`] composes the priced
//! phases with the serial division/last transitions into a [`SweepCost`].
//! A phase searched for its degree prices all its small degrees in one
//! walk of its links ([`optimize_q`]); a phase given its degree
//! ([`plan_cost_with_tail`]) prices that one ([`PhaseCostModel::cost`]),
//! to the same bits.
//! These are the **paper-model** prices: stage-synchronous, witnessed by
//! `mph_simnet::simulate_synchronized`, which replays every stage on the
//! engine's own `NodeClock`. The chained serial tail, which the
//! paper does not define, is priced by running it on the schedule clock
//! ([`crate::schedclock`]); the price of a whole executed schedule is
//! [`crate::executed_cost`].
//!
//! Figure 2 ([`crate::sweepcost::figure2_point`], matrices up to
//! `m = 2^32`) lowers one sweep per family and prices it here too, its
//! lower bound included ([`crate::lowerbound::ideal_phase`] read on the
//! plan's sizes): the cost model that draws the paper's figure and the
//! scheduler that drives the real solver are one composition,
//! [`plan_sweep_cost`]. The tests below hold it to the paper's closed
//! form at power-of-two sizes, Figure 2's `d = 15` corners included.

use crate::cccube::CcCube;
use crate::cost::PhaseCostModel;
use crate::machine::Machine;
use crate::optimum::{optimize_q, search_degree, OptimalQ};
use crate::pipelining::mode_of;
use crate::schedclock::chained_run_cost;
use crate::sweepcost::{PhaseOutcome, SweepCost};
use mph_core::{CommPlan, Frame, PhaseKind, PlanPhase};

/// Adapts one exchange phase of a plan into the CC-cube algorithm the
/// analytic models price, the phase's links copied once. The message size
/// is the phase's largest single message — with balanced blocks all
/// messages are equal; with uneven blocks the largest bounds every
/// transition's transmission.
///
/// # Panics
/// Panics if `phase` is not an exchange phase.
fn phase_cc(phase: &PlanPhase) -> CcCube {
    assert!(phase.is_exchange(), "only exchange phases are CC-cube algorithms");
    CcCube { link_seq: phase.links.clone(), message_elems: phase.max_message_elems() as f64 }
}

/// The paper's packetization ceiling for an `m × m` problem on a
/// `d`-cube: a packet must carry at least one column pair (an `A`-column
/// and its `U`-column), so `Q ≤ m / 2^{d+1}` (at least 1) — which forces
/// shallow pipelining when "the matrix size is not large enough to enable
/// large values of Q" (paper §3.3). Figure 2 prices at it, and the solver
/// hands it to the cost model in `Auto` pipelining mode.
pub fn packetization_cap(m: usize, d: usize) -> usize {
    (m / (2 << d)).max(1)
}

/// The chosen pipelining degree of one exchange phase of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseChoice {
    /// Exchange phase number `e` (phases run e = d, d−1, …, 1).
    pub e: usize,
    /// The optimizer's verdict for this phase.
    pub opt: OptimalQ,
}

/// Runs the optimal-pipelining-degree procedure on every exchange phase of
/// `plan`, capping `Q` at `q_max` (the packetization ceiling — a packet
/// must carry at least one column pair, so callers pass the block column
/// count). Returns one choice per exchange phase, in execution order
/// (e = d down to 1): [`plan_sweep_cost`]'s choices. This is the function
/// that turns the cost model into the threaded solver's scheduler.
pub fn plan_pipelining(plan: &CommPlan, machine: &Machine, q_max: f64) -> Vec<PhaseChoice> {
    let phases = plan_sweep_cost(plan, machine, q_max).phases;
    phases
        .into_iter()
        .map(|PhaseOutcome { e, q, mode, cost }| PhaseChoice { e, opt: OptimalQ { q, cost, mode } })
        .collect()
}

/// One phase's price, as the walk every plan price shares yields them.
enum Priced<T> {
    Exchange(T),
    /// A division or last transition: one whole-block message.
    Serial(f64),
}

/// Walks `plan` in execution order: exchange phase `idx` (number `e`) is
/// priced by `exchange`, a serial phase as one message of the phase's
/// largest block.
fn price_phases<'a, T>(
    plan: &'a CommPlan,
    machine: &'a Machine,
    mut exchange: impl FnMut(usize, usize, &PlanPhase) -> T + 'a,
) -> impl Iterator<Item = Priced<T>> + 'a {
    plan.phases().iter().enumerate().map(move |(idx, ph)| match ph.kind {
        PhaseKind::Exchange { e } => Priced::Exchange(exchange(idx, e, ph)),
        PhaseKind::Division { .. } | PhaseKind::Last => {
            Priced::Serial(machine.single_message_cost(ph.max_message_elems() as f64))
        }
    })
}

/// Collects a walk into the sweep's cost sheet.
fn sweep_cost(d: usize, priced: impl Iterator<Item = Priced<PhaseOutcome>>) -> SweepCost {
    let mut phases = Vec::new();
    let mut serial = 0.0;
    for p in priced {
        match p {
            Priced::Exchange(outcome) => phases.push(outcome),
            Priced::Serial(cost) => serial += cost,
        }
    }
    let total = phases.iter().map(|p| p.cost).sum::<f64>() + serial;
    SweepCost { d, phases, serial, tail_q: 1, total }
}

/// Communication cost of executing `plan` unpipelined: every transition is
/// one whole-block message (priced at the phase's largest block).
pub fn plan_unpipelined_cost(plan: &CommPlan, machine: &Machine) -> f64 {
    let whole = |_, _, ph: &PlanPhase| {
        ph.k() as f64 * machine.single_message_cost(ph.max_message_elems() as f64)
    };
    price_phases(plan, machine, whole)
        .map(|p| match p {
            Priced::Exchange(cost) | Priced::Serial(cost) => cost,
        })
        .sum()
}

/// Exact price of executing every **tail run** of `plan` (see
/// [`CommPlan::tail_runs`]) packetized at degree `tail_q` and
/// phase-chained: each phase of a run splits its whole-block message into
/// `tail_q` balanced column-group packets, and packet `p` of phase `i + 1`
/// departs as soon as packet `p` of phase `i` has arrived. Each run is run
/// on the schedule clock from an idle node; the runs are additive (the
/// driver syncs its clock at the end of each run).
///
/// `tail_q = 1` chains whole blocks; the *unchained* baseline the paper
/// describes (and the drivers execute with tail pipelining off) is the
/// plain `Σ Ts + S·Tw` serial sum of [`plan_cost_with_tail`]`(.., 1)`.
pub(crate) fn chained_tail_cost(plan: &CommPlan, machine: &Machine, tail_q: usize) -> f64 {
    let mut total = 0.0f64;
    for run in plan.tail_runs() {
        total += chained_run_cost(plan, machine, run, tail_q.max(1));
    }
    total
}

/// Communication cost of executing `plan` with *given* degrees: exchange
/// phase `i` pipelined at `qs[i]` (one entry per exchange phase, in
/// execution order) on the paper's stage model, the serial tail at
/// `tail_q` — the schedule the threaded driver executes under any
/// `choose_qs`/`choose_tail_qs` outcome.
///
/// With `tail_q ≤ 1` division and last transitions are single messages,
/// summed into `serial`. With `tail_q > 1` the tail runs are priced by
/// the schedule clock (`serial` is then the chained runs' exact price),
/// and the in-run `e = 1` exchange phase — which the chained tail executes
/// at the run's degree — is recorded with `q = tail_q` and zero standalone
/// cost, preserving `total = Σ phases + serial`.
pub fn plan_cost_with_tail(
    plan: &CommPlan,
    machine: &Machine,
    qs: &[usize],
    tail_q: usize,
) -> SweepCost {
    let framing = plan.framing(qs, tail_q);
    let exchange = |idx, e, ph: &PlanPhase| match framing.frame(idx) {
        Frame::Chained { q, .. } => PhaseOutcome { e, q, mode: mode_of(1, q), cost: 0.0 },
        frame => {
            let model = PhaseCostModel::from_cc(phase_cc(ph), *machine);
            let q = frame.packets();
            PhaseOutcome { e, q, mode: mode_of(model.k, q), cost: model.cost(q) }
        }
    };
    let mut cost = sweep_cost(plan.d(), price_phases(plan, machine, exchange));
    if tail_q > 1 {
        cost.serial = chained_tail_cost(plan, machine, tail_q);
        cost.tail_q = tail_q;
        cost.total = cost.phases.iter().map(|p| p.cost).sum::<f64>() + cost.serial;
    }
    cost
}

/// The optimal tail packet degree for `plan` on `machine`: the integer
/// `Q ∈ [1, q_max]` (at most `2^20`) minimizing the chained tail's price,
/// scanned over [`optimize_q`]'s candidate grid without its refinement.
/// This is what `Pipelining::Auto` tail scheduling calls.
pub fn plan_tail_pipelining(plan: &CommPlan, machine: &Machine, q_max: f64) -> usize {
    let cost = |q| chained_tail_cost(plan, machine, q);
    search_degree(q_max, 2f64.powi(20), [], false, cost).0
}

/// Communication cost of executing `plan` with per-phase optimal
/// pipelining: each exchange phase is pipelined at its own optimal degree
/// (capped at `q_max`), division and last transitions stay single
/// messages. This is the sweep Figure 2 plots for each family, and its
/// degrees are [`plan_pipelining`]'s.
pub fn plan_sweep_cost(plan: &CommPlan, machine: &Machine, q_max: f64) -> SweepCost {
    optimal_sweep_cost(plan, machine, q_max, |_, ph| phase_cc(ph))
}

/// The one optimal-`Q` sweep composition: exchange phase `e` of `plan` is
/// the CC-cube `cc(e, phase)`, pipelined at its own optimal `Q ≤ q_max`;
/// division and last transitions are whole-block messages. A family's
/// sweep reads the phase's own links ([`plan_sweep_cost`]); Figure 2's
/// lower bound reads [`ideal_phase`](crate::lowerbound::ideal_phase) at the
/// phase's message size.
pub(crate) fn optimal_sweep_cost(
    plan: &CommPlan,
    machine: &Machine,
    q_max: f64,
    cc: impl Fn(usize, &PlanPhase) -> CcCube,
) -> SweepCost {
    let optimal = |_, e, ph: &PlanPhase| {
        let model = PhaseCostModel::from_cc(cc(e, ph), *machine);
        let OptimalQ { q, cost, mode } = optimize_q(&model, q_max);
        PhaseOutcome { e, q, mode, cost }
    };
    sweep_cost(plan.d(), price_phases(plan, machine, optimal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batchcost::{BatchOrder, PlannedJob};
    use crate::lowerbound::ideal_phase;
    use crate::schedclock::executed_cost;
    use mph_core::{BlockLayout, BlockPartition, OrderingFamily, SweepSchedule};

    fn lower(m: usize, d: usize, family: OrderingFamily, sweep: usize) -> CommPlan {
        let schedule = SweepSchedule::sweep(d, family, sweep);
        let partition = BlockPartition::new(m, 2 << d);
        CommPlan::lower(&schedule, &partition, &BlockLayout::canonical(d), 2 * m)
    }

    /// The paper's closed form of one sweep of an `m × m` problem on a
    /// `d`-cube, sizes continuous: every transition moves `m²/2^d`
    /// elements (one block of `m/2^{d+1}` columns of `A` and of `U`), phase
    /// `e` is the CC-cube `phase(e, elems)` at its optimal `Q` under the
    /// packetization ceiling, and the `d + 1` division and last transitions
    /// are single messages. Returns the sweep and the unpipelined baseline,
    /// `2^{d+1} − 1` single messages.
    fn closed_form_sweep(
        m: usize,
        d: usize,
        machine: &Machine,
        phase: impl Fn(usize, f64) -> CcCube,
    ) -> (SweepCost, f64) {
        let elems = (m as f64) * (m as f64) / (1u64 << d) as f64;
        let q_max = packetization_cap(m, d) as f64;
        let phases: Vec<PhaseOutcome> = (1..=d)
            .rev()
            .map(|e| {
                let OptimalQ { q, cost, mode } =
                    optimize_q(&PhaseCostModel::new(&phase(e, elems), *machine), q_max);
                PhaseOutcome { e, q, mode, cost }
            })
            .collect();
        let message = machine.single_message_cost(elems);
        let serial = (d as f64 + 1.0) * message;
        let total = phases.iter().map(|p| p.cost).sum::<f64>() + serial;
        let base = ((2u64 << d) - 1) as f64 * message;
        (SweepCost { d, phases, serial, tail_q: 1, total }, base)
    }

    #[test]
    fn plan_cost_equals_workload_cost_for_power_of_two_sizes() {
        // The lowered plan and the paper's continuous closed form price
        // identically when both are defined: block elems m²/2^d, ceiling
        // m/2^{d+1}, same link sequences — up to Figure 2's corners at
        // d = 15, which a plan reaches because a uniform phase lowers to one
        // size per transition. Figure 2's lower bound, priced on the plan,
        // is the closed form's ideal sweep.
        let machine = Machine::paper_figure2();
        let bound_machine = Machine::all_port(machine.ts, machine.tw);
        let agree = |got: SweepCost, want: &SweepCost, what: String| {
            let (a, b) = (got.total, want.total);
            assert!((a - b).abs() <= 1e-9 * b, "{what}: plan {a} vs closed form {b}");
            let choices =
                |c: &SweepCost| -> Vec<_> { c.phases.iter().map(|p| (p.e, p.q, p.mode)).collect() };
            assert_eq!(choices(&got), choices(want), "{what}");
        };
        let small = [2usize, 3, 4].into_iter().flat_map(|d| [(d, 64usize), (d, 256)]);
        let corners = [(15, 1usize << 18), (15, 1 << 23), (15, 1 << 32)];
        for (d, m) in small.chain(corners) {
            let q_max = packetization_cap(m, d) as f64;
            for family in OrderingFamily::ALL {
                let plan = lower(m, d, family, 0);
                let block = (m * (m >> d)) as u64;
                assert!(plan.phases().iter().all(|ph| ph.max_message_elems() == block));
                let (want, base) = closed_form_sweep(m, d, &machine, |e, elems| {
                    CcCube::exchange_phase(family, e, elems)
                });
                let what = format!("{family} d={d} m={m}");
                agree(plan_sweep_cost(&plan, &machine, q_max), &want, what.clone());
                let got = plan_unpipelined_cost(&plan, &machine);
                assert!((got - base).abs() <= 1e-9 * base, "{what}: base {got} vs {base}");
            }
            let ideal = |e, ph: &PlanPhase| ideal_phase(e, ph.max_message_elems() as f64);
            let plan = lower(m, d, OrderingFamily::Br, 0);
            let (want, _) = closed_form_sweep(m, d, &bound_machine, ideal_phase);
            let got = optimal_sweep_cost(&plan, &bound_machine, q_max, ideal);
            agree(got, &want, format!("bound d={d} m={m}"));
        }
    }

    #[test]
    fn packetization_cap_is_one_column_pair_per_packet() {
        // m = 2^18 on d = 14: blocks hold 2^18/2^15 = 8 column pairs, so
        // Q ≤ 8 — far below K = 2^14 − 1: only shallow pipelining possible.
        assert_eq!(packetization_cap(1 << 18, 14), 8);
        // m = 2^32 on d = 10: Q can reach 2^21 ≫ K = 1023: deep possible.
        assert_eq!(packetization_cap(1 << 32, 10), 1 << 21);
        // Fewer columns than blocks still leave one packet.
        assert_eq!(packetization_cap(10, 3), 1);
    }

    #[test]
    fn plan_pipelining_matches_sweep_cost_choices() {
        let machine = Machine::paper_figure2();
        let plan = lower(128, 3, OrderingFamily::PermutedBr, 0);
        let q_max = 128.0 / 16.0;
        let choices = plan_pipelining(&plan, &machine, q_max);
        let cost = plan_sweep_cost(&plan, &machine, q_max);
        assert_eq!(choices.len(), 3);
        for (c, p) in choices.iter().zip(&cost.phases) {
            assert_eq!(c.e, p.e);
            assert_eq!(c.opt.q, p.q);
            assert!(c.opt.q >= 1 && c.opt.q as f64 <= q_max);
        }
        // Phases run e = d down to 1.
        assert_eq!(choices.iter().map(|c| c.e).collect::<Vec<_>>(), vec![3, 2, 1]);
    }

    #[test]
    fn fixed_q_cost_agrees_with_the_optimizer_at_its_choices() {
        // plan_cost_with_tail priced at the optimizer's own qs must
        // reproduce plan_sweep_cost exactly, and q = 1 everywhere must
        // reproduce the unpipelined cost.
        let machine = Machine::paper_figure2();
        for family in OrderingFamily::ALL {
            let plan = lower(256, 3, family, 0);
            let q_max = 256.0 / 16.0;
            let opt = plan_sweep_cost(&plan, &machine, q_max);
            let qs: Vec<usize> = opt.phases.iter().map(|p| p.q).collect();
            let fixed = plan_cost_with_tail(&plan, &machine, &qs, 1);
            assert!((fixed.total - opt.total).abs() < 1e-9 * opt.total, "{family}");
            assert_eq!(fixed.serial, opt.serial);
            for (a, b) in fixed.phases.iter().zip(&opt.phases) {
                assert_eq!((a.e, a.q, a.mode), (b.e, b.q, b.mode), "{family}");
            }
            let ones: Vec<usize> = plan.exchange_phases().map(|_| 1).collect();
            let base = plan_cost_with_tail(&plan, &machine, &ones, 1).total;
            let want = plan_unpipelined_cost(&plan, &machine);
            assert!((base - want).abs() < 1e-9 * want, "{family}");
        }
    }

    #[test]
    fn uneven_blocks_price_the_largest_message() {
        // m = 10 on d = 1: blocks of 3,3,2,2 columns. The phase cost uses
        // the biggest block that crosses a link during the phase.
        let plan = lower(10, 1, OrderingFamily::Br, 0);
        let machine = Machine::all_port(100.0, 1.0);
        let base = plan_unpipelined_cost(&plan, &machine);
        // Exchange: 2-col blocks (40 elems); division: max(2,3)-col = 60;
        // last: max(3,2) = 60.
        let want = (100.0 + 40.0) + (100.0 + 60.0) + (100.0 + 60.0);
        assert!((base - want).abs() < 1e-9, "{base} vs {want}");
    }

    #[test]
    fn pipelined_plan_never_costs_more_than_unpipelined() {
        let machine = Machine::paper_figure2();
        for family in OrderingFamily::ALL {
            let plan = lower(256, 3, family, 0);
            let piped = plan_sweep_cost(&plan, &machine, 16.0);
            let base = plan_unpipelined_cost(&plan, &machine);
            assert!(piped.total <= base + 1e-9, "{family}: {} vs {base}", piped.total);
        }
    }

    #[test]
    #[should_panic(expected = "exchange")]
    fn phase_cc_rejects_serial_phases() {
        let plan = lower(16, 1, OrderingFamily::Br, 0);
        let division = &plan.phases()[1];
        assert!(!division.is_exchange());
        let _ = phase_cc(division);
    }

    #[test]
    fn tail_q_of_one_reproduces_the_old_serial_sum_bit_for_bit() {
        // With tail_q ≤ 1 the tail is the classical serial sum — one
        // Ts + S·Tw per division and last transition, added in phase order
        // — and every exchange phase keeps its own stage-model price.
        for machine in
            [Machine::paper_figure2(), Machine::one_port(500.0, 10.0), Machine::all_port(0.0, 7.0)]
        {
            for family in OrderingFamily::ALL {
                for (m, d) in [(64usize, 2usize), (256, 3), (10, 1)] {
                    let plan = lower(m, d, family, 0);
                    let qs: Vec<usize> = plan.exchange_phases().map(|ph| ph.k().min(3)).collect();
                    let mut serial = 0.0;
                    for ph in plan.phases().iter().filter(|ph| !ph.is_exchange()) {
                        serial += machine.single_message_cost(ph.max_message_elems() as f64);
                    }
                    for tail_q in [0usize, 1] {
                        let got = plan_cost_with_tail(&plan, &machine, &qs, tail_q);
                        assert_eq!(got.serial.to_bits(), serial.to_bits(), "{family} d={d}");
                        assert_eq!(got.tail_q, 1);
                        for ((out, ph), &q) in
                            got.phases.iter().zip(plan.exchange_phases()).zip(&qs)
                        {
                            let model = PhaseCostModel::new(&phase_cc(ph), machine);
                            assert_eq!((out.q, out.cost), (q, model.cost(q)), "{family} d={d}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn chained_tail_at_the_optimum_never_costs_more_than_the_serial_sum() {
        // Chaining overlaps start-ups and (for Q > 1) transmissions; the
        // optimizer may always fall back to Q = 1, whose chained price is
        // itself ≤ the unchained serial sum.
        for machine in [Machine::paper_figure2(), Machine::one_port(1000.0, 100.0)] {
            for family in OrderingFamily::ALL {
                for (m, d) in [(64usize, 2usize), (256, 3), (1024, 3)] {
                    let plan = lower(m, d, family, 0);
                    let qs: Vec<usize> = plan.exchange_phases().map(|_| 1).collect();
                    let cap = (m / (2 << d)).max(1) as f64;
                    let tq = plan_tail_pipelining(&plan, &machine, cap);
                    assert!(tq >= 1 && tq as f64 <= cap);
                    // The chained tail absorbs any in-run K = 1 exchange
                    // phase, so the like-for-like comparison is totals.
                    let old = plan_cost_with_tail(&plan, &machine, &qs, 1);
                    let new = plan_cost_with_tail(&plan, &machine, &qs, tq);
                    assert!(
                        new.total <= old.total * (1.0 + 1e-12),
                        "{family} d={d} m={m}: tail-priced {} vs classical {}",
                        new.total,
                        old.total
                    );
                }
            }
        }
    }

    #[test]
    fn large_blocks_make_the_chained_tail_strictly_cheaper() {
        // m = 1024 on d = 3, all-port: the 4-phase run [Div_2, X_1, Div_1,
        // Last] chains into ~(L + Q − 1) packet slots instead of L whole
        // messages — a real constant-factor win, which is the tentpole's
        // whole point. The permuted-BR rows are the two `vclock_tables`
        // prints; at m = 256 the start-ups weigh more and the win is smaller.
        let machine = Machine::all_port(1000.0, 100.0);
        for (m, family, bar) in [
            (1024, OrderingFamily::Br, 0.8),
            (1024, OrderingFamily::PermutedBr, 0.8),
            (256, OrderingFamily::PermutedBr, 0.9),
        ] {
            let plan = lower(m, 3, family, 0);
            let qs: Vec<usize> = plan.exchange_phases().map(|_| 1).collect();
            let cap = (m / 16) as f64;
            let tq = plan_tail_pipelining(&plan, &machine, cap);
            assert!(tq > 1, "m={m} {family}: the optimizer must choose to packetize, got {tq}");
            let old = plan_cost_with_tail(&plan, &machine, &qs, 1);
            let new = plan_cost_with_tail(&plan, &machine, &qs, tq);
            // Two of the run's phases share a link dimension, so the wire
            // keeps ~3 whole-block transmissions on the chain: the win is
            // the fourth transmission plus every start-up, not a 1/Q
            // collapse.
            assert!(
                new.serial < bar * old.serial,
                "m={m} {family}: chained tail {} vs serial sum {}",
                new.serial,
                old.serial
            );
            assert_eq!(new.tail_q, tq);
            // The tail shrinks as a share of the sweep price too, and the
            // executed sweep — what the throttled fabric measures — is
            // worth at least 1.05x.
            let (before, after) = (old.serial / old.total, new.serial / new.total);
            assert!(
                0.0 < after && after <= before && before < 1.0,
                "m={m} {family}: tail share {before} -> {after}"
            );
            let executed = |tail_q| {
                let job = PlannedJob {
                    plans: std::slice::from_ref(&plan),
                    qs: std::slice::from_ref(&qs),
                    tail_q,
                };
                executed_cost(&[job], &machine, &BatchOrder::Serial(vec![0])).makespan
            };
            let speedup = executed(1) / executed(tq);
            assert!(speedup >= 1.05, "m={m} {family}: chained sweep only {speedup:.4}x faster");
            // Bookkeeping: the in-run e = 1 exchange phase is carried at
            // the run's degree with zero standalone cost; totals stay
            // additive.
            let x1 = new.phases.iter().find(|p| p.e == 1).expect("e = 1 outcome");
            assert_eq!(x1.q, tq);
            assert_eq!(x1.cost, 0.0);
            let sum: f64 = new.phases.iter().map(|p| p.cost).sum::<f64>() + new.serial;
            assert!((new.total - sum).abs() < 1e-9 * sum.max(1.0));
        }
    }

    #[test]
    fn one_port_tail_gains_come_only_from_startup_overlap() {
        // A single transmit port serializes every packet: Σ widths·Tw is
        // invariant under Q, so chaining can only hide start-ups under
        // transmissions — the chained price stays within Ts-scale of the
        // serial sum and never beats the pure wire time.
        let machine = Machine::one_port(1000.0, 100.0);
        let plan = lower(256, 2, OrderingFamily::Br, 0);
        let wire: f64 = plan
            .phases()
            .iter()
            .filter(|ph| ph.k() == 1)
            .map(|ph| ph.max_message_elems() as f64 * machine.tw)
            .sum();
        for q in [1usize, 2, 4, 8] {
            let c = chained_tail_cost(&plan, &machine, q);
            assert!(c >= wire - 1e-9, "q={q}: {c} below wire floor {wire}");
        }
    }
}
