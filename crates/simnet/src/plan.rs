//! Lowering a [`CommPlan`] to a simulator schedule — the simulation view
//! of the one communication description the whole workspace shares.
//!
//! The plan already carries exact per-node message sizes for every
//! transition; this module turns it into
//! [`CommStage`](crate::schedule::CommStage)s:
//!
//! * [`plan_unpipelined_schedule`] — one stage per transition, every node
//!   sending its block whole;
//! * [`plan_pipelined_schedule`] — each exchange phase becomes its
//!   prologue/kernel/epilogue stage schedule for the chosen degree `Q`
//!   (one entry of `qs` per exchange phase); division and last
//!   transitions stay single whole-block stages.
//!
//! Packet sizes are exact: node `n`'s block at transition `k` is split
//! into `Q` balanced column packets ([`CommPlan::packet_size`]), and
//! because a block's packets travel together, those are the packets it
//! sends at iteration `k` — so even for matrix sizes that don't divide
//! evenly, the simulated traffic is element-exact against the threaded
//! runtime's meter. Message *counts* differ by design: the simulator
//! combines the packets a stage sends through one link into a single
//! message (the paper's combining assumption), while the runtime sends
//! each packet separately.

use crate::schedule::{CommSchedule, StageWriter};
use mph_core::{CommPlan, PlanPhase};

/// One stage per transition; node `n` sends exactly the plan's
/// [`send`](mph_core::PlanPhase::send)`(t, n)` elements across the
/// transition's link.
pub fn plan_unpipelined_schedule(plan: &CommPlan) -> CommSchedule {
    let ones: Vec<usize> = plan.exchange_phases().map(|_| 1).collect();
    plan_pipelined_schedule(plan, &ones)
}

/// Pipelined lowering: exchange phase `i` is packetized into `qs[i]`
/// packets (`qs` has one entry per exchange phase, in execution order);
/// serial phases stay whole-block stages — [`CommPlan::framing`] with a
/// whole-block tail, which is all the paper's stage model defines. A phase
/// lowering found uniform ([`mph_core::PlanPhase::is_uniform`]: one size per
/// transition, every node's) lowers to shared SPMD stages.
///
/// The schedule's store is sized for every phase up front, and each
/// phase's packet sizes are taken once, into one table of a row per
/// transition and sending node (a row repeats the one before it when the
/// block size does), which the phase's stages then read.
pub fn plan_pipelined_schedule(plan: &CommPlan, qs: &[usize]) -> CommSchedule {
    let framing = plan.framing(qs, 1);
    let writers = |ph: &PlanPhase| if ph.is_uniform() { 1 } else { 1 << plan.d() };
    let phases =
        || plan.phases().iter().enumerate().map(|(idx, ph)| (ph, framing.frame(idx).packets()));
    let mut writer =
        StageWriter::new(plan.d(), phases().map(|(ph, q)| (ph.k(), q, ph.is_uniform())));
    let table = phases().map(|(ph, q)| ph.k() * writers(ph) * q).max();
    let mut packets: Vec<u64> = Vec::with_capacity(table.unwrap_or(0));
    for (ph, q) in phases() {
        let writers = writers(ph);
        packets.clear();
        let mut last = None;
        for (k, n) in (0..ph.k()).flat_map(|k| (0..writers).map(move |n| (k, n))) {
            let block = ph.send(k, n);
            if last == Some(block) {
                packets.extend_from_within(packets.len() - q..);
            } else {
                packets.extend((0..q).map(|p| plan.packet_size(block, q, p)));
                last = Some(block);
            }
        }
        let size = |k: usize, n: usize, p: usize| packets[(k * writers + n) * q + p];
        writer.phase_stages(&ph.links, q, ph.is_uniform(), 1.0, size);
    }
    writer.schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::pipelined_phase_schedule;
    use crate::sim::{simulate_synchronized, StartupModel};
    use mph_ccpipe::{CcCube, Machine};
    use mph_core::{BlockLayout, BlockPartition, OrderingFamily, SweepSchedule};

    fn lower(m: usize, d: usize, family: OrderingFamily, sweep: usize) -> CommPlan {
        let schedule = SweepSchedule::sweep(d, family, sweep);
        let partition = BlockPartition::new(m, 2 << d);
        CommPlan::lower(&schedule, &partition, &BlockLayout::canonical(d), 2 * m)
    }

    #[test]
    fn unpipelined_plan_schedule_matches_plan_volume() {
        for (m, d) in [(32usize, 2usize), (10, 1), (24, 3)] {
            let plan = lower(m, d, OrderingFamily::Br, 0);
            let sched = plan_unpipelined_schedule(&plan);
            let want: Vec<f64> = plan.volume_by_dim().iter().map(|&v| v as f64).collect();
            assert_eq!(sched.volume_by_dim(), want, "m={m} d={d}");
            assert_eq!(sched.message_count(), ((2 << d) - 1) * (1 << d));
        }
    }

    #[test]
    fn pipelined_plan_schedule_volume_is_q_invariant() {
        // Packetization reframes messages; per-dimension volume must not
        // move — including uneven partitions and oversplit (empty) packets.
        for m in [32usize, 18, 9] {
            let d = 2;
            let plan = lower(m, d, OrderingFamily::Degree4, 0);
            let want: Vec<f64> = plan.volume_by_dim().iter().map(|&v| v as f64).collect();
            for qs in [[1usize, 1], [2, 1], [3, 2], [4, 4], [7, 3]] {
                let sched = plan_pipelined_schedule(&plan, &qs);
                let got = sched.volume_by_dim();
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() < 1e-9, "m={m} qs={qs:?}: {got:?} vs {want:?}");
                }
            }
        }
    }

    #[test]
    fn a_plans_first_phase_is_the_continuous_builders_phase() {
        // The continuous CcCube builder splits element counts evenly; the
        // plan lowering splits *columns*. When Q divides the block's
        // column count (4 here) the plan's first exchange phase is the
        // CcCube phase stage by stage, whole blocks (Q = 1) included.
        let d = 3usize;
        let plan = lower(64, d, OrderingFamily::PermutedBr, 0);
        let first = &plan.phases()[0];
        let elems = first.max_message_elems() as f64;
        let cc = CcCube { link_seq: first.links.clone(), message_elems: elems };
        for q in [1usize, 2, 4] {
            let plan_sched = plan_pipelined_schedule(&plan, &[q, 1, 1]);
            let phase = pipelined_phase_schedule(d, &cc, q);
            assert_eq!(phase.stages().len(), first.k() + q - 1);
            assert!(plan_sched.stages().take(first.k() + q - 1).eq(phase.stages()), "q={q}");
        }
    }

    #[test]
    fn every_node_puts_its_own_sends_on_each_link() {
        // Ragged partitions (and one even), two sweeps, degrees up to 7:
        // node n's volume on each dimension is exactly its plan sends on
        // that link — the per-node reading of the stateless packet-size
        // rule. A uniform plan lowers to shared SPMD stages only.
        for (m, d, sweep) in [(9, 2), (10, 1), (18, 2), (10, 3), (64, 3)]
            .into_iter()
            .flat_map(|(m, d)| [(m, d, 0), (m, d, 1)])
        {
            let plan = lower(m, d, OrderingFamily::Degree4, sweep);
            let mut want = vec![vec![0u64; d]; 1 << d];
            for ph in plan.phases() {
                for (t, &link) in ph.links.iter().enumerate() {
                    (0..1 << d).for_each(|n| want[n][link] += ph.send(t, n));
                }
            }
            for q in 1..=7usize {
                let sched = plan_pipelined_schedule(&plan, &vec![q; d]);
                let mut got = vec![vec![0u64; d]; 1 << d];
                for stage in sched.stages() {
                    for (n, sends) in stage.iter().enumerate() {
                        sends.iter().for_each(|s| got[n][s.dim] += s.elems as u64);
                    }
                }
                assert_eq!(got, want, "m={m} d={d} sweep={sweep} q={q}");
                let spmd = sched.stages().all(|st| st.bundles().count() == 1);
                assert!(spmd || m % (2 << d) != 0, "m={m} d={d} sweep={sweep} q={q}");
            }
        }
    }

    #[test]
    fn pipelined_plan_simulates_cheaper_than_unpipelined() {
        // The Figure-2 verdict on a whole lowered sweep.
        let machine = Machine::paper_figure2();
        let plan = lower(4096, 3, OrderingFamily::PermutedBr, 0);
        let qs: Vec<usize> = mph_ccpipe::plan_pipelining(&plan, &machine, 4096.0 / 16.0)
            .iter()
            .map(|c| c.opt.q)
            .collect();
        let base = simulate_synchronized(
            &plan_unpipelined_schedule(&plan),
            &machine,
            StartupModel::SerializedThenParallel,
        );
        let piped = simulate_synchronized(
            &plan_pipelined_schedule(&plan, &qs),
            &machine,
            StartupModel::SerializedThenParallel,
        );
        assert!(piped.makespan < 0.8 * base.makespan, "{} vs {}", piped.makespan, base.makespan);
        // And the simulated makespans match the plan-driven cost model.
        let want = mph_ccpipe::plan_sweep_cost(&plan, &machine, 4096.0 / 16.0);
        assert!(
            (piped.makespan - want.total).abs() < 1e-6 * want.total,
            "sim {} vs model {}",
            piped.makespan,
            want.total
        );
    }

    #[test]
    fn per_phase_times_sum_to_the_plan_sweep_cost() {
        // One plan, one price, phase by phase: phase `i` occupies
        // `K + Q − 1` consecutive stages of the simulated schedule (`K`
        // whole-block ones at `Q = 1`), and its span is the cost model's
        // price of that phase.
        let machine = Machine::paper_figure2();
        let plan = lower(256, 3, OrderingFamily::PermutedBr, 0);
        let want = mph_ccpipe::plan_sweep_cost(&plan, &machine, 256.0 / 16.0);
        let qs: Vec<usize> = want.phases.iter().map(|p| p.q).collect();
        let sim = simulate_synchronized(
            &plan_pipelined_schedule(&plan, &qs),
            &machine,
            StartupModel::SerializedThenParallel,
        );
        let framing = plan.framing(&qs, 1);
        let mut stage = 0usize;
        let times: Vec<f64> = (plan.phases().iter().enumerate())
            .map(|(idx, ph)| {
                let first = stage;
                stage += ph.k() + framing.frame(idx).packets() - 1;
                sim.stage_spans[stage - 1].1 - sim.stage_spans[first].0
            })
            .collect();
        assert_eq!(stage, sim.stage_spans.len());
        let exchange = plan.phases().iter().zip(&times).filter(|(ph, _)| ph.is_exchange());
        for ((_, time), model) in exchange.zip(&want.phases) {
            assert!((time - model.cost).abs() < 1e-6 * model.cost, "e={}: {time}", model.e);
        }
        let total: f64 = times.iter().sum();
        assert!((total - want.total).abs() < 1e-6 * want.total, "{total} vs {}", want.total);
        // The serial tail closes the sweep: division + last, each a single
        // whole-block message.
        let serial: f64 = times[times.len() - 2..].iter().sum();
        let blk = 2.0 * 256.0 * (256.0 / 16.0);
        assert!((serial - 2.0 * machine.single_message_cost(blk)).abs() < 1e-9);
    }

    #[test]
    fn uneven_packet_sizes_travel_with_their_packets() {
        // m = 10, d = 1: the phase-entry blocks have 2 columns each, but a
        // division hands node 1's 3-column block around in later sweeps.
        // Lower sweep 1 (whose entry layout mixes sizes) and check the
        // simulated volume still matches the plan exactly.
        let m = 10;
        let d = 1;
        let partition = BlockPartition::new(m, 2 << d);
        let s0 = SweepSchedule::sweep(d, OrderingFamily::Br, 0);
        let p0 = CommPlan::lower(&s0, &partition, &BlockLayout::canonical(d), 2 * m);
        let s1 = SweepSchedule::sweep(d, OrderingFamily::Br, 1);
        let p1 = CommPlan::lower(&s1, &partition, p0.final_layout(), 2 * m);
        for q in [1usize, 2, 3] {
            let sched = plan_pipelined_schedule(&p1, &[q]);
            let want: Vec<f64> = p1.volume_by_dim().iter().map(|&v| v as f64).collect();
            assert_eq!(sched.volume_by_dim(), want, "q={q}");
        }
    }
}
