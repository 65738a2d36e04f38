//! Lowering a [`CommPlan`] to a simulator schedule — the simulation view
//! of the one communication description the whole workspace shares.
//!
//! The plan already carries exact per-node message sizes for every
//! transition; this module turns it into [`CommStage`]s:
//!
//! * [`plan_unpipelined_schedule`] — one stage per transition, every node
//!   sending its block whole;
//! * [`plan_pipelined_schedule`] — each exchange phase becomes its
//!   prologue/kernel/epilogue stage schedule for the chosen degree `Q`
//!   (one entry of `qs` per exchange phase); division and last
//!   transitions stay single whole-block stages.
//!
//! Packet sizes are tracked exactly: each node's block is split into `Q`
//! balanced column packets, and as packets hop along the phase's link path
//! their (possibly unequal) sizes travel with them — so even for matrix
//! sizes that don't divide evenly, the simulated traffic is element-exact
//! against the threaded runtime's meter. Message *counts* differ by
//! design: the simulator combines the packets a stage sends through one
//! link into a single message (the paper's combining assumption), while
//! the runtime sends each packet separately.

use crate::schedule::{CommSchedule, CommStage, NodeSend};
use mph_core::{CommPlan, PlanPhase};

/// One stage per transition; node `n` sends exactly the plan's
/// `sends[t][n]` elements across the transition's link.
pub fn plan_unpipelined_schedule(plan: &CommPlan) -> CommSchedule {
    let ones: Vec<usize> = plan.exchange_phases().map(|_| 1).collect();
    plan_pipelined_schedule(plan, &ones)
}

/// Pipelined lowering: exchange phase `i` is packetized into `qs[i]`
/// packets (`qs` has one entry per exchange phase, in execution order);
/// serial phases stay whole-block stages — [`CommPlan::framing`] with a
/// whole-block tail, which is all the paper's stage model defines.
pub fn plan_pipelined_schedule(plan: &CommPlan, qs: &[usize]) -> CommSchedule {
    let framing = plan.framing(qs, 1);
    let mut stages = Vec::new();
    for (idx, ph) in plan.phases().iter().enumerate() {
        match framing.frame(idx).packets() {
            1 => stages.extend(ph.links.iter().zip(&ph.sends).map(|(&dim, sends)| {
                per_node_stage(sends.iter().map(|&e| vec![(dim, e as f64)]).collect())
            })),
            q => stages.extend(pipelined_phase_stages(plan, ph, q)),
        }
    }
    CommSchedule::new(plan.d(), stages)
}

/// Builds the `K + Q − 1` stages of one packetized exchange phase,
/// tracking per-packet sizes as they travel the link path.
fn pipelined_phase_stages(plan: &CommPlan, ph: &PlanPhase, q: usize) -> Vec<CommStage> {
    let p = 1usize << plan.d();
    let k_total = ph.k();
    // Initial packet sizes: node n's phase-entry block, split into q
    // balanced column packets (the runtime's ColumnBlock::split_columns).
    let mut pkt: Vec<Vec<f64>> = ph.sends[0]
        .iter()
        .map(|&block| plan.packet_elems(block, q).map(|e| e as f64).collect())
        .collect();
    let mut stages = Vec::with_capacity(k_total + q - 1);
    for s in 0..(k_total + q - 1) {
        let lo = s.saturating_sub(q - 1);
        let hi = s.min(k_total - 1);
        // Sends: iteration k's packet q' = s − k goes through links[k];
        // same-link packets of one stage combine into one message, in
        // first-appearance (k ascending) order.
        let sends: Vec<Vec<(usize, f64)>> = (0..p)
            .map(|n| {
                let mut bundle: Vec<(usize, f64)> = Vec::new();
                for k in lo..=hi {
                    let dim = ph.links[k];
                    let elems = pkt[n][s - k];
                    match bundle.iter_mut().find(|(d, _)| *d == dim) {
                        Some((_, e)) => *e += elems,
                        None => bundle.push((dim, elems)),
                    }
                }
                bundle
            })
            .collect();
        stages.push(per_node_stage(sends));
        // The stage's packets hop: swap each (k, s − k) packet across
        // links[k]. Distinct k ⇒ distinct packet slots, so swap order
        // within the stage does not matter.
        for k in lo..=hi {
            let mask = 1usize << ph.links[k];
            let j = s - k;
            for n in 0..p {
                if n & mask == 0 {
                    let partner = n | mask;
                    let tmp = pkt[n][j];
                    pkt[n][j] = pkt[partner][j];
                    pkt[partner][j] = tmp;
                }
            }
        }
    }
    stages
}

/// Helper: a per-node stage from `(dim, elems)` bundles, collapsing to the
/// shared SPMD representation when every node sends the same bundle.
fn per_node_stage(bundles: Vec<Vec<(usize, f64)>>) -> CommStage {
    let to_sends = |b: &[(usize, f64)]| -> Vec<NodeSend> {
        b.iter().map(|&(dim, elems)| NodeSend { dim, elems }).collect()
    };
    let uniform = bundles.windows(2).all(|w| w[0] == w[1]);
    if uniform && bundles.len().is_power_of_two() {
        let d = bundles.len().trailing_zeros() as usize;
        CommStage::spmd(d, to_sends(&bundles[0]))
    } else {
        CommStage::per_node(bundles.iter().map(|b| to_sends(b)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{pipelined_phase_schedule, unpipelined_phase_schedule};
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
    fn uniform_plan_phase_matches_the_continuous_builder() {
        // The continuous CcCube builder splits element counts evenly; the
        // plan lowering splits *columns*. When Q divides the block's
        // column count the two agree stage by stage; otherwise they agree
        // on volume (the column split is what the runtime really ships).
        let m = 64usize;
        let d = 3usize;
        let plan = lower(m, d, OrderingFamily::PermutedBr, 0);
        let first = &plan.phases()[0]; // exchange phase e = 3, 4-col blocks
        let elems = first.max_message_elems() as f64;
        let cc = CcCube { link_seq: first.links.clone(), message_elems: elems };
        for q in [1usize, 2, 4] {
            let via_cc = pipelined_phase_schedule(d, &cc, q);
            let via_plan = CommSchedule::new(d, pipelined_phase_stages(&plan, first, q));
            assert_eq!(via_plan, via_cc, "q={q}");
        }
        for q in [3usize, 7] {
            let via_cc = pipelined_phase_schedule(d, &cc, q);
            let via_plan = CommSchedule::new(d, pipelined_phase_stages(&plan, first, q));
            assert_eq!(via_plan.stages.len(), via_cc.stages.len(), "q={q}");
            assert!((via_plan.volume() - via_cc.volume()).abs() < 1e-9, "q={q}");
        }
        let unpiped = unpipelined_phase_schedule(d, &cc);
        let via_plan = CommSchedule::new(d, pipelined_phase_stages(&plan, first, 1));
        assert_eq!(via_plan, unpiped);
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
