//! The per-stage stage builder the one send store replaced, kept as the
//! oracle of [`StageWriter::phase_stages`](crate::schedule::StageWriter::phase_stages). It collects
//! every stage into an allocation of its own — an SPMD stage's bundle into
//! one shared [`Arc`], a per-node stage's into one `Vec` per node — by the
//! loop the store's builder runs. The tests below hold
//! [`plan_pipelined_schedule`], [`plan_unpipelined_schedule`] and
//! [`pipelined_phase_schedule`] to it send for send: stage count, each
//! stage's form (shared or per node), and every node's messages in issue
//! order — largest first, ties in first-appearance order — dimension and
//! size bits alike.

use crate::plan::{plan_pipelined_schedule, plan_unpipelined_schedule};
use crate::schedule::{pipelined_phase_schedule, CommSchedule, NodeSend};
use mph_ccpipe::{pipelined_schedule, CcCube};
use mph_core::{CommPlan, OrderingFamily};
use proptest::prelude::*;
use std::sync::Arc;

/// One stage as the per-stage builder collected it.
enum Stage {
    /// Every one of `nodes` nodes sends the same shared bundle.
    Spmd { nodes: usize, bundle: Arc<[NodeSend]> },
    /// Arbitrary per-node bundles (`sends[n]` is node `n`'s list).
    PerNode { sends: Vec<Vec<NodeSend>> },
}

/// The per-stage builder: one allocation per SPMD stage, `2^d + 1` per
/// per-node stage.
fn phase_stages<'a>(
    d: usize,
    links: &'a [usize],
    q: usize,
    spmd: bool,
    unit: f64,
    size: impl Fn(usize, usize, usize) -> u64 + 'a,
) -> impl Iterator<Item = Stage> + 'a {
    let stages = pipelined_schedule(links.len(), q).stages.into_iter().enumerate();
    let mut units: Vec<(usize, u64)> = Vec::new();
    stages.map(move |(s, st)| {
        // Node `n`'s units per link of the stage, largest first.
        let window = |units: &mut Vec<(usize, u64)>, n| {
            units.clear();
            for k in st.lo..=st.hi {
                match units.iter_mut().find(|(dim, _)| *dim == links[k]) {
                    Some((_, u)) => *u += size(k, n, s - k),
                    None => units.push((links[k], size(k, n, s - k))),
                }
            }
            units.sort_by_key(|&(_, u)| std::cmp::Reverse(u));
        };
        let message = |&(dim, u): &(usize, u64)| NodeSend { dim, elems: u as f64 * unit };
        if spmd {
            window(&mut units, 0);
            Stage::Spmd { nodes: 1 << d, bundle: units.iter().map(message).collect() }
        } else {
            let node = |n| {
                window(&mut units, n);
                units.iter().map(message).collect()
            };
            Stage::PerNode { sends: (0..1 << d).map(node).collect() }
        }
    })
}

/// [`plan_pipelined_schedule`] by the per-stage builder.
fn plan_stages(plan: &CommPlan, qs: &[usize]) -> Vec<Stage> {
    let framing = plan.framing(qs, 1);
    let mut stages = Vec::new();
    for (idx, ph) in plan.phases().iter().enumerate() {
        let q = framing.frame(idx).packets();
        let size = |k: usize, n: usize, p| plan.packet_size(ph.send(k, n), q, p);
        stages.extend(phase_stages(plan.d(), &ph.links, q, ph.is_uniform(), 1.0, size));
    }
    stages
}

/// Asserts `schedule` is `oracle` send for send: as many stages, each of
/// the same form, every stored bundle with the same sends in the same
/// order, sizes compared by their bits.
fn assert_same(schedule: &CommSchedule, oracle: &[Stage], what: &str) {
    let bits = |sends: &[NodeSend]| -> Vec<(usize, u64)> {
        sends.iter().map(|s| (s.dim, s.elems.to_bits())).collect()
    };
    assert_eq!(schedule.stages().len(), oracle.len(), "{what}: stage count");
    for (s, (got, want)) in schedule.stages().zip(oracle).enumerate() {
        let got: Vec<_> = got.bundles().map(|(sends, copies)| (bits(sends), copies)).collect();
        let want: Vec<_> = match want {
            Stage::Spmd { nodes, bundle } => vec![(bits(bundle), *nodes)],
            Stage::PerNode { sends } => sends.iter().map(|b| (bits(b), 1)).collect(),
        };
        assert_eq!(got, want, "{what}: stage {s}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_store_builds_the_per_stage_builders_plan_schedules(
        family in 0usize..4,
        d in 1usize..=6,
        size in 0usize..4,
        sweep in 0usize..2,
        qs in proptest::collection::vec(1usize..=9, 6..=6),
    ) {
        // Even and ragged partitions, both sweeps of a chain (a ragged
        // sweep 1 enters with the blocks a division moved), one degree per
        // exchange phase.
        let family = OrderingFamily::ALL[family];
        let m = [9, 10, 18, 32 << d][size];
        let plan = CommPlan::chain(m, d, family, 2 * m, 2).swap_remove(sweep);
        let what = format!("{family} d={d} m={m} sweep={sweep} qs={:?}", &qs[..d]);
        assert_same(&plan_pipelined_schedule(&plan, &qs[..d]), &plan_stages(&plan, &qs[..d]), &what);
        let ones = plan_stages(&plan, &vec![1; d]);
        assert_same(&plan_unpipelined_schedule(&plan), &ones, &format!("{what}, unpipelined"));
    }

    #[test]
    fn the_store_builds_the_per_stage_builders_phase_schedules(
        family in 0usize..4,
        e in 1usize..=6,
        elems in 0.0f64..1e4,
        q in 1usize..=9,
    ) {
        let cc = CcCube::exchange_phase(OrderingFamily::ALL[family], e, elems);
        let unit = elems / q as f64;
        let oracle: Vec<Stage> = phase_stages(e, &cc.link_seq, q, true, unit, |_, _, _| 1).collect();
        let what = format!("{} e={e} elems={elems} q={q}", OrderingFamily::ALL[family]);
        assert_same(&pipelined_phase_schedule(e, &cc, q), &oracle, &what);
    }
}

#[test]
fn the_oracle_sees_both_forms_and_the_priced_degrees() {
    // The degrees the cost model picks at d = 5, for every family, on an
    // even plan (shared stages only) and a ragged one (per-node stages).
    let machine = mph_ccpipe::Machine::paper_figure2();
    for family in OrderingFamily::ALL {
        for m in [18, 32 << 5] {
            let plan = CommPlan::chain(m, 5, family, 2 * m, 1).remove(0);
            let cap = mph_ccpipe::packetization_cap(m, 5) as f64;
            let priced = mph_ccpipe::plan_sweep_cost(&plan, &machine, cap);
            let qs: Vec<usize> = priced.phases.iter().map(|p| p.q).collect();
            let oracle = plan_stages(&plan, &qs);
            let per_node = oracle.iter().any(|st| matches!(st, Stage::PerNode { .. }));
            assert_eq!(per_node, m % 64 != 0, "{family} m={m}: the form");
            assert_same(&plan_pipelined_schedule(&plan, &qs), &oracle, &format!("{family} m={m}"));
        }
    }
}
