//! Property-based tests for the pipelining cost models: the fast
//! closed-form/sliding evaluations must agree with a naive stage-by-stage
//! reference on arbitrary inputs, and the optimizer must never lose to a
//! sampled competitor.

use mph_ccpipe::{
    ideal_phase, optimize_q, pipelined_schedule, CcCube, Machine, PhaseCostModel, PortModel,
};
use mph_core::OrderingFamily;
use proptest::prelude::*;

fn family_strategy() -> impl Strategy<Value = OrderingFamily> {
    prop_oneof![
        Just(OrderingFamily::Br),
        Just(OrderingFamily::PermutedBr),
        Just(OrderingFamily::Degree4),
        Just(OrderingFamily::MinAlpha),
    ]
}

fn machine_strategy() -> impl Strategy<Value = Machine> {
    (
        0.0f64..5000.0,
        0.1f64..500.0,
        prop_oneof![
            Just(PortModel::AllPort),
            Just(PortModel::OnePort),
            (2usize..6).prop_map(PortModel::KPort),
        ],
    )
        .prop_map(|(ts, tw, ports)| Machine { ts, tw, ports })
}

fn naive_cost(cc: &CcCube, q: usize, machine: &Machine) -> f64 {
    let sched = pipelined_schedule(cc.k(), q);
    let s_elems = cc.message_elems / q as f64;
    let e = cc.link_seq.iter().map(|&l| l + 1).max().unwrap();
    sched
        .stages
        .iter()
        .map(|st| {
            let mut hist = vec![0usize; e];
            for &l in &cc.link_seq[st.lo..=st.hi] {
                hist[l] += 1;
            }
            machine.stage_cost_from_mults(&hist, s_elems)
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_cost_equals_naive_cost(
        family in family_strategy(),
        e in 2usize..=6,
        q in 1usize..200,
        elems in 1.0f64..1e5,
        machine in machine_strategy(),
    ) {
        let cc = CcCube::exchange_phase(family, e, elems);
        let model = PhaseCostModel::new(&cc, machine);
        let fast = model.cost(q);
        let slow = naive_cost(&cc, q, &machine);
        prop_assert!(
            (fast - slow).abs() <= 1e-6 * slow.max(1.0),
            "{family} e={e} q={q}: {fast} vs {slow}"
        );
    }

    #[test]
    fn optimizer_never_loses_to_sampled_q(
        family in family_strategy(),
        e in 2usize..=6,
        elems in 2.0f64..1e5,
        probe in 1usize..500,
        machine in machine_strategy(),
    ) {
        let cc = CcCube::exchange_phase(family, e, elems);
        let model = PhaseCostModel::new(&cc, machine);
        let opt = optimize_q(&model, elems);
        let probe = probe.min(elems as usize).max(1);
        prop_assert!(
            opt.cost <= model.cost(probe) * (1.0 + 1e-12),
            "{family} e={e}: optimizer {} beaten by q={probe} ({})",
            opt.cost,
            model.cost(probe)
        );
    }

    #[test]
    fn q1_is_always_the_unpipelined_cost(
        family in family_strategy(),
        e in 1usize..=8,
        elems in 1.0f64..1e6,
        machine in machine_strategy(),
    ) {
        for cc in [CcCube::exchange_phase(family, e, elems), ideal_phase(e, elems)] {
            let model = PhaseCostModel::new(&cc, machine);
            prop_assert!((model.cost(1) - model.unpipelined_cost()).abs() <= 1e-9 * model.cost(1));
        }
    }

    #[test]
    fn lower_bound_stays_below_families_all_port(
        family in family_strategy(),
        e in 2usize..=7,
        elems in 1.0f64..1e7,
        ts in 0.0f64..5000.0,
        tw in 0.1f64..500.0,
    ) {
        let machine = Machine::all_port(ts, tw);
        let lb_cost = optimize_q(&PhaseCostModel::new(&ideal_phase(e, elems), machine), elems).cost;
        let cc = CcCube::exchange_phase(family, e, elems);
        let opt = optimize_q(&PhaseCostModel::new(&cc, machine), elems);
        prop_assert!(lb_cost <= opt.cost * (1.0 + 1e-9), "{family}: {lb_cost} > {}", opt.cost);
    }

    #[test]
    fn stage_cost_monotone_in_ports(
        mults in proptest::collection::vec(0usize..20, 1..8),
        s in 0.1f64..100.0,
        ts in 0.0f64..1000.0,
        tw in 0.1f64..100.0,
    ) {
        let one = Machine { ts, tw, ports: PortModel::OnePort };
        let two = Machine { ts, tw, ports: PortModel::KPort(2) };
        let four = Machine { ts, tw, ports: PortModel::KPort(4) };
        let all = Machine { ts, tw, ports: PortModel::AllPort };
        let c1 = one.stage_cost_from_mults(&mults, s);
        let c2 = two.stage_cost_from_mults(&mults, s);
        let c4 = four.stage_cost_from_mults(&mults, s);
        let ca = all.stage_cost_from_mults(&mults, s);
        // All-port lower-bounds every LPT schedule (makespan ≥ max job);
        // one-port upper-bounds them (makespan ≤ sum of jobs). k-vs-k'
        // monotonicity is NOT asserted: list scheduling admits anomalies.
        prop_assert!(ca <= c4 + 1e-9 && ca <= c2 + 1e-9, "all={ca} 4={c4} 2={c2}");
        prop_assert!(c4 <= c1 + 1e-9 && c2 <= c1 + 1e-9, "one={c1} 4={c4} 2={c2}");
    }
}
