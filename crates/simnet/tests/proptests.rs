//! Property-based tests for the network simulator: conformance with the
//! analytic model on arbitrary phases, the semantic ordering between
//! start-up models (strict ≥ overlapped), and an SPMD stage priced like
//! its per-node spelling.

use mph_ccpipe::{CcCube, Machine, PhaseCostModel, PortModel};
use mph_core::OrderingFamily;
use mph_simnet::{
    pipelined_phase_schedule, simulate_synchronized, CommSchedule, NodeSend, StartupModel,
};
use proptest::prelude::*;

fn family_strategy() -> impl Strategy<Value = OrderingFamily> {
    prop_oneof![
        Just(OrderingFamily::Br),
        Just(OrderingFamily::PermutedBr),
        Just(OrderingFamily::Degree4),
        Just(OrderingFamily::MinAlpha),
    ]
}

fn random_schedule() -> impl Strategy<Value = CommSchedule> {
    (1usize..=3).prop_flat_map(|d| {
        let p = 1usize << d;
        let stage = proptest::collection::vec(
            proptest::collection::vec((0usize..d, 0.0f64..500.0), 0..=d),
            p..=p,
        )
        .prop_map(move |sends| {
            sends
                .into_iter()
                .map(|node| {
                    // At most one message per dimension (combined messages).
                    let mut seen = [false; 8];
                    node.into_iter()
                        .filter_map(|(dim, elems)| {
                            if seen[dim] {
                                None
                            } else {
                                seen[dim] = true;
                                Some(NodeSend { dim, elems })
                            }
                        })
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        });
        proptest::collection::vec(stage, 1..6).prop_map(move |stages| {
            let mut sched = CommSchedule::new(d);
            stages.into_iter().for_each(|sends| sched.push_per_node(sends));
            sched
        })
    })
}

/// A cube dimension and the shared bundles of a few SPMD stages on it,
/// two sends on one link included.
fn spmd_stages() -> impl Strategy<Value = (usize, Vec<Vec<NodeSend>>)> {
    (1usize..=3).prop_flat_map(|d| {
        let send = (0..d, 0.0f64..500.0).prop_map(|(dim, elems)| NodeSend { dim, elems });
        let bundle = proptest::collection::vec(send, 0..=2 * d);
        (Just(d), proptest::collection::vec(bundle, 1..4))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn strict_sync_simulation_equals_analytic_model(
        family in family_strategy(),
        e in 2usize..=6,
        q in 1usize..200,
        elems in 1.0f64..1e5,
        ts in 0.0f64..5000.0,
        tw in 0.1f64..500.0,
        ports in prop_oneof![
            Just(PortModel::AllPort),
            Just(PortModel::OnePort),
            (2usize..6).prop_map(PortModel::KPort),
        ],
    ) {
        // A stage issues its messages largest first, so the clock's
        // earliest-free port packs them as the closed form's LPT does.
        let machine = Machine { ts, tw, ports };
        let cc = CcCube::exchange_phase(family, e, elems);
        let sched = pipelined_phase_schedule(e, &cc, q);
        let sim = simulate_synchronized(&sched, &machine, StartupModel::SerializedThenParallel);
        let want = PhaseCostModel::new(&cc, machine).cost(q);
        prop_assert!(
            (sim.makespan - want).abs() <= 1e-9 * want,
            "{family} e={e} q={q} {ports:?}: sim {} vs model {want}",
            sim.makespan
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn an_spmd_stage_prices_like_its_per_node_spelling(
        spmd_stages in spmd_stages(),
        ts in 0.0f64..2000.0,
        tw in 0.1f64..100.0,
    ) {
        // One replay of the shared bundle stands for all 2^d nodes.
        let (d, bundles) = spmd_stages;
        let mut spmd = CommSchedule::new(d);
        bundles.iter().for_each(|b| spmd.push_spmd(b.iter().copied()));
        let mut per_node = CommSchedule::new(d);
        bundles.iter().for_each(|b| per_node.push_per_node(vec![b.clone(); 1 << d]));
        for ports in [PortModel::AllPort, PortModel::OnePort, PortModel::KPort(2)] {
            for startup in [StartupModel::SerializedThenParallel, StartupModel::Overlapped] {
                let machine = Machine { ts, tw, ports };
                let a = simulate_synchronized(&spmd, &machine, startup);
                let b = simulate_synchronized(&per_node, &machine, startup);
                prop_assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{:?} {:?}", ports, startup);
                prop_assert_eq!(&a.stage_spans, &b.stage_spans);
                prop_assert_eq!(a.messages, b.messages);
                for (x, y) in a.dim_busy.iter().zip(&b.dim_busy) {
                    prop_assert!((x - y).abs() <= 1e-12 * x.abs().max(y.abs()), "{x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn overlapped_startups_never_slower(sched in random_schedule(), ts in 0.0f64..2000.0, tw in 0.1f64..100.0) {
        for ports in [PortModel::AllPort, PortModel::OnePort, PortModel::KPort(2)] {
            let machine = Machine { ts, tw, ports };
            let strict = simulate_synchronized(&sched, &machine, StartupModel::SerializedThenParallel);
            let relaxed = simulate_synchronized(&sched, &machine, StartupModel::Overlapped);
            prop_assert!(relaxed.makespan <= strict.makespan + 1e-9, "{ports:?}");
        }
    }

    #[test]
    fn busy_time_is_mode_invariant(sched in random_schedule(), ts in 0.0f64..2000.0, tw in 0.1f64..100.0) {
        // Total per-dimension busy time is traffic accounting — identical
        // under strict and overlapped start-ups.
        let machine = Machine::all_port(ts, tw);
        let a = simulate_synchronized(&sched, &machine, StartupModel::SerializedThenParallel);
        let b = simulate_synchronized(&sched, &machine, StartupModel::Overlapped);
        for (x, y) in a.dim_busy.iter().zip(&b.dim_busy) {
            prop_assert!((x - y).abs() <= 1e-9 * x.max(1.0));
        }
        prop_assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn makespan_bounds(sched in random_schedule(), ts in 0.1f64..2000.0, tw in 0.1f64..100.0) {
        // Makespan is at least the busiest single message and at most the
        // full serialization of everything.
        let machine = Machine::all_port(ts, tw);
        let r = simulate_synchronized(&sched, &machine, StartupModel::SerializedThenParallel);
        let mut max_single = 0.0f64;
        let mut total = 0.0f64;
        for st in sched.stages() {
            for node in st.iter() {
                for s in node {
                    max_single = max_single.max(ts + s.elems * tw);
                    total += ts + s.elems * tw;
                }
            }
        }
        if r.messages > 0 {
            prop_assert!(r.makespan >= max_single - 1e-9);
            prop_assert!(r.makespan <= total + 1e-9);
        } else {
            prop_assert_eq!(r.makespan, 0.0);
        }
    }
}
