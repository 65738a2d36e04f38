//! Property-based tests for the ordering core: every family must produce
//! valid `e`-sequences, the permutation algebra must satisfy group laws,
//! and — the paper's correctness core — every sweep must pair every block
//! pair exactly once from any placement, under any sweep rotation. And the
//! laws of the sweep's micro-op program, the order every executor reads.

use mph_core::{
    alpha, alpha_lower_bound, pbr_sequence_with, sequence_degree, trace_sweep,
    validate_sweep_coverage, BlockLayout, BlockPartition, CommPlan, MicroOp, OpKind,
    OrderingFamily, PbrConvention, Permutation, SweepSchedule, TransitionKind,
};
use mph_hypercube::is_link_sequence_hamiltonian;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

fn family_strategy() -> impl Strategy<Value = OrderingFamily> {
    prop_oneof![
        Just(OrderingFamily::Br),
        Just(OrderingFamily::PermutedBr),
        Just(OrderingFamily::Degree4),
        Just(OrderingFamily::MinAlpha),
    ]
}

proptest! {
    #[test]
    fn every_family_sequence_is_hamiltonian(family in family_strategy(), e in 1usize..=12) {
        let seq = family.sequence(e);
        prop_assert!(is_link_sequence_hamiltonian(&seq, e), "{family} e={e}");
    }

    #[test]
    fn alpha_respects_the_lower_bound(family in family_strategy(), e in 1usize..=12) {
        let seq = family.sequence(e);
        prop_assert!(alpha(&seq, e) >= alpha_lower_bound(e));
    }

    #[test]
    fn degree_is_bounded_by_e(family in family_strategy(), e in 2usize..=10) {
        let seq = family.sequence(e);
        let deg = sequence_degree(&seq, e);
        prop_assert!(deg >= 1 && deg <= e);
    }

    #[test]
    fn pbr_all_conventions_stay_hamiltonian(e in 2usize..=13, span in any::<bool>(), count in any::<bool>()) {
        let conv = PbrConvention { ceil_span: span, ceil_count: count };
        prop_assert!(is_link_sequence_hamiltonian(&pbr_sequence_with(e, conv), e));
    }

    #[test]
    fn permutation_conjugation_preserves_cycle_type(
        seed_p in proptest::collection::vec(0u64..u64::MAX, 6),
        seed_c in proptest::collection::vec(0u64..u64::MAX, 6),
    ) {
        let build = |seed: &[u64]| {
            let mut idx: Vec<usize> = (0..6).collect();
            idx.sort_by_key(|&i| seed[i]);
            Permutation::from_map(idx)
        };
        let p = build(&seed_p);
        let c = build(&seed_c);
        let q = p.conjugate_by(&c);
        // Cycle type is invariant under conjugation: compare sorted cycle
        // length multisets.
        let cycle_type = |perm: &Permutation| {
            let n = perm.len();
            let mut seen = vec![false; n];
            let mut lens = Vec::new();
            for s in 0..n {
                if seen[s] { continue; }
                let mut len = 0;
                let mut cur = s;
                while !seen[cur] {
                    seen[cur] = true;
                    cur = perm.apply(cur);
                    len += 1;
                }
                lens.push(len);
            }
            lens.sort_unstable();
            lens
        };
        prop_assert_eq!(cycle_type(&p), cycle_type(&q));
    }

    #[test]
    fn sweep_coverage_from_arbitrary_placements(
        family in family_strategy(),
        d in 1usize..=4,
        sweep in 0usize..6,
        seed in proptest::collection::vec(0u64..u64::MAX, 32),
    ) {
        let p = 1usize << d;
        // Random placement: permute 0..2p by random keys.
        let mut blocks: Vec<usize> = (0..2 * p).collect();
        blocks.sort_by_key(|&b| seed[b % seed.len()].wrapping_mul(b as u64 + 1));
        let slots: Vec<[usize; 2]> =
            (0..p).map(|n| [blocks[2 * n], blocks[2 * n + 1]]).collect();
        let layout = BlockLayout::from_slots(slots);
        let schedule = SweepSchedule::sweep(d, family, sweep);
        prop_assert!(validate_sweep_coverage(&schedule, &layout).is_ok(), "{family} d={d} s={sweep}");
    }

    #[test]
    fn chained_sweeps_preserve_block_population(
        family in family_strategy(),
        d in 1usize..=4,
        sweeps in 1usize..5,
    ) {
        let mut layout = BlockLayout::canonical(d);
        for s in 0..sweeps {
            let schedule = SweepSchedule::sweep(d, family, s);
            let trace = trace_sweep(&schedule, &layout);
            layout = trace.final_layout;
        }
        // After any number of sweeps every block id is still present once.
        let p = 1usize << d;
        let mut seen = vec![false; 2 * p];
        for n in 0..p {
            for b in layout.at(n) {
                prop_assert!(!seen[b], "block {b} duplicated");
                seen[b] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|x| x));
    }

    #[test]
    fn transition_counts_match_formula(family in family_strategy(), d in 0usize..=6) {
        let s = SweepSchedule::first_sweep(d, family);
        let want = if d == 0 { 0 } else { (1usize << (d + 1)) - 1 };
        prop_assert_eq!(s.transitions().len(), want);
    }

    #[test]
    fn column_ordering_is_valid_for_arbitrary_m(
        family in family_strategy(),
        d in 1usize..=3,
        m_factor in 1usize..=6,
        odd_extra in 0usize..=3,
    ) {
        // m spans clean and ragged partitions alike.
        let m = (m_factor << (d + 1)) + odd_extra;
        let schedule = SweepSchedule::first_sweep(d, family);
        let ordering =
            mph_core::column_ordering(&schedule, &BlockLayout::canonical(d), m);
        prop_assert!(mph_core::validate_column_ordering(&ordering).is_ok(),
            "{family} d={d} m={m}");
        // The m−1 identity holds exactly when every block has even size.
        let c = m / (2 << d);
        if m % (2 << d) == 0 && c % 2 == 0 {
            prop_assert_eq!(ordering.steps.len(), m - 1, "{} d={} m={}", family, d, m);
        }
    }

    #[test]
    fn the_sweep_program_obeys_its_laws(
        family in family_strategy(),
        d in 0usize..=4,
        m_factor in 1usize..=3,
        ragged in 0usize..=3,
        sweep in 0usize..4,
        degrees in proptest::collection::vec(0usize..=6, 4),
        tail_q in 0usize..=5,
    ) {
        use OpKind::*;
        let m = (m_factor << (d + 1)) + ragged;
        let plan = CommPlan::lower(
            &SweepSchedule::sweep(d, family, sweep),
            &BlockPartition::new(m, 2 << d),
            &BlockLayout::canonical(d),
            2 * m,
        );
        let qs = &degrees[..d];
        let framing = plan.framing(qs, tail_q);
        let ops: Vec<MicroOp> = plan.program(&framing).collect();
        let what = format!("{family} d={d} m={m} s={sweep} qs={qs:?} tail_q={tail_q}");

        // One sweep, start to end; every op has its own identity and the
        // phases run in plan order.
        prop_assert_eq!(ops[0], MicroOp::SWEEP_START, "{}", what);
        let end = ops[ops.len() - 1];
        prop_assert_eq!((end.kind, end.phase), (SweepEnd, plan.phases().len()), "{}", what);
        let ids: HashSet<_> = ops.iter().map(|op| (op.phase, op.k, op.q, op.kind)).collect();
        prop_assert_eq!(ids.len(), ops.len(), "an op repeats: {}", what);
        prop_assert!(ops.windows(2).all(|w| w[0].phase <= w[1].phase), "{}", what);
        let body = &ops[1..ops.len() - 1];
        prop_assert!(body.iter().all(|op| !matches!(op.kind, SweepStart | SweepEnd)), "{}", what);
        prop_assert!(d > 0 || body.is_empty(), "d = 0 is [SweepStart, SweepEnd]: {}", what);

        // The closed-form message count is the program's charging ops.
        let charging = body.iter().filter(|op| op.charges()).count() as u64;
        prop_assert_eq!(charging << d, plan.messages_with_tail(qs, tail_q), "{}", what);

        // Each phase has the shape of its frame. A chained tail takes every
        // single-transition phase; otherwise a degree above 1 packetizes.
        for (idx, ph) in plan.phases().iter().enumerate() {
            let (k_total, q_total) = (ph.k(), framing.frame(idx).packets());
            let phase: Vec<MicroOp> = body.iter().filter(|op| op.phase == idx).copied().collect();
            let got: Vec<_> = phase.iter().map(|op| (op.kind, op.k, op.q)).collect();
            let round = |kind, k| (0..q_total).map(move |q| (kind, k, q));
            let entries = phase.iter().filter(|op| op.entry).count();
            prop_assert!(phase.iter().all(|op| op.of == q_total), "{} phase {}", what, idx);
            if tail_q > 1 && k_total == 1 {
                let want: Vec<_> = round(TailSend, 0).chain(round(TailRecv, 0)).collect();
                prop_assert_eq!(got, want, "{} chained phase {}", what, idx);
            } else if q_total > 1 {
                let pipes = (0..k_total).flat_map(|k| round(Pipe, k));
                let want: Vec<_> = pipes.chain(round(Drain, k_total - 1)).collect();
                prop_assert_eq!(got, want, "{} packetized phase {}", what, idx);
                prop_assert!(entries == 1 && phase[0].entry, "{} phase {}", what, idx);

                // The §2.4 wavefront: stage s holds packets (k, s − k), the
                // membership `mph_simnet`'s stage builder iterates.
                let mut stages: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
                for op in phase.iter().filter(|op| op.kind == Pipe) {
                    stages.entry(op.k + op.q).or_default().push((op.k, op.q));
                }
                prop_assert_eq!(stages.len(), k_total + q_total - 1, "{} phase {}", what, idx);
                for (&s, members) in &stages {
                    let (lo, hi) = (s.saturating_sub(q_total - 1), s.min(k_total - 1));
                    let want: Vec<_> = (lo..=hi).map(|k| (k, s - k)).collect();
                    prop_assert_eq!(members, &want, "{} phase {} stage {}", what, idx, s);
                }
            } else {
                let want: Vec<_> = (0..k_total).flat_map(|k| [(Send, k, 0), (Recv, k, 0)]).collect();
                prop_assert_eq!(got, want, "{} whole phase {}", what, idx);
                prop_assert_eq!(entries, k_total, "{} phase {}", what, idx);
                prop_assert!(phase.iter().all(|op| op.entry == (op.kind == Send)), "{}", what);
            }
        }

        // A chained run is entered once and waited for once, at its end.
        let runs = if tail_q > 1 { plan.tail_runs() } else { Vec::new() };
        prop_assert_eq!(body.iter().filter(|op| op.last).count(), runs.len(), "{}", what);
        for run in runs {
            let ops: Vec<_> = body.iter().filter(|op| run.contains(&op.phase)).collect();
            prop_assert_eq!(ops.iter().filter(|op| op.entry).count(), 1, "{} run {:?}", what, run);
            prop_assert!(ops[0].entry && ops[ops.len() - 1].last, "{} run {:?}", what, run);
        }
    }

    #[test]
    fn lowering_records_each_phases_largest_message_and_uniformity(
        family in family_strategy(),
        d in 0usize..=8,
        shape in 0usize..3,
        m_factor in 1usize..=3,
        r in any::<usize>(),
        sweeps in 1usize..=3,
    ) {
        // Even, ragged, and fewer columns than blocks (empty blocks).
        let blocks = 2usize << d;
        let short = r % (blocks - 1) + 1;
        let m = [m_factor * blocks, m_factor * blocks + short, short][shape];
        let partition = BlockPartition::new(m, blocks);
        let mut layout = BlockLayout::canonical(d);
        for (s, plan) in CommPlan::chain(m, d, family, 2 * m, sweeps).iter().enumerate() {
            // The oracle is the per-transition walk: the layout before
            // transition `g` of the sweep is the trace's step `g`.
            let schedule = SweepSchedule::sweep(d, family, s);
            let trace = trace_sweep(&schedule, &layout);
            let mut g = 0;
            for (idx, ph) in plan.phases().iter().enumerate() {
                let what = format!("{family} d={d} m={m} sweep {s} phase {idx}");
                let mut max = 0;
                let mut constant = true;
                for (t, &link) in ph.links.iter().enumerate() {
                    let transition = schedule.transitions()[g];
                    prop_assert_eq!(link, transition.link, "{}", what);
                    let division = matches!(transition.kind, TransitionKind::Division { .. });
                    for (n, &(resident, mobile)) in trace.steps[g].iter().enumerate() {
                        let sender = if division && n & (1 << link) != 0 { resident } else { mobile };
                        let want = (partition.size(sender) * 2 * m) as u64;
                        prop_assert_eq!(ph.send(t, n), want, "{} t={} n={}", what, t, n);
                        max = max.max(want);
                        constant &= want == ph.send(t, 0);
                    }
                    g += 1;
                }
                prop_assert_eq!(ph.max_message_elems(), max, "{}", what);
                prop_assert_eq!(ph.is_uniform(), constant, "{}", what);
                prop_assert!(ph.is_uniform() || !m.is_multiple_of(blocks), "equal blocks: {}", what);
                // Debug shows the stored sizes: one per transition exactly
                // when the phase is uniform, else one per transition and node.
                let debug = format!("{ph:?}");
                let sizes = debug.split("sizes: [").nth(1).and_then(|t| t.split(']').next());
                let stored = sizes.map_or(0, |t| t.split(", ").filter(|e| !e.is_empty()).count());
                let per_row = if ph.is_uniform() { 1 } else { 1 << d };
                prop_assert_eq!(stored, ph.k() * per_row, "{}", what);
            }
            prop_assert_eq!(g, schedule.transitions().len(), "{family} d={d} m={m} sweep {s}");
            prop_assert_eq!(plan.final_layout(), &trace.final_layout, "{family} d={d} m={m} sweep {s}");
            layout = trace.final_layout;
        }
    }
}
