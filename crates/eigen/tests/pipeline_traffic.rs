//! Cross-layer conformance of the CommPlan lowering: the threaded
//! driver's *metered* per-dimension traffic must equal the simnet
//! *simulated* traffic and the plan's *predicted* traffic for the same
//! [`CommPlan`] — pipelined and unpipelined, even partitions and odd. One
//! plan, three layers, one set of numbers.
//!
//! Also pins the two facts the pipelined driver rests on. The kernel's:
//! the packetized cross-block pairing, the packets sharing one call's
//! diagonal cache, is bitwise-equal to the whole-block pairing for every
//! packet count (packets never interact) — which is why the engine pairs a
//! round's block once. And the clock's: a packet is
//! charged, not moved — a pipelined solve meters `Q` messages per
//! transition, of the sizes `split_columns` would have cut, and ships one.
//! And the trace's: a node's data-plane sends are its job's programs'
//! charging ops, one for one.

use mph_ccpipe::{executed_cost, BatchOrder, Machine, PlannedJob, PortModel};
use mph_core::{CommPlan, OpKind, OrderingFamily};
use mph_eigen::{
    block_jacobi, block_jacobi_threaded, lower_job, lower_sweeps, pair_across_blocks, planned_jobs,
    run_job_batch, ColumnBlock, FabricModel, JacobiOptions, JobSpec, PairingRule, Pipelining,
    SweepKernel, ThreadedRun,
};
use mph_linalg::block::cross_pair_mut;
use mph_linalg::rotation::{apply_to_block, symmetric_schur};
use mph_linalg::symmetric::random_symmetric;
use mph_linalg::vecops::dot;
use mph_linalg::Matrix;
use mph_runtime::{RingSink, SinkHandle, TraceEvent};
use mph_simnet::{plan_pipelined_schedule, plan_unpipelined_schedule};
use proptest::prelude::*;

fn family_strategy() -> impl Strategy<Value = OrderingFamily> {
    prop_oneof![
        Just(OrderingFamily::Br),
        Just(OrderingFamily::PermutedBr),
        Just(OrderingFamily::Degree4),
        Just(OrderingFamily::MinAlpha),
    ]
}

fn fabric_strategy() -> impl Strategy<Value = FabricModel> {
    prop_oneof![
        Just(FabricModel::Free),
        Just(FabricModel::Throttled(Machine::all_port(1000.0, 100.0))),
        Just(FabricModel::Throttled(Machine::one_port(1000.0, 100.0))),
        Just(FabricModel::Throttled(Machine { ts: 50.0, tw: 3.0, ports: PortModel::KPort(2) })),
    ]
}

/// Per-dimension traffic the plans predict (summed over the chain).
fn predicted_volume(plans: &[CommPlan], d: usize) -> Vec<u64> {
    let mut v = vec![0u64; d.max(1)];
    for plan in plans {
        for (dst, src) in v.iter_mut().zip(plan.volume_by_dim()) {
            *dst += src;
        }
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn metered_traffic_equals_simulated_and_predicted(
        family in family_strategy(),
        fabric in fabric_strategy(),
        d in 1usize..=3,
        m_factor in 1usize..=3, // m = blocks · factor + remainder → uneven too
        remainder in 0usize..=3,
        q in 1usize..=6,
        cache in any::<bool>(),
        sweeps in 1usize..=2,
    ) {
        let nblocks = 2 << d;
        let m = nblocks * m_factor + remainder;
        let a = random_symmetric(m, 7 + m as u64);
        let plans = lower_sweeps(m, d, family, cache, sweeps);
        let predicted = predicted_volume(&plans, d);

        // Unpipelined execution vs plan vs simulation — under every link
        // fabric: throttling stamps virtual time, it must never change
        // what travels where.
        let base = JacobiOptions {
            force_sweeps: Some(sweeps),
            cache_diagonals: cache,
            fabric,
            ..Default::default()
        };
        let meter = block_jacobi_threaded(&a, d, family, &base).meter;
        prop_assert_eq!(&meter.volume_by_dim(), &predicted, "unpipelined meter vs plan");
        let sim: Vec<u64> = plans
            .iter()
            .fold(vec![0.0f64; d], |acc, plan| {
                let sched = plan_unpipelined_schedule(plan);
                acc.iter().zip(sched.volume_by_dim()).map(|(a, b)| a + b).collect()
            })
            .into_iter()
            .map(|x| x.round() as u64)
            .collect();
        prop_assert_eq!(&sim, &predicted, "unpipelined simulation vs plan");

        // Pipelined execution with Fixed(q) vs the same plan, same qs.
        let piped = JacobiOptions { pipelining: Pipelining::Fixed(q), ..base.clone() };
        let meter_q = block_jacobi_threaded(&a, d, family, &piped).meter;
        prop_assert_eq!(&meter_q.volume_by_dim(), &predicted, "pipelined meter vs plan");
        let sim_q: Vec<u64> = plans
            .iter()
            .fold(vec![0.0f64; d], |acc, plan| {
                let qs: Vec<usize> = plan.exchange_phases().map(|_| q).collect();
                let sched = plan_pipelined_schedule(plan, &qs);
                acc.iter().zip(sched.volume_by_dim()).map(|(a, b)| a + b).collect()
            })
            .into_iter()
            .map(|x| x.round() as u64)
            .collect();
        prop_assert_eq!(&sim_q, &predicted, "pipelined simulation vs plan");

        // Message counts: the plan's formula matches the meter exactly.
        let per_sweep: u64 = plans
            .iter()
            .map(|p| {
                let qs: Vec<usize> = p.exchange_phases().map(|_| q).collect();
                p.messages_with_tail(&qs, 1)
            })
            .sum();
        prop_assert_eq!(meter_q.total_messages(), per_sweep, "pipelined message count");
    }

    #[test]
    fn packetized_pairing_is_bitwise_equal_to_whole_block(
        q in 1usize..=9,
        seed in 0u64..1000,
    ) {
        // The kernel-level invariant behind the pipelined driver: pairing
        // the mobile block packet by packet, the packets sharing one call's
        // diagonal cache, performs the identical floating-point work of one
        // whole-block pairing — the untiled reference's and the walk's.
        let m = 12;
        let a = random_symmetric(m, seed);
        let mut res_a = ColumnBlock::from_matrix_with_identity(&a, 0..5, m);
        let mut mob_a = ColumnBlock::from_matrix_with_identity(&a, 5..12, m);
        let (mut res_b, mob_b) = (res_a.clone(), mob_a.clone());
        let (mut res_c, mut mob_c) = (res_a.clone(), mob_a.clone());
        let acc_whole = pair_across_blocks(&mut res_a, &mut mob_a, PairingRule::Implicit);
        let acc_walk = SweepKernel { rule: PairingRule::Implicit }.across(&mut res_c, &mut mob_c);
        let mut packets = mob_b.split_columns(q);
        let (rotations, max_off) = pair_packets_with_one_cache(&mut res_b, &mut packets);
        let mob_b = ColumnBlock::from_packets(packets);
        prop_assert_eq!(acc_whole, acc_walk);
        prop_assert_eq!(acc_whole.rotations, rotations);
        prop_assert_eq!(acc_whole.max_off, max_off);
        prop_assert_eq!(&res_a, &res_c, "the walk and the reference diverged");
        prop_assert_eq!(&mob_a, &mob_c, "the walk and the reference diverged");
        prop_assert_eq!(res_a, res_b, "resident blocks diverged (q={})", q);
        prop_assert_eq!(mob_a, mob_b, "mobile blocks diverged (q={})", q);
    }
}

/// Pairs `res` with each of `packets` in turn under the implicit rule,
/// written out: one call's cache — every column's `u_k · a_k` by `dot` at
/// the start, kept by the 2×2 similarity update — each pairing's
/// off-diagonal one `dot`, skipped where it is 0.0, else turned by
/// `symmetric_schur`'s rotation. Returns the rotations and the largest
/// `|M_ij|` seen.
fn pair_packets_with_one_cache(res: &mut ColumnBlock, packets: &mut [ColumnBlock]) -> (u64, f64) {
    let diagonals = |b: &ColumnBlock| (0..b.len()).map(|k| dot(b.u_col(k), b.a_col(k))).collect();
    let mut d_res: Vec<f64> = diagonals(res);
    let (mut rotations, mut max_off) = (0, 0.0f64);
    for packet in packets.iter_mut() {
        let mut d_pkt: Vec<f64> = diagonals(packet);
        for i in 0..res.len() {
            for j in 0..packet.len() {
                let mut view = cross_pair_mut(res, i, packet, j);
                let apq = dot(view.ui, view.aj);
                max_off = max_off.max(apq.abs());
                if apq == 0.0 {
                    continue;
                }
                let rot = symmetric_schur(d_res[i], apq, d_pkt[j]);
                view.rotate(rot.c, rot.s);
                let (pp, _, qq) = apply_to_block(rot, d_res[i], apq, d_pkt[j]);
                (d_res[i], d_pkt[j]) = (pp, qq);
                rotations += 1;
            }
        }
    }
    (rotations, max_off)
}

/// m = 100 is not a multiple of 8, so every column is stored with
/// alignment pads (and d = 2 cuts it unevenly, 13- and 12-column blocks):
/// whole blocks and packets still put exactly the plan's logical volume on
/// every dimension — pads are storage, never traffic.
#[test]
fn alignment_pads_are_never_metered() {
    let (m, d, sweeps) = (100usize, 2usize, 1usize);
    let a = random_symmetric(m, 100);
    let predicted = predicted_volume(&lower_sweeps(m, d, OrderingFamily::Br, false, sweeps), d);
    for pipelining in [Pipelining::Off, Pipelining::Fixed(3)] {
        let opts = JacobiOptions { force_sweeps: Some(sweeps), pipelining, ..Default::default() };
        let meter = block_jacobi_threaded(&a, d, OrderingFamily::Br, &opts).meter;
        assert_eq!(meter.volume_by_dim(), predicted, "{pipelining:?}");
    }
}

/// Port-model conformance: under every `PortModel`, pipelined ≡
/// unpipelined ≡ logical stays bitwise for Q ∈ {1, 2, K} with throttling
/// on — the fabric charges time, the mathematics must not notice.
#[test]
fn every_port_model_preserves_bitwise_equality_across_q() {
    use mph_eigen::block_jacobi;
    let m = 24;
    let d = 2usize;
    let k = (1 << d) - 1; // longest exchange phase
    let a = random_symmetric(m, 55);
    let base = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
    let logical = block_jacobi(&a, d, OrderingFamily::Degree4, &base);
    for ports in [PortModel::OnePort, PortModel::KPort(2), PortModel::AllPort] {
        let fabric = FabricModel::Throttled(Machine { ts: 500.0, tw: 10.0, ports });
        for q in [1usize, 2, k] {
            let opts = JacobiOptions {
                pipelining: Pipelining::Fixed(q),
                fabric: fabric.clone(),
                ..base.clone()
            };
            let ThreadedRun { result: r, meter, .. } =
                block_jacobi_threaded(&a, d, OrderingFamily::Degree4, &opts);
            assert_eq!(r.rotations, logical.rotations, "{ports:?} q={q}");
            for c in 0..m {
                assert_eq!(r.eigenvalues[c], logical.eigenvalues[c], "{ports:?} q={q} λ_{c}");
                assert_eq!(
                    r.eigenvectors.col(c),
                    logical.eigenvectors.col(c),
                    "{ports:?} q={q} u_{c}"
                );
            }
            // And per-dimension traffic still satisfies meter ≡ plan.
            let plans = lower_sweeps(m, d, OrderingFamily::Degree4, false, 2);
            assert_eq!(meter.volume_by_dim(), predicted_volume(&plans, d), "{ports:?} q={q}");
        }
    }
}

/// The kernel-boundary degrees the tentpole names: Q = 1, Q = K, Q > K —
/// checked deterministically (K = 2^d − 1 is the longest phase).
#[test]
fn boundary_degrees_are_bitwise_identical_and_traffic_exact() {
    let m = 24;
    let d = 2usize;
    let k = (1 << d) - 1;
    let a = random_symmetric(m, 99);
    let base = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
    let reference = block_jacobi_threaded(&a, d, OrderingFamily::Degree4, &base);
    let plans = lower_sweeps(m, d, OrderingFamily::Degree4, false, 2);
    let predicted = predicted_volume(&plans, d);
    assert_eq!(reference.meter.volume_by_dim(), predicted);
    for q in [1usize, k, k + 1, 3 * k] {
        let opts = JacobiOptions { pipelining: Pipelining::Fixed(q), ..base.clone() };
        let ThreadedRun { result: r, meter, .. } =
            block_jacobi_threaded(&a, d, OrderingFamily::Degree4, &opts);
        assert_eq!(r.rotations, reference.result.rotations, "q={q}");
        for c in 0..m {
            assert_eq!(r.eigenvalues[c], reference.result.eigenvalues[c], "q={q} λ_{c}");
            assert_eq!(r.eigenvectors.col(c), reference.result.eigenvectors.col(c), "q={q} u_{c}");
        }
        assert_eq!(meter.volume_by_dim(), predicted, "q={q}");
    }
}

/// A packet is a clock fact, a round is a host message: for every degree
/// (even, uneven and oversplit over 3-column blocks), exchange pipelining
/// alone and with a chained tail, a pipelined solve moves exactly the
/// channel messages of the unpipelined one while its meter counts every
/// packet, its clock reads what `executed_cost` prices for those packets,
/// and its bits are the logical solver's.
///
/// Each assertion fails when the engine is broken by hand: `ship` a round
/// per packet and `shipments` reads `Q` times the whole-block count;
/// `charge` a round's block as one packet and `total_messages` falls to
/// the whole-block count and the makespan below `executed_cost`'s; pair a
/// round's block against the wrong slot and the bits move.
#[test]
fn a_pipelined_solve_ships_whole_block_messages_and_charges_packets() {
    let machine = Machine::all_port(1000.0, 100.0);
    let fabric = FabricModel::Throttled(machine);
    let order = BatchOrder::Serial(vec![0]);
    for d in [1usize, 2] {
        let a = random_symmetric(3 * (2 << d), 40 + d as u64);
        let base = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
        let logical = block_jacobi(&a, d, OrderingFamily::Degree4, &base);
        let run = |opts: &JacobiOptions| {
            let spec = JobSpec::eigen(&a, OrderingFamily::Degree4, opts.clone());
            let jobs = std::slice::from_ref(&spec);
            let lowered = [lower_job(&spec, d)];
            let planned = planned_jobs(jobs, &lowered, d);
            let run = run_job_batch(d, jobs, &planned, fabric.clone(), &order, SinkHandle::nop());
            let tail_q = planned[0].tail_q;
            let [lowered] = lowered;
            (lowered, tail_q, run)
        };
        let (_, _, whole) = run(&base);
        assert_eq!(whole.meter.shipments(), whole.meter.total_messages(), "Q = 1: one each");
        for q in [1usize, 2, 5, 16] {
            for tail in [Pipelining::Off, Pipelining::Fixed(q)] {
                let what = format!("d={d} q={q} tail={tail:?}");
                let opts = JacobiOptions {
                    pipelining: Pipelining::Fixed(q),
                    tail_pipelining: tail,
                    ..base.clone()
                };
                let ((plans, qs), tail_q, piped) = run(&opts);
                assert_eq!(piped.meter.shipments(), whole.meter.shipments(), "{what}");

                let packets: u64 =
                    plans.iter().zip(&qs).map(|(p, qs)| p.messages_with_tail(qs, tail_q)).sum();
                assert_eq!(piped.meter.total_messages(), packets, "{what}");

                let planned = [PlannedJob { plans: &plans, qs: &qs, tail_q }];
                let priced = executed_cost(&planned, &machine, &order).makespan;
                assert!(
                    (piped.fabric.makespan - priced).abs() <= 1e-9 * priced,
                    "{what}: measured {} vs executed_cost {priced}",
                    piped.fabric.makespan
                );

                let got = piped.results[0].eigen().expect("eigen job");
                assert_eq!(got.rotations, logical.rotations, "{what}");
                assert_eq!(got.eigenvalues, logical.eigenvalues, "{what}");
                assert_eq!(got.eigenvectors.as_slice(), logical.eigenvectors.as_slice(), "{what}");
            }
        }
    }
}

/// The engine never cuts a block: it charges packet `i` of a `q`-packet
/// round `CommPlan::packet_size(block.payload_elems(), q, i)` elements
/// and trusts that to be what `split_columns(q)[i]` would have shipped —
/// uneven splits, `q > ncols` empty packets and the SVD's
/// rectangular units included. And an empty packet is still a packet: a
/// metered message and a `Ts`-only transmission.
#[test]
fn the_clock_is_charged_the_sizes_split_columns_would_ship() {
    // (arows, urows): a square eigen block and an SVD block (W over V).
    for (arows, urows) in [(9usize, 9usize), (13, 9)] {
        let a0 = Matrix::from_fn(arows, 9, |r, c| (r * 9 + c) as f64 + 1.0);
        let elems_per_col = arows + urows;
        let plan = &CommPlan::chain(9, 1, OrderingFamily::Br, elems_per_col, 1)[0];
        for ncols in 0..=9usize {
            let block = ColumnBlock::from_matrix_with_identity(&a0, 0..ncols, urows);
            for q in 1..=12usize {
                let block_elems = block.payload_elems() as u64;
                let charged: Vec<u64> =
                    (0..q).map(|i| plan.packet_size(block_elems, q, i)).collect();
                let shipped: Vec<u64> = (block.clone().split_columns(q).iter())
                    .map(|p| p.payload_elems() as u64)
                    .collect();
                assert_eq!(charged, shipped, "{arows}x{urows} ncols={ncols} q={q}");
            }
        }
    }

    // Q = 5 over 2-column blocks: three packets of every round are empty.
    let (m, d, q, ts) = (8usize, 1usize, 5usize, 1000.0);
    let ring = std::sync::Arc::new(RingSink::new(d, 1 << 12));
    let opts = JacobiOptions {
        force_sweeps: Some(1),
        pipelining: Pipelining::Fixed(q),
        tail_pipelining: Pipelining::Fixed(q),
        fabric: FabricModel::Throttled(Machine::all_port(ts, 100.0)),
        trace: SinkHandle::new(ring.clone()),
        ..Default::default()
    };
    let meter = block_jacobi_threaded(&random_symmetric(m, 8), d, OrderingFamily::Br, &opts).meter;
    let mut empties = 0u64;
    for lane in ring.drain() {
        let mut issued_before = 0.0;
        for e in lane {
            if let TraceEvent::Send { elems, kq, issued, start, end, .. } = e {
                if elems == 0 {
                    assert!(kq.is_some_and(|(_, q)| q >= 2), "only packets 2.. are empty");
                    assert_eq!(end, start, "nothing on the wire");
                    assert!(issued >= issued_before + ts, "the start-up is still paid");
                    empties += 1;
                }
                issued_before = issued;
            }
        }
    }
    assert_eq!(empties * 5, meter.total_messages() * 3, "3 of every 5 metered messages");
}

/// A data-plane send as the trace records it: `(dim, kq, elems)`.
type Charge = (usize, Option<(u32, u32)>, u64);

/// What node 0 charges for a job, by the book: the charging ops of its
/// sweeps' programs over its planned schedule.
fn charging_ops(job: &PlannedJob) -> Vec<Charge> {
    let mut want = Vec::new();
    for (plan, framing) in job.plans.iter().zip(job.framings()) {
        want.extend(plan.program(&framing).filter(|op| op.charges()).map(|op| {
            let ph = &plan.phases()[op.phase];
            let kq = (op.kind != OpKind::Send).then_some((op.k as u32, op.q as u32));
            (ph.links[op.k], kq, plan.packet_size(ph.send(op.k, 0), op.of, op.q))
        }));
    }
    want
}

/// Job `job`'s data-plane sends in one node's lane.
fn traced_sends(lane: &[TraceEvent], job: u32) -> Vec<Charge> {
    let send = |e: &TraceEvent| match *e {
        TraceEvent::Send { dim, elems, job: j, kq, control: false, .. } if j == job => {
            Some((dim, kq, elems))
        }
        _ => None,
    };
    lane.iter().filter_map(send).collect()
}

/// The trace is the program: on a throttled fabric over a uniform
/// partition, node 0's data-plane `Send` events are — in lane order, link,
/// packet header and size — exactly the charging ops of
/// `CommPlan::program` over the lowered plans, whole-block, packetized and
/// with a chained tail; and under an interleaved batch each job's
/// subsequence is its own program's. A `MicroOp`'s `(phase, k, q)` is
/// therefore an identity the trace can be keyed on.
#[test]
fn a_nodes_traced_sends_are_its_programs_charging_ops() {
    let (m, d) = (24usize, 2usize);
    let fabric = FabricModel::Throttled(Machine::all_port(1000.0, 100.0));
    let a = random_symmetric(m, 31);
    let opts = |pipelining, tail_pipelining| JacobiOptions {
        force_sweeps: Some(2),
        pipelining,
        tail_pipelining,
        fabric: fabric.clone(),
        ..Default::default()
    };
    let framings = [
        opts(Pipelining::Off, Pipelining::Off),
        opts(Pipelining::Fixed(3), Pipelining::Off),
        opts(Pipelining::Fixed(2), Pipelining::Fixed(4)),
    ];
    for base in &framings {
        let what = format!("{:?} tail {:?}", base.pipelining, base.tail_pipelining);
        let ring = std::sync::Arc::new(RingSink::new(d, 1 << 14));
        let opts = JacobiOptions { trace: SinkHandle::new(ring.clone()), ..base.clone() };
        block_jacobi_threaded(&a, d, OrderingFamily::PermutedBr, &opts);
        let spec = JobSpec::eigen(&a, OrderingFamily::PermutedBr, opts);
        let lowered = [lower_job(&spec, d)];
        let want = charging_ops(&planned_jobs(std::slice::from_ref(&spec), &lowered, d)[0]);
        assert_eq!(traced_sends(&ring.drain()[0], 0), want, "{what}");
        let framed = want.iter().any(|(_, kq, _)| kq.is_some());
        assert_eq!(framed, base.pipelining != Pipelining::Off, "{what}: a vacuous case");
    }

    // Two jobs, two framings, one op at a time in turn.
    let jobs = [
        JobSpec::eigen(&a, OrderingFamily::Br, framings[1].clone()),
        JobSpec::eigen(&a, OrderingFamily::Degree4, framings[2].clone()),
    ];
    let lowered = [lower_job(&jobs[0], d), lower_job(&jobs[1], d)];
    let planned = planned_jobs(&jobs, &lowered, d);
    let ring = std::sync::Arc::new(RingSink::new(d, 1 << 14));
    let order = BatchOrder::RoundRobin { order: vec![1, 0], stride: 1 };
    run_job_batch(d, &jobs, &planned, fabric.clone(), &order, SinkHandle::new(ring.clone()));
    let lane = &ring.drain()[0];
    for (j, job) in planned.iter().enumerate() {
        assert_eq!(traced_sends(lane, j as u32), charging_ops(job), "job {j}");
    }
}
