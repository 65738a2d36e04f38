//! The tracing layer's load-bearing invariants, property-tested:
//!
//! 1. **Observation costs nothing** — a traced run is bitwise identical
//!    to the untraced run of the same options, across fabric models,
//!    packetization degrees, worker counts, and adaptation modes. The
//!    sinks only receive copies of values the runtime computed anyway.
//! 2. **Replays are byte-identical** — the same seed and options
//!    produce the same event stream, and the Chrome trace export of
//!    that stream serializes to the same bytes. A trace capture is a
//!    forensic artifact, not a sample.
//! 3. **The books balance** — per dimension, the element volume the
//!    traced send spans carry equals the traffic meter's per-dim
//!    volume, and each (link, epoch) cell's busy virtual time equals
//!    its element volume priced at that cell's effective `Tw`, and on a
//!    uniform machine each dimension's Σ busy is the meter's volume
//!    priced at `Tw` — the utilization matrix is the meter re-derived
//!    from the timeline.

use mph::core::OrderingFamily;
use mph::eigen::{block_jacobi_threaded, Adaptation, JacobiOptions, Pipelining, ThreadedRun};
use mph::linalg::symmetric::random_symmetric;
use mph::runtime::{
    FabricModel, LinkDeath, Machine, RingSink, Scenario, ScenarioSpec, SinkHandle, TraceEvent,
};
use mph::trace::{chrome_trace_json, validate_chrome_trace, UtilizationMatrix};
use proptest::prelude::*;
use std::sync::Arc;

/// A degraded scenario exercising every impairment class the solo
/// adaptive driver supports, death schedules included (epoch 1 kills an
/// edge, so relays and per-epoch pricing both appear in the trace).
fn degraded_fabric(d: usize, seed: u64, with_death: bool) -> FabricModel {
    let spec = ScenarioSpec {
        epochs: 4,
        hetero_spread: 2.0,
        rate_jitter: 0.25,
        delay_jitter: 0.25,
        episode_rate: 0.3,
        episode_recovery: 0.5,
        episode_severity: 3.0,
        deaths: if with_death && d >= 2 {
            vec![LinkDeath { node: 0, dim: 0, epoch: 1 }]
        } else {
            Vec::new()
        },
        ..ScenarioSpec::clean(seed, Machine::all_port(1000.0, 100.0))
    };
    FabricModel::Degraded(Arc::new(Scenario::new(d, spec).expect("valid scenario")))
}

/// The effective per-element wire time the fabric charged a send on
/// `(node, dim)` at `epoch` — the pricing law `LinkClock::charge` applies.
fn effective_tw(fabric: &FabricModel, node: usize, dim: usize, epoch: usize) -> f64 {
    match fabric {
        FabricModel::Free => 0.0,
        FabricModel::Throttled(m) => m.tw,
        FabricModel::Degraded(sc) => sc.base().tw * sc.factors(node, dim, epoch).1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn traced_runs_are_bitwise_identical_to_untraced(
        d in 1usize..=2,
        seed in 0u64..1000,
        fsel in 0usize..=4,
        qsel in 0usize..=2,
        adaptive in any::<bool>(),
        sweeps in 1usize..=2,
    ) {
        let fabric = match fsel {
            0 => FabricModel::Free,
            1 => FabricModel::Throttled(Machine::all_port(1000.0, 100.0)),
            2 => FabricModel::Throttled(Machine::one_port(1000.0, 100.0)),
            3 => degraded_fabric(d, seed, false),
            _ => degraded_fabric(d, seed, true),
        };
        let m = (2 << d) * 2;
        let a = random_symmetric(m, seed);
        let family = OrderingFamily::ALL[seed as usize % OrderingFamily::ALL.len()];
        let adaptation = if adaptive && matches!(fabric, FabricModel::Degraded(_)) {
            Adaptation::Reactive
        } else {
            Adaptation::Off
        };
        let base = JacobiOptions {
            force_sweeps: Some(sweeps),
            pipelining: [Pipelining::Off, Pipelining::Fixed(2), Pipelining::Fixed(4)][qsel],
            fabric,
            adaptation,
            ..Default::default()
        };
        let ThreadedRun { result: plain, meter: plain_meter, fabric: plain_fab, adaptive: plain_adaptive } = block_jacobi_threaded(&a, d, family, &base);

        let ring = Arc::new(RingSink::new(d, 1 << 16));
        let traced_opts =
            JacobiOptions { trace: SinkHandle::new(ring.clone()), ..base.clone() };
        let ThreadedRun { result: traced, meter: traced_meter, fabric: traced_fab, adaptive: traced_adaptive } = block_jacobi_threaded(&a, d, family, &traced_opts);

        // Bitwise-identical numerics, identical timing, identical books.
        prop_assert_eq!(traced.rotations, plain.rotations);
        prop_assert_eq!(traced.sweeps, plain.sweeps);
        for c in 0..m {
            prop_assert_eq!(traced.eigenvalues[c], plain.eigenvalues[c], "λ_{}", c);
            prop_assert_eq!(traced.eigenvectors.col(c), plain.eigenvectors.col(c), "u_{}", c);
        }
        prop_assert_eq!(traced_fab.makespan, plain_fab.makespan);
        prop_assert_eq!(traced_meter.total_volume(), plain_meter.total_volume());
        prop_assert_eq!(traced_adaptive, plain_adaptive);

        // The trace actually recorded something (sweep boundaries exist
        // on every fabric, link spans on throttled/degraded ones).
        prop_assert!(ring.total_recorded() > 0, "an enabled sink must see events");
    }

    #[test]
    fn replayed_traces_export_byte_identical_json(
        d in 1usize..=2,
        seed in 0u64..1000,
        fsel in 0usize..=2,
        q in 1usize..=3,
    ) {
        let m = (2 << d) * 2;
        let a = random_symmetric(m, seed);
        let fabric = match fsel {
            0 => FabricModel::Throttled(Machine::one_port(1000.0, 100.0)),
            1 => degraded_fabric(d, seed, false),
            _ => degraded_fabric(d, seed, true),
        };
        let run = || {
            let ring = Arc::new(RingSink::new(d, 1 << 16));
            let opts = JacobiOptions {
                force_sweeps: Some(2),
                pipelining: Pipelining::Fixed(q),
                fabric: fabric.clone(),
                trace: SinkHandle::new(ring.clone()),
                ..Default::default()
            };
            block_jacobi_threaded(&a, d, OrderingFamily::Br, &opts);
            ring.drain()
        };
        let (lanes1, lanes2) = (run(), run());
        prop_assert_eq!(&lanes1, &lanes2, "same seed must replay the same event stream");
        let (json1, json2) = (chrome_trace_json(&lanes1), chrome_trace_json(&lanes2));
        prop_assert_eq!(&json1, &json2, "exports must serialize to identical bytes");
        let events = validate_chrome_trace(&json1);
        prop_assert!(events.is_ok(), "export must be well-formed: {:?}", events);
        prop_assert!(events.unwrap() > 0);
    }

    #[test]
    fn busy_vtime_reconciles_with_the_meter(
        d in 1usize..=2,
        seed in 0u64..1000,
        fsel in 0usize..=2,
        q in 1usize..=3,
    ) {
        let m = (2 << d) * 2;
        let a = random_symmetric(m, seed);
        let fabric = match fsel {
            0 => FabricModel::Throttled(Machine::all_port(1000.0, 100.0)),
            1 => FabricModel::Throttled(Machine::one_port(500.0, 10.0)),
            _ => degraded_fabric(d, seed, true),
        };
        let ring = Arc::new(RingSink::new(d, 1 << 16));
        let opts = JacobiOptions {
            force_sweeps: Some(2),
            pipelining: Pipelining::Fixed(q),
            fabric: fabric.clone(),
            trace: SinkHandle::new(ring.clone()),
            ..Default::default()
        };
        let meter = block_jacobi_threaded(&a, d, OrderingFamily::Br, &opts).meter;
        let lanes = ring.drain();

        // 1. Volume: the data elements the traced send spans carry are
        //    exactly the meter's per-dim data volume, and the spans of
        //    each plane are the meter's messages of that plane.
        let (mut data, mut control) = (vec![0u64; d], vec![0u64; d]);
        let (mut data_sends, mut control_sends) = (0u64, 0u64);
        for lane in &lanes {
            for e in lane {
                if let TraceEvent::Send { dim, elems, control: c, .. } = e {
                    if *c {
                        control[*dim] += elems;
                        control_sends += 1;
                    } else {
                        data[*dim] += elems;
                        data_sends += 1;
                    }
                }
            }
        }
        let by_dim = meter.volume_by_dim();
        prop_assert_eq!(&data, &by_dim, "data volume by dim");
        prop_assert_eq!(data_sends, meter.total_messages(), "data messages");
        prop_assert_eq!(control_sends, meter.total_control_messages(), "control messages");

        // 1b. Arrivals: every charged data transmission is consumed, as
        //     itself — per directed link, the receiver's Recvs carry the
        //     sizes, packet headers and arrival stamps of the sender's
        //     Sends (a relayed payload pairs up hop by hop). A pipeline
        //     round crosses the channel once; its packets still arrive
        //     one by one.
        for (node, lane) in lanes.iter().enumerate() {
            for dim in 0..d {
                let mut sent: Vec<_> = lane
                    .iter()
                    .filter_map(|e| match e {
                        TraceEvent::Send { dim: on, elems, kq, control: false, end, .. }
                            if *on == dim => Some((*elems, *kq, end.to_bits())),
                        _ => None,
                    })
                    .collect();
                let mut received: Vec<_> = lanes[node ^ (1 << dim)]
                    .iter()
                    .filter_map(|e| match e {
                        TraceEvent::Recv { dim: on, elems, kq, control: false, stamp, .. }
                            if *on == dim => Some((*elems, *kq, stamp.to_bits())),
                        _ => None,
                    })
                    .collect();
                sent.sort_unstable();
                received.sort_unstable();
                prop_assert_eq!(sent, received, "link ({}, {})", node, dim);
            }
        }

        // 2. Pricing: each (link, epoch) cell's busy virtual time is its
        //    element volume priced at that cell's effective Tw — the
        //    utilization matrix re-derives the fabric's pricing law.
        let util = UtilizationMatrix::from_lanes(&lanes);
        prop_assert!(util.makespan() > 0.0);
        for ((node, dim, epoch), load) in util.cells() {
            let want = load.elems as f64 * effective_tw(&fabric, node, dim, epoch);
            prop_assert!(
                (load.busy - want).abs() <= 1e-9 * want.max(1.0),
                "cell ({}, {}, {}): busy {} vs priced {}",
                node, dim, epoch, load.busy, want
            );
        }
        // And the per-dim totals reconcile with the meter under a
        // uniform machine, where Σ busy = volume · Tw exactly.
        if let FabricModel::Throttled(machine) = &fabric {
            let mut busy = vec![0.0; d];
            for ((_, dim, _), load) in util.cells() {
                busy[dim] += load.busy;
            }
            for dim in 0..d {
                let want = (by_dim[dim] + control[dim]) as f64 * machine.tw;
                prop_assert!(
                    (busy[dim] - want).abs() <= 1e-9 * want.max(1.0),
                    "dim {}: Σ busy {} vs volume·Tw {}",
                    dim, busy[dim], want
                );
            }
        }
    }
}
