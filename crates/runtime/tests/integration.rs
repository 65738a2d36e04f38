//! Integration tests for the threaded multicomputer: every SPMD collective
//! must agree with a sequential reference computed from the same per-node
//! contributions, the traffic meter must report schedule-independent
//! counts at every cube size (thread count), and wall-clock calibration of
//! the channel fabric must be finite, positive, and stable.

use mph_runtime::{
    all_gather, all_reduce, broadcast, gather, measure_channel_fabric, run_spmd, Machine, Spmd,
};

/// The deterministic per-node contribution used throughout: node `n` of a
/// `d`-cube contributes `contribution(d, n)`.
fn contribution(d: usize, n: usize) -> f64 {
    (n as f64 * 13.0 + d as f64 * 7.0) % 11.0 + 1.0
}

/// A fold to all-reduce with, paired with its sequentially computed answer.
type FoldCase = (fn(f64, f64) -> f64, f64);

#[test]
fn all_reduce_agrees_with_sequential_fold() {
    // Sum, product, max, min — checked on every cube up to 32 threads.
    for d in 0..=5 {
        let p = 1usize << d;
        let inputs: Vec<f64> = (0..p).map(|n| contribution(d, n)).collect();
        let cases: Vec<FoldCase> = vec![
            (|a, b| a + b, inputs.iter().sum::<f64>()),
            (|a, b| a * b, inputs.iter().product::<f64>()),
            (f64::max, inputs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)),
            (f64::min, inputs.iter().cloned().fold(f64::INFINITY, f64::min)),
        ];
        for (fold, want) in cases {
            let results = run_spmd::<f64, f64, _>(d, Spmd::default(), move |ctx| {
                all_reduce(ctx, contribution(d, ctx.id()), fold)
            })
            .results;
            for (n, got) in results.iter().enumerate() {
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "d={d} node {n}: {got} vs sequential {want}"
                );
            }
        }
    }
}

#[test]
fn all_gather_agrees_with_sequential_collection() {
    for d in 0..=5 {
        let p = 1usize << d;
        let want: Vec<f64> = (0..p).map(|n| contribution(d, n)).collect();
        let results = run_spmd::<f64, Vec<f64>, _>(d, Spmd::default(), move |ctx| {
            all_gather(ctx, contribution(d, ctx.id()))
                .into_iter()
                .map(|v| v.expect("piece missing"))
                .collect()
        })
        .results;
        for (n, got) in results.iter().enumerate() {
            assert_eq!(got, &want, "d={d} node {n}");
        }
    }
}

#[test]
fn broadcast_from_every_root_matches_roots_value() {
    let d = 3;
    for root in 0..(1usize << d) {
        let sent = contribution(d, root);
        let results = run_spmd::<f64, f64, _>(d, Spmd::default(), move |ctx| {
            let value = (ctx.id() == root).then(|| contribution(d, ctx.id()));
            broadcast(ctx, root, value)
        })
        .results;
        assert!(results.iter().all(|&v| v == sent), "root={root}: {results:?}");
    }
}

#[test]
fn gather_to_every_root_matches_sequential_collection() {
    let d = 3;
    let p = 1usize << d;
    let want: Vec<f64> = (0..p).map(|n| contribution(d, n)).collect();
    for root in 0..p {
        let results = run_spmd::<f64, Option<Vec<f64>>, _>(d, Spmd::default(), move |ctx| {
            gather(ctx, root, contribution(d, ctx.id()))
                .map(|vs| vs.into_iter().map(|v| v.expect("piece missing")).collect())
        })
        .results;
        for (n, r) in results.into_iter().enumerate() {
            if n == root {
                assert_eq!(r.expect("root has no result"), want, "root={root}");
            } else {
                assert!(r.is_none(), "non-root {n} produced a gather result");
            }
        }
    }
}

#[test]
fn meter_counts_are_exact_at_every_thread_count() {
    // One symmetric exchange of `10 + dim` elements per dimension: every
    // node sends exactly one message per dimension, so the totals are a
    // closed-form function of d — independent of thread scheduling.
    for d in 1..=5 {
        let p = 1u64 << d;
        let meter = run_spmd::<Vec<f64>, (), _>(d, Spmd::default(), move |ctx| {
            for dim in 0..d {
                let _ = ctx.exchange(dim, vec![0.0; 10 + dim]);
            }
        })
        .meter;
        for dim in 0..d {
            assert_eq!(meter.messages(dim), p, "d={d} dim={dim} messages");
            assert_eq!(meter.volume(dim), p * (10 + dim as u64), "d={d} dim={dim} volume");
        }
        assert_eq!(meter.total_messages(), p * d as u64);
        let want_volume: u64 = (0..d as u64).map(|dim| p * (10 + dim)).sum();
        assert_eq!(meter.total_volume(), want_volume);
    }
}

#[test]
fn meter_counts_are_reproducible_across_runs() {
    // Same program, different nondeterministic thread interleavings — the
    // meter must not depend on who won which race.
    let run = || {
        let meter = run_spmd::<f64, f64, _>(4, Spmd::default(), |ctx| {
            all_reduce(ctx, ctx.id() as f64, |a, b| a + b)
        })
        .meter;
        (meter.total_messages(), meter.total_volume(), meter.volume_by_dim())
    };
    let first = run();
    for _ in 0..5 {
        assert_eq!(run(), first);
    }
    // All-reduce is one message per node per dimension of one f64 element.
    assert_eq!(first.0, 4 * 16);
    assert_eq!(first.1, 4 * 16);
}

#[test]
fn channel_fabric_calibration_is_finite_positive_and_stable() {
    // The promoted calibration test: Machine::calibrate on the live
    // channel runtime must return finite, positive Ts/Tw whose predictions
    // are stable (within a generous wall-clock tolerance) across two
    // independent probe runs.
    let probe = || {
        let stats = measure_channel_fabric(1, &[256, 4096, 32768], 9);
        assert_eq!(stats.len(), 2 * 3 * 9, "2 nodes × 3 sizes × 9 reps");
        Machine::calibrate(&stats).expect("three distinct probe sizes fit")
    };
    let (a, b) = (probe(), probe());
    for m in [&a, &b] {
        assert!(m.ts.is_finite() && m.ts > 0.0, "ts = {}", m.ts);
        assert!(m.tw.is_finite() && m.tw > 0.0, "tw = {}", m.tw);
    }
    // Stability: the fitted cost of a representative large message (the
    // quantity schedulers actually consume) agrees across runs within 4x
    // — tight enough to catch a broken fit, loose enough for CI noise.
    let (ca, cb) = (a.single_message_cost(100_000.0), b.single_message_cost(100_000.0));
    let ratio = ca.max(cb) / ca.min(cb);
    assert!(ratio < 4.0, "calibration unstable: {ca:.3e} vs {cb:.3e} ({ratio:.2}x)");
}
