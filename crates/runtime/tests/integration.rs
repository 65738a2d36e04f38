//! Integration tests for the threaded multicomputer: the traffic meter —
//! every node's own counts, merged at the end — must report
//! schedule-independent totals at every cube size, and
//! wall-clock calibration of the channel fabric must be finite, positive,
//! and stable.

use mph_runtime::{measure_channel_fabric, run_spmd, Machine, Meterable, NodeCtx, Spmd};

/// A node program of one symmetric exchange per dimension, lowest first:
/// round `dim` sends `msg(dim, what came back so far)` and takes the
/// neighbor's. Returns what came back.
async fn exchanges<M: Send + Meterable>(
    ctx: &NodeCtx<'_, M>,
    msg: impl Fn(usize, &[M]) -> M,
) -> Vec<M> {
    let mut got = Vec::new();
    for dim in 0..ctx.dim() {
        ctx.send(dim, msg(dim, &got));
        got.push(ctx.recv(dim, 0).await.0);
    }
    got
}

#[test]
fn meter_counts_are_exact_at_every_thread_count() {
    // One symmetric exchange of `10 + dim` elements per dimension: every
    // node sends exactly one message per dimension, so the totals are a
    // closed-form function of d — independent of how many workers step
    // the nodes and in what order.
    for d in 1..=5 {
        let p = 1u64 << d;
        let meter = run_spmd(d, Spmd::default(), async |ctx| {
            exchanges(ctx, |dim, _| vec![0.0; 10 + dim]).await
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
        let meter = run_spmd(4, Spmd::default(), async |ctx| {
            let id = ctx.id() as f64;
            exchanges(ctx, |_, got: &[f64]| id + got.iter().sum::<f64>()).await
        })
        .meter;
        (meter.total_messages(), meter.total_volume(), meter.volume_by_dim())
    };
    let first = run();
    for _ in 0..5 {
        assert_eq!(run(), first);
    }
    // One message per node per dimension, of one f64 element each.
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
