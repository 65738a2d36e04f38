//! Single-pair kernel hot path — the portable definitions, the exact
//! vector kernels that reproduce their bits, and the reassociated lane
//! reductions: the inner products that feed `symmetric_schur` (dot / fused
//! triple) and the 4-stream rotation that applies it, at the column lengths
//! the block drivers actually see. The last group keeps the price of a
//! misaligned column on record: the same two kernels on the same data, 0
//! and 2 elements past a cache-line boundary.
//!
//! These are the micro-counterparts of the repository benchmark's
//! `eigen.kernel_ns_per_rotation` and `eigen.lanes_speedup`: those measure
//! whole solves end to end; this isolates each primitive so a regression
//! can be attributed to one kernel. The `fused_triple` group opens with the
//! vector tier the exact kernels run on, since their timings mean nothing
//! without it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mph_linalg::vecops::{
    dot, dot_lanes, exact_tier, fused_triple, fused_triple_exact, pair_rotate, pair_rotate_lanes,
};
use std::hint::black_box;
use std::time::Duration;

const SIZES: [usize; 3] = [64, 256, 1024];

fn filled(n: usize, seed: u64) -> Vec<f64> {
    // Cheap deterministic fill; the kernels are data-oblivious.
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(seed ^ 0x9e3779b97f4a7c15) % 2048) as f64 / 1024.0 - 1.0)
        .collect()
}

fn bench_dot(c: &mut Criterion) {
    let mut g = c.benchmark_group("dot");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    for m in SIZES {
        let x = filled(m, 1);
        let y = filled(m, 2);
        g.bench_with_input(BenchmarkId::new("scalar", m), &m, |b, _| {
            b.iter(|| black_box(dot(black_box(&x), black_box(&y))))
        });
        g.bench_with_input(BenchmarkId::new("lanes", m), &m, |b, _| {
            b.iter(|| black_box(dot_lanes(black_box(&x), black_box(&y))))
        });
    }
    g.finish();
}

fn bench_fused_triple(c: &mut Criterion) {
    println!("exact tier: {}", exact_tier());
    let mut g = c.benchmark_group("fused_triple");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    for m in SIZES {
        let ui = filled(m, 3);
        let ai = filled(m, 4);
        let uj = filled(m, 5);
        let aj = filled(m, 6);
        g.bench_with_input(BenchmarkId::new("three_dots", m), &m, |b, _| {
            b.iter(|| {
                let app = dot(black_box(&ui), black_box(&ai));
                let apq = dot(black_box(&ui), black_box(&aj));
                let aqq = dot(black_box(&uj), black_box(&aj));
                black_box((app, apq, aqq))
            })
        });
        g.bench_with_input(BenchmarkId::new("fused_exact", m), &m, |b, _| {
            b.iter(|| {
                black_box(fused_triple_exact(
                    black_box(&ui),
                    black_box(&ai),
                    black_box(&uj),
                    black_box(&aj),
                ))
            })
        });
        g.bench_with_input(BenchmarkId::new("fused", m), &m, |b, _| {
            b.iter(|| {
                black_box(fused_triple(
                    black_box(&ui),
                    black_box(&ai),
                    black_box(&uj),
                    black_box(&aj),
                ))
            })
        });
    }
    g.finish();
}

fn bench_rotate(c: &mut Criterion) {
    let mut g = c.benchmark_group("pair_rotate");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    let (cth, sth) = (0.8, 0.6);
    for m in SIZES {
        let mut ai = filled(m, 7);
        let mut aj = filled(m, 8);
        let mut ui = filled(m, 9);
        let mut uj = filled(m, 10);
        g.bench_with_input(BenchmarkId::new("scalar", m), &m, |b, _| {
            b.iter(|| {
                pair_rotate(
                    black_box(&mut ai),
                    black_box(&mut aj),
                    black_box(&mut ui),
                    black_box(&mut uj),
                    cth,
                    sth,
                )
            })
        });
        let mut ai = filled(m, 7);
        let mut aj = filled(m, 8);
        let mut ui = filled(m, 9);
        let mut uj = filled(m, 10);
        g.bench_with_input(BenchmarkId::new("lanes", m), &m, |b, _| {
            b.iter(|| {
                pair_rotate_lanes(
                    black_box(&mut ai),
                    black_box(&mut aj),
                    black_box(&mut ui),
                    black_box(&mut uj),
                    cth,
                    sth,
                )
            })
        });
    }
    g.finish();
}

/// What `ColumnBlock`'s aligned storage buys: the pairing's two kernels at
/// n = 256 on four columns one 2 KiB stride apart, every column starting
/// `offset` elements past a 64-byte boundary. At offset 0 (what a block
/// hands out) no vector access crosses a line; at offset 2 (where `malloc`
/// put three blocks in four) every 64-byte access and every second 32-byte
/// one does.
fn bench_alignment(c: &mut Criterion) {
    let mut g = c.benchmark_group("alignment");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    let n = 256;
    let (cth, sth) = (0.8, 0.6);
    for offset in [0usize, 2] {
        let mut arena = filled(4 * n + 16, 30);
        let to_line = (arena.as_ptr() as usize).wrapping_neg() % 64 / 8;
        let mut units = arena[to_line + offset..].chunks_exact_mut(n);
        let [ai, ui, aj, uj]: [&mut [f64]; 4] =
            std::array::from_fn(|_| units.next().expect("four columns"));
        g.bench_with_input(BenchmarkId::new("fused_triple_exact", offset), &offset, |b, _| {
            b.iter(|| {
                black_box(fused_triple_exact(
                    black_box(&*ui),
                    black_box(&*ai),
                    black_box(&*uj),
                    black_box(&*aj),
                ))
            })
        });
        g.bench_with_input(BenchmarkId::new("pair_rotate_lanes", offset), &offset, |b, _| {
            b.iter(|| {
                pair_rotate_lanes(
                    black_box(&mut *ai),
                    black_box(&mut *aj),
                    black_box(&mut *ui),
                    black_box(&mut *uj),
                    cth,
                    sth,
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_dot, bench_fused_triple, bench_rotate, bench_alignment);
criterion_main!(benches);
