//! Single-pair kernel hot path — the portable definitions, the exact
//! vector kernels that reproduce their bits, and the reassociated lane
//! reductions: the inner products that feed `symmetric_schur` (dot / fused
//! triple) and the 4-stream rotation that applies it, at the column lengths
//! the block drivers actually see. The `alignment` group keeps the price of
//! a misaligned column on record: the same two kernels on the same data, 0
//! and 2 elements past a cache-line boundary. The last group, `pairing_chain`,
//! times the whole dependent chain of a pairing — reduction, rotation angle,
//! rotate — over a rectangle of pairings, one at a time against two abreast.
//!
//! These are the micro-counterparts of the repository benchmark's
//! `eigen.kernel_ns_per_rotation` and `eigen.lanes_speedup`: those measure
//! whole solves end to end; this isolates each primitive so a regression
//! can be attributed to one kernel. The `fused_triple` group opens with the
//! vector tier the exact kernels run on, since their timings mean nothing
//! without it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mph_linalg::rotation::symmetric_schur;
use mph_linalg::vecops::{
    dot, dot_lanes, exact_tier, fused_triple, fused_triple_exact, fused_triple_exact_x2,
    pair_rotate, pair_rotate_lanes,
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
    // Two pairings a call: read the time per element against
    // `fused_exact`'s time per call.
    g.throughput(Throughput::Elements(2));
    for m in SIZES {
        let cols: [Vec<f64>; 8] = std::array::from_fn(|k| filled(m, 3 + k as u64));
        let [ui, ai, uj, aj, uk, ak, ul, al] = &cols;
        g.bench_with_input(BenchmarkId::new("fused_exact_x2", m), &m, |b, _| {
            b.iter(|| {
                black_box(fused_triple_exact_x2(
                    black_box([ui, ai, uj, aj]),
                    black_box([uk, ak, ul, al]),
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

/// One pairing of the chain: its block, its angle, its rotation — each
/// waiting for the one before.
fn pairing([ui, ai]: [&mut [f64]; 2], [uj, aj]: [&mut [f64]; 2]) {
    let (app, apq, aqq) = fused_triple_exact(ui, ai, uj, aj);
    let rot = symmetric_schur(app, apq, aqq);
    pair_rotate_lanes(ai, aj, ui, uj, rot.c, rot.s);
}

/// Two column-disjoint pairings, stage by stage.
fn pairing_x2(p: [[&mut [f64]; 2]; 2], q: [[&mut [f64]; 2]; 2]) {
    let ([[ui, ai], [uj, aj]], [[uk, ak], [ul, al]]) = (p, q);
    let [(app, apq, aqq), (arr, ars, ass)] =
        fused_triple_exact_x2([ui, ai, uj, aj], [uk, ak, ul, al]);
    let (rot, rot1) = (symmetric_schur(app, apq, aqq), symmetric_schur(arr, ars, ass));
    pair_rotate_lanes(ai, aj, ui, uj, rot.c, rot.s);
    pair_rotate_lanes(ak, al, uk, ul, rot1.c, rot1.s);
}

/// What walking a tile pair two rows at a time buys: the 16 pairings of two
/// left columns against an 8-column right tile, in row-major order one at a
/// time — each waits for the one before, which rotated its left column —
/// against the kernel's order, row 1 one step behind row 0 and the two
/// pairings of a step taken abreast. The ten columns are `m = 256` units of
/// a block: `[A | U]`, 4 KiB apart on cache lines, as the solver meets them.
fn bench_pairing_chain(c: &mut Criterion) {
    const N: usize = 256;
    const NR: usize = 8;
    let mut g = c.benchmark_group("pairing_chain");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    g.throughput(Throughput::Elements(2 * NR as u64));
    let mut arena = filled((2 + NR) * 2 * N + 8, 40);
    let to_line = (arena.as_ptr() as usize).wrapping_neg() % 64 / 8;
    // Column `k` as `[U, A]`; 0 and 1 are the left columns.
    let mut cols: Vec<[&mut [f64]; 2]> = arena[to_line..]
        .chunks_exact_mut(2 * N)
        .map(|unit| {
            let (a, u) = unit.split_at_mut(N);
            [u, a]
        })
        .collect();
    fn reborrow<'b>(col: &'b mut [&mut [f64]; 2]) -> [&'b mut [f64]; 2] {
        let [u, a] = col;
        [u, a]
    }
    g.bench_function("one_at_a_time", |b| {
        b.iter(|| {
            for i in 0..2 {
                for j in 2..2 + NR {
                    let [ci, cj] = cols.get_disjoint_mut([i, j]).expect("distinct");
                    pairing(reborrow(ci), reborrow(cj));
                }
            }
        })
    });
    g.bench_function("two_abreast", |b| {
        b.iter(|| {
            let [c0, first] = cols.get_disjoint_mut([0, 2]).expect("distinct");
            pairing(reborrow(c0), reborrow(first));
            for j in 3..2 + NR {
                let [c0, cj, c1, cj1] = cols.get_disjoint_mut([0, j, 1, j - 1]).expect("distinct");
                pairing_x2([reborrow(c0), reborrow(cj)], [reborrow(c1), reborrow(cj1)]);
            }
            let [c1, last] = cols.get_disjoint_mut([1, 1 + NR]).expect("distinct");
            pairing(reborrow(c1), reborrow(last));
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_dot,
    bench_fused_triple,
    bench_rotate,
    bench_alignment,
    bench_pairing_chain
);
criterion_main!(benches);
