//! Batch scheduler throughput: wall time of solving N mixed eigen/SVD
//! jobs over one shared fabric under each policy, against the solo-loop
//! baseline. The channel transport moves blocks by pointer, so the wall
//! numbers isolate the *scheduling* overhead of the cooperative driver
//! (state-machine stepping, job demultiplexing) — the virtual-clock
//! throughput story is `vclock_tables`' `batch` rows, where the throttled
//! fabric enforces the machine model.

use criterion::{criterion_group, criterion_main, Criterion};
use mph_batch::{solve_batch, BatchOptions, Job, Policy};
use mph_core::OrderingFamily;
use mph_eigen::{block_jacobi_threaded, svd_block, JacobiOptions};
use mph_linalg::symmetric::random_symmetric;
use std::hint::black_box;
use std::time::Duration;

fn jobs(m: usize) -> Vec<Job> {
    let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
    vec![
        Job::Eigen { a: random_symmetric(m, 1), family: OrderingFamily::Br, opts: opts.clone() },
        Job::Svd {
            a: random_symmetric(m, 2),
            family: OrderingFamily::PermutedBr,
            opts: opts.clone(),
        },
        Job::Eigen {
            a: random_symmetric(m, 3),
            family: OrderingFamily::Degree4,
            opts: opts.clone(),
        },
        Job::Eigen { a: random_symmetric(m, 4), family: OrderingFamily::MinAlpha, opts },
    ]
}

fn bench_batch(c: &mut Criterion) {
    let m = 64usize;
    let d = 2usize;
    let batch = jobs(m);
    let mut g = c.benchmark_group("batch_throughput");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));
    // Baseline: the same four problems solved one spawn at a time.
    g.bench_function("solo_loop_n4_m64_d2", |b| {
        b.iter(|| {
            for job in &batch {
                match job {
                    Job::Eigen { a, family, opts } => {
                        black_box(block_jacobi_threaded(a, d, *family, opts));
                    }
                    Job::Svd { a, family, opts } => {
                        black_box(svd_block(a, d, *family, opts));
                    }
                }
            }
        })
    });
    for (name, policy) in [
        ("fifo", Policy::Fifo),
        ("interleave", Policy::Interleave { stride: 1 }),
        ("spf", Policy::ShortestPlanFirst),
    ] {
        let opts = BatchOptions { policy, ..Default::default() };
        g.bench_function(format!("{name}_n4_m64_d2"), |b| {
            b.iter(|| black_box(solve_batch(d, &batch, &opts)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
