//! Simulator throughput: building and pricing pipelined exchange-phase
//! schedules (the `validate_simnet` workload).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mph_ccpipe::{CcCube, Machine};
use mph_core::OrderingFamily;
use mph_simnet::{pipelined_phase_schedule, simulate_synchronized, StartupModel};
use std::hint::black_box;
use std::time::Duration;

fn bench_simnet(c: &mut Criterion) {
    let e = 8usize;
    let machine = Machine::paper_figure2();
    let cc = CcCube::exchange_phase(OrderingFamily::Degree4, e, 4096.0);
    let mut g = c.benchmark_group("simnet");
    g.sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for q in [4usize, 64] {
        let sched = pipelined_phase_schedule(e, &cc, q);
        g.bench_with_input(BenchmarkId::new("schedule_build", q), &q, |b, &q| {
            b.iter(|| black_box(pipelined_phase_schedule(e, &cc, q)))
        });
        g.bench_with_input(BenchmarkId::new("simulate_sync", q), &sched, |b, sched| {
            b.iter(|| {
                black_box(simulate_synchronized(
                    sched,
                    &machine,
                    StartupModel::SerializedThenParallel,
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_simnet);
criterion_main!(benches);
