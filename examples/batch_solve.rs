//! Batch scheduling demo: a mixed eigen + SVD batch sharing one link
//! fabric, with calibrated-machine Auto pipelining.
//!
//! ```text
//! cargo run --release --example batch_solve
//! ```
//!
//! Four independent problems — three symmetric eigensolves and one SVD,
//! different ordering families so their link sequences diverge — are
//! solved three ways on a throttled all-port fabric: FIFO-serial (the
//! baseline), shortest-plan-first (same makespan, better mean latency),
//! and micro-op interleaved (problem B's packets fill the serial-tail and
//! pipeline bubbles problem A leaves on the links). Every batched result
//! is bitwise identical to its solo run — scheduling is invisible to the
//! numerics — and the throughput gain is measured on the deterministic
//! virtual clock next to the cost sheet's prediction, which is the same
//! interleaved schedule run on `mph_ccpipe`'s schedule clock
//! (`executed_cost`) and therefore the same number.

use mph_batch::{solve_batch, BatchOptions, Job, JobResult, Policy};
use mph_ccpipe::Machine;
use mph_core::OrderingFamily;
use mph_eigen::{JacobiOptions, Pipelining};
use mph_linalg::symmetric::random_symmetric;
use mph_runtime::{calibrate_channel_machine, FabricModel};

fn main() {
    let m = 96usize;
    let d = 3usize;

    // Auto pipelining against the machine the solve actually runs on:
    // probe the live channel transport and fit Ts/Tw to it (PR 4's
    // calibration), so the scheduler packetizes for real costs.
    let calibrated = calibrate_channel_machine(d);
    println!(
        "calibrated channel machine: Ts = {:.3e} s, Tw = {:.3e} s/elem",
        calibrated.ts, calibrated.tw
    );
    let opts = JacobiOptions {
        force_sweeps: Some(2),
        pipelining: Pipelining::Auto(calibrated),
        ..Default::default()
    };

    let jobs = vec![
        Job::Eigen { a: random_symmetric(m, 1), family: OrderingFamily::Br, opts: opts.clone() },
        Job::Eigen {
            a: random_symmetric(m, 2),
            family: OrderingFamily::Degree4,
            opts: opts.clone(),
        },
        Job::Svd {
            a: random_symmetric(m / 2, 3),
            family: OrderingFamily::PermutedBr,
            opts: opts.clone(),
        },
        Job::Eigen {
            a: random_symmetric(m, 4),
            family: OrderingFamily::MinAlpha,
            opts: opts.clone(),
        },
    ];

    // The enforced fabric: the paper's Figure-2 all-port machine on the
    // deterministic virtual clock.
    let fabric = FabricModel::Throttled(Machine::paper_figure2());
    println!("\n{} jobs on a d={d} cube, throttled all-port fabric:", jobs.len());

    let mut fifo_makespan = 0.0;
    for (name, policy) in [
        ("fifo      ", Policy::Fifo),
        ("spf       ", Policy::ShortestPlanFirst),
        ("interleave", Policy::Interleave { stride: 1 }),
    ] {
        // The checked constructor: a zero stride or a fabric the links
        // cannot enforce is a typed error here, not a panic mid-run.
        let batch =
            BatchOptions::new(fabric.clone(), policy).expect("an enforceable fabric is batchable");
        let report = solve_batch(d, &jobs, &batch);
        if fifo_makespan == 0.0 {
            fifo_makespan = report.makespan;
        }
        let t = report.throughput.expect("throttled fabric has a clock");
        println!(
            "  {name}: makespan {:>12.0} vtime ({:.3}x vs fifo) | mean finish {:>12.0} | \
             {:.3e} jobs/vtime | predicted {:>12.0}",
            report.makespan,
            fifo_makespan / report.makespan,
            report.mean_finish(),
            t.jobs_per_time,
            report.cost.predicted,
        );
        assert!(
            (report.makespan - report.cost.predicted).abs() <= 1e-9 * report.cost.predicted,
            "forced sweeps on a uniform partition: the schedule clock is exact"
        );
        // Per-job spans and traffic, metered apart by job tag.
        for (i, (span, result)) in report.spans.iter().zip(&report.results).enumerate() {
            let kind = match result {
                JobResult::Eigen(r) => format!("eigen λ_max={:+.3}", max_abs(&r.eigenvalues)),
                JobResult::Svd(r) => format!("svd   σ_max={:+.3}", max_abs(&r.singular_values)),
            };
            println!(
                "      job {i}: {kind} | span [{:>11.0}, {:>11.0}] | {} elems",
                span.start,
                span.finish,
                report.meter.job_volume(i),
            );
        }
    }
    println!(
        "\nSerial tail the interleave fills: {:.0} vtime of whole-block division/last\n\
         transitions per FIFO batch (the serial phases, priced by batch_cost).",
        solve_batch(d, &jobs, &BatchOptions { fabric: fabric.clone(), ..Default::default() })
            .cost
            .tail
    );
}

fn max_abs(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0f64, |a, &b| a.max(b.abs()))
}
