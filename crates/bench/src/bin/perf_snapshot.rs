//! Machine-readable performance snapshot, tracked PR-over-PR.
//!
//! Runs a fixed eigensolve configuration (m = 256 on a d = 3 cube, every
//! ordering family, logical and threaded drivers), the block-layout A/B
//! race (seed `Vec<Vec<f64>>` path vs contiguous `ColumnBlock`, with and
//! without cached diagonals), and the pipelined-vs-unpipelined threaded
//! race (measured wall time and metered traffic next to the cost model's
//! predicted communication ratio), writing everything as JSON to
//! `results/BENCH_eigen.json`.
//!
//! Usage:
//!   perf_snapshot            # full size (m=256, d=3)
//!   perf_snapshot --smoke    # reduced size for CI logs (m=64, d=2)

use mph_batch::{solve_batch, AdmissionConfig, BatchOptions, Job, JobResult, Policy};
use mph_bench::seedpath::{self, VecBlock};
use mph_bench::{
    banner, column_block_full_sweep, column_block_full_sweep_kernel,
    column_block_full_sweep_reference, results_dir,
};
use mph_ccpipe::{
    executed_cost, plan_cost_with_tail, plan_sweep_cost, plan_unpipelined_cost, solo_plan_costs,
    BatchOrder, Machine, PlannedJob, PortModel,
};
use mph_core::{CommPlan, OrderingFamily};
use mph_eigen::{
    block_jacobi, block_jacobi_threaded, block_jacobi_threaded_adaptive,
    block_jacobi_threaded_fabric, choose_qs, choose_tail_qs, lower_job, lower_sweeps,
    off_norm_blocks, packetization_cap, svd_block, Adaptation, BlockPartition, ColumnBlock,
    FabricModel, JacobiOptions, JobSpec, KernelPath, PairingRule, Pipelining, SweepKernel,
};
use mph_linalg::block::COLUMN_ALIGN_BYTES;
use mph_linalg::symmetric::random_symmetric;
use mph_runtime::{
    calibrate_channel_machine, LinkDeath, RingSink, Scenario, ScenarioSpec, SinkHandle,
};
use mph_serve::{serve, JobClass, ScenarioGen, ServeOptions};
use mph_trace::{chrome_trace_json, validate_chrome_trace};
use std::fmt::Write as _;
use std::fs;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The schedule clock's virtual time for one forced sweep of `plan`
/// executed solo at the degrees `qs` / `tail_q` — what the throttled
/// fabric measures, to rounding.
fn executed_vtime(plan: &CommPlan, qs: &[usize], tail_q: usize, machine: &Machine) -> f64 {
    let job = PlannedJob { plans: std::slice::from_ref(plan), qs: &[qs.to_vec()], tail_q };
    executed_cost(&[job], machine, &BatchOrder::Serial(vec![0])).makespan
}

/// Wall-clock milliseconds of one run of `f`.
fn timed_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Median wall-clock milliseconds of `reps` runs of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    median((0..reps).map(|_| timed_ms(&mut f)).collect())
}

/// Medians of `reps` samples of each side of a wall-clock ratio, taken
/// round-robin after one warm-up pass: round `r` starts with side
/// `r mod N`. Each side returns its own sample in milliseconds, so set-up
/// stays outside the timed region. Timing one side to completion and then
/// the other puts the host's slow drift (frequency, a neighbour's load)
/// wholly on one side of the ratio; interleaved, both medians see it.
fn paired_ms<const N: usize>(reps: usize, mut sides: [&mut dyn FnMut() -> f64; N]) -> [f64; N] {
    for side in sides.iter_mut() {
        side();
    }
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(reps));
    for r in 0..reps {
        for k in 0..N {
            let side = (r + k) % N;
            samples[side].push(sides[side]());
        }
    }
    samples.map(median)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (m, d, reps) = if smoke { (64, 2, 3) } else { (256, 3, 5) };
    let seed = 424242u64;
    let a = random_symmetric(m, seed);
    let nblocks = 2 * (1usize << d);
    let partition = BlockPartition::new(m, nblocks);

    banner(&format!("perf_snapshot (m={m}, d={d}, smoke={smoke})"));

    // --- Layout A/B: one full block sweep, identical pairing workload ----
    let make_vec_blocks = || -> Vec<VecBlock> {
        (0..nblocks).map(|b| VecBlock::from_matrix(&a, partition.cols(b))).collect()
    };
    let make_col_blocks = || -> Vec<ColumnBlock> {
        (0..nblocks)
            .map(|b| ColumnBlock::from_matrix_with_identity(&a, partition.cols(b), m))
            .collect()
    };
    // Mutating the same blocks across reps keeps the workload constant:
    // with threshold 0, every pairing still rotates after convergence.
    let mut vb = make_vec_blocks();
    let seed_ms = median_ms(reps, || {
        black_box(seedpath::full_sweep(&mut vb, 0.0));
    });
    let mut cb = make_col_blocks();
    let contiguous_ms = median_ms(reps, || {
        black_box(column_block_full_sweep(&mut cb, 0.0, false));
    });
    let mut cbc = make_col_blocks();
    let cached_ms = median_ms(reps, || {
        black_box(column_block_full_sweep(&mut cbc, 0.0, true));
    });
    let speedup_contiguous = seed_ms / contiguous_ms;
    let speedup_cached = seed_ms / cached_ms;
    println!("  block sweep, seed Vec<Vec<f64>> path : {seed_ms:9.3} ms");
    println!(
        "  block sweep, contiguous ColumnBlock  : {contiguous_ms:9.3} ms ({speedup_contiguous:.2}x)"
    );
    println!("  block sweep, ColumnBlock + diag cache: {cached_ms:9.3} ms ({speedup_cached:.2}x)");

    // --- Kernel layer: scalar vs lanes vs the tournament on 1, 2, N threads
    // The same full block sweep, routed through a configured SweepKernel:
    // the single-node hot path behind every driver. `scalar` is the default
    // (tiled serial) path — the reference bits, executed by the exact
    // vector kernels of `exact_tier`; `reference` is the same sweep the way
    // those bits used to be executed (three `dot`s and the scalar rotation
    // per pairing), so scalar/reference is what the exact kernels buy;
    // lanes takes the reassociated FMA reductions; lanes_w1/w2/wn run the
    // tile tournament on the calling thread alone, with one parked helper,
    // and with the host's available parallelism — each named by its worker
    // count, with `cores` beside them, so the pool's figure cannot be read
    // off a one-worker run. The bitwise flag is computed in-process: the
    // tiled scalar kernel must reproduce the untiled sweep and the
    // three-`dot` reference bit for bit, and the tournament order must be
    // worker-count-invariant.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Each sample sweeps pristine blocks (a converged matrix is not the
    // workload) and only the sweep is timed.
    let sweep_ms = |sweep: &mut dyn FnMut(&mut [ColumnBlock])| -> f64 {
        let mut blocks = make_col_blocks();
        timed_ms(|| sweep(&mut blocks))
    };
    // The pool is created once per configuration, as a solve creates it
    // once for all its sweeps.
    let kernel_sweep_ms = |path: KernelPath, workers: usize| {
        let kern = SweepKernel { rule: PairingRule::Implicit, threshold: 0.0, path, workers };
        let mut tour = kern.tournament(make_col_blocks().iter().map(ColumnBlock::len));
        move || {
            sweep_ms(&mut |blocks| {
                black_box(column_block_full_sweep_kernel(blocks, false, &kern, &mut tour));
            })
        }
    };
    let exact_tier = mph_linalg::vecops::exact_tier();
    // The sides of a gated ratio are sampled interleaved (`paired_ms`):
    // scalar/reference and lanes/scalar share one round-robin, w2/w1 another.
    let mut reference = || {
        sweep_ms(&mut |blocks| {
            black_box(column_block_full_sweep_reference(blocks, 0.0));
        })
    };
    let (mut scalar, mut lanes) =
        (kernel_sweep_ms(KernelPath::Scalar, 0), kernel_sweep_ms(KernelPath::Lanes, 0));
    let [kernel_reference_ms, kernel_scalar_ms, kernel_lanes_ms] =
        paired_ms(reps, [&mut reference, &mut scalar, &mut lanes]);
    let (mut w1, mut w2) =
        (kernel_sweep_ms(KernelPath::Lanes, 1), kernel_sweep_ms(KernelPath::Lanes, 2));
    let [lanes_w1_ms, lanes_w2_ms] = paired_ms(reps, [&mut w1, &mut w2]);
    let [lanes_wn_ms] = paired_ms(reps, [&mut kernel_sweep_ms(KernelPath::Lanes, cores)]);
    let speedup_lanes = kernel_scalar_ms / kernel_lanes_ms;
    let (mut kref, mut ktiled, mut koracle) =
        (make_col_blocks(), make_col_blocks(), make_col_blocks());
    column_block_full_sweep(&mut kref, 0.0, false);
    column_block_full_sweep_reference(&mut koracle, 0.0);
    let kernel_sweep_once = |blocks: &mut [ColumnBlock], path: KernelPath, workers: usize| {
        let kern = SweepKernel { rule: PairingRule::Implicit, threshold: 0.0, path, workers };
        let mut tour = kern.tournament(blocks.iter().map(ColumnBlock::len));
        column_block_full_sweep_kernel(blocks, false, &kern, &mut tour);
    };
    kernel_sweep_once(&mut ktiled, KernelPath::Scalar, 0);
    let (mut kw1, mut kw4) = (make_col_blocks(), make_col_blocks());
    kernel_sweep_once(&mut kw1, KernelPath::Lanes, 1);
    kernel_sweep_once(&mut kw4, KernelPath::Lanes, 4);
    let kernel_bitwise = kref == ktiled && koracle == ktiled && kw1 == kw4;
    // The storage invariant behind every number above, counted over the
    // blocks those sweeps ran on: no column starts off a cache line.
    let misaligned_columns: usize = [&kref, &ktiled, &koracle, &kw1, &kw4]
        .into_iter()
        .flatten()
        .map(ColumnBlock::misaligned_columns)
        .sum();
    println!(
        "  column storage   : {COLUMN_ALIGN_BYTES}-byte aligned, {misaligned_columns} misaligned columns"
    );
    // The convergence check that follows every sweep of a logical solve,
    // on the generic state one lanes sweep leaves behind (at U = I every
    // entry would be a single element read). The state is built outside
    // the timed region; only the measure is timed.
    let off_norm_median_ms = |path: KernelPath| -> f64 {
        black_box(off_norm_blocks(&kw1, path));
        median_ms(4 * reps + 1, || {
            black_box(off_norm_blocks(black_box(&kw1), path));
        })
    };
    let off_norm_scalar_ms = off_norm_median_ms(KernelPath::Scalar);
    let off_norm_lanes_ms = off_norm_median_ms(KernelPath::Lanes);
    println!("  kernel sweep, three-dot reference    : {kernel_reference_ms:9.3} ms");
    println!(
        "  kernel sweep, scalar (default path)  : {kernel_scalar_ms:9.3} ms ({:.2}x, exact tier {exact_tier})",
        kernel_reference_ms / kernel_scalar_ms
    );
    println!(
        "  kernel sweep, lanes                  : {kernel_lanes_ms:9.3} ms ({speedup_lanes:.2}x)"
    );
    println!(
        "  kernel sweep, lanes_w1/w2/wn         : {lanes_w1_ms:9.3} / {lanes_w2_ms:.3} / \
         {lanes_wn_ms:.3} ms (wn = {cores} workers on {cores} cores)"
    );
    println!(
        "  off-norm, scalar / lanes             : {off_norm_scalar_ms:9.3} / {off_norm_lanes_ms:.3} ms \
         (once per sweep; {:.2} of lanes_w1)",
        off_norm_lanes_ms / lanes_w1_ms
    );
    println!(
        "  kernel bitwise   : tiled == untiled == three-dot reference && worker-invariant: \
         {kernel_bitwise}"
    );
    let kernel_json = format!(
        "{{\n    \"reps\": {reps},\n    \
         \"cores\": {cores},\n    \
         \"exact_tier\": \"{exact_tier}\",\n    \
         \"reference_ms\": {kernel_reference_ms:.3},\n    \
         \"scalar_ms\": {kernel_scalar_ms:.3},\n    \
         \"lanes_ms\": {kernel_lanes_ms:.3},\n    \
         \"lanes_w1_ms\": {lanes_w1_ms:.3},\n    \
         \"lanes_w2_ms\": {lanes_w2_ms:.3},\n    \
         \"lanes_wn_ms\": {lanes_wn_ms:.3},\n    \
         \"off_norm_scalar_ms\": {off_norm_scalar_ms:.4},\n    \
         \"off_norm_lanes_ms\": {off_norm_lanes_ms:.4},\n    \
         \"speedup_lanes\": {speedup_lanes:.3},\n    \
         \"bitwise_identical\": {kernel_bitwise}\n  }}"
    );

    // --- Fixed eigensolve, every ordering family ------------------------
    let opts = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
    let fast = JacobiOptions { cache_diagonals: true, ..opts.clone() };
    let mut family_json = String::new();
    for (idx, family) in OrderingFamily::ALL.into_iter().enumerate() {
        let r0 = block_jacobi(&a, d, family, &opts); // warm + rotation count
        let logical_ms = median_ms(reps, || {
            black_box(block_jacobi(&a, d, family, &opts));
        });
        let logical_cached_ms = median_ms(reps, || {
            black_box(block_jacobi(&a, d, family, &fast));
        });
        let threaded_ms = median_ms(reps, || {
            black_box(block_jacobi_threaded(&a, d, family, &opts));
        });
        println!(
            "  {family:<12} logical {logical_ms:9.3} ms | logical+cache {logical_cached_ms:9.3} ms \
             | threaded {threaded_ms:9.3} ms | {} rotations",
            r0.rotations
        );
        if idx > 0 {
            family_json.push(',');
        }
        write!(
            family_json,
            "\n    \"{}\": {{\"logical_ms\": {logical_ms:.3}, \
             \"logical_cached_ms\": {logical_cached_ms:.3}, \
             \"threaded_ms\": {threaded_ms:.3}, \"rotations\": {}}}",
            family.name(),
            r0.rotations
        )
        .unwrap();
    }

    // --- Pipelined vs unpipelined threaded sweeps -----------------------
    // The paper's machine model chooses per-phase packet counts; the
    // measured ratio is reported next to the model's predicted
    // communication ratio. The channel runtime ships blocks by pointer,
    // so transmission is nearly free here — the measured column isolates
    // packetization's scheduling effect, the predicted column is what a
    // transmission-bound hypercube would gain.
    let machine = Machine::paper_figure2();
    let pipe_family = OrderingFamily::PermutedBr;
    let sweeps_forced = 2usize;
    let unpiped_opts = JacobiOptions { force_sweeps: Some(sweeps_forced), ..Default::default() };
    let piped_opts =
        JacobiOptions { pipelining: Pipelining::Auto(machine), ..unpiped_opts.clone() };
    // The solver's own lowering and scheduling helpers, so the recorded
    // q_per_phase and predicted ratio describe exactly the schedule the
    // measured run executes.
    let plan = &lower_sweeps(m, d, pipe_family, false, 1)[0];
    let q_cap = packetization_cap(m, d);
    let qs = choose_qs(plan, &piped_opts.pipelining, q_cap);
    let predicted_ratio =
        plan_sweep_cost(plan, &machine, q_cap as f64).total / plan_unpipelined_cost(plan, &machine);
    let unpipelined_ms = median_ms(reps, || {
        black_box(block_jacobi_threaded(&a, d, pipe_family, &unpiped_opts));
    });
    let pipelined_ms = median_ms(reps, || {
        black_box(block_jacobi_threaded(&a, d, pipe_family, &piped_opts));
    });
    let (_, meter_u) = block_jacobi_threaded(&a, d, pipe_family, &unpiped_opts);
    let (_, meter_p) = block_jacobi_threaded(&a, d, pipe_family, &piped_opts);
    let measured_speedup = unpipelined_ms / pipelined_ms;
    println!(
        "  pipelined sweep ({}) : unpipelined {unpipelined_ms:9.3} ms | pipelined \
         {pipelined_ms:9.3} ms ({measured_speedup:.2}x measured, {:.2}x predicted comm) | \
         q per phase {qs:?}",
        pipe_family.name(),
        1.0 / predicted_ratio,
    );
    let qs_json = qs.iter().map(|q| q.to_string()).collect::<Vec<_>>().join(", ");
    let pipelined_json = format!(
        "{{\n    \"family\": \"{}\",\n    \"force_sweeps\": {sweeps_forced},\n    \
         \"q_per_phase\": [{qs_json}],\n    \
         \"unpipelined_ms\": {unpipelined_ms:.3},\n    \
         \"pipelined_ms\": {pipelined_ms:.3},\n    \
         \"measured_speedup\": {measured_speedup:.3},\n    \
         \"unpipelined_traffic_elems\": {},\n    \
         \"pipelined_traffic_elems\": {},\n    \
         \"unpipelined_messages\": {},\n    \
         \"pipelined_messages\": {},\n    \
         \"predicted_comm_ratio\": {predicted_ratio:.4}\n  }}",
        pipe_family.name(),
        meter_u.total_volume(),
        meter_p.total_volume(),
        meter_u.total_messages(),
        meter_p.total_messages(),
    );

    // --- Throttled fabric: measured vs predicted, per port model --------
    // The virtual-clock fabric enforces the Ts/Tw/port machine on the
    // real threaded solver, so the measured speedup is deterministic and
    // the schedule clock (`executed_cost`) predicts it exactly — per port
    // model: one-port gains nothing (and the runtime proves it), all-port
    // gains what the dataflow pipeline executes. The paper's stage-model
    // figure that Auto optimized is `pipelined.predicted_comm_ratio`.
    let fsweeps = 1usize;
    // One binding for the enforced machine's parameters: the Machine the
    // runs are throttled on and the values the JSON records must agree.
    let (fab_ts, fab_tw) = (1000.0f64, 100.0f64);
    let mut fabric_rows = String::new();
    for (name, ports) in [("one_port", PortModel::OnePort), ("all_port", PortModel::AllPort)] {
        let fmachine = Machine { ts: fab_ts, tw: fab_tw, ports };
        let fbase = JacobiOptions {
            force_sweeps: Some(fsweeps),
            fabric: FabricModel::Throttled(fmachine),
            ..Default::default()
        };
        let fauto = JacobiOptions { pipelining: Pipelining::Auto(fmachine), ..fbase.clone() };
        let fqs = choose_qs(plan, &fauto.pipelining, q_cap);
        let (_, _, ru) = block_jacobi_threaded_fabric(&a, d, pipe_family, &fbase);
        let (_, _, rp) = block_jacobi_threaded_fabric(&a, d, pipe_family, &fauto);
        let measured = ru.makespan / rp.makespan;
        let fones = choose_qs(plan, &fbase.pipelining, q_cap);
        let predicted =
            executed_vtime(plan, &fones, 1, &fmachine) / executed_vtime(plan, &fqs, 1, &fmachine);
        let ratio = measured / predicted;
        println!(
            "  fabric {name:<9}: unpipelined {:>12.0} | pipelined {:>12.0} vtime | \
             {measured:.3}x measured vs {predicted:.3}x predicted ({ratio:.3}) | q {fqs:?}",
            ru.makespan, rp.makespan,
        );
        let fqs_json = fqs.iter().map(|q| q.to_string()).collect::<Vec<_>>().join(", ");
        write!(
            fabric_rows,
            ",\n    \"{name}\": {{\"q_per_phase\": [{fqs_json}], \
             \"unpipelined_vtime\": {:.3}, \"pipelined_vtime\": {:.3}, \
             \"measured_speedup\": {measured:.4}, \"predicted_speedup\": {predicted:.4}, \
             \"measured_over_predicted\": {ratio:.4}}}",
            ru.makespan, rp.makespan,
        )
        .unwrap();
    }
    // Wall-clock calibration of the live channel transport: the Ts/Tw a
    // scheduler should feed Pipelining::Auto when the solve runs on these
    // channels rather than the paper's hardware. Both come back orders of
    // magnitude below the Figure-2 constants — which is why PR 3's
    // measured wall speedup was ~1x and why Auto schedules far shallower
    // pipelines on the calibrated machine.
    let calibrated = calibrate_channel_machine(d);
    println!(
        "  fabric calibrated  : channel runtime Ts = {:.3e} s, Tw = {:.3e} s/elem",
        calibrated.ts, calibrated.tw
    );
    let fabric_json = format!(
        "{{\n    \"family\": \"{}\",\n    \"force_sweeps\": {fsweeps},\n    \
         \"machine_ts\": {fab_ts},\n    \"machine_tw\": {fab_tw},\n    \
         \"calibrated_channel_ts\": {:.6e},\n    \
         \"calibrated_channel_tw\": {:.6e}{fabric_rows}\n  }}",
        pipe_family.name(),
        calibrated.ts,
        calibrated.tw,
    );

    // --- Tail pipelining: the serial division/last chain, packetized ----
    // The exchange phases above pipeline inside one phase; the serial tail
    // (division + last transitions, one message per phase) pipelines
    // *across* phases: packets of the outgoing block are paired and
    // shipped while their predecessors are still in flight. Per scale
    // point, on the all-port machine: the tail's share of the unpipelined
    // sweep price before and after chaining, the measured virtual-clock
    // makespan of the real threaded solver with the tail off vs on
    // (everything else identical — exchange unpipelined, one forced
    // sweep), the schedule clock's predicted gain, and the bitwise flag
    // the whole feature is contracted on.
    let tail_machine = Machine { ts: fab_ts, tw: fab_tw, ports: PortModel::AllPort };
    let tail_sizes: &[usize] = if smoke { &[64] } else { &[256, 1024] };
    let mut tail_rows = String::new();
    for &tm in tail_sizes {
        let ta = if tm == m { a.clone() } else { random_symmetric(tm, seed + tm as u64) };
        let tplan = &lower_sweeps(tm, d, pipe_family, false, 1)[0];
        let tcap = packetization_cap(tm, d);
        let tq = choose_tail_qs(tplan, &Pipelining::Auto(tail_machine), tcap);
        let ones = choose_qs(tplan, &Pipelining::Off, tcap);
        let before = plan_cost_with_tail(tplan, &tail_machine, &ones, 1);
        let after = plan_cost_with_tail(tplan, &tail_machine, &ones, tq);
        let share_before = before.serial / before.total;
        let share_after = after.serial / after.total;
        let predicted = executed_vtime(tplan, &ones, 1, &tail_machine)
            / executed_vtime(tplan, &ones, tq, &tail_machine);
        let toff = JacobiOptions {
            force_sweeps: Some(1),
            fabric: FabricModel::Throttled(tail_machine),
            ..Default::default()
        };
        let ton = JacobiOptions { tail_pipelining: Pipelining::Auto(tail_machine), ..toff.clone() };
        let (r_off, _, f_off) = block_jacobi_threaded_fabric(&ta, d, pipe_family, &toff);
        let (r_on, _, f_on) = block_jacobi_threaded_fabric(&ta, d, pipe_family, &ton);
        let measured = f_off.makespan / f_on.makespan;
        let ratio = measured / predicted;
        let tail_bitwise = r_off.rotations == r_on.rotations
            && r_off.eigenvalues == r_on.eigenvalues
            && (0..tm).all(|c| r_off.eigenvectors.col(c) == r_on.eigenvectors.col(c));
        println!(
            "  tail m={tm:<5}: share {share_before:.3} -> {share_after:.3} (Q={tq}) | \
             off {:>12.0} | on {:>12.0} vtime | {measured:.3}x measured vs {predicted:.3}x \
             predicted ({ratio:.3}) | bitwise {tail_bitwise}",
            f_off.makespan, f_on.makespan,
        );
        write!(
            tail_rows,
            ",\n    \"m{tm}\": {{\"tail_q\": {tq}, \
             \"tail_share_before\": {share_before:.4}, \
             \"tail_share_after\": {share_after:.4}, \
             \"tail_off_vtime\": {:.3}, \"tail_on_vtime\": {:.3}, \
             \"measured_speedup\": {measured:.4}, \"predicted_speedup\": {predicted:.4}, \
             \"measured_over_predicted\": {ratio:.4}, \
             \"bitwise_identical\": {tail_bitwise}}}",
            f_off.makespan, f_on.makespan,
        )
        .unwrap();
    }
    let tail_json = format!(
        "{{\n    \"family\": \"{}\",\n    \"force_sweeps\": 1,\n    \
         \"machine_ts\": {fab_ts},\n    \"machine_tw\": {fab_tw}{tail_rows}\n  }}",
        pipe_family.name(),
    );

    // --- Batch scheduler: N jobs on one fabric, per policy + port ------
    // Four mixed jobs (three eigensolves, one SVD, distinct families so
    // their link sequences partially diverge) forced to one sweep each,
    // unpipelined. Per port model: FIFO-serial vs micro-op interleave vs
    // shortest-plan-first, measured on the virtual clock next to
    // batch_cost's prediction (the interleaved schedule run on the
    // schedule clock); plus the bitwise flag (every batched result equals
    // its solo logical run) the gate requires.
    let batch_n = 4usize;
    let bopts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
    let batch_jobs = vec![
        Job::Eigen {
            a: random_symmetric(m, seed + 1),
            family: OrderingFamily::Br,
            opts: bopts.clone(),
        },
        Job::Eigen {
            a: random_symmetric(m, seed + 2),
            family: OrderingFamily::Degree4,
            opts: bopts.clone(),
        },
        Job::Svd {
            a: random_symmetric(m, seed + 3),
            family: OrderingFamily::PermutedBr,
            opts: bopts.clone(),
        },
        Job::Eigen {
            a: random_symmetric(m, seed + 4),
            family: OrderingFamily::MinAlpha,
            opts: bopts.clone(),
        },
    ];
    // Solo references, solved once: every batched result below — per port
    // model AND per policy — must reproduce these bits exactly (the chain
    // to the threaded drivers is closed by mph-eigen's equality tests).
    let solo_refs: Vec<JobResult> = batch_jobs
        .iter()
        .map(|job| match job {
            Job::Eigen { a, family, opts } => JobResult::Eigen(block_jacobi(a, d, *family, opts)),
            Job::Svd { a, family, opts } => JobResult::Svd(svd_block(a, d, *family, opts)),
        })
        .collect();
    let mut batch_rows = String::new();
    let mut bitwise = true;
    for (name, ports) in [("one_port", PortModel::OnePort), ("all_port", PortModel::AllPort)] {
        let bmachine = Machine { ts: fab_ts, tw: fab_tw, ports };
        let bfabric = FabricModel::Throttled(bmachine);
        let run = |policy: Policy| {
            solve_batch(
                d,
                &batch_jobs,
                &BatchOptions { fabric: bfabric.clone(), policy, ..Default::default() },
            )
        };
        let fifo = run(Policy::Fifo);
        let inter = run(Policy::Interleave { stride: 1 });
        let spf = run(Policy::ShortestPlanFirst);
        // Bitwise flag: under EVERY policy, every batched result equals
        // its solo run.
        for report in [&fifo, &inter, &spf] {
            for (solo, got) in solo_refs.iter().zip(&report.results) {
                bitwise &= match (solo, got) {
                    (JobResult::Eigen(s), JobResult::Eigen(r)) => {
                        s.eigenvalues == r.eigenvalues
                            && (0..s.eigenvalues.len())
                                .all(|c| s.eigenvectors.col(c) == r.eigenvectors.col(c))
                    }
                    (JobResult::Svd(s), JobResult::Svd(r)) => {
                        s.singular_values == r.singular_values
                            && (0..s.singular_values.len())
                                .all(|c| s.u.col(c) == r.u.col(c) && s.v.col(c) == r.v.col(c))
                    }
                    _ => false,
                };
            }
        }
        let gain = fifo.makespan / inter.makespan;
        let ratio = inter.makespan / inter.cost.predicted;
        let tput = inter.throughput.expect("throttled batch has throughput");
        println!(
            "  batch {name:<9}: fifo {:>13.0} | interleave {:>13.0} | spf {:>13.0} vtime | \
             {gain:.3}x interleave gain | measured/predicted {ratio:.3} | \
             {:.3e} elems/vtime",
            fifo.makespan, inter.makespan, spf.makespan, tput.elems_per_time,
        );
        write!(
            batch_rows,
            ",\n    \"{name}\": {{\"fifo_vtime\": {:.3}, \"interleave_vtime\": {:.3}, \
             \"spf_vtime\": {:.3}, \"spf_mean_finish\": {:.3}, \
             \"fifo_mean_finish\": {:.3}, \
             \"interleave_gain_vs_fifo\": {gain:.4}, \
             \"predicted_interleave_vtime\": {:.3}, \
             \"measured_over_predicted\": {ratio:.4}, \
             \"serial_tail_vtime\": {:.3}, \
             \"jobs_per_vtime\": {:.6e}, \"elems_per_vtime\": {:.6e}}}",
            fifo.makespan,
            inter.makespan,
            spf.makespan,
            spf.mean_finish(),
            fifo.mean_finish(),
            inter.cost.predicted,
            inter.cost.tail,
            tput.jobs_per_time,
            tput.elems_per_time,
        )
        .unwrap();
    }
    println!("  batch bitwise    : every batched job == its solo run: {bitwise}");
    let batch_json = format!(
        "{{\n    \"jobs\": {batch_n},\n    \"force_sweeps\": 1,\n    \
         \"machine_ts\": {fab_ts},\n    \"machine_tw\": {fab_tw},\n    \
         \"bitwise_identical\": {bitwise}{batch_rows}\n  }}"
    );

    // --- Degraded fabric: adaptive solver vs scenario oracle ------------
    // Three seeded scenario classes on the snapshot machine — static
    // heterogeneity, Gilbert–Elliott episodes, and a scheduled link death
    // relayed around — each solved three ways: on the clean throttled
    // fabric, reactively (mid-run window calibration + re-pricing), and
    // against the oracle that re-prices on the scenario's known
    // worst-alive machine. The gate requires every class to finish
    // bitwise-clean with adaptive/oracle ≤ 1.25.
    let dg_machine = Machine { ts: fab_ts, tw: fab_tw, ports: PortModel::AllPort };
    let dg_sweeps = 3usize;
    let dg_base = JacobiOptions {
        force_sweeps: Some(dg_sweeps),
        fabric: FabricModel::Throttled(dg_machine),
        ..Default::default()
    };
    let (dg_ref, _, dg_clean_fab) = block_jacobi_threaded_fabric(&a, d, pipe_family, &dg_base);
    let dg_classes: Vec<(&str, ScenarioSpec)> = vec![
        (
            "hetero",
            ScenarioSpec {
                epochs: dg_sweeps + 1,
                hetero_spread: 3.0,
                ..ScenarioSpec::clean(seed, dg_machine)
            },
        ),
        (
            "episodes",
            ScenarioSpec {
                epochs: dg_sweeps + 1,
                hetero_spread: 0.5,
                episode_rate: 0.4,
                episode_recovery: 0.4,
                episode_severity: 6.0,
                ..ScenarioSpec::clean(seed + 1, dg_machine)
            },
        ),
        (
            "death",
            ScenarioSpec {
                epochs: dg_sweeps + 1,
                hetero_spread: 0.5,
                deaths: vec![LinkDeath { node: 0, dim: 0, epoch: 1 }],
                ..ScenarioSpec::clean(seed + 2, dg_machine)
            },
        ),
    ];
    let mut degraded_rows = String::new();
    for (cname, spec) in &dg_classes {
        let scenario =
            Arc::new(Scenario::new(d, spec.clone()).expect("snapshot scenarios are valid"));
        let run = |adaptation: Adaptation| {
            let opts = JacobiOptions {
                fabric: FabricModel::Degraded(scenario.clone()),
                adaptation,
                ..dg_base.clone()
            };
            block_jacobi_threaded_adaptive(&a, d, pipe_family, &opts)
        };
        let (r_adaptive, _, f_adaptive, rep) = run(Adaptation::Reactive);
        let (_, _, f_oracle, _) = run(Adaptation::Oracle);
        let adaptive_over_oracle = f_adaptive.makespan / f_oracle.makespan;
        let dg_bitwise = r_adaptive.rotations == dg_ref.rotations
            && r_adaptive.eigenvalues == dg_ref.eigenvalues
            && (0..m).all(|c| r_adaptive.eigenvectors.col(c) == dg_ref.eigenvectors.col(c));
        println!(
            "  degraded {cname:<9}: clean {:>12.0} | adaptive {:>12.0} | oracle {:>12.0} vtime \
             | adaptive/oracle {adaptive_over_oracle:.3} | recal {} | rerouted {} elems | \
             bitwise {dg_bitwise}",
            dg_clean_fab.makespan,
            f_adaptive.makespan,
            f_oracle.makespan,
            rep.recalibrations,
            rep.rerouted_elems,
        );
        write!(
            degraded_rows,
            ",\n    \"{cname}\": {{\"clean_vtime\": {:.3}, \"adaptive_vtime\": {:.3}, \
             \"oracle_vtime\": {:.3}, \"adaptive_over_oracle\": {adaptive_over_oracle:.4}, \
             \"recalibrations\": {}, \"reroutes\": {}, \"rerouted_elems\": {}, \
             \"bitwise_identical\": {dg_bitwise}}}",
            dg_clean_fab.makespan,
            f_adaptive.makespan,
            f_oracle.makespan,
            rep.recalibrations,
            rep.reroutes,
            rep.rerouted_elems,
        )
        .unwrap();
    }
    let degraded_json = format!(
        "{{\n    \"family\": \"{}\",\n    \"force_sweeps\": {dg_sweeps},\n    \
         \"machine_ts\": {fab_ts},\n    \"machine_tw\": {fab_tw}{degraded_rows}\n  }}",
        pipe_family.name(),
    );

    // --- Serving layer: open-loop arrivals on one throttled fabric ------
    // A seeded scenario per job size (2:1 eigen/SVD mix, one forced
    // sweep), paced at 1.5× the mean one-port solo cost — the calibration
    // load point: sustained traffic under capacity, so the gate can
    // require zero shed jobs. The same arrival sequence runs on the
    // one-port and all-port fabrics; all-port drains faster, so its
    // jobs/vtime must come out no worse.
    let serve_n = 8usize;
    let serve_sizes: [usize; 2] = if smoke { [16, 32] } else { [64, 256] };
    let mut serve_rows = String::new();
    for sm in serve_sizes {
        let mut sgen = ScenarioGen::new(
            seed + sm as u64,
            serve_n,
            1.0,
            vec![
                JobClass { m: sm, svd: false, family: OrderingFamily::Br, weight: 2.0 },
                JobClass { m: sm, svd: true, family: OrderingFamily::Degree4, weight: 1.0 },
            ],
        );
        sgen.opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        // Price the drawn jobs solo on the one-port machine, then
        // regenerate with the paced gap — same seed, same jobs, same
        // uniform draws, arrivals scaled to the sustained rate.
        let probe = sgen.generate();
        let sspecs: Vec<JobSpec> = probe.jobs.iter().map(|j| j.to_spec()).collect();
        let slowered: Vec<_> = sspecs.iter().map(|s| lower_job(s, d)).collect();
        let splanned: Vec<PlannedJob<'_>> =
            slowered.iter().map(|(plans, qs)| PlannedJob { plans, qs, tail_q: 1 }).collect();
        let one_port = Machine { ts: fab_ts, tw: fab_tw, ports: PortModel::OnePort };
        let costs = solo_plan_costs(&splanned, &one_port);
        let mean_cost = costs.iter().sum::<f64>() / costs.len() as f64;
        sgen.mean_interarrival = 1.5 * mean_cost;
        let scenario = sgen.generate();
        let mut port_cols = String::new();
        for (pname, ports) in [("one_port", PortModel::OnePort), ("all_port", PortModel::AllPort)] {
            let report = serve(
                d,
                &scenario,
                &ServeOptions {
                    fabric: FabricModel::Throttled(Machine { ts: fab_ts, tw: fab_tw, ports }),
                    policy: Policy::ShortestPlanFirst,
                    admission: AdmissionConfig {
                        queue_cap: serve_n,
                        max_active: 4,
                        stagger_slots: 2,
                    },
                    ..Default::default()
                },
            );
            let lat = report.latency.expect("a throttled service reports latencies");
            let wait = report.queue_wait.expect("served jobs report waits");
            let tput = report.throughput.expect("a throttled service has throughput");
            println!(
                "  serve m={sm:<4} {pname:<9}: p50 {:>12.0} | p99 {:>12.0} vtime | \
                 {:.3e} jobs/vtime | served {}/{} | peak queue {}",
                lat.p50,
                lat.p99,
                tput.jobs_per_time,
                report.served(),
                serve_n,
                report.peak_queue_depth(),
            );
            write!(
                port_cols,
                ",\n      \"{pname}\": {{\"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}, \
                 \"mean_latency\": {:.3}, \"max_latency\": {:.3}, \
                 \"queue_wait_p99\": {:.3}, \
                 \"jobs_per_vtime\": {:.6e}, \"elems_per_vtime\": {:.6e}, \
                 \"served\": {}, \"rejected\": {}, \"peak_queue_depth\": {}, \
                 \"makespan\": {:.3}}}",
                lat.p50,
                lat.p90,
                lat.p99,
                lat.mean,
                lat.max,
                wait.p99,
                tput.jobs_per_time,
                tput.elems_per_time,
                report.served(),
                report.rejected(),
                report.peak_queue_depth(),
                report.makespan,
            )
            .unwrap();
        }
        write!(
            serve_rows,
            ",\n    \"m{sm}\": {{\"mean_interarrival\": {:.3}{port_cols}\n    }}",
            sgen.mean_interarrival,
        )
        .unwrap();
    }
    let serve_json = format!(
        "{{\n    \"jobs\": {serve_n},\n    \"force_sweeps\": 1,\n    \
         \"machine_ts\": {fab_ts},\n    \"machine_tw\": {fab_tw}{serve_rows}\n  }}"
    );

    // --- Tracing layer: observation overhead and export integrity -------
    // The same throttled block sweep twice: once with the default nop
    // sink, once recording into a ring sink. Tracing is contractually
    // observational, so the gate requires the traced run to stay within
    // 5% wall time of the untraced one, bitwise-identical results, and a
    // well-formed Chrome export. Wall-clock medians are noisy at this
    // margin, so the block takes extra reps and interleaves the two sides.
    let trace_reps = 2 * reps + 1;
    let trace_opts = JacobiOptions {
        force_sweeps: Some(2),
        pipelining: Pipelining::Fixed(2),
        fabric: FabricModel::Throttled(dg_machine),
        ..Default::default()
    };
    let ring = Arc::new(RingSink::new(d, 1 << 16));
    let ring_opts = JacobiOptions { trace: SinkHandle::new(ring.clone()), ..trace_opts.clone() };
    let solve_ms = |opts: &JacobiOptions| {
        timed_ms(|| {
            black_box(block_jacobi_threaded_fabric(&a, d, pipe_family, opts));
        })
    };
    let [nop_ms, ring_ms] =
        paired_ms(trace_reps, [&mut || solve_ms(&trace_opts), &mut || solve_ms(&ring_opts)]);
    let trace_overhead = ring_ms / nop_ms;
    let (tr_plain, _, _) = block_jacobi_threaded_fabric(&a, d, pipe_family, &trace_opts);
    ring.drain();
    let (tr_traced, _, _) = block_jacobi_threaded_fabric(&a, d, pipe_family, &ring_opts);
    let tr_bitwise = tr_traced.rotations == tr_plain.rotations
        && tr_traced.eigenvalues == tr_plain.eigenvalues
        && (0..m).all(|c| tr_traced.eigenvectors.col(c) == tr_plain.eigenvectors.col(c));
    let lanes = ring.drain();
    let tr_events: usize = lanes.iter().map(Vec::len).sum();
    let export = validate_chrome_trace(&chrome_trace_json(&lanes));
    let tr_well_formed = export.is_ok();
    println!(
        "  trace            : nop {nop_ms:>8.3} ms | ring {ring_ms:>8.3} ms | \
         overhead {trace_overhead:.3}x | {tr_events} events | bitwise {tr_bitwise} | \
         export ok {tr_well_formed}"
    );
    let trace_json = format!(
        "{{\n    \"reps\": {trace_reps},\n    \"nop_ms\": {nop_ms:.3},\n    \
         \"ring_ms\": {ring_ms:.3},\n    \"overhead\": {trace_overhead:.4},\n    \
         \"events\": {tr_events},\n    \"bitwise_identical\": {tr_bitwise},\n    \
         \"export_well_formed\": {tr_well_formed}\n  }}"
    );

    let json = format!(
        "{{\n  \"bench\": \"eigen_perf_snapshot\",\n  \"m\": {m},\n  \"d\": {d},\n  \
         \"smoke\": {smoke},\n  \"force_sweeps\": 2,\n  \"seed\": {seed},\n  \
         \"layout_sweep\": {{\n    \"reps\": {reps},\n    \
         \"seed_vecvec_ms\": {seed_ms:.3},\n    \
         \"columnblock_ms\": {contiguous_ms:.3},\n    \
         \"columnblock_cached_ms\": {cached_ms:.3},\n    \
         \"speedup_contiguous\": {speedup_contiguous:.3},\n    \
         \"speedup_contiguous_cached\": {speedup_cached:.3}\n  }},\n  \
         \"storage\": {{\n    \"column_align_bytes\": {COLUMN_ALIGN_BYTES},\n    \
         \"misaligned_columns\": {misaligned_columns}\n  }},\n  \
         \"kernel\": {kernel_json},\n  \
         \"pipelined\": {pipelined_json},\n  \
         \"fabric\": {fabric_json},\n  \
         \"tail\": {tail_json},\n  \
         \"batch\": {batch_json},\n  \
         \"degraded\": {degraded_json},\n  \
         \"serve\": {serve_json},\n  \
         \"trace\": {trace_json},\n  \
         \"families\": {{{family_json}\n  }}\n}}\n"
    );
    println!("{json}");
    if smoke {
        println!("  (smoke run: results/BENCH_eigen.json left untouched)");
    } else {
        let path = results_dir().join("BENCH_eigen.json");
        fs::write(&path, &json).expect("cannot write BENCH_eigen.json");
        println!("  -> wrote {}", path.display());
    }
}
