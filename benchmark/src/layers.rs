//! The traced pass: one more run of a workload with the span recorder, the
//! counting allocator and the runtime's trace sink on, plus the probes that
//! give each layer its own number.
//!
//! End-to-end timings never come from here. Each probe runs in the traced
//! pass of the workloads it explains; the README's table says which.

use std::hint::black_box;
use std::time::Instant;

use crate::api::{self, FabricModel, JacobiOptions, KernelPath, Solved, TraceLanes, TraceRing};
use crate::metrics::{lookup, Values};
use crate::spans::{layer_self_times, Recorder, Span};
use crate::workloads::{
    serve_scenario, Detail, JobRun, Mode, Session, Workload, D, NODES, OVERLOAD_MEAN_GAP,
    OVERLOAD_QUEUE_CAP, SERVE_QUEUE_CAP,
};
use crate::{alloc, host, stats};

/// Trace events kept per node: more than any one job of any workload emits,
/// so the link timelines are complete.
const RING_EVENTS_PER_NODE: usize = 1 << 18;
/// Chrome exports larger than this many events are skipped: the file would
/// be hundreds of megabytes.
const EXPORT_MAX_EVENTS: usize = 200_000;
const MB: f64 = 1024.0 * 1024.0;

/// What a traced pass produced.
pub struct TracedPass {
    pub values: Values,
    /// The base of every ratio among `values`, for the printed report.
    pub bases: Vec<(&'static str, String)>,
    pub spans: Vec<Span>,
    /// Chrome trace of the last traced job's link timelines, if any.
    pub chrome: Option<String>,
}

fn wall_ms_per_job(runs: &[JobRun]) -> Vec<f64> {
    runs.iter().map(|r| r.wall_s * 1e3 / r.jobs as f64).collect()
}

fn solved(run: &JobRun) -> Option<&Solved> {
    match &run.detail {
        Detail::Solve { solved, .. } => Some(solved),
        _ => None,
    }
}

/// Median wall seconds of `f` over the first `jobs` distinct jobs.
fn median_wall(session: &Session, jobs: usize, mut f: impl FnMut(usize) -> Solved) -> f64 {
    let samples: Vec<f64> = (0..jobs.min(session.distinct_jobs()))
        .map(|key| {
            let t0 = Instant::now();
            black_box(f(key));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

pub fn traced_pass(session: &mut Session) -> TracedPass {
    let workload = session.workload;
    let n = workload.traced_jobs();
    let mut v = Values::new();
    let mut bases = Vec::new();
    let mut rec = Recorder::new(true);

    // ---- traced jobs ------------------------------------------------------
    let ring = (workload.is_threaded() || workload == Workload::ServeLoad)
        .then(|| TraceRing::new(D, RING_EVENTS_PER_NODE));
    session.rewind();
    let mut traced = Vec::new();
    let mut links = Vec::new();
    let mut last_lanes: Option<TraceLanes> = None;
    for _ in 0..n {
        traced.push(session.run_next(Mode::Traced, &mut rec, ring.as_ref()));
        if let Some(ring) = &ring {
            let lanes = ring.drain();
            links.push(lanes.link_summary(D));
            last_lanes = Some(lanes);
        }
    }
    let jobs: u64 = traced.iter().map(|r| r.jobs).sum();
    let per_job = |total: f64| total / jobs as f64;

    // ---- a few of the same jobs with the allocator counting -----------------
    // Apart from the traced jobs, so the trace sink's buffers stay out of
    // the program's count.
    session.rewind();
    alloc::start();
    alloc::pause();
    let counted = session.run_jobs(Mode::Counted, n.min(4));
    let heap = alloc::stop();
    let counted_jobs = counted.iter().map(|r| r.jobs).sum::<u64>() as f64;
    v.insert("host.allocs_per_job", heap.allocs as f64 / counted_jobs);
    v.insert("host.alloc_mb_per_job", heap.bytes as f64 / MB / counted_jobs);
    v.insert("peak_alloc_mb", heap.peak_bytes as f64 / MB);

    // ---- the same jobs untraced: the base of the tracing overhead -----------
    session.rewind();
    let readings_before = session.readings_s.len();
    let cpu0 = host::cpu_seconds();
    let untraced = session.run_jobs(Mode::Timed, n);
    let cpu_s = host::cpu_seconds() - cpu0;
    let plain_ms = wall_ms_per_job(&untraced);
    let untraced_ms = stats::median(&plain_ms);
    v.insert("trace.overhead_ratio", stats::median(&wall_ms_per_job(&traced)) / untraced_ms);
    bases.push(("trace.overhead_ratio", format!("untraced {untraced_ms:.3} ms per job")));
    v.insert("host.cpu_ms_per_job", per_job(cpu_s * 1e3));
    // The raw readings of these plain jobs, on every CPU the process has:
    // the timed rounds' samples are taken on one.
    let sorted_ms = stats::sorted(&plain_ms);
    let plain_s: f64 = untraced.iter().map(|r| r.wall_s).sum();
    let plain_jobs: u64 = untraced.iter().map(|r| r.jobs).sum();
    v.insert("host.ref_loop_ms", stats::median(&session.readings_s[readings_before..]) * 1e3);
    v.insert("host.jobs_per_s", plain_jobs as f64 / plain_s.max(f64::MIN_POSITIVE));
    v.insert("host.job_wall_ms_p50", stats::percentile(&sorted_ms, 50.0));
    v.insert("host.job_wall_ms_p90", stats::percentile(&sorted_ms, 90.0));
    v.insert("host.job_wall_iqr_ratio", stats::iqr_ratio(&plain_ms));

    // ---- exact counts of the traced jobs ------------------------------------
    let vtimes: Vec<f64> = traced.iter().flat_map(|r| r.vtimes.iter().copied()).collect();
    let vtimes = stats::sorted(&vtimes);
    v.insert("job_vtime_p50", stats::percentile(&vtimes, 50.0));
    v.insert("job_vtime_p90", stats::percentile(&vtimes, 90.0));
    let traffic: Vec<&api::Traffic> = traced
        .iter()
        .filter_map(|r| match &r.detail {
            Detail::Solve { solved, .. } => Some(&solved.traffic),
            Detail::Serve(served) => Some(&served.traffic),
            Detail::Model(_) => None,
        })
        .collect();
    let messages: u64 = traffic.iter().map(|t| t.messages).sum();
    let data_elems: u64 = traffic.iter().map(|t| t.data_elems).sum();
    if messages > 0 {
        v.insert("runtime.messages_per_job", per_job(messages as f64));
        v.insert(
            "runtime.control_messages_per_job",
            per_job(traffic.iter().map(|t| t.control_messages).sum::<u64>() as f64),
        );
        v.insert("runtime.data_elems_per_job", per_job(data_elems as f64));
        let busiest_dim = (0..D)
            .map(|dim| traffic.iter().map(|t| t.volume_by_dim[dim]).sum::<u64>())
            .max()
            .unwrap_or(0);
        v.insert("runtime.dim_volume_share_max", busiest_dim as f64 / data_elems as f64);
    }
    if let Some(ring) = &ring {
        let mean = |f: fn(&api::LinkSummary) -> f64| links.iter().map(f).sum::<f64>() / n as f64;
        v.insert("runtime.link_occupancy_mean", mean(|l| l.occupancy_mean));
        v.insert("runtime.port_wait_vtime_share", mean(|l| l.port_wait_share));
        v.insert(
            "runtime.barriers_per_job",
            per_job(links.iter().map(|l| l.barriers).sum::<u64>() as f64),
        );
        v.insert("trace.events_per_job", per_job(ring.recorded() as f64));
    }
    let solves: Vec<&Solved> = traced.iter().filter_map(solved).collect();
    if !solves.is_empty() {
        let mean =
            |f: fn(&Solved) -> u64| solves.iter().map(|s| f(s)).sum::<u64>() as f64 / n as f64;
        v.insert("eigen.sweeps_per_job", mean(|s| s.sweeps));
        v.insert("eigen.rotations_per_job", mean(|s| s.rotations));
        let accuracy = traced.iter().filter_map(|r| match &r.detail {
            Detail::Solve { accuracy, .. } => *accuracy,
            _ => None,
        });
        let (residual, orthogonality) = accuracy
            .fold((0.0f64, 0.0f64), |(r, o), a| (r.max(a.residual), o.max(a.orthogonality)));
        v.insert("eigen.residual_max", residual);
        v.insert("eigen.orthogonality_max", orthogonality);
    }

    // ---- the runtime trace export -------------------------------------------
    let chrome = last_lanes.filter(|lanes| lanes.events() <= EXPORT_MAX_EVENTS).and_then(|lanes| {
        let t0 = Instant::now();
        let json = rec.span("trace.export", |_| lanes.chrome_json());
        v.insert("trace.export_ms", t0.elapsed().as_secs_f64() * 1e3);
        match json {
            Ok(json) => {
                v.insert("trace.export_bytes", json.len() as f64);
                Some(json)
            }
            Err(why) => {
                session.failed += 1;
                session
                    .failures
                    .push(format!("{}: malformed trace export: {why}", workload.name()));
                None
            }
        }
    });

    // ---- probes ---------------------------------------------------------------
    match workload {
        Workload::LogicalSolve | Workload::LogicalPool => {
            kernel_probes(session, &untraced, &mut rec, &mut v);
            if workload == Workload::LogicalPool {
                kernel_ab(session, &mut rec, &mut v, &mut bases);
            }
        }
        Workload::ThreadedBlocks | Workload::ThreadedPackets => {
            let threaded_s = untraced_ms / 1e3;
            threaded_probes(session, threaded_s, &mut rec, &mut v, &mut bases);
            if workload == Workload::ThreadedPackets {
                packet_probes(session, &untraced, &mut rec, &mut v, &mut bases);
            }
        }
        Workload::ServeLoad => serve_probes(session, &traced, &mut rec, &mut v, &mut bases),
        Workload::ModelSweep => model_probes(&traced, rec.spans(), &mut v),
    }

    for (layer, seconds) in layer_self_times(rec.spans()) {
        if let Some(def) = lookup(&format!("{layer}.self_ms")) {
            v.insert(def.name, seconds * 1e3);
        }
    }
    TracedPass { values: v, bases, spans: rec.spans().to_vec(), chrome }
}

/// The rotation kernel alone, and the logical solve's time per rotation.
fn kernel_probes(session: &Session, untraced: &[JobRun], rec: &mut Recorder, v: &mut Values) {
    let opts = session.solve_options().expect("a solve workload");
    let m = session.m() as f64;
    let wall_s: f64 = untraced.iter().map(|r| r.wall_s).sum();
    let rotations: u64 = untraced.iter().filter_map(solved).map(|s| s.rotations).sum();
    v.insert("eigen.kernel_ns_per_rotation", wall_s * 1e9 / rotations as f64);
    // Computed, not counted: a rotation updates two column pairs of length m
    // (6 flops per element pair) after three inner products of length m, or
    // one when the diagonals are cached.
    let flops_per_rotation = 12.0 * m + if opts.cache_diagonals { 2.0 * m } else { 6.0 * m };
    v.insert("eigen.kernel_gflops_computed", rotations as f64 * flops_per_rotation / wall_s / 1e9);

    const LEN: usize = 512;
    const CALLS: usize = 4000;
    for (name, path) in [
        ("linalg.rotate_ns_per_elem_scalar", KernelPath::Scalar),
        ("linalg.rotate_ns_per_elem_lanes", KernelPath::Lanes),
    ] {
        let mut cols: Vec<Vec<f64>> =
            (0..4).map(|c| (0..LEN).map(|i| ((i * 7 + c) % 13) as f64 - 6.0).collect()).collect();
        let (c, s) = (0.8, 0.6);
        let batches: Vec<f64> = rec.span("linalg.rotate", |_| {
            (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..CALLS {
                        let [ai, aj, ui, uj] = &mut cols[..] else { unreachable!("four columns") };
                        api::pair_rotate(path, ai, aj, ui, uj, c, s);
                    }
                    black_box(&cols);
                    t0.elapsed().as_secs_f64()
                })
                .collect()
        });
        v.insert(name, stats::median(&batches) * 1e9 / (CALLS * 4 * LEN) as f64);
    }
}

/// A/B over the kernel options of `logical_pool`, one option at a time.
fn kernel_ab(
    session: &Session,
    rec: &mut Recorder,
    v: &mut Values,
    bases: &mut Vec<(&'static str, String)>,
) {
    let plain = JacobiOptions::default();
    let lanes = JacobiOptions { kernel: KernelPath::Lanes, ..plain.clone() };
    let cached = JacobiOptions { cache_diagonals: true, ..lanes.clone() };
    let pool = |workers| JacobiOptions { workers, ..cached.clone() };
    let mut wall = |opts: &JacobiOptions| {
        rec.span("eigen.ab", |_| {
            median_wall(session, 4, |key| {
                let (a, family) = session.solve_job(key).expect("a solve workload");
                api::solve_logical(a, D, family, opts)
            })
        })
    };
    let (plain_s, lanes_s, cached_s) = (wall(&plain), wall(&lanes), wall(&cached));
    let (w1_s, w2_s) = (wall(&pool(1)), wall(&pool(2)));
    v.insert("eigen.lanes_speedup", plain_s / lanes_s);
    bases.push(("eigen.lanes_speedup", format!("scalar kernel {:.1} ms", plain_s * 1e3)));
    v.insert("eigen.cache_speedup", lanes_s / cached_s);
    bases.push(("eigen.cache_speedup", format!("lanes, no cache {:.1} ms", lanes_s * 1e3)));
    v.insert("eigen.pool_speedup_w2", w1_s / w2_s);
    bases.push((
        "eigen.pool_speedup_w2",
        format!("lanes + cache, workers 1 {:.1} ms, on {} cores", w1_s * 1e3, host::cores()),
    ));
}

/// Where a threaded solve's wall time goes besides the kernel, and whether
/// the plan, the price and the fabric agree about it.
fn threaded_probes(
    session: &mut Session,
    threaded_s: f64,
    rec: &mut Recorder,
    v: &mut Values,
    bases: &mut Vec<(&'static str, String)>,
) {
    let opts = session.solve_options().expect("a solve workload").clone();
    let m = session.m();
    let machine = session.machine;
    let job = |key| session.solve_job(key).expect("a solve workload");

    let (ts, tw) = rec.span("runtime.calibrate", |_| api::calibrate_channel(D));
    v.insert("runtime.channel_ts_us", ts * 1e6);
    v.insert("runtime.channel_tw_ns_per_elem", tw * 1e9);
    let per_node = |name: &str| v.get(name).copied().unwrap_or(0.0) / NODES as f64;
    let cost_s =
        per_node("runtime.messages_per_job") * ts + per_node("runtime.data_elems_per_job") * tw;
    v.insert("runtime.channel_cost_ms_computed", cost_s * 1e3);

    // The kernel's share: the logical solver at the threaded sweep count.
    let sweeps = v.get("eigen.sweeps_per_job").copied().unwrap_or(0.0).round() as usize;
    let forced = JacobiOptions { force_sweeps: Some(sweeps), ..JacobiOptions::default() };
    let kernel_s = rec.span("eigen.kernel_share", |_| {
        median_wall(session, 2, |key| api::solve_logical(job(key).0, D, job(key).1, &forced))
    });
    let parallel = NODES.min(host::cores()) as f64;
    v.insert("eigen.parallel_efficiency", kernel_s / (parallel * threaded_s));
    v.insert("eigen.driver_overhead_ms", (threaded_s - kernel_s / parallel) * 1e3);
    let base = format!(
        "logical {:.1} ms at {sweeps} sweeps, {NODES} nodes on {} cores{}",
        kernel_s * 1e3,
        host::cores(),
        if NODES > host::cores() { " (oversubscribed)" } else { "" },
    );
    bases.push(("eigen.parallel_efficiency", base.clone()));
    bases.push(("eigen.driver_overhead_ms", base));

    // What the virtual clock's bookkeeping costs per message: paired runs.
    let free = JacobiOptions { fabric: FabricModel::Free, ..opts.clone() };
    let (mut throttled_s, mut free_s, mut messages) = (0.0, 0.0, 0u64);
    rec.span("runtime.fabric_clock", |_| {
        for key in 0..4 {
            let (a, family) = job(key);
            let t0 = Instant::now();
            messages += api::solve_threaded(a, D, family, &opts).traffic.messages;
            throttled_s += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            black_box(api::solve_threaded(a, D, family, &free));
            free_s += t0.elapsed().as_secs_f64();
        }
    });
    v.insert("runtime.fabric_clock_ns_per_msg", (throttled_s - free_s) * 1e9 / messages as f64);

    // One forced sweep per family: plan, price and fabric must agree.
    let one_sweep = JacobiOptions { force_sweeps: Some(1), ..opts.clone() };
    let two_sweeps = JacobiOptions { force_sweeps: Some(2), ..opts.clone() };
    let logical_two = JacobiOptions { force_sweeps: Some(2), ..JacobiOptions::default() };
    let (mut volume_mismatches, mut bit_mismatches, mut error) = (0u64, 0u64, 0.0f64);
    rec.span("eigen.conformance", |_| {
        for key in 0..4 {
            let (a, family) = job(key);
            let run = api::solve_threaded(a, D, family, &one_sweep);
            let planned = api::planned_volume_by_dim(m, D, family, 1);
            volume_mismatches +=
                planned.iter().zip(&run.traffic.volume_by_dim).filter(|(p, t)| p != t).count()
                    as u64;
            let predicted = api::predicted_vtime(m, D, family, &one_sweep, &machine, 1);
            error = error.max((predicted / run.vtime - 1.0).abs());
            let threaded = api::solve_threaded(a, D, family, &two_sweeps);
            let logical = api::solve_logical(a, D, family, &logical_two);
            bit_mismatches += u64::from(!threaded.same_bits(&logical));
        }
    });
    v.insert("core.plan_vs_meter_mismatch", volume_mismatches as f64);
    v.insert("ccpipe.vtime_prediction_error", error);
    v.insert("eigen.bitwise_mismatches", bit_mismatches as f64);
    if volume_mismatches + bit_mismatches > 0 {
        session.failed += volume_mismatches + bit_mismatches;
        session.failures.push(format!(
            "{}: {volume_mismatches} plan/meter and {bit_mismatches} bitwise mismatches",
            session.workload.name()
        ));
    }
}

/// What packets cost that whole blocks do not.
fn packet_probes(
    session: &Session,
    untraced: &[JobRun],
    rec: &mut Recorder,
    v: &mut Values,
    bases: &mut Vec<(&'static str, String)>,
) {
    let m = session.m();
    let machine = session.machine;
    let job = |key| session.solve_job(key).expect("a solve workload");

    // The deepest packetization Auto picks, on a 16-column block.
    let q = api::auto_packet_counts(m, D, api::Family::PermutedBr, &machine)
        .into_iter()
        .max()
        .unwrap_or(1);
    let block = api::column_block(job(0).0, 0..16.min(m));
    let elems = api::payload_elems(&block);
    const TRIPS: usize = 2000;
    let t0 = Instant::now();
    let block = rec.span("linalg.packetize", |_| {
        (0..TRIPS).fold(block, |b, _| api::packetize_round_trip(b, q))
    });
    let seconds = t0.elapsed().as_secs_f64();
    black_box(block);
    v.insert("linalg.packetize_ns_per_elem", seconds * 1e9 / (TRIPS * elems) as f64);
    bases.push(("linalg.packetize_ns_per_elem", format!("Q = {q}, {elems} elements per block")));

    // The same jobs with whole-block messages: the base of both ratios.
    let blocks_opts =
        JacobiOptions { fabric: FabricModel::Throttled(machine), ..JacobiOptions::default() };
    let (mut blocks_ms, mut blocks_vtime) = (Vec::new(), 0.0);
    rec.span("eigen.blocks_base", |_| {
        for key in 0..untraced.len() {
            let (a, family) = job(key);
            let t0 = Instant::now();
            let run = api::solve_threaded(a, D, family, &blocks_opts);
            blocks_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            blocks_vtime += run.vtime;
        }
    });
    let blocks_ms = stats::median(&blocks_ms);
    let packets_vtime: f64 = untraced.iter().flat_map(|r| &r.vtimes).sum();
    v.insert("eigen.pipelining_wall_ratio", stats::median(&wall_ms_per_job(untraced)) / blocks_ms);
    bases.push(("eigen.pipelining_wall_ratio", format!("whole blocks {blocks_ms:.1} ms per job")));
    v.insert("eigen.pipelining_vtime_ratio", packets_vtime / blocks_vtime);
    bases.push((
        "eigen.pipelining_vtime_ratio",
        format!("whole blocks {:.0} vtime per job", blocks_vtime / untraced.len() as f64),
    ));
}

/// The service's tail, its headroom, and the batch layer under it.
fn serve_probes(
    session: &mut Session,
    traced: &[JobRun],
    rec: &mut Recorder,
    v: &mut Values,
    bases: &mut Vec<(&'static str, String)>,
) {
    let machine = session.machine;
    let Some(Detail::Serve(served)) = traced.first().map(|r| &r.detail) else {
        unreachable!("serve_load runs replays")
    };
    let per_mvtime = |s: &api::Served| s.served as f64 * 1e6 / s.makespan;
    v.insert(
        "serve.queue_wait_vtime_p90",
        stats::percentile(&stats::sorted(&served.queue_waits), 90.0),
    );
    v.insert("serve.latency_vtime_p99", stats::percentile(&stats::sorted(&served.latencies), 99.0));
    v.insert("serve.peak_queue_depth", served.peak_queue_depth as f64);
    v.insert("serve.jobs_per_mvtime", per_mvtime(served));
    v.insert("serve.utilisation", served.busy_share);
    let mismatches = session.serve_bitwise_mismatches(served);
    v.insert("eigen.bitwise_mismatches", mismatches as f64);

    let scenario = session.scenario().expect("serve inputs");
    let n = api::scenario_len(scenario);
    // Saturation: every job is there at time 0 and none is shed.
    let all_at_once = api::with_arrivals(scenario, vec![0.0; n]);
    let saturated = rec.span("serve.serve", |_| {
        api::serve_replay(D, &all_at_once, &machine, n, api::SinkHandle::nop())
    });
    v.insert("serve.capacity_jobs_per_mvtime", per_mvtime(&saturated));
    bases.push((
        "serve.jobs_per_mvtime",
        format!("capacity {:.4} jobs/Mvtime with all {n} jobs queued at 0", per_mvtime(&saturated)),
    ));
    // Overload: the same jobs arriving faster than they can be served.
    let overload = serve_scenario(session.seed, session.scale, OVERLOAD_MEAN_GAP);
    let flooded = rec.span("serve.serve", |_| {
        api::serve_replay(D, &overload, &machine, OVERLOAD_QUEUE_CAP, api::SinkHandle::nop())
    });
    v.insert("serve.overload_shed_share", flooded.rejected as f64 / n as f64);
    v.insert(
        "serve.overload_latency_vtime_p90",
        stats::percentile(&stats::sorted(&flooded.latencies), 90.0),
    );
    bases.push((
        "serve.overload_shed_share",
        format!(
            "{} of {n} shed at a mean gap of {OVERLOAD_MEAN_GAP} vtime, queue of {OVERLOAD_QUEUE_CAP}",
            flooded.rejected
        ),
    ));

    let t0 = Instant::now();
    let planned =
        rec.span("batch.plan", |_| api::plan_service(D, scenario, &machine, SERVE_QUEUE_CAP));
    v.insert("batch.service_plan_ms", t0.elapsed().as_secs_f64() * 1e3);
    assert_eq!(planned, n, "the admission plan covers every job");

    // Four mixed jobs on one fabric, back to back and interleaved.
    let m = if session.scale.serve_halved { 64 } else { 128 };
    let one_sweep = JacobiOptions { force_sweeps: Some(1), ..JacobiOptions::default() };
    let mix: Vec<api::Job> = api::FAMILIES
        .iter()
        .enumerate()
        .map(|(i, &family)| {
            let a = api::random_symmetric(m, session.seed + 100 + i as u64);
            if family == api::Family::PermutedBr {
                api::svd_job(a, family, one_sweep.clone())
            } else {
                api::eigen_job(a, family, one_sweep.clone())
            }
        })
        .collect();
    let fifo = rec.span("batch.solve", |_| api::batch_makespan(D, &mix, &machine, false));
    let t0 = Instant::now();
    let interleaved = rec.span("batch.solve", |_| api::batch_makespan(D, &mix, &machine, true));
    v.insert("batch.wall_ms_per_job", t0.elapsed().as_secs_f64() * 1e3 / mix.len() as f64);
    v.insert("batch.interleave_gain_vtime", fifo / interleaved);
    bases.push(("batch.interleave_gain_vtime", format!("FIFO makespan {fifo:.0} vtime")));
}

/// The pricing stack's per-call costs, from the spans of the traced grids.
fn model_probes(traced: &[JobRun], spans: &[Span], v: &mut Values) {
    let cells: Vec<_> = traced
        .iter()
        .filter_map(|r| match &r.detail {
            Detail::Model(cells) => Some(cells),
            _ => None,
        })
        .flatten()
        .collect();
    let messages: u64 = cells.iter().map(|c| c.replayed.messages).sum();
    let total = |name: &str| {
        let (mut seconds, mut calls) = (0.0, 0usize);
        for span in spans.iter().filter(|s| s.name == name) {
            seconds += span.duration();
            calls += 1;
        }
        (seconds, calls.max(1) as f64)
    };
    let (lower_s, lower_calls) = total("core.lower");
    let (price_s, price_calls) = total("ccpipe.price");
    let (replay_s, _) = total("simnet.replay");
    v.insert("core.lower_us_per_plan", lower_s * 1e6 / lower_calls);
    v.insert("ccpipe.price_us_per_plan", price_s * 1e6 / price_calls);
    v.insert("simnet.replay_ns_per_message", replay_s * 1e9 / messages.max(1) as f64);
    v.insert("simnet.messages_per_job", messages as f64 / traced.len() as f64);
    v.insert("simnet.model_gap_max", cells.iter().map(|c| c.gap()).fold(0.0, f64::max));
}
