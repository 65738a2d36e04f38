//! The **virtual-clock tables** README links: one fixed geometry (m = 256
//! on a d = 3 cube, permuted-BR, the `Ts = 1000`, `Tw = 100` machine) run
//! through the real threaded solver on the throttled fabric —
//!
//! * `fabric`: unpipelined vs `Auto`-pipelined, per port model, measured
//!   next to the schedule clock's prediction (`executed_cost`);
//! * `tail`: the chained division/last tail off vs on, at m = 256 / 1024;
//! * `batch`: four mixed jobs per policy × port model;
//! * `degraded`: three seeded impairment classes, reactive vs oracle.
//!
//! Every number is a virtual time, a count or a bit comparison, so the
//! output is a pure function of the commit, and it is tracked: the full
//! size (m = 256, d = 3, text and CSVs) in `paper/vclock_tables/`, the
//! `--smoke` size (m = 64, d = 2, text only) in `paper/vclock_tables_smoke/`.
//! The contracts behind the rows (measured == predicted, port ordering,
//! bitwise equality, reactive/oracle ≤ 1.25) are their own tier-1 tests,
//! and nothing here reads a wall clock: host time belongs to the
//! repository benchmark (`BENCHMARK.json`).

use crate::Report;
use mph_batch::{solve_batch, BatchOptions, Job, JobResult, Policy};
use mph_ccpipe::{
    executed_cost, plan_sweep_cost, plan_tail_pipelining, plan_unpipelined_cost, BatchOrder,
    Machine, PlannedJob, PortModel, SweepCost,
};
use mph_core::{CommPlan, OrderingFamily};
use mph_eigen::{
    block_jacobi, block_jacobi_threaded, choose_qs, lower_sweeps, packetization_cap, svd_block,
    Adaptation, EigenResult, FabricModel, JacobiOptions, Pipelining, ThreadedRun,
};
use mph_linalg::symmetric::random_symmetric;
use mph_runtime::{LinkDeath, Scenario, ScenarioSpec};
use std::sync::Arc;

const SEED: u64 = 424242;
const FAMILY: OrderingFamily = OrderingFamily::PermutedBr;
const PORTS: [(&str, PortModel); 2] =
    [("one_port", PortModel::OnePort), ("all_port", PortModel::AllPort)];

fn machine(ports: PortModel) -> Machine {
    Machine { ts: 1000.0, tw: 100.0, ports }
}

/// One forced sweep of `plan` run solo at the degrees `qs` / `tail_q`:
/// its price on the paper's stage model and the schedule clock's virtual
/// time — what the throttled fabric measures, to rounding.
fn solo_sweep(plan: &CommPlan, qs: &[usize], tail_q: usize, machine: &Machine) -> (SweepCost, f64) {
    let qs = [qs.to_vec()];
    let job = PlannedJob { plans: std::slice::from_ref(plan), qs: &qs, tail_q };
    let vtime = executed_cost(&[job], machine, &BatchOrder::Serial(vec![0])).makespan;
    (job.sweep_prices(machine).remove(0), vtime)
}

fn same_eigen(a: &EigenResult, b: &EigenResult) -> bool {
    a.rotations == b.rotations && a.eigenvalues == b.eigenvalues && a.eigenvectors == b.eigenvectors
}

fn same_job(a: &JobResult, b: &JobResult) -> bool {
    match (a, b) {
        (JobResult::Eigen(a), JobResult::Eigen(b)) => same_eigen(a, b),
        (JobResult::Svd(a), JobResult::Svd(b)) => {
            a.singular_values == b.singular_values && a.u == b.u && a.v == b.v
        }
        _ => false,
    }
}

/// The four tables at full size, or at the smoke size with `--smoke`.
pub fn vclock_tables(args: &[String]) -> Report {
    let smoke = args.iter().any(|a| a == "--smoke");
    let (m, d) = if smoke { (64, 2) } else { (256, 3) };
    let a = random_symmetric(m, SEED);
    let mut r = Report::default();

    r.banner(&format!("vclock_tables (m={m}, d={d}, smoke={smoke})"));

    // --- Throttled fabric: measured vs predicted, per port model --------
    // One forced sweep, whole blocks against the `Q` per phase `Auto`
    // picks for each port model. One-port gains nothing (and the runtime
    // proves it), all-port gains what the dataflow pipeline executes; the
    // paper's stage-model figure `Auto` optimized is printed beside them.
    let plan = &lower_sweeps(m, d, FAMILY, false, 1)[0];
    let q_cap = packetization_cap(m, d);
    let mut rows = Vec::new();
    for (name, ports) in PORTS {
        let fmachine = machine(ports);
        let base = JacobiOptions {
            force_sweeps: Some(1),
            fabric: FabricModel::Throttled(fmachine),
            ..Default::default()
        };
        let auto = JacobiOptions { pipelining: Pipelining::Auto(fmachine), ..base.clone() };
        let ones = choose_qs(plan, &base.pipelining, q_cap);
        let qs = choose_qs(plan, &auto.pipelining, q_cap);
        let ThreadedRun { meter: mu, fabric: ru, .. } = block_jacobi_threaded(&a, d, FAMILY, &base);
        let ThreadedRun { meter: mp, fabric: rp, .. } = block_jacobi_threaded(&a, d, FAMILY, &auto);
        let measured = ru.makespan / rp.makespan;
        let predicted =
            solo_sweep(plan, &ones, 1, &fmachine).1 / solo_sweep(plan, &qs, 1, &fmachine).1;
        let ratio = measured / predicted;
        let (u, p) = (ru.makespan, rp.makespan);
        let (msgs, elems) =
            ((mu.total_messages(), mp.total_messages()), (mu.total_volume(), mp.total_volume()));
        say!(
            r,
            "  fabric {name:<9}: unpipelined {u:>12.0} | pipelined {p:>12.0} vtime | \
             {measured:.3}x measured vs {predicted:.3}x predicted ({ratio:.3}) | q {qs:?} | \
             messages {} -> {} | elems {} -> {}",
            msgs.0,
            msgs.1,
            elems.0,
            elems.1
        );
        let q_cell = qs.iter().map(|q| q.to_string()).collect::<Vec<_>>().join(" ");
        rows.push(format!(
            "{name},{q_cell},{u:.3},{p:.3},{measured:.4},{predicted:.4},{},{},{},{}",
            msgs.0, msgs.1, elems.0, elems.1
        ));
    }
    let figure2 = Machine::paper_figure2();
    let stage_ratio =
        plan_sweep_cost(plan, &figure2, q_cap as f64).total / plan_unpipelined_cost(plan, &figure2);
    say!(
        r,
        "  fabric paper model: pipelined/unpipelined communication {stage_ratio:.4} \
         ({:.3}x, barrier-synchronized stages)",
        1.0 / stage_ratio
    );
    r.csv(
        "vclock_fabric.csv",
        "ports,q_per_phase,unpipelined_vtime,pipelined_vtime,measured_speedup,predicted_speedup,\
         unpipelined_messages,pipelined_messages,unpipelined_elems,pipelined_elems",
        &rows,
    );

    // --- Tail pipelining: the serial division/last chain, packetized ----
    // Exchange phases stay unpipelined; only the tail degree changes. The
    // share columns are the tail's part of the plan price before and
    // after chaining.
    let tail_machine = machine(PortModel::AllPort);
    let tail_sizes: &[usize] = if smoke { &[64] } else { &[256, 1024] };
    let mut rows = Vec::new();
    for &tm in tail_sizes {
        let ta = if tm == m { a.clone() } else { random_symmetric(tm, SEED + tm as u64) };
        let tplan = &lower_sweeps(tm, d, FAMILY, false, 1)[0];
        let tcap = packetization_cap(tm, d);
        let tq = plan_tail_pipelining(tplan, &tail_machine, tcap as f64);
        let ones = choose_qs(tplan, &Pipelining::Off, tcap);
        let (before, unchained) = solo_sweep(tplan, &ones, 1, &tail_machine);
        let (after, chained) = solo_sweep(tplan, &ones, tq, &tail_machine);
        let (share_before, share_after) =
            (before.serial / before.total, after.serial / after.total);
        let predicted = unchained / chained;
        let off = JacobiOptions {
            force_sweeps: Some(1),
            fabric: FabricModel::Throttled(tail_machine),
            ..Default::default()
        };
        let on = JacobiOptions { tail_pipelining: Pipelining::Auto(tail_machine), ..off.clone() };
        let ThreadedRun { result: r_off, fabric: f_off, .. } =
            block_jacobi_threaded(&ta, d, FAMILY, &off);
        let ThreadedRun { result: r_on, fabric: f_on, .. } =
            block_jacobi_threaded(&ta, d, FAMILY, &on);
        let measured = f_off.makespan / f_on.makespan;
        let ratio = measured / predicted;
        let bitwise = same_eigen(&r_off, &r_on);
        let (off, on) = (f_off.makespan, f_on.makespan);
        say!(
            r,
            "  tail m={tm:<5}: share {share_before:.3} -> {share_after:.3} (Q={tq}) | \
             off {off:>12.0} | on {on:>12.0} vtime | {measured:.3}x measured vs {predicted:.3}x \
             predicted ({ratio:.3}) | bitwise {bitwise}"
        );
        rows.push(format!(
            "{tm},{tq},{share_before:.4},{share_after:.4},{off:.3},{on:.3},{measured:.4},\
             {predicted:.4},{bitwise}"
        ));
    }
    r.csv(
        "vclock_tail.csv",
        "m,tail_q,tail_share_before,tail_share_after,tail_off_vtime,tail_on_vtime,\
         measured_speedup,predicted_speedup,bitwise_identical",
        &rows,
    );

    // --- Batch scheduler: four jobs on one fabric, per policy + port ----
    // Three eigensolves and one SVD, distinct families so their link
    // sequences partially diverge, one forced sweep each, unpipelined.
    // `predicted` is the interleaved schedule run on the schedule clock;
    // `bitwise` holds every batched result, under every policy and port
    // model, against its solo logical run.
    let bopts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
    let eigen = |k: u64, family| Job::Eigen {
        a: random_symmetric(m, SEED + k),
        family,
        opts: bopts.clone(),
    };
    let jobs = vec![
        eigen(1, OrderingFamily::Br),
        eigen(2, OrderingFamily::Degree4),
        Job::Svd { a: random_symmetric(m, SEED + 3), family: FAMILY, opts: bopts.clone() },
        eigen(4, OrderingFamily::MinAlpha),
    ];
    let solo: Vec<JobResult> = jobs
        .iter()
        .map(|job| match job {
            Job::Eigen { a, family, opts } => JobResult::Eigen(block_jacobi(a, d, *family, opts)),
            Job::Svd { a, family, opts } => JobResult::Svd(svd_block(a, d, *family, opts)),
        })
        .collect();
    let mut rows = Vec::new();
    let mut bitwise = true;
    for (name, ports) in PORTS {
        let fabric = FabricModel::Throttled(machine(ports));
        let run = |policy: Policy| {
            let opts = BatchOptions { fabric: fabric.clone(), policy, ..Default::default() };
            solve_batch(d, &jobs, &opts)
        };
        let fifo = run(Policy::Fifo);
        let inter = run(Policy::Interleave { stride: 1 });
        let spf = run(Policy::ShortestPlanFirst);
        for report in [&fifo, &inter, &spf] {
            bitwise &= solo.iter().zip(&report.results).all(|(s, r)| same_job(s, r));
        }
        let gain = fifo.makespan / inter.makespan;
        let ratio = inter.makespan / inter.cost.predicted;
        let (f, i, s) = (fifo.makespan, inter.makespan, spf.makespan);
        let (tail, f_finish, s_finish) = (inter.cost.tail, fifo.mean_finish(), spf.mean_finish());
        say!(
            r,
            "  batch {name:<9}: fifo {f:>13.0} | interleave {i:>13.0} | spf {s:>13.0} vtime | \
             {gain:.3}x interleave gain | measured/predicted {ratio:.3} | \
             serial tail {tail:.0} | mean finish fifo {f_finish:.0} spf {s_finish:.0}"
        );
        rows.push(format!(
            "{name},{f:.3},{i:.3},{s:.3},{gain:.4},{:.3},{tail:.3},{f_finish:.3},{s_finish:.3}",
            inter.cost.predicted
        ));
    }
    say!(r, "  batch bitwise    : every batched job == its solo run: {bitwise}");
    r.csv(
        "vclock_batch.csv",
        "ports,fifo_vtime,interleave_vtime,spf_vtime,interleave_gain_vs_fifo,\
         predicted_interleave_vtime,serial_tail_vtime,fifo_mean_finish,spf_mean_finish",
        &rows,
    );

    // --- Degraded fabric: adaptive solver vs scenario oracle ------------
    // Static heterogeneity, Gilbert–Elliott episodes, and a scheduled link
    // death relayed around — each solved on the clean throttled fabric,
    // reactively (mid-run window calibration + re-pricing), and against
    // the oracle that re-prices on the scenario's known worst-alive
    // machine.
    let dg_machine = machine(PortModel::AllPort);
    let sweeps = 3usize;
    let dg_base = JacobiOptions {
        force_sweeps: Some(sweeps),
        fabric: FabricModel::Throttled(dg_machine),
        ..Default::default()
    };
    let ThreadedRun { result: clean, fabric: clean_fab, .. } =
        block_jacobi_threaded(&a, d, FAMILY, &dg_base);
    let spec =
        |k: u64| ScenarioSpec { epochs: sweeps + 1, ..ScenarioSpec::clean(SEED + k, dg_machine) };
    let classes = [
        ("hetero", ScenarioSpec { hetero_spread: 3.0, ..spec(0) }),
        (
            "episodes",
            ScenarioSpec {
                hetero_spread: 0.5,
                episode_rate: 0.4,
                episode_recovery: 0.4,
                episode_severity: 6.0,
                ..spec(1)
            },
        ),
        (
            "death",
            ScenarioSpec {
                hetero_spread: 0.5,
                deaths: vec![LinkDeath { node: 0, dim: 0, epoch: 1 }],
                ..spec(2)
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, spec) in classes {
        let scenario = Arc::new(Scenario::new(d, spec).expect("the three classes are valid"));
        let run = |adaptation: Adaptation| {
            let opts = JacobiOptions {
                fabric: FabricModel::Degraded(scenario.clone()),
                adaptation,
                ..dg_base.clone()
            };
            block_jacobi_threaded(&a, d, FAMILY, &opts)
        };
        let ThreadedRun { result: r_adaptive, fabric: f_adaptive, adaptive: rep, .. } =
            run(Adaptation::Reactive);
        let f_oracle = run(Adaptation::Oracle).fabric;
        let over_oracle = f_adaptive.makespan / f_oracle.makespan;
        let bitwise = same_eigen(&r_adaptive, &clean);
        let (vc, va, vo) = (clean_fab.makespan, f_adaptive.makespan, f_oracle.makespan);
        let (recal, reroutes, rerouted) = (rep.recalibrations, rep.reroutes, rep.rerouted_elems);
        say!(
            r,
            "  degraded {name:<9}: clean {vc:>12.0} | adaptive {va:>12.0} | oracle {vo:>12.0} \
             vtime | adaptive/oracle {over_oracle:.4} | recal {recal} | reroutes {reroutes} | \
             rerouted {rerouted} elems | bitwise {bitwise}"
        );
        rows.push(format!(
            "{name},{vc:.3},{va:.3},{vo:.3},{over_oracle:.4},{recal},{reroutes},{rerouted},\
             {bitwise}"
        ));
    }
    r.csv(
        "vclock_degraded.csv",
        "class,clean_vtime,adaptive_vtime,oracle_vtime,adaptive_over_oracle,recalibrations,\
         reroutes,rerouted_elems,bitwise_identical",
        &rows,
    );
    if smoke {
        // The smoke size prints only.
        r.files.clear();
    }
    r
}
