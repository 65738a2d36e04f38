//! Pipelined distributed eigensolve: the cost model schedules per-phase
//! packet counts for the threaded multicomputer, the solver executes them,
//! and the result is bitwise-identical to the unpipelined run — packets
//! reframe the messages, not the mathematics.
//!
//! The run closes the loop in both directions between model and machine:
//! the *throttled* link fabric enforces the paper's `Ts`/`Tw`/port machine
//! on the live solver (the schedule clock predicts its virtual-clock
//! speedup exactly; the paper's stage model, which chose the packet
//! counts, bounds it from below), and wall-clock *calibration* measures
//! the channel transport's own `Ts`/`Tw` (so `Pipelining::Auto` can
//! optimize for the machine it actually runs on — picking far shallower
//! pipelines for the pointer-shipping channels than for the paper's
//! Figure-2 hardware).
//!
//! ```sh
//! cargo run --release --example eigensolve_pipelined
//! ```

use mph::ccpipe::{
    executed_cost, plan_cost_with_tail, plan_pipelining, plan_sweep_cost, plan_unpipelined_cost,
    BatchOrder, Machine, PlannedJob,
};
use mph::core::OrderingFamily;
use mph::eigen::{
    block_jacobi_threaded, choose_qs, lower_sweeps, packetization_cap, FabricModel, JacobiOptions,
    Pipelining, ThreadedRun,
};
use mph::linalg::matmul::eigen_residual;
use mph::linalg::symmetric::random_symmetric;
use mph::runtime::calibrate_channel_machine;

fn main() {
    let m = 64usize;
    let d = 3usize;
    let family = OrderingFamily::PermutedBr;
    let machine = Machine::paper_figure2();
    let a = random_symmetric(m, 7);

    println!("pipelined eigensolve of a {m}×{m} problem on a {d}-cube ({})\n", family.name());

    // The plan the cost model prices is the plan the solver executes —
    // both come from the solver's own lowering helpers.
    let plan = &lower_sweeps(m, d, family, false, 1)[0];
    let q_cap = packetization_cap(m, d) as f64;
    println!("per-phase pipelining degrees chosen by the cost model:");
    for choice in plan_pipelining(plan, &machine, q_cap) {
        println!(
            "  exchange phase e={}: Q = {:<3} ({:?}, predicted phase cost {:.0})",
            choice.e, choice.opt.q, choice.opt.mode, choice.opt.cost
        );
    }
    let ratio =
        plan_sweep_cost(plan, &machine, q_cap).total / plan_unpipelined_cost(plan, &machine);
    println!(
        "predicted sweep communication: {:.2}x of unpipelined ({:.2}x speedup)\n",
        ratio,
        1.0 / ratio
    );

    // Execute both ways and compare everything.
    let base = JacobiOptions::default();
    let auto = JacobiOptions { pipelining: Pipelining::Auto(machine), ..base.clone() };
    let t0 = std::time::Instant::now();
    let ThreadedRun { result: r0, meter: meter0, .. } = block_jacobi_threaded(&a, d, family, &base);
    let t_unpiped = t0.elapsed();
    let t0 = std::time::Instant::now();
    let ThreadedRun { result: r1, meter: meter1, .. } = block_jacobi_threaded(&a, d, family, &auto);
    let t_piped = t0.elapsed();

    println!("unpipelined: {} sweeps in {t_unpiped:.1?}", r0.sweeps);
    println!("pipelined:   {} sweeps in {t_piped:.1?}", r1.sweeps);
    println!(
        "residual ‖AU − UΛ‖_F = {:.3e}",
        eigen_residual(&a, &r1.eigenvectors, &r1.eigenvalues)
    );

    let identical =
        r0.eigenvalues.iter().zip(&r1.eigenvalues).all(|(x, y)| x.to_bits() == y.to_bits());
    println!("eigensystems bitwise identical: {identical}");
    assert!(identical, "pipelining must not change one bit of the result");

    println!("\ntraffic (data plane / control plane):");
    for (name, meter) in [("unpipelined", &meter0), ("pipelined", &meter1)] {
        println!(
            "  {name:<12} {:>8} block elems in {:>5} messages | {:>3} vote messages",
            meter.total_volume(),
            meter.total_messages(),
            meter.total_control_messages(),
        );
    }
    assert_eq!(meter0.total_volume(), meter1.total_volume(), "payload is Q-invariant");

    // Enforce the paper's machine on the live solver: under the throttled
    // fabric the measured virtual-clock speedup is what the schedule clock
    // predicts for the executed dataflow, and at least what the paper's
    // barrier-synchronized stages promise.
    println!("\nthrottled fabric (virtual clock on the paper's machine):");
    let sweeps = 1usize;
    let plan1 = &lower_sweeps(m, d, family, false, sweeps)[0];
    let throttled = JacobiOptions {
        force_sweeps: Some(sweeps),
        fabric: FabricModel::Throttled(machine),
        ..base
    };
    let tauto = JacobiOptions { pipelining: Pipelining::Auto(machine), ..throttled.clone() };
    let qs = choose_qs(plan1, &tauto.pipelining, packetization_cap(m, d));
    let tu = block_jacobi_threaded(&a, d, family, &throttled).fabric;
    let tp = block_jacobi_threaded(&a, d, family, &tauto).fabric;
    let measured = tu.makespan / tp.makespan;
    let executed = |qs: &[usize]| {
        let job = PlannedJob { plans: std::slice::from_ref(plan1), qs: &[qs.to_vec()], tail_q: 1 };
        executed_cost(&[job], &machine, &BatchOrder::Serial(vec![0])).makespan
    };
    let ones = choose_qs(plan1, &Pipelining::Off, packetization_cap(m, d));
    let exact = executed(&ones) / executed(&qs);
    let staged =
        plan_unpipelined_cost(plan1, &machine) / plan_cost_with_tail(plan1, &machine, &qs, 1).total;
    println!("  measured speedup  {measured:.3}x (virtual time, deterministic)");
    println!("  executed schedule {exact:.3}x (schedule clock, same packet counts)");
    println!("  paper model       {staged:.3}x (stage-synchronous, what Auto optimized)");
    assert!((measured - exact).abs() <= 1e-9 * exact, "the schedule clock is exact");

    // And the other direction: measure THIS runtime's own Ts/Tw. Both
    // terms are microseconds-scale on pointer-shipping channels — orders
    // of magnitude below the Figure-2 constants — so Auto schedules far
    // shallower pipelines here than it does for the paper's machine.
    let calibrated = calibrate_channel_machine(d);
    println!(
        "\ncalibrated channel machine: Ts = {:.3e} s, Tw = {:.3e} s/elem",
        calibrated.ts, calibrated.tw
    );
    let cal_qs = choose_qs(plan1, &Pipelining::Auto(calibrated), packetization_cap(m, d));
    println!("Auto's per-phase Q on the calibrated machine: {cal_qs:?}");
}
