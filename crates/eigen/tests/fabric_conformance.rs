//! Cross-layer conformance of the throttled link fabric: for the same
//! lowered [`CommPlan`], the *measured* virtual-clock times of the
//! threaded runtime, the *simulated* makespans of `mph_simnet`, and the
//! *priced* costs of `mph_ccpipe` must tell one consistent story. One
//! plan, three layers, one set of numbers — the fabric-time counterpart of
//! `pipeline_traffic.rs`'s volume conformance.
//!
//! Which model each comparison is against:
//!
//! * **the executed schedule** — `mph_ccpipe::executed_cost` runs the
//!   engine's micro-op order on one schedule clock, so measured ==
//!   predicted at 1e-9 relative for every pipelining degree (the random
//!   grid is `executed_cost_proptest.rs`);
//! * **the paper's stage model** (cross-model) — the closed forms of
//!   `plancost` and their witness `simulate_synchronized` price
//!   barrier-synchronized stages. Unpipelined (`Q = 1`) the two models
//!   coincide and all three layers agree at 1e-9. Pipelined (`Q > 1`) the
//!   runtime is a barrier-free dataflow, so the measurement may only be
//!   *faster*, and not by much — a 25% band (the async advantage at these
//!   sizes is 3–13%).

use mph_ccpipe::{
    executed_cost, plan_cost_with_tail, plan_unpipelined_cost, BatchOrder, Machine, PlannedJob,
};
use mph_core::OrderingFamily;
use mph_eigen::{block_jacobi_threaded, lower_sweeps, FabricModel, JacobiOptions, Pipelining};
use mph_linalg::symmetric::random_symmetric;
use mph_simnet::{
    plan_pipelined_schedule, plan_unpipelined_schedule, simulate_synchronized, StartupModel,
};

fn machine() -> Machine {
    Machine::all_port(1000.0, 100.0)
}

#[test]
fn unpipelined_measured_simulated_and_priced_agree_exactly() {
    // Uniform partitions: every node's virtual clock walks the same
    // Ts + S·Tw ladder the model sums and the simulator replays. m = 100
    // (four blocks of 25) is not a multiple of 8, so its columns are stored
    // with alignment pads: S stays the logical size — pads are never
    // metered or priced.
    let machine = machine();
    for (m, d) in [(32usize, 2usize), (64, 3), (100, 1)] {
        let a = random_symmetric(m, 5);
        for family in [OrderingFamily::Br, OrderingFamily::Degree4] {
            let sweeps = 2usize;
            let opts = JacobiOptions {
                force_sweeps: Some(sweeps),
                fabric: FabricModel::Throttled(machine),
                ..Default::default()
            };
            let report = block_jacobi_threaded(&a, d, family, &opts).fabric;
            let plans = lower_sweeps(m, d, family, false, sweeps);
            let priced: f64 = plans.iter().map(|p| plan_unpipelined_cost(p, &machine)).sum();
            let simulated: f64 = plans
                .iter()
                .map(|p| {
                    simulate_synchronized(
                        &plan_unpipelined_schedule(p),
                        &machine,
                        StartupModel::SerializedThenParallel,
                    )
                    .makespan
                })
                .sum();
            assert!(
                (report.makespan - priced).abs() <= 1e-9 * priced,
                "{family} m={m} d={d}: measured {} vs priced {priced}",
                report.makespan
            );
            assert!(
                (simulated - priced).abs() <= 1e-9 * priced,
                "{family} m={m} d={d}: simulated {simulated} vs priced {priced}"
            );
        }
    }
}

#[test]
fn pipelined_measured_time_tracks_the_simulated_phase_times() {
    // For every pipelining degree the measurement equals the schedule
    // clock's evaluation of the executed schedule. Cross-model, against
    // the barrier-synchronized simulation of the same plan, the dataflow
    // runtime lands in [0.75, 1.0+ε]: faster (no barriers), never slower,
    // and never below the plausible band.
    let machine = machine();
    let m = 64usize;
    let d = 3usize;
    let a = random_symmetric(m, 3);
    for family in [OrderingFamily::Br, OrderingFamily::Degree4, OrderingFamily::PermutedBr] {
        let plans = lower_sweeps(m, d, family, false, 1);
        for q in [1usize, 2, 4, 8] {
            let qs: Vec<Vec<usize>> = vec![plans[0].exchange_phases().map(|_| q).collect()];
            let simulated = simulate_synchronized(
                &plan_pipelined_schedule(&plans[0], &qs[0]),
                &machine,
                StartupModel::SerializedThenParallel,
            )
            .makespan;
            let job = PlannedJob { plans: &plans, qs: &qs, tail_q: 1 };
            let executed = executed_cost(&[job], &machine, &BatchOrder::Serial(vec![0])).makespan;
            let opts = JacobiOptions {
                force_sweeps: Some(1),
                pipelining: Pipelining::Fixed(q),
                fabric: FabricModel::Throttled(machine),
                ..Default::default()
            };
            let report = block_jacobi_threaded(&a, d, family, &opts).fabric;
            assert!(
                (report.makespan - executed).abs() <= 1e-9 * executed,
                "{family} q={q}: measured {} vs executed schedule {executed}",
                report.makespan
            );
            let ratio = report.makespan / simulated;
            if q == 1 {
                assert!(
                    (ratio - 1.0).abs() < 1e-9,
                    "{family} q=1 must be exact, got ratio {ratio}"
                );
            } else {
                assert!(
                    (0.75..=1.0 + 1e-9).contains(&ratio),
                    "{family} q={q}: measured {} vs simulated {simulated} (ratio {ratio:.4})",
                    report.makespan
                );
            }
        }
    }
}

#[test]
fn pipelined_measured_speedup_lands_within_20pct_of_the_model() {
    // Cross-model, at benchmark geometry (m = 256, d = 3): measured
    // pipelined-vs-unpipelined speedup within 20% of the paper model's
    // stage-synchronous prediction for the exact executed packet counts,
    // under all-port AND one-port (where both must be exactly 1: the model
    // chooses Q = 1 and the runtime obeys).
    let m = 256usize;
    let d = 3usize;
    let a = random_symmetric(m, 424242);
    let family = OrderingFamily::PermutedBr;
    for machine in [Machine::all_port(1000.0, 100.0), Machine::one_port(1000.0, 100.0)] {
        let base = JacobiOptions {
            force_sweeps: Some(1),
            fabric: FabricModel::Throttled(machine),
            ..Default::default()
        };
        let auto = JacobiOptions { pipelining: Pipelining::Auto(machine), ..base.clone() };
        let plan = &lower_sweeps(m, d, family, false, 1)[0];
        let q_cap = mph_eigen::packetization_cap(m, d);
        let qs = mph_eigen::choose_qs(plan, &auto.pipelining, q_cap);
        let ru = block_jacobi_threaded(&a, d, family, &base).fabric;
        let rp = block_jacobi_threaded(&a, d, family, &auto).fabric;
        let measured = ru.makespan / rp.makespan;
        let predicted = plan_unpipelined_cost(plan, &machine)
            / plan_cost_with_tail(plan, &machine, &qs, 1).total;
        assert!(
            (measured / predicted - 1.0).abs() < 0.2,
            "{machine:?}: measured speedup {measured:.4} vs predicted {predicted:.4}"
        );
        if matches!(machine.ports, mph_ccpipe::PortModel::OnePort) {
            assert!(qs.iter().all(|&q| q == 1), "one-port Auto must not packetize: {qs:?}");
            assert_eq!(measured, 1.0, "one-port pipelined run must be the unpipelined run");
        }
    }
}
