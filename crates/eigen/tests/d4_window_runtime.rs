//! The degree-4 family's window property as a *measured* runtime fact.
//!
//! The paper's degree-4 orderings guarantee ≥ 4 distinct links in every
//! length-4 window of the link sequence, so a shallow software pipeline
//! (Q = 4) keeps four transmissions on four different wires — a gain that
//! exists *only* on a multi-port machine. Until the throttled link fabric
//! existed this was a priced claim; these tests make it a measured one:
//! under `FabricModel::Throttled` the virtual-clock makespan of a real
//! threaded solve shows the advantage under the all-port model and shows
//! it vanishing under one-port — in both cases with the same *sign* as the
//! ccpipe cost model's prediction for the identical plan and packet
//! counts.
//!
//! The cube is d = 4 (the smallest whose leading exchange phase has
//! windows of width 4 over ≥ 4 dimensions), m = 128 so blocks carry
//! exactly 4 columns and Q = 4 is the packetization ceiling.

use mph_ccpipe::{plan_cost_with_tail, plan_unpipelined_cost, Machine, PortModel};
use mph_core::OrderingFamily;
use mph_eigen::{
    block_jacobi_threaded, lower_sweeps, packetization_cap, FabricModel, JacobiOptions, Pipelining,
};
use mph_linalg::symmetric::random_symmetric;
use mph_linalg::Matrix;

const M: usize = 128;
const D: usize = 4;
const Q: usize = 4;

/// Transmission-dominated machine: the window property is about wire
/// occupancy, so start-ups are kept negligible.
fn machine(ports: PortModel) -> Machine {
    Machine { ts: 1.0, tw: 100.0, ports }
}

fn measured_sweep(a: &Matrix, family: OrderingFamily, ports: PortModel) -> f64 {
    let opts = JacobiOptions {
        force_sweeps: Some(1),
        pipelining: Pipelining::Fixed(Q),
        fabric: FabricModel::Throttled(machine(ports)),
        ..Default::default()
    };
    block_jacobi_threaded(a, D, family, &opts).fabric.makespan
}

/// The paper's stage model for the same plan and packet counts — a
/// cross-model comparison: the tests below ask for its sign, not its value.
fn predicted_sweep(family: OrderingFamily, ports: PortModel) -> f64 {
    let plan = &lower_sweeps(M, D, family, false, 1)[0];
    let qs: Vec<usize> = plan.exchange_phases().map(|_| Q).collect();
    plan_cost_with_tail(plan, &machine(ports), &qs, 1).total
}

#[test]
fn degree4_beats_br_in_measured_virtual_time_under_multi_port_shallow_pipelining() {
    assert_eq!(packetization_cap(M, D), Q, "Q = 4 must be the ceiling for this geometry");
    let a = random_symmetric(M, 7);
    let ports = PortModel::AllPort;
    let (meas_br, meas_d4) = (
        measured_sweep(&a, OrderingFamily::Br, ports),
        measured_sweep(&a, OrderingFamily::Degree4, ports),
    );
    let (pred_br, pred_d4) = (
        predicted_sweep(OrderingFamily::Br, ports),
        predicted_sweep(OrderingFamily::Degree4, ports),
    );
    // The prediction is decisive in degree-4's favor, and the measured
    // virtual clock agrees in sign — and by a solid margin.
    assert!(pred_d4 < pred_br, "model must favor degree-4: {pred_d4} vs {pred_br}");
    assert!(
        meas_d4 < meas_br,
        "measured sign must match the ccpipe prediction: d4 {meas_d4} vs BR {meas_br}"
    );
    assert!(
        meas_br > 1.1 * meas_d4,
        "window property should be worth >10% of wall time: BR {meas_br} vs d4 {meas_d4}"
    );
    // And the measured advantage tracks the predicted advantage closely
    // (the virtual clock enforces the same Ts/Tw the model prices).
    let measured_ratio = meas_br / meas_d4;
    let predicted_ratio = pred_br / pred_d4;
    assert!(
        (measured_ratio / predicted_ratio - 1.0).abs() < 0.2,
        "measured ratio {measured_ratio:.4} vs predicted {predicted_ratio:.4}"
    );
}

#[test]
fn degree4_advantage_vanishes_under_one_port_matching_the_prediction() {
    // One port serializes every transmission, so link diversity cannot
    // help: the model prices degree-4 at no advantage (its extra distinct
    // links only cost start-ups), and the measured clock agrees — the
    // window property pays exactly when multi-port hardware exists, which
    // is the paper's thesis.
    let a = random_symmetric(M, 7);
    let ports = PortModel::OnePort;
    let (meas_br, meas_d4) = (
        measured_sweep(&a, OrderingFamily::Br, ports),
        measured_sweep(&a, OrderingFamily::Degree4, ports),
    );
    let (pred_br, pred_d4) = (
        predicted_sweep(OrderingFamily::Br, ports),
        predicted_sweep(OrderingFamily::Degree4, ports),
    );
    assert!(pred_d4 >= pred_br - 1e-9, "one-port model must not favor degree-4");
    assert!(meas_d4 >= meas_br - 1e-9, "one-port measurement must not favor degree-4");
    // No advantage means *no* advantage: the two orderings' measured
    // times agree within 2%.
    assert!(
        (meas_d4 / meas_br - 1.0).abs() < 0.02,
        "one-port should level the orderings: d4 {meas_d4} vs BR {meas_br}"
    );
}

#[test]
fn shallow_pipelining_pays_only_where_the_model_says_it_does() {
    // Same solve, Q = 1 vs Q = 4: under all-port the measured pipelined
    // sweep beats the unpipelined one (and the model agrees); under
    // one-port both the model and the measurement show no gain.
    let a = random_symmetric(M, 11);
    let unpiped = |ports| {
        let opts = JacobiOptions {
            force_sweeps: Some(1),
            fabric: FabricModel::Throttled(machine(ports)),
            ..Default::default()
        };
        block_jacobi_threaded(&a, D, OrderingFamily::Degree4, &opts).fabric.makespan
    };
    let plan = &lower_sweeps(M, D, OrderingFamily::Degree4, false, 1)[0];

    let all = PortModel::AllPort;
    let meas_gain = unpiped(all) / measured_sweep(&a, OrderingFamily::Degree4, all);
    let qs: Vec<usize> = plan.exchange_phases().map(|_| Q).collect();
    let pred_gain = plan_unpipelined_cost(plan, &machine(all))
        / plan_cost_with_tail(plan, &machine(all), &qs, 1).total;
    assert!(pred_gain > 1.2, "model should predict a real gain, got {pred_gain:.3}");
    assert!(meas_gain > 1.2, "measured gain too small: {meas_gain:.3}");
    assert!(
        (meas_gain / pred_gain - 1.0).abs() < 0.2,
        "measured gain {meas_gain:.4} vs predicted {pred_gain:.4}"
    );

    let one = PortModel::OnePort;
    let meas_gain_1p = unpiped(one) / measured_sweep(&a, OrderingFamily::Degree4, one);
    assert!(meas_gain_1p < 1.02, "one-port must not profit from packetization: {meas_gain_1p:.4}");
}
