//! The three degraded-fabric classes `vclock_tables` prints — static
//! heterogeneity, Gilbert–Elliott episodes, a scheduled link death — at
//! its `--smoke` geometry (m = 64, d = 2, three forced sweeps), held to
//! the contract the table illustrates: impairments change *when* packets
//! move, never *what* they carry; the reactive solver stays within a
//! quarter of the oracle that knows the scenario; slowdown factors never
//! make a fabric faster than clean; and a dead link is relayed around, not
//! ignored. All virtual-clock quantities: deterministic, so exact bars.

use mph_ccpipe::Machine;
use mph_core::OrderingFamily;
use mph_eigen::{block_jacobi_threaded, Adaptation, FabricModel, JacobiOptions, ThreadedRun};
use mph_linalg::symmetric::random_symmetric;
use mph_runtime::{LinkDeath, Scenario, ScenarioSpec};
use std::sync::Arc;

#[test]
fn every_class_is_bitwise_clean_near_the_oracle_and_never_faster_than_clean() {
    let (m, d, sweeps, seed) = (64usize, 2usize, 3usize, 424242u64);
    let family = OrderingFamily::PermutedBr;
    let machine = Machine::all_port(1000.0, 100.0);
    let a = random_symmetric(m, seed);
    let base = JacobiOptions {
        force_sweeps: Some(sweeps),
        fabric: FabricModel::Throttled(machine),
        ..Default::default()
    };
    let ThreadedRun { result: clean, fabric: clean_fab, .. } =
        block_jacobi_threaded(&a, d, family, &base);
    let spec =
        |k: u64| ScenarioSpec { epochs: sweeps + 1, ..ScenarioSpec::clean(seed + k, machine) };
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
    for (name, spec) in classes {
        let scenario = Arc::new(Scenario::new(d, spec).expect("the three classes are valid"));
        let run = |adaptation: Adaptation| {
            let opts = JacobiOptions {
                fabric: FabricModel::Degraded(scenario.clone()),
                adaptation,
                ..base.clone()
            };
            block_jacobi_threaded(&a, d, family, &opts)
        };
        let ThreadedRun { result: reactive, fabric: reactive_fab, adaptive: report, .. } =
            run(Adaptation::Reactive);
        let oracle_fab = run(Adaptation::Oracle).fabric;

        assert_eq!(reactive.rotations, clean.rotations, "{name}: rotations");
        assert_eq!(reactive.eigenvalues, clean.eigenvalues, "{name}: eigenvalues");
        assert_eq!(reactive.eigenvectors, clean.eigenvectors, "{name}: eigenvectors");

        let over_oracle = reactive_fab.makespan / oracle_fab.makespan;
        assert!(
            over_oracle <= 1.25,
            "{name}: reactive {} vs oracle {} ({over_oracle:.4}) — recalibration stopped \
             tracking the fabric",
            reactive_fab.makespan,
            oracle_fab.makespan
        );
        assert!(
            reactive_fab.makespan >= clean_fab.makespan - 1e-9,
            "{name}: impaired {} beat clean {}",
            reactive_fab.makespan,
            clean_fab.makespan
        );
        if name == "death" {
            assert!(report.rerouted_elems >= 1, "the dead link was ignored, not relayed around");
        }
    }
}
