//! Trace capture demo: run a degraded eigensolve — link death included —
//! with the ring sink attached, then export the forensic record.
//!
//! ```text
//! cargo run --release --example trace_capture
//! ```
//!
//! A 3-cube solves m=64 on a seeded degraded fabric whose (0, dim 0)
//! edge dies at epoch 1, so the capture shows everything the tracer
//! records: per-link transmit spans split into port-wait and wire time,
//! barrier and sweep boundaries, mid-run recalibrations, and the relay
//! hops that carry payloads around the dead edge. Two artifacts land in
//! `results/`:
//!
//! - `trace_capture.json` — Chrome trace-event format; open it at
//!   `chrome://tracing` or <https://ui.perfetto.dev> to scrub the
//!   timeline (one process per node, one track per link).
//! - `trace_capture_utilization.md` — the per-(link, epoch) busy-time /
//!   occupancy matrix as a markdown table.
//!
//! Tracing is strictly observational: this run's eigenvalues are bitwise
//! identical to the same options with the default nop sink.

use mph::core::OrderingFamily;
use mph::eigen::{block_jacobi_threaded, Adaptation, JacobiOptions, Pipelining, ThreadedRun};
use mph::linalg::symmetric::random_symmetric;
use mph::runtime::{
    FabricModel, LinkDeath, Machine, RingSink, Scenario, ScenarioSpec, SinkHandle, TraceEvent,
};
use mph::trace::{chrome_trace_json, UtilizationMatrix};
use std::fs;
use std::sync::Arc;

fn main() {
    let d = 3usize;
    let m = 64usize;
    let a = random_symmetric(m, 2026);

    // A rough fabric: heterogeneous links, jitter walks, episodes, and
    // one scheduled death — node 0's dim-0 edge goes down at epoch 1.
    let spec = ScenarioSpec {
        epochs: 6,
        hetero_spread: 1.5,
        rate_jitter: 0.2,
        delay_jitter: 0.2,
        episode_rate: 0.25,
        episode_recovery: 0.5,
        episode_severity: 4.0,
        deaths: vec![LinkDeath { node: 0, dim: 0, epoch: 1 }],
        ..ScenarioSpec::clean(2026, Machine::all_port(500.0, 10.0))
    };
    let fabric = FabricModel::Degraded(Arc::new(Scenario::new(d, spec).expect("valid scenario")));

    let ring = Arc::new(RingSink::new(d, 1 << 16));
    let opts = JacobiOptions {
        pipelining: Pipelining::Fixed(2),
        fabric,
        adaptation: Adaptation::Reactive,
        trace: SinkHandle::new(ring.clone()),
        ..Default::default()
    };
    let ThreadedRun { result, meter, fabric: fabric_report, adaptive } =
        block_jacobi_threaded(&a, d, OrderingFamily::Br, &opts);
    println!(
        "solved m={m} on a degraded {d}-cube: {} sweeps, {} rotations, converged={}",
        result.sweeps, result.rotations, result.converged
    );
    println!(
        "fabric: makespan {:.0} vtime, {} elements moved",
        fabric_report.makespan,
        meter.total_volume()
    );
    println!(
        "adaptive: {} recalibrations, {} origin messages relayed around the dead link \
         ({} elements re-routed)",
        adaptive.recalibrations, adaptive.reroutes, adaptive.rerouted_elems
    );

    let lanes = ring.drain();
    let recorded: usize = lanes.iter().map(Vec::len).sum();
    let relay_hops: usize =
        lanes.iter().flatten().filter(|e| matches!(e, TraceEvent::Relay { .. })).count();
    println!("trace: {recorded} events recorded, {relay_hops} relay-hop markers");

    fs::create_dir_all("results").expect("cannot create results/");
    let json = chrome_trace_json(&lanes);
    fs::write("results/trace_capture.json", &json).expect("write trace JSON");
    println!("wrote results/trace_capture.json ({} bytes) — open in chrome://tracing", json.len());

    let util = UtilizationMatrix::from_lanes(&lanes);
    let table = util.markdown_table();
    fs::write("results/trace_capture_utilization.md", &table).expect("write utilization table");
    println!("wrote results/trace_capture_utilization.md\n");
    println!("{table}");
}
