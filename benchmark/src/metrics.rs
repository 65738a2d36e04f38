//! Every metric the benchmark reports, by name: the table `BENCHMARK.json`,
//! the result files and `compare` all agree on.

use std::collections::BTreeMap;

use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a number is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host time (or anything else the host's scheduling can move): differs
    /// from run to run.
    Wall,
    /// The fabric's virtual clock, a count, or a bit comparison: the same
    /// seed gives the same value, so any difference between two runs of one
    /// commit is a failure and between two commits a real change.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
}

const fn wall(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, clock: Clock::Wall }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, clock: Clock::Exact }
}

use Better::{Higher, Lower};

/// What a user of the system sees.
pub const END_TO_END: [MetricDef; 2] =
    [wall("job_wall_x_ref", "x_ref", Lower), wall("setup_s", "s", Lower)];

/// The bounds `BENCHMARK.json` gives the end-to-end metrics, in
/// [`END_TO_END`] order: the share of the parent's median by which one may
/// get worse before the driver rejects a change. The contract holds one
/// bound per metric, not per workload, so the noisiest workload sets it, at
/// three times its spread or more; 0.25 is the widest the contract allows,
/// and a set-up, timed in raw seconds, gets it.
pub const CONTRACT_BOUNDS: [f64; 2] = [0.20, 0.25];

/// Run-to-run spread of `[job_wall_x_ref, setup_s]` per workload on the
/// authoring host: quartile distance ÷ median of ten 10-second runs, each
/// with another seed; the widest of the seven such sets made on one CPU
/// (for `serve_load`, of those made since its scenario and its reference
/// changed), rounded up. The README has the table.
pub const MEASURED_SPREAD: [(&str, [f64; 2]); 6] = [
    ("logical_solve", [0.02, 0.07]),
    ("logical_pool", [0.06, 0.08]),
    ("threaded_blocks", [0.02, 0.13]),
    ("threaded_packets", [0.02, 0.08]),
    ("serve_load", [0.02, 0.11]),
    ("model_sweep", [0.02, 0.07]),
];

fn position(metric: &str) -> Option<usize> {
    END_TO_END.iter().position(|def| def.name == metric)
}

/// The bound `BENCHMARK.json` gives `metric`. `None` for a metric that is
/// not end-to-end.
pub fn contract_bound(metric: &str) -> Option<f64> {
    position(metric).map(|i| CONTRACT_BOUNDS[i])
}

/// The spread recorded for `metric` on `workload`.
pub fn measured_spread(workload: &str, metric: &str) -> Option<f64> {
    let (_, spreads) = MEASURED_SPREAD.iter().find(|(name, _)| *name == workload)?;
    Some(spreads[position(metric)?])
}

/// The bound `compare` holds `metric` on `workload` to: 0.10, widened to
/// twice the recorded spread where that is more, and never beyond the
/// contract's. `None` for a metric that is not end-to-end.
pub fn bound(workload: &str, metric: &str) -> Option<f64> {
    let spread = measured_spread(workload, metric)?;
    Some((2.0 * spread).clamp(0.10, contract_bound(metric)?))
}

/// The repository's layers, in stack order.
pub const LAYERS: [&str; 9] =
    ["linalg", "core", "eigen", "ccpipe", "simnet", "runtime", "batch", "serve", "trace"];

/// Single-layer metrics, reported by the traced pass. A metric a workload
/// does not exercise reads 0 there (see the README's table).
pub const PER_LAYER: [MetricDef; 70] = [
    exact("job_vtime_p50", "vtime", Lower),
    exact("job_vtime_p90", "vtime", Lower),
    wall("peak_alloc_mb", "MB", Lower),
    wall("linalg.packetize_ns_per_elem", "ns", Lower),
    wall("linalg.rotate_ns_per_elem_scalar", "ns", Lower),
    wall("linalg.rotate_ns_per_elem_lanes", "ns", Lower),
    wall("linalg.self_ms", "ms", Lower),
    wall("core.lower_us_per_plan", "us", Lower),
    exact("core.plan_vs_meter_mismatch", "count", Lower),
    wall("core.self_ms", "ms", Lower),
    exact("eigen.sweeps_per_job", "count", Lower),
    exact("eigen.rotations_per_job", "count", Lower),
    wall("eigen.kernel_ns_per_rotation", "ns", Lower),
    wall("eigen.kernel_gflops_computed", "gflop/s", Higher),
    wall("eigen.lanes_speedup", "ratio", Higher),
    wall("eigen.cache_speedup", "ratio", Higher),
    wall("eigen.pool_speedup_w2", "ratio", Higher),
    wall("eigen.parallel_efficiency", "ratio", Higher),
    wall("eigen.driver_overhead_ms", "ms", Lower),
    wall("eigen.pipelining_wall_ratio", "ratio", Lower),
    exact("eigen.pipelining_vtime_ratio", "ratio", Lower),
    exact("eigen.bitwise_mismatches", "count", Lower),
    exact("eigen.residual_max", "ratio", Lower),
    exact("eigen.orthogonality_max", "ratio", Lower),
    wall("eigen.self_ms", "ms", Lower),
    wall("ccpipe.price_us_per_plan", "us", Lower),
    exact("ccpipe.vtime_prediction_error", "ratio", Lower),
    wall("ccpipe.self_ms", "ms", Lower),
    wall("simnet.replay_ns_per_message", "ns", Lower),
    exact("simnet.messages_per_job", "count", Lower),
    exact("simnet.model_gap_max", "ratio", Lower),
    wall("simnet.self_ms", "ms", Lower),
    exact("runtime.messages_per_job", "count", Lower),
    exact("runtime.control_messages_per_job", "count", Lower),
    exact("runtime.data_elems_per_job", "elems", Lower),
    exact("runtime.dim_volume_share_max", "ratio", Lower),
    wall("runtime.channel_ts_us", "us", Lower),
    wall("runtime.channel_tw_ns_per_elem", "ns", Lower),
    wall("runtime.channel_cost_ms_computed", "ms", Lower),
    wall("runtime.fabric_clock_ns_per_msg", "ns", Lower),
    exact("runtime.link_occupancy_mean", "ratio", Higher),
    exact("runtime.port_wait_vtime_share", "ratio", Lower),
    exact("runtime.barriers_per_job", "count", Lower),
    wall("runtime.self_ms", "ms", Lower),
    wall("batch.wall_ms_per_job", "ms", Lower),
    exact("batch.interleave_gain_vtime", "ratio", Higher),
    wall("batch.service_plan_ms", "ms", Lower),
    wall("batch.self_ms", "ms", Lower),
    exact("serve.queue_wait_vtime_p90", "vtime", Lower),
    exact("serve.latency_vtime_p99", "vtime", Lower),
    exact("serve.peak_queue_depth", "count", Lower),
    exact("serve.jobs_per_mvtime", "jobs/Mvtime", Higher),
    exact("serve.utilisation", "ratio", Higher),
    exact("serve.capacity_jobs_per_mvtime", "jobs/Mvtime", Higher),
    exact("serve.overload_shed_share", "ratio", Lower),
    exact("serve.overload_latency_vtime_p90", "vtime", Lower),
    wall("serve.self_ms", "ms", Lower),
    wall("trace.overhead_ratio", "ratio", Lower),
    exact("trace.events_per_job", "count", Lower),
    wall("trace.export_ms", "ms", Lower),
    exact("trace.export_bytes", "bytes", Lower),
    wall("trace.self_ms", "ms", Lower),
    wall("host.cpu_ms_per_job", "ms", Lower),
    wall("host.allocs_per_job", "count", Lower),
    wall("host.alloc_mb_per_job", "MB", Lower),
    wall("host.ref_loop_ms", "ms", Lower),
    wall("host.jobs_per_s", "jobs/s", Higher),
    wall("host.job_wall_ms_p50", "ms", Lower),
    wall("host.job_wall_ms_p90", "ms", Lower),
    wall("host.job_wall_iqr_ratio", "ratio", Lower),
];

/// Values measured so far, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// `defs` as the `metrics` object of a result: every metric present, the
/// unmeasured ones reading 0.
///
/// # Panics
/// Panics if `values` holds a name `defs` does not list: a metric nobody
/// declared would otherwise vanish from the output unnoticed.
pub fn to_json<'a>(defs: impl IntoIterator<Item = &'a MetricDef>, values: &Values) -> Value {
    let defs: Vec<&MetricDef> = defs.into_iter().collect();
    for name in values.keys() {
        assert!(defs.iter().any(|d| d.name == *name), "metric `{name}` is not declared");
    }
    Value::obj(defs.iter().map(|def| {
        let value = values.get(def.name).copied().unwrap_or(0.0);
        (def.name, Value::obj([("value", Value::Num(value)), ("unit", Value::str(def.unit))]))
    }))
}

/// The definition of `name`, end-to-end or per-layer.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|def| def.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_well_formed_and_every_layer_has_a_self_time() {
        let names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|def| def.name).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "`{name}` is listed twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(def.unit.len() <= 16, "unit of `{}`", def.name);
            assert!(def.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for layer in LAYERS {
            assert!(lookup(&format!("{layer}.self_ms")).is_some(), "{layer} has no self time");
        }
    }

    #[test]
    fn every_workload_bound_is_twice_its_spread_inside_the_floor_and_the_contract() {
        assert_eq!(bound("logical_solve", "job_wall_x_ref"), Some(0.10), "the floor");
        assert_eq!(bound("logical_pool", "job_wall_x_ref"), Some(0.12), "twice its spread");
        assert_eq!(bound("threaded_blocks", "setup_s"), Some(0.25), "the contract's");
        for (workload, spreads) in MEASURED_SPREAD {
            for ((def, spread), contract) in END_TO_END.iter().zip(spreads).zip(CONTRACT_BOUNDS) {
                let bound = bound(workload, def.name).unwrap();
                assert!((0.10..=contract).contains(&bound), "{workload} {}", def.name);
                assert!(bound >= (2.0 * spread).min(contract), "{workload} {}", def.name);
                // What the driver asks of its own check of the benchmark.
                assert!(3.0 * spread <= contract || def.name == "setup_s", "{workload}");
            }
        }
        assert!(CONTRACT_BOUNDS.iter().all(|b| *b <= 0.25), "the contract's ceiling");
        assert_eq!(bound("logical_solve", "eigen.self_ms"), None);
        assert_eq!(bound("no_such_workload", "setup_s"), None);
    }

    #[test]
    fn unmeasured_metrics_read_zero_and_keep_their_unit() {
        let values = Values::from([("job_wall_x_ref", 1.25)]);
        let json = to_json(&END_TO_END, &values);
        let wall = json.get("job_wall_x_ref").unwrap();
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("x_ref"));
        assert_eq!(json.get("setup_s").and_then(|m| m.get("value")).unwrap().as_f64(), Some(0.0));
        assert_eq!(json.as_object().unwrap().len(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_is_refused() {
        to_json(&END_TO_END, &Values::from([("made_up", 1.0)]));
    }
}
