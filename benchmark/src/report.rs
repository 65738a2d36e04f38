//! Result records: what one workload measured, as printed text, as the
//! driver's result line, and as an entry of a result file.

use std::path::{Path, PathBuf};

use crate::json::Value;
use crate::layers::TracedPass;
use crate::metrics::{self, Clock, Values, CONTRACT_BOUNDS, END_TO_END, LAYERS, PER_LAYER};
use crate::spans::{layer_self_times, Span};
use crate::stats;
use crate::workloads::{Session, Workload};

/// Where traces and result files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The repository's `BENCHMARK.json`, beside the benchmark's directory.
pub fn manifest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// The last line of a driver run: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(session: &Session, metrics: Value) -> String {
    Value::obj([
        ("correct", Value::Bool(session.failed == 0)),
        ("attempted", Value::Num(session.attempted.max(1) as f64)),
        ("failed", Value::Num(session.failed as f64)),
        ("metrics", metrics),
    ])
    .to_line()
}

/// Fixed notation where it shows the digits that matter, scientific where
/// it would print zeros.
fn readable(value: f64) -> String {
    if value != 0.0 && value.abs() < 1e-3 {
        format!("{value:.4e}")
    } else {
        format!("{value:.4}")
    }
}

pub fn print_end_to_end(session: &Session, values: &Values) {
    println!(
        "{}: {} jobs attempted, {} failed, {} wall samples",
        session.workload.name(),
        session.attempted,
        session.failed,
        session.samples_ms.len()
    );
    for def in &END_TO_END {
        let value = values.get(def.name).copied().unwrap_or(0.0);
        let name = session.workload.name();
        println!(
            "  {:<34} {:>16} {:<10} wall, {} is better, bound {} (recorded spread {}; contract {})",
            def.name,
            readable(value),
            def.unit,
            def.better.as_str(),
            metrics::bound(name, def.name).expect("an end-to-end metric of a workload"),
            metrics::measured_spread(name, def.name).expect("an end-to-end metric of a workload"),
            metrics::contract_bound(def.name).expect("an end-to-end metric"),
        );
    }
    // The raw readings behind the ratio, for the reader; they are not bounded.
    println!(
        "  raw: job wall median {:.3} ms, reference loop median {:.3} ms, {:.3} jobs/s",
        stats::median(&session.samples_ms),
        stats::median(&session.readings_s) * 1e3,
        session.jobs_per_s()
    );
    print_failures(session);
}

pub fn print_failures(session: &Session) {
    for failure in &session.failures {
        println!("  FAILED {failure}");
    }
}

pub fn print_per_layer(workload: Workload, pass: &TracedPass) {
    println!("{}: traced pass", workload.name());
    for def in &PER_LAYER {
        let Some(&value) = pass.values.get(def.name) else { continue };
        let clock = match def.clock {
            Clock::Wall => "wall",
            Clock::Exact => "exact",
        };
        let base = pass
            .bases
            .iter()
            .find(|(name, _)| *name == def.name)
            .map_or(String::new(), |(_, base)| format!(" (base: {base})"));
        println!("  {:<34} {:>16} {:<12} {clock}{base}", def.name, readable(value), def.unit);
    }
    // One line per layer of the stack, then the benchmark's own spans.
    let own = layer_self_times(&pass.spans);
    for layer in LAYERS.iter().chain(&["job", "check"]) {
        let seconds = own.get(layer).copied().unwrap_or(0.0);
        println!("  self time {layer:<24} {:>16.3} ms", seconds * 1e3);
    }
}

fn spans_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("start_s", Value::Num(s.start)),
                    ("end_s", Value::Num(s.end)),
                    ("parent", s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                    ("job", Value::Num(s.job as f64)),
                ])
            })
            .collect(),
    )
}

/// Writes the pass's spans and Chrome export under [`out_dir`].
pub fn write_traces(workload: Workload, pass: &TracedPass) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("spans-{}.json", workload.name())),
        spans_json(&pass.spans).to_pretty(),
    )?;
    if let Some(chrome) = &pass.chrome {
        std::fs::write(dir.join(format!("trace-{}.json", workload.name())), chrome)?;
    }
    Ok(())
}

/// One workload's entry of a result file. `spreads` holds, for each
/// end-to-end metric whose noise this run measured, the quartile distance of
/// its repeated readings as a share of their median: how far the number can
/// be trusted. A metric read once gets none, and `compare` will not resolve it.
pub fn workload_entry(
    session: &Session,
    end_to_end: &Values,
    spreads: &Values,
    pass: &TracedPass,
) -> Value {
    let mut e2e = metrics::to_json(&END_TO_END, end_to_end);
    if let Value::Obj(fields) = &mut e2e {
        for (name, metric) in fields {
            if let (Value::Obj(metric), Some(spread)) = (metric, spreads.get(name.as_str())) {
                metric.push(("spread".into(), Value::Num(*spread)));
            }
        }
    }
    Value::obj([
        ("name", Value::str(session.workload.name())),
        ("attempted", Value::Num(session.attempted as f64)),
        ("failed", Value::Num(session.failed as f64)),
        ("wall_samples", Value::Num(session.samples_ms.len() as f64)),
        ("end_to_end", e2e),
        ("per_layer", metrics::to_json(PER_LAYER.iter(), &pass.values)),
    ])
}

/// How a workload's `why` in `BENCHMARK.json` records its measured noise.
pub fn noise_note(workload: &str) -> String {
    let metric = END_TO_END[0].name;
    match (metrics::measured_spread(workload, metric), metrics::bound(workload, metric)) {
        (Some(spread), Some(bound)) => format!("{metric} spread {spread}, bound {bound}."),
        _ => format!("`{workload}` has no recorded spread"),
    }
}

/// What in `BENCHMARK.json` differs from the names, units, directions and
/// bounds this program emits. Empty when they agree.
pub fn manifest_mismatches(manifest: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let names = |key: &str| -> Vec<&Value> {
        manifest.get(key).and_then(Value::as_array).map_or(Vec::new(), |a| a.iter().collect())
    };
    let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_owned();

    let listed: Vec<String> = names("workloads").iter().map(|w| field(w, "name")).collect();
    let run: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if listed != run {
        problems.push(format!("workloads: manifest lists {listed:?}, the benchmark runs {run:?}"));
    }
    // The manifest has no field for a per-workload bound, so each `why`
    // ends with the spread recorded for that workload and the bound it gives.
    for workload in names("workloads") {
        let note = noise_note(&field(workload, "name"));
        if !field(workload, "why").ends_with(&note) {
            problems.push(format!(
                "workloads: the why of `{}` does not end with `{note}`",
                field(workload, "name")
            ));
        }
    }
    let mut compare = |key: &str, defs: Vec<(&metrics::MetricDef, Option<f64>)>| {
        let entries = names(key);
        if entries.len() != defs.len() {
            problems.push(format!(
                "{key}: manifest lists {}, the benchmark emits {}",
                entries.len(),
                defs.len()
            ));
        }
        for (def, bound) in defs {
            let Some(entry) = entries.iter().find(|e| field(e, "name") == def.name) else {
                problems.push(format!("{key}: `{}` is missing from the manifest", def.name));
                continue;
            };
            if field(entry, "unit") != def.unit || field(entry, "better") != def.better.as_str() {
                problems.push(format!("{key}: `{}` has another unit or direction", def.name));
            }
            if bound.is_some() && entry.get("bound").and_then(Value::as_f64) != bound {
                problems.push(format!("{key}: `{}` has another bound", def.name));
            }
        }
    };
    compare(
        "end_to_end",
        END_TO_END.iter().zip(CONTRACT_BOUNDS).map(|(d, b)| (d, Some(b))).collect(),
    );
    compare("per_layer", PER_LAYER.iter().map(|d| (d, None)).collect());
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn the_repository_manifest_lists_exactly_what_the_benchmark_emits() {
        let text = std::fs::read_to_string(manifest_path()).expect("BENCHMARK.json at the root");
        let manifest = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(manifest_mismatches(&manifest), Vec::<String>::new());
    }

    #[test]
    fn a_drifted_manifest_is_reported_by_name() {
        let manifest = json::parse(
            r#"{"workloads": [{"name": "logical_solve", "why": "The baseline."}],
                "end_to_end": [{"name": "job_wall_x_ref", "unit": "ms", "better": "lower", "bound": 0.15},
                               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap();
        let problems = manifest_mismatches(&manifest).join("\n");
        assert!(problems.contains("workloads: manifest lists [\"logical_solve\"]"), "{problems}");
        assert!(problems.contains("`logical_solve` does not end with"), "{problems}");
        assert!(problems.contains("`job_wall_x_ref` has another unit"), "{problems}");
        assert!(problems.contains("`setup_s` has another bound"), "{problems}");
        assert!(!problems.contains("`setup_s` has another unit"), "{problems}");
        assert!(problems.contains("`eigen.pool_speedup_w2` is missing"), "{problems}");
    }
}
