//! `compare <a.json> <b.json>`: two result files, metric by metric.

use std::fmt::Write as _;

use crate::json::Value;
use crate::metrics::{self, lookup, Better, Clock};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The run-to-run spread exceeds the bound, or was not measured: the two
    /// values cannot be told apart, and calling them the same would claim
    /// too much.
    Unresolved,
    /// A wall-clock layer metric: it has no bound, so it gets no verdict.
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// By how much of `a` the value `b` is worse (negative: better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The verdict on one metric: `a` is the base, `b` the candidate, `spread`
/// the larger of the two runs' own spreads of this metric (infinite if
/// either run did not measure it). A value that is not a number is worse.
pub fn verdict(
    a: f64,
    b: f64,
    better: Better,
    clock: Clock,
    bound: Option<f64>,
    spread: f64,
) -> Verdict {
    if !(a.is_finite() && b.is_finite()) {
        return Verdict::Worse;
    }
    let worse_by = worsening(a, b, better);
    match (clock, bound) {
        (Clock::Exact, _) if a.to_bits() == b.to_bits() => Verdict::Same,
        (Clock::Exact, _) if worse_by > 0.0 => Verdict::Worse,
        (Clock::Exact, _) => Verdict::Better,
        (Clock::Wall, None) => Verdict::Info,
        (Clock::Wall, Some(bound)) if spread > bound => Verdict::Unresolved,
        (Clock::Wall, Some(bound)) if worse_by > bound => Verdict::Worse,
        (Clock::Wall, Some(bound)) if worse_by < -bound => Verdict::Better,
        (Clock::Wall, Some(_)) => Verdict::Same,
    }
}

fn workloads(file: &Value) -> &[Value] {
    file.get("workloads").and_then(Value::as_array).unwrap_or(&[])
}

/// `key` of `v` as a number; NaN if it is missing or `null`, which is how
/// the writer stores a value that was not finite.
fn number(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// The comparison table of two result files and how many rows read
/// `worse`. `a` is the base of every ratio.
pub fn compare(a: &Value, b: &Value) -> (String, usize) {
    let mut out = String::new();
    let mut worse = 0;
    if a.get("fingerprint") != b.get("fingerprint") {
        writeln!(out, "note: the two runs have different host fingerprints; wall numbers compare hosts, not commits")
            .expect("writing to a String cannot fail");
    }
    writeln!(
        out,
        "{:<17} {:<34} {:>16} {:>16} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound", "spread"
    )
    .expect("writing to a String cannot fail");
    for wa in workloads(a) {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = workloads(b).iter().find(|w| w.get("name") == wa.get("name")) else {
            writeln!(out, "{name:<17} missing from b: worse")
                .expect("writing to a String cannot fail");
            worse += 1;
            continue;
        };
        let mut row = |metric: &str,
                       va: f64,
                       vb: f64,
                       bound: Option<f64>,
                       spread: f64,
                       v: Verdict| {
            worse += usize::from(v == Verdict::Worse);
            let ratio = if va != 0.0 && (vb / va).is_finite() {
                format!("{:.4}", vb / va)
            } else {
                "-".into()
            };
            let spread = match bound {
                Some(_) if spread.is_finite() => format!("{spread:.3}"),
                Some(_) => "none".into(),
                None => "-".into(),
            };
            let bound = bound.map_or("-".into(), |b| format!("{b}"));
            writeln!(
                out,
                "{name:<17} {metric:<34} {va:>16.4} {vb:>16.4} {ratio:>9} {bound:>7} {spread:>7}  {}",
                v.as_str()
            )
            .expect("writing to a String cannot fail");
        };
        // A job that fails where it passed before is worse whatever the clock.
        let (fa, fb) = (
            number(wa, "failed") / number(wa, "attempted").max(1.0),
            number(wb, "failed") / number(wb, "attempted").max(1.0),
        );
        row(
            "failed_share",
            fa,
            fb,
            Some(0.0),
            0.0,
            verdict(fa, fb, Better::Lower, Clock::Exact, None, 0.0),
        );
        for section in ["end_to_end", "per_layer"] {
            for (metric, ma) in wa.get(section).and_then(Value::as_object).unwrap_or(&[]) {
                let Some(def) = lookup(metric) else { continue };
                let Some(mb) = wb.get(section).and_then(|s| s.get(metric)) else { continue };
                let (va, vb) = (number(ma, "value"), number(mb, "value"));
                let bound = metrics::bound(name, metric);
                // `f64::max` would drop a NaN; an unmeasured spread must win.
                let spread = match (number(ma, "spread"), number(mb, "spread")) {
                    (sa, sb) if sa.is_nan() || sb.is_nan() => f64::INFINITY,
                    (sa, sb) => sa.max(sb),
                };
                row(
                    metric,
                    va,
                    vb,
                    bound,
                    spread,
                    verdict(va, vb, def.better, def.clock, bound, spread),
                );
            }
        }
    }
    (out, worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn exact_metrics_are_same_only_when_identical() {
        let v = |a, b, better| verdict(a, b, better, Clock::Exact, None, 0.0);
        assert_eq!(v(123063000.0, 123063000.0, Better::Lower), Verdict::Same);
        assert_eq!(v(123063000.0, 123063000.5, Better::Lower), Verdict::Worse);
        assert_eq!(v(123063000.0, 67657000.0, Better::Lower), Verdict::Better);
        assert_eq!(v(1.0, 1.1, Better::Higher), Verdict::Better);
        assert_eq!(v(0.0, 1.0, Better::Lower), Verdict::Worse);
    }

    #[test]
    fn wall_metrics_need_the_bound_and_a_spread_inside_it() {
        let v = |a, b, better, spread| verdict(a, b, better, Clock::Wall, Some(0.1), spread);
        assert_eq!(v(100.0, 105.0, Better::Lower, 0.02), Verdict::Same);
        assert_eq!(v(100.0, 115.0, Better::Lower, 0.02), Verdict::Worse);
        assert_eq!(v(100.0, 85.0, Better::Lower, 0.02), Verdict::Better);
        assert_eq!(v(100.0, 85.0, Better::Higher, 0.02), Verdict::Worse);
        assert_eq!(v(100.0, 101.0, Better::Lower, 0.3), Verdict::Unresolved, "never `same`");
        assert_eq!(verdict(1.0, 9.0, Better::Lower, Clock::Wall, None, 0.0), Verdict::Info);
        assert_eq!(v(100.0, 101.0, Better::Lower, f64::INFINITY), Verdict::Unresolved);
    }

    #[test]
    fn a_value_that_is_not_a_number_is_worse_on_either_side() {
        for clock in [Clock::Wall, Clock::Exact] {
            assert_eq!(verdict(1.0, f64::NAN, Better::Lower, clock, None, 0.0), Verdict::Worse);
            assert_eq!(
                verdict(f64::NAN, 1.0, Better::Higher, clock, Some(0.1), 0.0),
                Verdict::Worse
            );
        }
    }

    fn file(wall: f64, vtime: f64, failed: u64) -> Value {
        file_of("threaded_packets", wall, vtime, failed)
    }

    fn file_of(workload: &str, wall: f64, vtime: f64, failed: u64) -> Value {
        json::parse(&format!(
            r#"{{"fingerprint": {{"cores": 2}}, "workloads": [{{"name": "{workload}",
                "attempted": 100, "failed": {failed},
                "end_to_end": {{"job_wall_x_ref": {{"value": {wall}, "unit": "x_ref", "spread": 0.05}},
                                "setup_s": {{"value": 2.0, "unit": "s"}}}},
                "per_layer": {{"job_vtime_p50": {{"value": {vtime}, "unit": "vtime"}},
                               "host.cpu_ms_per_job": {{"value": {wall}, "unit": "ms"}}}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn the_table_counts_worse_rows_and_names_the_base() {
        let (table, worse) = compare(&file(100.0, 67657000.0, 0), &file(104.0, 67657000.0, 0));
        assert_eq!(worse, 0, "{table}");
        assert!(table.contains("a (base)"));
        assert!(
            table.lines().any(|l| l.contains("job_wall_x_ref") && l.ends_with("same")),
            "{table}"
        );
        assert!(
            table.lines().any(|l| l.contains("job_vtime_p50") && l.ends_with("same")),
            "{table}"
        );
        assert!(
            table.lines().any(|l| l.contains("host.cpu_ms_per_job") && l.ends_with('-')),
            "{table}"
        );

        assert!(
            table.lines().any(|l| l.contains("setup_s") && l.ends_with("none  unresolved")),
            "a set-up read once has no spread of its own: {table}"
        );

        let (table, worse) = compare(&file(100.0, 67657000.0, 0), &file(140.0, 67657001.0, 3));
        assert_eq!(worse, 3, "wall, vtime and failed_share: {table}");
        let (_, worse) =
            compare(&file(100.0, 1.0, 0), &json::parse(r#"{"workloads": []}"#).unwrap());
        assert_eq!(worse, 1, "a workload that vanished is worse");
    }

    #[test]
    fn each_workload_is_held_to_its_own_bound_and_null_is_worse() {
        let slower = |workload, to| {
            compare(&file_of(workload, 100.0, 1.0, 0), &file_of(workload, to, 1.0, 0)).1
        };
        assert_eq!(slower("logical_solve", 111.0), 1, "11 % is beyond a bound of 0.10");
        assert_eq!(slower("logical_pool", 111.0), 0, "and inside the noisiest workload's 0.12");

        let nan = json::parse(&file(100.0, 1.0, 0).to_line().replace("100,", "null,")).unwrap();
        let (table, worse) = compare(&file(100.0, 1.0, 0), &nan);
        assert_eq!(worse, 2, "job_wall_x_ref and host.cpu_ms_per_job: {table}");
    }
}
