//! `mph-bench pairs`: the repository benchmark's parent-against-change
//! protocol, run by one command.
//!
//! ```sh
//! mph-bench pairs [--workload W] [--seed S] [--seconds T] [--pairs N] '<A>' '<B>'
//! ```
//!
//! `A` and `B` are two command prefixes, each one shell word (typically the
//! benchmark binaries of two trees, `A` the parent). Pair `i` runs both with
//! `--workload W --seed S --seconds T --trace 0` appended, `A` first in the
//! odd pairs and `B` first in the even ones, and reads `correct`,
//! `job_wall_x_ref` and `setup_s` from each run's last line. It prints the
//! runs, each side's median and quartiles, the pairs `B` won (lower is
//! better for both metrics; a tie counts for neither) and the gap between
//! the medians against `A`'s interquartile spread — a gain holds when `B`
//! wins nine pairs in ten and the gap exceeds that spread. A failed run, a
//! result with `"correct": false` or a last line it cannot parse is an
//! error. It writes no file and is not part of `mph-bench all`.

use crate::Report;
use std::process::Command;

/// The end-to-end metrics read from a run, both lower-is-better.
const METRICS: [&str; 2] = ["job_wall_x_ref", "setup_s"];

/// What `pairs` runs.
#[derive(Debug)]
struct Plan {
    workload: String,
    seed: u64,
    seconds: f64,
    pairs: usize,
    sides: [String; 2],
}

/// The value given after the flag `name`, read as a `T`.
fn value<T: std::str::FromStr>(name: &str, given: Option<&String>) -> Result<T, String> {
    let given = given.ok_or_else(|| format!("{name} takes a value"))?;
    given.parse().map_err(|_| format!("{name}: cannot read {given:?}"))
}

/// Parses `pairs`' arguments.
fn plan(args: &[String]) -> Result<Plan, String> {
    let (mut workload, mut seed, mut seconds, mut pairs) = ("model_sweep".to_owned(), 7, 10.0, 10);
    let mut sides = Vec::new();
    let mut words = args.iter();
    while let Some(word) = words.next() {
        match word.as_str() {
            "--workload" => workload = value(word, words.next())?,
            "--seed" => seed = value(word, words.next())?,
            "--seconds" => seconds = value(word, words.next())?,
            "--pairs" => pairs = value(word, words.next())?,
            _ => sides.push(word.clone()),
        }
    }
    let sides: [String; 2] =
        sides.try_into().map_err(|_| "give two command prefixes, A then B".to_owned())?;
    if pairs == 0 {
        return Err("--pairs must be at least 1".to_owned());
    }
    Ok(Plan { workload, seed, seconds, pairs, sides })
}

/// One run's reading: `job_wall_x_ref` and `setup_s`.
type Reading = [f64; 2];

/// The number after `"value":` in `key`'s object of a result line.
fn value_of(line: &str, key: &str) -> Option<f64> {
    let quoted = format!("\"{key}\"");
    let after_key = &line[line.find(&quoted)? + quoted.len()..];
    let object = after_key.trim_start().strip_prefix(':')?.trim_start().strip_prefix('{')?;
    let value = object.trim_start().strip_prefix("\"value\"")?.trim_start().strip_prefix(':')?;
    let number = value.trim_start();
    let end = number.find([',', '}']).unwrap_or(number.len());
    number[..end].trim().parse().ok()
}

/// Reads a run's last line: its two metrics, or why it is not a correct
/// result.
fn reading(line: &str) -> Result<Reading, String> {
    let key = "\"correct\"";
    let correct = line.find(key).map(|at| line[at + key.len()..].trim_start());
    match correct.and_then(|rest| rest.strip_prefix(':')).map(str::trim_start) {
        Some(rest) if rest.starts_with("true") => {}
        Some(rest) if rest.starts_with("false") => {
            return Err(format!("the run reports \"correct\": false: {line}"))
        }
        _ => return Err(format!("cannot parse the result line: {line:?}")),
    }
    let [wall, setup] = METRICS;
    match (value_of(line, wall), value_of(line, setup)) {
        (Some(w), Some(s)) => Ok([w, s]),
        _ => Err(format!("cannot parse the result line: {line:?}")),
    }
}

/// Runs `prefix` with the plan's arguments through `sh -c` and reads its
/// last line.
fn run(prefix: &str, plan: &Plan) -> Result<Reading, String> {
    let command = format!(
        "{prefix} --workload {} --seed {} --seconds {} --trace 0",
        plan.workload, plan.seed, plan.seconds
    );
    let out = Command::new("sh")
        .arg("-c")
        .arg(&command)
        .output()
        .map_err(|e| format!("cannot start `{command}`: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!("`{command}` failed ({}): {}", out.status, err.trim_end()));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
    reading(last).map_err(|e| format!("`{command}`: {e}"))
}

/// The `p`-quantile of `xs` by linear interpolation between order
/// statistics.
fn quantile(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// The table and verdict of `readings`, `[A, B]` per pair.
fn report(plan: &Plan, readings: &[[Reading; 2]]) -> String {
    let mut r = Report::default();
    say!(
        r,
        "pairs: {} seed {}, {} s a run, {} pairs",
        plan.workload,
        plan.seed,
        plan.seconds,
        plan.pairs
    );
    say!(r, "  A: {}\n  B: {}", plan.sides[0], plan.sides[1]);
    say!(
        r,
        "{:>4}  {:>14} {:>14}  {:>10} {:>10}",
        "pair",
        "A x_ref",
        "B x_ref",
        "A setup_s",
        "B setup_s"
    );
    for (i, [a, b]) in readings.iter().enumerate() {
        say!(r, "{:>4}  {:>14.6} {:>14.6}  {:>10.6} {:>10.6}", i + 1, a[0], b[0], a[1], b[1]);
    }
    for (m, name) in METRICS.iter().enumerate() {
        let side = |s: usize| -> Vec<f64> { readings.iter().map(|r| r[s][m]).collect() };
        let stats = |xs: &[f64]| (quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75));
        let ((a50, a25, a75), (b50, b25, b75)) = (stats(&side(0)), stats(&side(1)));
        let won = readings.iter().filter(|r| r[1][m] < r[0][m]).count();
        let (gap, iqr) = (b50 - a50, a75 - a25);
        let holds = 10 * won >= 9 * readings.len() && -gap > iqr;
        say!(r, "{name}: A {a50:.6} [{a25:.6}–{a75:.6}]  B {b50:.6} [{b25:.6}–{b75:.6}]");
        say!(
            r,
            "  B won {won}/{}, gap {gap:+.6} ({:+.1} %) against A's IQR {iqr:.6}: gain {}",
            readings.len(),
            100.0 * gap / a50,
            if holds { "holds" } else { "not shown" }
        );
    }
    r.text
}

/// Runs `pairs` on its arguments: the report, or why it stopped.
pub fn pairs(args: &[String]) -> Result<String, String> {
    let plan = plan(args)?;
    let mut readings = Vec::with_capacity(plan.pairs);
    for i in 0..plan.pairs {
        let [a, b] = &plan.sides;
        let reading = if i % 2 == 0 {
            let a = run(a, &plan)?;
            [a, run(b, &plan)?]
        } else {
            let b = run(b, &plan)?;
            [run(a, &plan)?, b]
        };
        eprintln!("pair {}/{} done", i + 1, plan.pairs);
        readings.push(reading);
    }
    Ok(report(&plan, &readings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_reads_its_two_metrics() {
        let line = r#"{"correct": true, "attempted": 70, "failed": 0, "metrics": {"job_wall_x_ref": {"value": 0.0713, "unit": "x_ref"}, "setup_s": {"value": 1.9e-3, "unit": "s"}}}"#;
        assert_eq!(reading(line), Ok([0.0713, 1.9e-3]));
        let wrong = line.replace("true", "false");
        assert!(reading(&wrong).unwrap_err().contains("\"correct\": false"));
        for broken in ["", "all checks passed", &line.replace("0.0713", "fast"), &line[..90]] {
            assert!(reading(broken).unwrap_err().contains("cannot parse"), "{broken:?}");
        }
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!((quantile(&xs, 0.25), quantile(&xs, 0.5), quantile(&xs, 0.75)), (2.0, 3.0, 4.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn the_arguments_need_two_sides() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        let got = plan(&args("--seed 11 a --pairs 4 b")).unwrap();
        assert_eq!((got.seed, got.pairs, got.sides.clone()), (11, 4, ["a".into(), "b".into()]));
        assert_eq!((got.workload.as_str(), got.seconds), ("model_sweep", 10.0));
        assert!(plan(&args("only-a")).is_err());
        assert!(plan(&args("a b --seed")).is_err());
        assert!(plan(&args("a b --pairs 0")).is_err());
    }
}
