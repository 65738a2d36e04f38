//! `mph-bench pairs` end to end, on two tiny commands that print a result
//! line as the repository benchmark does: the pairs alternate which side
//! runs first, the medians and the pairs won are read off the last lines,
//! and a failed run, a result that is not correct or a line that does not
//! parse stops it with a non-zero exit.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::{env, fs};

/// A result line reporting `x_ref` and `setup_s`.
fn result_line(correct: bool, x_ref: f64, setup_s: f64) -> String {
    format!(
        r#"{{"correct": {correct}, "attempted": 3, "failed": 0, "metrics": {{"job_wall_x_ref": {{"value": {x_ref}, "unit": "x_ref"}}, "setup_s": {{"value": {setup_s}, "unit": "s"}}}}}}"#
    )
}

/// A command prefix that appends `name` and its arguments to `log`, prints
/// a line of chatter, then `line`.
fn fake(name: &str, log: &Path, line: &str) -> String {
    format!(
        "sh -c 'echo {name} \"$@\" >> {}; echo chatter; echo '\\''{line}'\\''' {name}",
        log.display()
    )
}

/// Runs `mph-bench pairs` with `args`.
fn pairs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mph-bench"))
        .arg("pairs")
        .args(args)
        .output()
        .expect("mph-bench runs")
}

/// A fresh log file in the system's temporary directory.
fn log(name: &str) -> PathBuf {
    let path = env::temp_dir().join(format!("mph-bench-pairs-{}-{name}.log", std::process::id()));
    let _ = fs::remove_file(&path);
    path
}

#[test]
fn pairs_alternate_and_compare_the_two_sides() {
    let log = log("alternate");
    let a = fake("A", &log, &result_line(true, 2.0, 0.5));
    let b = fake("B", &log, &result_line(true, 1.0, 0.25));
    let out = pairs(&[
        "--workload",
        "model_sweep",
        "--seed",
        "11",
        "--seconds",
        "1",
        "--pairs",
        "4",
        &a,
        &b,
    ]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}{}", String::from_utf8_lossy(&out.stderr));
    // Each run got the benchmark's arguments; A went first in pairs 1 and 3.
    let runs = fs::read_to_string(&log).expect("the fakes wrote their log");
    fs::remove_file(&log).expect("the log is ours");
    let order: Vec<&str> = runs.lines().map(|l| &l[..1]).collect();
    assert_eq!(order, ["A", "B", "B", "A", "A", "B", "B", "A"]);
    assert!(runs
        .lines()
        .all(|l| l.ends_with(" --workload model_sweep --seed 11 --seconds 1 --trace 0")));
    assert!(text.contains("job_wall_x_ref: A 2.000000 [2.000000–2.000000]  B 1.000000"), "{text}");
    assert!(text.contains("B won 4/4, gap -1.000000 (-50.0 %)"), "{text}");
    assert!(text.contains("gain holds"), "{text}");
    assert!(text.contains("setup_s: A 0.500000"), "{text}");
}

#[test]
fn a_failed_incorrect_or_unreadable_run_stops_it() {
    let log = log("stops");
    let good = fake("A", &log, &result_line(true, 2.0, 0.5));
    let cases = [
        ("sh -c 'exit 3'".to_owned(), "failed"),
        (fake("B", &log, &result_line(false, 1.0, 0.25)), "\"correct\": false"),
        (fake("B", &log, "all checks passed"), "cannot parse"),
        (fake("B", &log, &result_line(true, 1.0, 0.25).replace("1, ", "fast, ")), "cannot parse"),
    ];
    for (bad, why) in cases {
        let out = pairs(&["--pairs", "2", &good, &bad]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{bad}: exited 0");
        assert!(err.contains(why), "{bad}: {err}");
    }
    let _ = fs::remove_file(&log);
    assert!(!pairs(&["only-one-side"]).status.success());
}
