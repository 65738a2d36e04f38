//! The tracked outputs under `crates/bench/paper/` are what the experiments
//! print now. Each tracked invocation is run again and diffed, text and
//! files, against its directory; the first differing line fails the test
//! with the file, the line, both texts and the command that re-captures it.
//! An intentional change runs that command and commits the diff.
//!
//! The [`SLOW`] invocations take 30–100 s each in a debug build and ≈ 3 s
//! in release, so they are `#[ignore]`d here and CI runs them with
//! `cargo test --release -q -p mph-bench -- --ignored`.

use mph_bench::{paper_dir, run, stem, EXPERIMENTS, TRACKED, UNTRACKED};
use std::fs;
use std::thread;

/// The tracked invocations the debug build leaves to the release run.
const SLOW: &[&[&str]] = &[&["table2"], &["validate_simnet"], &["vclock_tables"]];

/// Runs `invocation` and diffs its output against its tracked directory:
/// the first difference, or `None`.
fn diff(invocation: &[&str]) -> Option<String> {
    let args: Vec<String> = invocation.iter().map(|w| w.to_string()).collect();
    let report = run(&args).expect("every tracked invocation names an experiment");
    let dir = paper_dir().join(stem(invocation));
    let recapture = format!(
        "re-capture with `cargo run --release -p mph-bench -- {}` and commit the diff",
        invocation.join(" ")
    );
    let mut want: Vec<&str> = report.outputs().map(|(name, _)| name).collect();
    want.sort_unstable();
    let mut tracked: Vec<String> = fs::read_dir(&dir)
        .map(|entries| entries.map(|e| e.unwrap().file_name().to_string_lossy().into()).collect())
        .unwrap_or_default();
    tracked.sort_unstable();
    if tracked != want {
        return Some(format!(
            "{}: tracked files {tracked:?}, the experiment writes {want:?}; {recapture}",
            dir.display()
        ));
    }
    for (name, now) in report.outputs() {
        let path = dir.join(name);
        let before = fs::read_to_string(&path).expect("a tracked file is UTF-8");
        let (mut a, mut b) = (before.split('\n'), now.split('\n'));
        for line in 1.. {
            match (a.next(), b.next()) {
                (None, None) => break,
                (x, y) if x == y => {}
                (x, y) => {
                    return Some(format!(
                        "{}:{line}: the tracked output and the experiment's differ\n  \
                         tracked: {}\n  now:     {}\n{recapture}",
                        path.display(),
                        x.unwrap_or("<end of file>"),
                        y.unwrap_or("<end of file>"),
                    ))
                }
            }
        }
    }
    None
}

/// Diffs every invocation of `invocations` at once, one thread each, and
/// fails on the first, in roster order, that differs.
fn check<'a>(invocations: impl Iterator<Item = &'a &'a [&'a str]>) {
    let diffs: Vec<Option<String>> = thread::scope(|s| {
        let runs: Vec<_> = invocations.map(|inv| s.spawn(move || diff(inv))).collect();
        runs.into_iter().map(|run| run.join().expect("the experiment panicked")).collect()
    });
    if let Some(first) = diffs.into_iter().flatten().next() {
        panic!("{first}");
    }
}

#[test]
fn the_tracked_outputs_are_what_the_experiments_print() {
    check(TRACKED.iter().filter(|inv| !SLOW.contains(inv)));
}

#[test]
#[ignore = "30–100 s each in a debug build; CI runs it with --release"]
fn the_slow_tracked_outputs_are_what_the_experiments_print() {
    check(SLOW.iter());
}

/// A new experiment cannot go ungated: each is tracked or listed untracked,
/// and every slow invocation is a tracked one.
#[test]
fn every_experiment_is_tracked_or_listed_untracked() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    for name in &names {
        let tracked = TRACKED.iter().any(|inv| inv[0] == *name);
        assert!(
            tracked != UNTRACKED.contains(name),
            "`{name}` must be either in TRACKED or in UNTRACKED, not {}",
            if tracked { "both" } else { "neither" }
        );
    }
    for inv in TRACKED {
        assert!(names.contains(&inv[0]), "{inv:?} names no experiment");
    }
    for name in UNTRACKED {
        assert!(names.contains(name), "`{name}` names no experiment");
    }
    for inv in SLOW {
        assert!(TRACKED.contains(inv), "{inv:?} is slow but not tracked");
    }
}

/// A deleted experiment cannot leave an orphan: every entry of `paper/` is
/// the directory of a tracked invocation (the diffs above hold the files in
/// each directory to the ones its invocation writes).
#[test]
fn every_tracked_directory_belongs_to_a_tracked_invocation() {
    let mut found: Vec<String> = fs::read_dir(paper_dir())
        .expect("crates/bench/paper is tracked")
        .map(|e| {
            let e = e.unwrap();
            assert!(e.path().is_dir(), "{} is not an invocation's directory", e.path().display());
            e.file_name().to_string_lossy().into()
        })
        .collect();
    found.sort_unstable();
    let mut want: Vec<String> = TRACKED.iter().map(|inv| stem(inv)).collect();
    want.sort_unstable();
    assert_eq!(found, want, "paper/ holds a directory no tracked invocation writes, or lacks one");
}
