//! `mph-bench <experiment> [args]` runs one experiment: it prints the text
//! and writes the text (`stdout.txt`) and the experiment's files into
//! `crates/bench/paper/<stem>/` if the invocation is tracked, or into
//! `results/<stem>/` under the current directory (git-ignored) if not.
//! `mph-bench all` runs every tracked invocation, then every untracked
//! experiment at its default arguments, in this one process.
//! `mph-bench pairs` is no experiment: it runs two builds of the repository
//! benchmark against each other in alternating pairs and prints the
//! comparison, writing nothing (see [`mph_bench::pairs`]).
//!
//! ```sh
//! cargo run --release -p mph-bench -- all                  # re-capture everything
//! cargo run --release -p mph-bench -- vclock_tables --smoke
//! cargo run --release -p mph-bench -- table2 10 1e-4       # not tracked: results/
//! cargo run --release -p mph-bench -- pairs --workload model_sweep \
//!     "cd ../parent && .bench_build/release/mph-benchmark" ".bench_build/release/mph-benchmark"
//! ```

use mph_bench::{pairs, paper_dir, run, stem, EXPERIMENTS, TRACKED, UNTRACKED};
use std::path::PathBuf;
use std::{env, fs, process};

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.len() == 1 && args[0] == "all" {
        let tracked = TRACKED.iter().map(|inv| inv.iter().map(|w| w.to_string()).collect());
        let untracked = UNTRACKED.iter().map(|name| vec![name.to_string()]);
        for invocation in tracked.chain(untracked) {
            println!("\n######## {} ########", invocation.join(" "));
            execute(&invocation);
        }
    } else if args.first().is_some_and(|w| w == "pairs") {
        match pairs(&args[1..]) {
            Ok(text) => print!("{text}"),
            Err(why) => {
                eprintln!("mph-bench pairs: {why}");
                process::exit(1);
            }
        }
    } else if !execute(&args) {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "usage: mph-bench <experiment> [args] | all | pairs [--workload W] [--seed S] \
             [--seconds T] [--pairs N] '<A>' '<B>'\nexperiments: {}",
            names.join(" ")
        );
        process::exit(2);
    }
}

/// Runs `invocation`, prints its text and writes its output directory
/// afresh; `false` if it names no experiment.
fn execute(invocation: &[String]) -> bool {
    let Some(report) = run(invocation) else { return false };
    print!("{}", report.text);
    let tracked = TRACKED.iter().any(|t| *t == invocation);
    let dir = if tracked { paper_dir() } else { PathBuf::from("results") }.join(stem(invocation));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("cannot clear the output directory");
    }
    fs::create_dir_all(&dir).expect("cannot create the output directory");
    for (name, body) in report.outputs() {
        let path = dir.join(name);
        fs::write(&path, body).expect("cannot write an output file");
        println!("  -> wrote {}", path.display());
    }
    true
}
