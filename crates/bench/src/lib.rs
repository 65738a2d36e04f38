//! The experiments behind the paper's tables and figures and README's
//! virtual-clock tables. Each is a function of its command-line arguments
//! that returns what it prints and the files it writes (a [`Report`]);
//! `mph-bench <experiment> [args]` runs one and `mph-bench all` runs them
//! all.
//!
//! Every number a [`TRACKED`] invocation prints is a pure function of the
//! commit, so its output is committed under `paper/<stem>/` ([`paper_dir`],
//! [`stem`]) and `tests/paper.rs` regenerates and diffs it: an intentional
//! change re-runs the CLI and commits the diff. The [`UNTRACKED`]
//! experiments write into the git-ignored `results/<stem>/` instead.

use std::path::{Path, PathBuf};

/// `println!` into a [`Report`]'s text.
macro_rules! say {
    ($r:expr) => {
        $r.text.push('\n')
    };
    ($r:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($r.text, $($arg)*).expect("a String takes every write");
    }};
}

mod model;
mod orderings;
mod pairs;
mod solver;
mod vclock;

pub use pairs::pairs;

/// What one experiment prints and the files it writes.
#[derive(Default)]
pub struct Report {
    /// The printed text.
    pub text: String,
    /// `(file name, contents)` of every file, in the order written.
    pub files: Vec<(String, String)>,
}

impl Report {
    /// `(file name, contents)` of everything an output directory holds:
    /// the text as `stdout.txt`, then the files.
    pub fn outputs(&self) -> impl Iterator<Item = (&str, &str)> {
        let files = self.files.iter().map(|(name, body)| (name.as_str(), body.as_str()));
        std::iter::once(("stdout.txt", self.text.as_str())).chain(files)
    }

    /// A banner line opening a section of the text.
    fn banner(&mut self, title: &str) {
        say!(self, "\n==== {title} {}", "=".repeat(66usize.saturating_sub(title.len())));
    }

    /// A CSV file: `header`, then one line per row.
    fn csv(&mut self, name: &str, header: &str, rows: &[String]) {
        let mut body = format!("{header}\n");
        for row in rows {
            body.push_str(row);
            body.push('\n');
        }
        self.files.push((name.to_owned(), body));
    }
}

/// An experiment: its arguments (the words after its name) to its output.
pub type Experiment = fn(&[String]) -> Report;

/// Every experiment the CLI runs, by name.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", orderings::table1),
    ("table2", solver::table2),
    ("figure1_path", orderings::figure1_path),
    ("figure2", model::figure2),
    ("figure3_transforms", orderings::figure3_transforms),
    ("minalpha_report", orderings::minalpha_report),
    ("sequences_dump", orderings::sequences_dump),
    ("exec_speedup", model::exec_speedup),
    ("validate_simnet", model::validate_simnet),
    ("ablation_ports", model::ablation_ports),
    ("ablation_q", model::ablation_q),
    ("ablation_tolerance", solver::ablation_tolerance),
    ("vclock_tables", vclock::vclock_tables),
];

/// The invocations whose output is committed, each under
/// `paper/<stem>/`: every experiment whose output is a pure function of
/// the commit, at its default arguments.
pub const TRACKED: &[&[&str]] = &[
    &["table1"],
    &["table2"],
    &["figure1_path"],
    &["figure2"],
    &["figure3_transforms"],
    &["minalpha_report"],
    &["exec_speedup"],
    &["validate_simnet"],
    &["ablation_ports"],
    &["ablation_q"],
    &["ablation_tolerance"],
    &["vclock_tables", "--smoke"],
    &["vclock_tables"],
];

/// The experiments whose output is not committed.
pub const UNTRACKED: &[&str] = &[
    // ≈ 275 KB of digits that `crates/core/tests/golden.rs` already pins.
    "sequences_dump",
];

/// Runs `invocation` — an experiment's name, then its arguments — or
/// `None` if it names no experiment.
pub fn run(invocation: &[String]) -> Option<Report> {
    let (name, args) = invocation.split_first()?;
    EXPERIMENTS.iter().find(|(n, _)| n == name).map(|(_, experiment)| experiment(args))
}

/// The directory name of an invocation's output: its words joined by `_`,
/// leading dashes dropped (`vclock_tables --smoke` → `vclock_tables_smoke`).
pub fn stem(invocation: &[impl AsRef<str>]) -> String {
    let words: Vec<&str> = invocation.iter().map(|w| w.as_ref().trim_start_matches('-')).collect();
    words.join("_")
}

/// The tracked output directory, `crates/bench/paper`.
pub fn paper_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("paper")
}
