//! Command line of the benchmark.
//!
//! ```text
//! mph-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mph-benchmark [--seed <n>] [--smoke]
//! mph-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is what the benchmark driver runs: one workload, one
//! JSON result as the last line. The second runs all six workloads
//! interleaved in rounds, then the traced pass, and writes a result file
//! under `benchmark/out/`. The third compares two result files. The timed
//! runs of the first two are confined to one CPU ([`host::Confined`]).

use std::process::ExitCode;

use mph_benchmark::json::{self, Value};
use mph_benchmark::layers::traced_pass;
use mph_benchmark::metrics::{self, PER_LAYER};
use mph_benchmark::workloads::{Mode, Scale, Session, Workload, NODES};
use mph_benchmark::{compare, host, report, stats};

#[global_allocator]
static ALLOC: mph_benchmark::alloc::Counting = mph_benchmark::alloc::Counting;

const DEFAULT_SEED: u64 = 424_242;
const DEFAULT_SECONDS: f64 = 10.0;
const ROUNDS: usize = 10;
const SMOKE_ROUNDS: usize = 2;

const USAGE: &str = "usage:
  mph-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  mph-benchmark [--seed <n>] [--smoke]
  mph-benchmark compare <a.json> <b.json>
workloads: logical_solve logical_pool threaded_blocks threaded_packets serve_load model_sweep";

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                parsed.seed = Some(value()?.parse().map_err(|_| "--seed takes a whole number")?)
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse_args(&args).and_then(|parsed| match parsed.workload {
            Some(workload) => run_one(workload, &parsed),
            None => run_suite(&parsed),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("mph-benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Confines the process to one CPU for its timed runs and says so.
fn confine() -> Option<host::Confined> {
    let confined = host::Confined::to_one_cpu();
    match &confined {
        Some(c) => println!("timed runs confined to cpu {}: no parallel speed-up in them", c.cpu),
        None => println!("timed runs not confined to one cpu: expect noisier wall numbers"),
    }
    confined
}

/// The driver's form: one workload, the result as the last line of stdout.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let scale = if args.smoke { Scale::SMOKE } else { Scale::FULL };
    let traced = args.trace.unwrap_or(false);
    println!(
        "{} seed {seed}: {NODES} nodes on {} cores{}, expected lanes dispatch {}",
        workload.name(),
        host::cores(),
        if NODES > host::cores() { " (oversubscribed)" } else { "" },
        host::expected_lanes_dispatch()
    );
    let (session, metrics) = if traced {
        let mut session = Session::new(workload, seed, scale);
        let pass = traced_pass(&mut session);
        report::print_per_layer(workload, &pass);
        report::write_traces(workload, &pass).map_err(|e| format!("cannot write traces: {e}"))?;
        report::print_failures(&session);
        (session, metrics::to_json(PER_LAYER.iter(), &pass.values))
    } else {
        // Set-up included: it is timed too.
        confine();
        let mut session = Session::new(workload, seed, scale);
        // One set-up before each slice of the measuring window, so that the
        // set-ups sample the host's speed over the whole run.
        let slices = workload.setup_repeats();
        for slice in 0..slices {
            if slice > 0 {
                session.repeat_setup();
            }
            session.run_for(args.seconds.unwrap_or(DEFAULT_SECONDS) / slices as f64);
        }
        let values = session.end_to_end();
        report::print_end_to_end(&session, &values);
        (session, metrics::to_json(&metrics::END_TO_END, &values))
    };
    println!("{}", report::result_line(&session, metrics));
    Ok(session.failed == 0)
}

/// All six workloads interleaved in rounds, then the traced pass of each.
fn run_suite(args: &Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let scale = if args.smoke { Scale::SMOKE } else { Scale::FULL };
    let rounds = if args.smoke { SMOKE_ROUNDS } else { ROUNDS };
    let cores = host::cores();
    // The set-ups and the timed rounds on one CPU, the traced passes on all.
    let confined = confine();
    let fingerprint =
        host::fingerprint(seed, rounds, NODES, cores, confined.as_ref().map(|c| c.cpu));
    println!("host: {}", fingerprint.to_line());
    println!(
        "wall = host time, differs from run to run; vtime and counts = the fabric's virtual clock \
         on the paper's Figure-2 machine, repeat bit for bit.\n\
         serve_load arrivals are data on the virtual clock: latency is timed from the instant each \
         job was due, and the load generator is never late."
    );

    let mut sessions: Vec<Session> =
        Workload::ALL.iter().map(|&w| Session::new(w, seed, scale)).collect();
    // Interleaved: the host's speed drifts over tens of seconds, and a round
    // spreads that drift over every workload instead of handing it to one.
    let mut round_medians: Vec<Vec<f64>> = vec![Vec::new(); sessions.len()];
    for round in 0..rounds {
        for (session, medians) in sessions.iter_mut().zip(&mut round_medians) {
            let seen = session.samples_x_ref.len();
            session.run_jobs(Mode::Timed, session.workload.slice_jobs());
            medians.push(stats::median(&session.samples_x_ref[seen..]));
        }
        eprintln!("round {}/{rounds} done", round + 1);
    }
    if let Some(confined) = confined {
        confined.release();
    }

    let mut entries = Vec::new();
    let mut correct = true;
    for (session, medians) in sessions.iter_mut().zip(&round_medians) {
        let values = session.end_to_end();
        report::print_end_to_end(session, &values);
        // The suite sets each workload up once, so `setup_s` has no spread of
        // its own here and `compare` will not resolve it.
        let spread = stats::iqr_ratio(medians);
        println!("  job_wall_x_ref: spread of the {} round medians {spread:.3}", medians.len());
        let spreads = metrics::Values::from([("job_wall_x_ref", spread)]);
        let pass = traced_pass(session);
        report::print_per_layer(session.workload, &pass);
        report::write_traces(session.workload, &pass)
            .map_err(|e| format!("cannot write traces: {e}"))?;
        correct &= session.failed == 0;
        entries.push(report::workload_entry(session, &values, &spreads, &pass));
    }

    let result = Value::obj([
        ("benchmark", Value::str("mph-benchmark")),
        ("smoke", Value::Bool(args.smoke)),
        ("fingerprint", fingerprint),
        ("workloads", Value::Arr(entries)),
    ]);
    let path = report::out_dir().join(format!(
        "result-{seed}-{}.json",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs())
    ));
    std::fs::write(&path, result.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());

    if args.smoke {
        let text = std::fs::read_to_string(report::manifest_path())
            .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
        let problems = report::manifest_mismatches(&json::parse(&text)?);
        for problem in &problems {
            println!("FAILED BENCHMARK.json: {problem}");
        }
        correct &= problems.is_empty();
    }
    println!("{}", if correct { "all checks passed" } else { "CHECKS FAILED" });
    Ok(correct)
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else { return Err("compare takes two result files".into()) };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, worse) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    println!("{worse} metrics worse");
    Ok(worse == 0)
}
