//! `ppr-benchmark`: one wall-clock benchmark of the whole exact-ppr system.
//!
//! ```text
//! ppr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--results <file>]
//! ppr-benchmark compare <a.json> <b.json>
//! ppr-benchmark spec            # print BENCHMARK.json
//! ppr-benchmark worker          # (hidden) one socket-cluster worker process
//! ```
//!
//! A run prints `workload metric value unit` lines and, last, the one-line
//! JSON object the driver reads. See README.md.

mod build;
mod closed;
mod compare;
mod harness;
mod layers;
mod mixed;
mod openloop;
mod result;
mod spec;
mod staged;
mod stats;
mod trace;

use exact_ppr::core::parallel::Stopwatch;
use harness::{Args, Checks};
use result::{Meta, Metrics, RunResult};
use std::path::PathBuf;
use std::process::ExitCode;

/// What a workload hands back.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Metrics,
    /// The spans of a traced run.
    pub trace: Option<trace::Recorder>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ppr-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--results FILE]\n       ppr-benchmark compare <a.json> <b.json>\n       ppr-benchmark spec",
        spec::workload_names().join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String], started: Stopwatch) -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        results: None,
        started,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && s.is_finite())?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--results" => args.results = Some(PathBuf::from(value)),
            _ => return None,
        }
    }
    spec::workload_names()
        .contains(&args.workload.as_str())
        .then_some(args)
}

fn main() -> ExitCode {
    let started = Stopwatch::start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("worker") => {
            return match exact_ppr::serve::worker::run_from_env() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("worker: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json().render());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            let [_, a, b] = argv.as_slice() else {
                return usage();
            };
            let read = |p: &String| result::read_file(std::path::Path::new(p));
            return match (read(a), read(b)) {
                (Ok(a), Ok(b)) => {
                    if compare::compare(&a, &b) == 0 {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let Some(args) = parse(&argv, started) else {
        return usage();
    };
    let cores = harness::host_cores();
    if cores < 2 {
        eprintln!("ppr-benchmark: refusing to run on {cores} core: the fan-out and the build need at least 2");
        return ExitCode::from(2);
    }
    harness::install_sigint_handler();

    let mut outcome = match args.workload.as_str() {
        "build" => build::run(&args),
        "fresh-inproc" => closed::run(closed::Kind::FreshInproc, &args),
        "fresh-socket" => closed::run(closed::Kind::FreshSocket, &args),
        "hot" => closed::run(closed::Kind::Hot, &args),
        "mixed-openloop" => mixed::run(&args),
        other => unreachable!("parse admitted unknown workload {other}"),
    };
    if let Some(rec) = &outcome.trace {
        let path = harness::out_dir().join(format!("trace-{}.json", args.workload));
        if let Err(e) = std::fs::write(&path, rec.to_json(&args.workload).render()) {
            eprintln!("ppr-benchmark: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if args.trace {
        let checks = &outcome.checks;
        outcome.metrics.set(
            "failed_share",
            checks.failed as f64 / checks.attempted.max(1) as f64,
        );
    }
    let run = RunResult::new(
        &args,
        outcome.checks,
        outcome.metrics,
        Meta::from_env(cores),
    );
    eprintln!(
        "{} seed {} trace {}: {} attempted, {} failed, total {:.1} s",
        run.workload,
        run.seed,
        u8::from(run.trace),
        run.attempted,
        run.failed,
        started.elapsed_seconds()
    );
    if let Some(path) = &args.results {
        if let Err(e) = result::append_to_file(path, &run) {
            eprintln!("ppr-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    print!("{}", run.table());
    println!("{}", run.final_line());
    if run.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
