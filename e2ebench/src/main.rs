//! The benchmark command.
//!
//! ```text
//! dagfl-e2ebench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! dagfl-e2ebench --record-baseline > baseline.json
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a table of the same
//! metrics goes to standard error. The process exits with 0 only when
//! every run passed its checks.

use std::process::{Command, ExitCode};

use dagfl_e2ebench::measure::{end_to_end, once, per_layer, Outcome};
use dagfl_e2ebench::workload::{Workload, DEFAULT_SEED};

/// The seeds `--record-baseline` records: the default seed and one more,
/// to show the metrics behave alike on inputs the baseline was not
/// taken on.
const BASELINE_SEEDS: [u64; 2] = [DEFAULT_SEED, 7];

/// The recorded exact outcomes the traced run compares itself with.
const BASELINE: &str = include_str!("../baseline.json");

const USAGE: &str =
    "usage: dagfl-e2ebench --workload <rounds-specialize|async-10k|rounds-gru|all> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       \
                     dagfl-e2ebench --record-baseline";

struct Args {
    /// `None` for `--workload all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    record_baseline: bool,
    /// Internal: run the workload once and print the numbers
    /// `end_to_end` reads from its child processes.
    once: bool,
    /// Internal, with `--once`: event-loop workers.
    workers: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
        record_baseline: false,
        once: false,
        workers: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--record-baseline" => args.record_baseline = true,
            "--once" => args.once = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--workers" => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                let number = || {
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("{flag} {value}: {e}"))
                };
                match flag.as_str() {
                    "--workload" => workload = Some(value.clone()),
                    "--seed" => args.seed = number()?,
                    "--seconds" => args.seconds = number()?,
                    "--workers" => args.workers = Some(number()? as usize),
                    _ => {
                        args.trace = match value.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                        }
                    }
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match workload.as_deref() {
        None if args.record_baseline => {}
        None => return Err("--workload is required".into()),
        Some("all") if !args.once => {}
        Some(name) => {
            args.workload =
                Some(Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?)
        }
    }
    Ok(args)
}

/// Measures one workload and prints its table and JSON line.
fn measure_one(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let outcome = if args.trace {
        per_layer(workload, args.seed, args.seconds)?
    } else {
        end_to_end(workload, args.seed, args.seconds)?
    };
    let mode = if args.trace { "traced" } else { "untraced" };
    eprintln!(
        "{} (seed {}, {mode}): {} runs, {} failed",
        workload.name(),
        args.seed,
        outcome.attempted,
        outcome.failed
    );
    eprint!("{}", outcome.table());
    if let Some(record) = &outcome.record {
        let key = format!("\"{}@{}\":", workload.name(), args.seed);
        match BASELINE.lines().find(|l| l.trim_start().starts_with(&key)) {
            Some(line) if line.trim().trim_end_matches(',') == record => {
                eprintln!("exact outcomes match baseline.json");
            }
            Some(line) => eprintln!(
                "exact outcomes differ from baseline.json:\n  recorded {}\n  measured {record}",
                line.trim()
            ),
            None => {}
        }
    }
    Ok(outcome)
}

/// Runs every workload in its own process, so each reports its own peak
/// memory, and prints one summary line.
fn measure_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failed = 0;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| e.to_string())?;
        if !status.success() {
            failed += 1;
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        failed == 0,
        Workload::ALL.len()
    );
    Ok(failed == 0)
}

/// Prints `baseline.json`: the exact outcomes of a traced run of every
/// workload at each of [`BASELINE_SEEDS`].
fn record_baseline() -> Result<bool, String> {
    let mut lines = Vec::new();
    let mut correct = true;
    for seed in BASELINE_SEEDS {
        for workload in Workload::ALL {
            let outcome = per_layer(workload, seed, 0)?;
            correct &= outcome.correct;
            lines.extend(outcome.record);
        }
    }
    println!("{{\n  {}\n}}", lines.join(",\n  "));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.workload, args.once) {
        _ if args.record_baseline => record_baseline(),
        (Some(workload), true) => once(workload, args.seed, args.workers).map(|line| {
            println!("{line}");
            true
        }),
        (Some(workload), false) => measure_one(workload, &args).map(|outcome| {
            println!("{}", outcome.to_json());
            outcome.correct
        }),
        (None, _) => measure_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
