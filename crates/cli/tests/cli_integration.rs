//! Integration tests of the CLI entry points: parsing and dispatch must
//! handle help and malformed invocations gracefully (no panics).

use dagfl_cli::{run_command, Command, ParseError, ParsedArgs};

#[test]
fn help_flag_parses_and_runs() {
    for invocation in [vec!["--help"], vec!["-h"], vec!["help"]] {
        let args = ParsedArgs::parse(invocation.clone()).expect("help parses");
        assert_eq!(args.command(), Command::Help);
        run_command(&args).unwrap_or_else(|e| panic!("help failed for {invocation:?}: {e}"));
    }
}

#[test]
fn unknown_subcommand_is_a_parse_error_not_a_panic() {
    let err = ParsedArgs::parse(["frobnicate"]).expect_err("unknown subcommand must fail");
    assert_eq!(err, ParseError::UnknownCommand("frobnicate".into()));
    // The error formats into a user-facing message naming the culprit.
    assert!(err.to_string().contains("frobnicate"));
}

#[test]
fn missing_subcommand_is_reported() {
    let err = ParsedArgs::parse(Vec::<String>::new()).expect_err("empty args must fail");
    assert_eq!(err, ParseError::MissingCommand);
}

#[test]
fn unknown_dataset_is_an_error_not_a_panic() {
    let args = ParsedArgs::parse(["dag", "--dataset", "no-such-dataset"]).expect("parses");
    let err = run_command(&args).expect_err("unknown dataset must fail");
    assert!(err.to_string().contains("no-such-dataset"));
}

#[test]
fn malformed_flag_value_is_an_error_not_a_panic() {
    let args = ParsedArgs::parse(["dag", "--rounds", "many"]).expect("parses");
    let err = run_command(&args).expect_err("non-numeric rounds must fail");
    assert!(err.to_string().contains("many"));
}

#[test]
fn help_documents_the_async_mode() {
    use dagfl_cli::USAGE;
    for needle in [
        "async",
        "--delay-model",
        "--stale-policy",
        "--train-time",
        "--slowdown",
    ] {
        assert!(USAGE.contains(needle), "usage missing {needle}");
    }
}

#[test]
fn tiny_async_run_succeeds_end_to_end() {
    // The asynchronous mode end-to-end: heterogeneous cohorts, jitter,
    // non-zero training time and a stale-tip policy, driven entirely
    // through CLI flags.
    let args = ParsedArgs::parse([
        "async",
        "--clients",
        "4",
        "--samples",
        "12",
        "--activations",
        "6",
        "--batches",
        "1",
        "--delay-model",
        "cohorts",
        "--delay",
        "0.5",
        "--slow-delay",
        "4",
        "--jitter",
        "0.3",
        "--slowdown",
        "2",
        "--train-time",
        "0.4",
        "--stale-policy",
        "reselect",
    ])
    .expect("parses");
    assert_eq!(args.command(), Command::Async);
    run_command(&args).expect("tiny async run succeeds");
}

#[test]
fn async_rejects_bad_policy_value() {
    let args = ParsedArgs::parse(["async", "--stale-policy", "bogus"]).expect("parses");
    let err = run_command(&args).expect_err("unknown policy must fail");
    assert!(err.to_string().contains("bogus"));
}

#[test]
fn tiny_dag_run_succeeds_end_to_end() {
    // A minimal real dispatch: 1 round on a tiny dataset, exercising the
    // whole dataset -> model -> simulation path behind `run_command`.
    let args = ParsedArgs::parse([
        "dag",
        "--rounds",
        "1",
        "--clients",
        "4",
        "--samples",
        "12",
        "--clients-per-round",
        "2",
        "--batches",
        "1",
    ])
    .expect("parses");
    run_command(&args).expect("tiny dag run succeeds");
}

#[test]
fn scenario_preset_runs_through_the_public_cli_surface() {
    // The declarative path: `dagfl run --preset smoke` resolves, validates
    // and executes a whole scenario through one entry point.
    let args = ParsedArgs::parse(["run", "--preset", "smoke"]).expect("parses");
    assert_eq!(args.command(), Command::Run);
    run_command(&args).expect("smoke preset runs");
}

#[test]
fn scenarios_listing_never_fails() {
    let args = ParsedArgs::parse(["scenarios"]).expect("parses");
    assert_eq!(args.command(), Command::Scenarios);
    run_command(&args).expect("preset listing succeeds");
}

#[test]
fn subcommand_help_prints_usage_and_succeeds() {
    for invocation in [
        vec!["perf", "--help"],
        vec!["run", "--help"],
        vec!["async", "-h"],
        vec!["sweep", "--help"],
        vec!["tracker", "--help"],
        vec!["dag", "--rounds", "0", "--help"],
    ] {
        let args = ParsedArgs::parse(invocation.clone()).expect("--help parses");
        run_command(&args).unwrap_or_else(|e| panic!("{invocation:?} failed: {e}"));
    }
}

/// Every count flag that used to treat an explicit `0` as "use the
/// default" (or as a silent no-op, or panicked on it) is now an error
/// naming the flag.
#[test]
fn zero_counts_are_errors_not_defaults() {
    for invocation in [
        vec!["async", "--clients", "0", "--activations", "2"],
        vec!["dag", "--samples", "0", "--rounds", "1"],
        vec!["dag", "--dataset", "poets", "--clients", "0"],
        vec!["fedavg", "--rounds", "0"],
        vec!["fedavg", "--clients-per-round", "0"],
        vec!["fedavg", "--epochs", "0"],
        vec!["fedavg", "--batches", "0"],
        vec!["fedprox", "--batch-size", "0"],
        vec!["local", "--rounds", "0"],
        vec!["local", "--batches", "0"],
        vec!["local", "--batch-size", "0"],
        vec!["sweep", "sweep-smoke", "--jobs", "0", "--dry-run"],
        vec!["tracker", "--expect", "0"],
    ] {
        let flag = invocation
            .iter()
            .zip(invocation.iter().skip(1))
            .find(|(_, value)| **value == "0")
            .map(|(flag, _)| flag.trim_start_matches("--"))
            .expect("a zero-valued flag");
        let args = ParsedArgs::parse(invocation.clone()).expect("parses");
        let err = run_command(&args).expect_err("a zero count must fail");
        assert_eq!(
            err.to_string(),
            format!("invalid value `0` for flag `{flag}`"),
            "{invocation:?}"
        );
    }
}

/// `dagfl run --preset <name> --digest` at quick scale reproduces the
/// checked-in golden stdout byte for byte. CI repeats the diff pinned to
/// one core, where every analysis kernel runs on a single thread.
#[test]
fn analysis_presets_match_their_goldens() {
    let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    for preset in ["analysis-smoke", "fig05-alpha10"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dagfl"))
            .args(["run", "--preset", preset, "--digest"])
            .env_remove("DAGFL_FULL")
            .output()
            .expect("the dagfl binary runs");
        assert!(out.status.success(), "{preset}: {out:?}");
        let golden = std::fs::read_to_string(golden_dir.join(format!("{preset}.txt")))
            .expect("golden file present");
        assert_eq!(String::from_utf8_lossy(&out.stdout), golden, "{preset}");
    }
}

/// Every sweep preset, and its checked-in `scenarios/<name>.toml` dump,
/// expands to the cells and comparison-CSV header in
/// `tests/golden/sweeps.txt`. The golden pins what sweep axes mean: a
/// change to how an axis resolves, names its cells or titles its CSV
/// column shows up here.
#[test]
fn sweep_presets_match_their_golden_expansion() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dagfl = |args: &[&str], results: &std::path::Path| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dagfl"))
            .args(args)
            .env_remove("DAGFL_FULL")
            .env("DAGFL_RESULTS", results)
            .output()
            .expect("the dagfl binary runs");
        assert!(out.status.success(), "{args:?}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let results = std::env::temp_dir().join("dagfl_cli_sweep_golden");
    let mut expansion = String::new();
    for (name, _) in dagfl_scenario::SweepSpec::preset_names() {
        let _ = std::fs::remove_dir_all(&results);
        let listing = dagfl(&["sweep", name, "--dry-run"], &results);
        let file = root.join(format!("scenarios/{name}.toml"));
        let file_listing = dagfl(&["sweep", file.to_str().unwrap(), "--dry-run"], &results);
        assert_eq!(file_listing, listing, "{name}: file and preset differ");
        dagfl(&["sweep", name, "--jobs", "2"], &results);
        let csv = std::fs::read_dir(&results)
            .expect("the sweep wrote its comparison CSV")
            .map(|entry| entry.unwrap().path())
            .find(|path| path.extension().is_some_and(|ext| ext == "csv"))
            .expect("one comparison CSV");
        let text = std::fs::read_to_string(csv).unwrap();
        expansion.push_str(&listing);
        expansion.push_str(&format!("csv header: {}\n", text.lines().next().unwrap()));
    }
    let _ = std::fs::remove_dir_all(&results);
    let golden =
        std::fs::read_to_string(root.join("tests/golden/sweeps.txt")).expect("golden file present");
    assert_eq!(expansion, golden);
}
