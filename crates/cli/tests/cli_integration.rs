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
    let args = ParsedArgs::parse([
        "run",
        "--preset",
        "smoke",
        "--set",
        "dataset.kind=no-such-dataset",
    ])
    .expect("parses");
    let err = run_command(&args).expect_err("unknown dataset must fail");
    assert!(err.to_string().contains("no-such-dataset"));
}

#[test]
fn malformed_flag_value_is_an_error_not_a_panic() {
    for argv in [
        vec!["run", "--preset", "smoke", "--set", "execution.rounds=many"],
        vec!["fedprox", "--preset", "smoke", "--mu", "many"],
    ] {
        let args = ParsedArgs::parse(argv.clone()).expect("parses");
        let err = run_command(&args).expect_err("a non-numeric value must fail");
        assert!(err.to_string().contains("many"), "{argv:?}: {err}");
    }
}

/// The asynchronous mode is a scenario like any other: its usage is the
/// `run` usage, and the removed `dagfl async` points there.
#[test]
fn help_documents_the_async_mode() {
    use dagfl_cli::USAGE;
    for needle in ["async", "per-activation series", "--set", "--preset"] {
        assert!(USAGE.contains(needle), "usage missing {needle}");
    }
    for removed in ["dag", "async"] {
        let err = ParsedArgs::parse([removed]).expect_err("removed subcommand");
        assert!(err.to_string().contains("dagfl run --preset"), "{err}");
    }
}

#[test]
fn tiny_async_run_succeeds_end_to_end() {
    // The asynchronous mode end-to-end: heterogeneous cohorts, jitter,
    // non-zero training time and a stale-tip policy, shrunk through
    // `--set` overrides of the async-cohorts preset.
    let args = ParsedArgs::parse([
        "run",
        "--preset",
        "async-cohorts",
        "--set",
        "dataset.clients=4",
        "--set",
        "dataset.samples=12",
        "--set",
        "execution.activations=6",
        "--set",
        "execution.local_batches=1",
        "--set",
        "execution.delay=0.5",
        "--set",
        "execution.slow_delay=4",
        "--set",
        "execution.jitter=0.3",
        "--set",
        "execution.slowdown=2",
        "--set",
        "execution.train_time=0.4",
    ])
    .expect("parses");
    assert_eq!(args.command(), Command::Run);
    run_command(&args).expect("tiny async run succeeds");
}

#[test]
fn async_rejects_bad_policy_value() {
    let args = ParsedArgs::parse([
        "run",
        "--preset",
        "async-delay2",
        "--set",
        "stale_policy=bogus",
    ])
    .expect("parses");
    let err = run_command(&args).expect_err("unknown policy must fail");
    assert!(err.to_string().contains("bogus"));
}

#[test]
fn tiny_dag_run_succeeds_end_to_end() {
    // A minimal real dispatch: 1 round on a tiny dataset, exercising the
    // whole dataset -> model -> simulation path behind `run_command`.
    let args = ParsedArgs::parse([
        "run",
        "--preset",
        "smoke",
        "--set",
        "execution.rounds=1",
        "--set",
        "dataset.samples=12",
        "--set",
        "execution.local_batches=1",
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
        vec!["fedavg", "-h"],
        vec!["sweep", "--help"],
        vec!["tracker", "--help"],
        vec!["fedprox", "--mu", "x", "--help"],
    ] {
        let args = ParsedArgs::parse(invocation.clone()).expect("--help parses");
        run_command(&args).unwrap_or_else(|e| panic!("{invocation:?} failed: {e}"));
    }
}

/// An explicit `0` count is an error naming what was typed, never a
/// silent default: a flag for the deployment and tool flags, the key
/// path for scenario keys set with `--set`.
#[test]
fn zero_counts_are_errors_not_defaults() {
    for invocation in [
        vec!["sweep", "sweep-smoke", "--jobs", "0", "--dry-run"],
        vec!["tracker", "--expect", "0"],
        vec!["peer", "--preset", "smoke", "--peers", "0"],
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
    for (command, preset, path) in [
        ("run", "async-delay2", "execution.activations"),
        ("run", "smoke", "dataset.samples"),
        ("run", "table1-poets", "dataset.clients_per_language"),
        ("fedavg", "smoke", "execution.rounds"),
        ("fedavg", "smoke", "execution.clients_per_round"),
        ("fedavg", "smoke", "execution.local_epochs"),
        ("fedavg", "smoke", "execution.local_batches"),
        ("fedprox", "smoke", "execution.batch_size"),
        ("local", "smoke", "execution.rounds"),
        ("local", "smoke", "execution.local_batches"),
        ("local", "smoke", "execution.batch_size"),
    ] {
        let set = format!("{path}=0");
        let args = ParsedArgs::parse([command, "--preset", preset, "--set", &set]).expect("parses");
        let err = run_command(&args).expect_err("a zero count must fail");
        assert!(
            err.to_string().contains(&format!("`{path}`")),
            "{command} --set {set}: {err}"
        );
    }
}

/// Every `dagfl ...` command line in the README's code blocks parses
/// and passes the unknown-flag rule, so the docs cannot name a removed
/// subcommand or flag. Continuation lines (`\` at the end) are joined.
#[test]
fn readme_command_lines_parse() {
    let readme = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md"),
    )
    .expect("README present");
    let mut checked = 0;
    let mut in_code = false;
    let mut pending = String::new();
    for line in readme.lines() {
        if line.trim_start().starts_with("```") {
            in_code = !in_code;
            pending.clear();
            continue;
        }
        if !in_code {
            continue;
        }
        pending.push_str(line.trim_end().trim_end_matches('\\'));
        pending.push(' ');
        if line.trim_end().ends_with('\\') {
            continue;
        }
        let command = std::mem::take(&mut pending);
        let Some(argv) = dagfl_argv(&command) else {
            continue;
        };
        if let Err(e) = ParsedArgs::parse(&argv) {
            panic!("README line `{}` does not parse: {e}", command.trim());
        }
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} dagfl command lines found");
}

/// The arguments after the program of a `dagfl ...` or `cargo run ...
/// -p dagfl-cli -- ...` command line, shell quotes removed and stopped
/// at `&`, `|`, `>` or a `#` comment; `None` for any other line.
fn dagfl_argv(line: &str) -> Option<Vec<String>> {
    let words = shell_words(line);
    let start = if let Some(dashes) = words.iter().position(|w| w == "--") {
        let is_cli = words.first().is_some_and(|w| w == "cargo")
            && words
                .windows(2)
                .any(|w| w[0] == "-p" && w[1] == "dagfl-cli");
        if !is_cli {
            return None;
        }
        dashes + 1
    } else {
        // `dagfl ...`, `./target/release/dagfl ...`, `"$DAGFL" ...`,
        // possibly after environment assignments (`CHAOS=1 dagfl ...`).
        let program = words.iter().position(|w| !w.contains('='))?;
        if !(words[program] == "dagfl" || words[program].ends_with("/dagfl")) {
            return None;
        }
        program + 1
    };
    Some(
        words[start..]
            .iter()
            .take_while(|w| !matches!(w.as_str(), "&" | "|" | ">" | "&&") && !w.starts_with('#'))
            .cloned()
            .collect(),
    )
}

/// Splits a shell line into words, honouring single and double quotes.
fn shell_words(line: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut word = String::new();
    let mut quote = None;
    let mut in_word = false;
    for c in line.chars() {
        match (quote, c) {
            (Some(q), c) if c == q => quote = None,
            (Some(_), c) => word.push(c),
            (None, '"' | '\'') => {
                quote = Some(c);
                in_word = true;
            }
            (None, c) if c.is_whitespace() => {
                if in_word {
                    words.push(std::mem::take(&mut word));
                    in_word = false;
                }
            }
            (None, c) => {
                word.push(c);
                in_word = true;
            }
        }
    }
    if in_word {
        words.push(word);
    }
    words
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
