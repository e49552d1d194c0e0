//! Runs the parsed command. Every experiment starts from a scenario
//! (`--scenario <file>` or `--preset <name>`, plus `--set` overrides).

use std::error::Error;
use std::path::Path;

use dagfl_analysis::AnalysisSource;
use dagfl_baselines::{FedConfig, FederatedServer, LocalOnly};
use dagfl_core::DagConfig;
use dagfl_scenario::{
    ExecutionSpec, Scale, Scenario, ScenarioRunner, SweepAxis, SweepRunner, SweepSpec,
};

use crate::args::{usage_for, Command, ParseError, ParsedArgs, USAGE};

/// Runs the parsed command.
///
/// # Errors
///
/// Returns an error for invalid arguments or failed training.
pub fn run_command(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    if args.flag("help") {
        print!("{}", usage_for(args.command()));
        return Ok(());
    }
    match args.command() {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Run => run_scenario(args),
        Command::Analyze => analyze_command(args),
        Command::Sweep => sweep_command(args),
        Command::Scenarios => scenarios_command(args),
        Command::FedAvg | Command::FedProx | Command::Local => baseline_command(args),
        Command::Perf => crate::perf::perf_command(args),
        Command::Peer => crate::net::peer_command(args),
        Command::Tracker => crate::net::tracker_command(args),
    }
}

/// The scenario a command runs: `--scenario <file>` or `--preset
/// <name>` (at the [`requested_scale`]), with every `--set
/// section.key=value` applied through the scenario reader, validated
/// ([`Scenario::with_overrides`]).
pub(crate) fn load_scenario(args: &ParsedArgs) -> Result<Scenario, Box<dyn Error>> {
    let scenario = match (args.get("scenario"), args.get("preset")) {
        (Some(path), None) => Scenario::load(path)?,
        (None, Some(name)) => Scenario::preset_at(name, requested_scale(args))?,
        _ => {
            return Err(format!(
                "`dagfl {}` needs exactly one of --scenario <file> or --preset <name>",
                args.command().word()
            )
            .into())
        }
    };
    // The same key-path rule as sweep axes, checked by the reader.
    let overrides = args
        .get_all("set")
        .map(|entry| {
            entry
                .split_once('=')
                .map(|(key, value)| (key.trim(), value))
                .ok_or_else(|| ParseError::InvalidValue {
                    flag: "set".into(),
                    value: entry.into(),
                })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(scenario.with_overrides(overrides)?)
}

/// The hyperparameters of a rounds scenario that `dagfl <command>` runs
/// outside the scenario runner (the baselines, a networked peer). A
/// scenario part the command cannot honour is an error naming it, never
/// silently ignored.
pub(crate) fn rounds_hyperparameters(
    scenario: &Scenario,
    command: Command,
) -> Result<DagConfig, Box<dyn Error>> {
    let word = command.word();
    let unsupported = [
        ("[attack]", scenario.attack.is_some()),
        ("[faults]", scenario.faults.is_some()),
        (
            "[analysis]",
            scenario.analysis.as_ref().is_some_and(|a| a.enabled),
        ),
        ("[output] csv", scenario.output.csv.is_some()),
        ("[output] track_every", scenario.output.track_every > 0),
    ];
    if let Some((part, _)) = unsupported.iter().find(|(_, present)| *present) {
        return Err(format!(
            "`dagfl {word}` cannot honour the scenario's {part}; run it with `dagfl run`"
        )
        .into());
    }
    match &scenario.execution {
        ExecutionSpec::Rounds(dag) => Ok(*dag),
        ExecutionSpec::Async { .. } => Err(format!(
            "`dagfl {word}` needs a rounds scenario; `{}` has an async [execution]",
            scenario.name
        )
        .into()),
    }
}

/// FedAvg, or FedProx with `--mu`, over the scenario's hyperparameters.
/// `--stragglers` makes that fraction of each round's clients finish
/// only part of their budget: FedAvg drops their updates, FedProx keeps
/// them.
fn fed_config(args: &ParsedArgs, dag: &DagConfig) -> Result<FedConfig, ParseError> {
    let mu: f32 = if args.command() == Command::FedProx {
        args.get_parsed_or("mu", 0.1)?
    } else {
        0.0
    };
    let stragglers: f32 = args.get_parsed_or("stragglers", 0.0)?;
    let out_of_range = |flag: &str, value: f32| ParseError::InvalidValue {
        flag: flag.into(),
        value: value.to_string(),
    };
    if !(mu.is_finite() && mu >= 0.0) {
        return Err(out_of_range("mu", mu));
    }
    if !(0.0..=1.0).contains(&stragglers) {
        return Err(out_of_range("stragglers", stragglers));
    }
    Ok(FedConfig {
        proximal_mu: mu,
        straggler_fraction: stragglers,
        drop_stragglers: mu == 0.0,
        ..FedConfig::from_dag(dag)
    })
}

/// `dagfl fedavg|fedprox|local`: a baseline on a rounds scenario's
/// dataset, model and hyperparameters, printing a per-round CSV.
fn baseline_command(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let scenario = load_scenario(args)?;
    let dag = rounds_hyperparameters(&scenario, args.command())?;
    // Checked before the dataset is built (`local` takes neither flag).
    let config = fed_config(args, &dag)?;
    let dataset = scenario.dataset.build();
    let factory = scenario.build_factory(&dataset);
    eprintln!(
        "# scenario={} dataset={} clients={} classes={} base_pureness={:.3}",
        scenario.name,
        dataset.name(),
        dataset.num_clients(),
        dataset.num_classes(),
        dataset.base_pureness()
    );
    if args.command() == Command::Local {
        let mut local = LocalOnly::new(
            dataset,
            factory,
            dag.learning_rate,
            dag.local_batches,
            dag.batch_size,
            dag.seed,
        );
        println!("round,mean_accuracy");
        for round in 0..dag.rounds {
            local.run_round()?;
            println!("{},{:.4}", round + 1, local.mean_accuracy()?);
        }
        return Ok(());
    }
    let mut server = FederatedServer::new(config, dataset, factory);
    println!("round,mean_accuracy,mean_loss,stragglers");
    for _ in 0..config.rounds {
        let m = server.run_round()?;
        println!(
            "{},{:.4},{:.4},{}",
            m.round + 1,
            m.mean_accuracy(),
            m.mean_loss(),
            m.stragglers
        );
    }
    Ok(())
}

/// The experiment scale a command runs at: the `--full` flag wins, the
/// `DAGFL_FULL` environment variable is the fallback, so paper-scale
/// runs are reproducible from the command line alone.
fn requested_scale(args: &ParsedArgs) -> Scale {
    if args.flag("full") {
        Scale::Full
    } else {
        Scale::from_env()
    }
}

/// `dagfl run --scenario <file>` / `dagfl run --preset <name>`: resolve,
/// validate and execute one declarative scenario, printing the report.
fn run_scenario(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let scenario = load_scenario(args)?;
    let runner = ScenarioRunner::new(scenario)?;
    eprintln!(
        "# scenario={} mode={}",
        runner.scenario().name,
        runner.scenario().execution.mode()
    );
    let report = runner.run()?;
    print!("{}", report.summary());
    // Opt-in so existing golden outputs stay byte-identical; CI's
    // scale-smoke job diffs this line between worker counts.
    if args.flag("digest") {
        println!("tangle digest {:#018x}", report.tangle_digest);
    }
    Ok(())
}

/// `dagfl analyze --scenario <file>` / `--preset <name>`: run the
/// scenario with analytics force-enabled (flags override the scenario's
/// own `[analysis]` section) and print the cluster assignment table
/// plus the quality metrics.
fn analyze_command(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let mut scenario = load_scenario(args)?;
    // Start from the scenario's own [analysis] section (or the
    // defaults), then let flags override it, mirroring the file schema.
    let mut spec = scenario.analysis.take().unwrap_or_default();
    spec.enabled = true;
    let k: Option<usize> = match args.get("k") {
        Some(raw) => Some(raw.parse().map_err(|_| ParseError::InvalidValue {
            flag: "k".into(),
            value: raw.to_string(),
        })?),
        None => None,
    };
    if k.is_some() && (args.get("k-min").is_some() || args.get("k-max").is_some()) {
        return Err(
            "`--k` fixes the cluster count; it cannot be combined with --k-min/--k-max".into(),
        );
    }
    if let Some(k) = k {
        spec.k = Some(k);
    } else if args.get("k-min").is_some() || args.get("k-max").is_some() {
        spec.k = None;
        spec.k_min = args.get_parsed_or("k-min", spec.k_min)?;
        spec.k_max = args.get_parsed_or("k-max", spec.k_max)?;
    }
    spec.cadence = args.get_parsed_or("cadence", spec.cadence)?;
    if let Some(word) = args.get("source") {
        spec.source = AnalysisSource::parse(word).ok_or_else(|| {
            format!("invalid --source `{word}`: expected parameters, approvals or both")
        })?;
    }
    scenario = scenario.with_analysis(spec);
    let runner = ScenarioRunner::new(scenario)?;
    eprintln!(
        "# scenario={} mode={}",
        runner.scenario().name,
        runner.scenario().execution.mode()
    );
    let report = runner.run()?;
    let snapshot = report
        .analysis
        .as_ref()
        .expect("analytics were force-enabled");
    println!(
        "analysis of {} after {} rounds:",
        report.scenario, snapshot.round
    );
    println!();
    // The assignment table: one row per client, ground truth next to
    // the unsupervised views. Rebuilding the dataset is deterministic
    // and cheap next to the training run that just finished.
    let truth = runner.scenario().dataset.build().cluster_labels();
    println!(
        "{:>6}  {:>5}  {:>6}  {:>5}",
        "client", "truth", "params", "graph"
    );
    for (idx, label) in truth.iter().enumerate() {
        let params_cell = snapshot
            .parameters
            .as_ref()
            .map_or_else(|| "-".into(), |p| p.assignments[idx].to_string());
        let graph_cell = snapshot
            .graph
            .as_ref()
            .map_or_else(|| "-".into(), |g| g.communities[idx].to_string());
        println!("{idx:>6}  {label:>5}  {params_cell:>6}  {graph_cell:>5}");
    }
    println!();
    print!("{}", report.summary());
    Ok(())
}

/// Parses the ad-hoc `--axes` value: `;`-separated `field=v1,v2,...`
/// entries (`"alpha=0.1,1,10;replicate=0..3"`). Ranges expand like
/// sweep files.
fn parse_axes_flag(spec: &str) -> Result<Vec<SweepAxis>, Box<dyn Error>> {
    let mut axes = Vec::new();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (field, values) = entry
            .split_once('=')
            .ok_or_else(|| format!("axis `{entry}` is not of the form field=v1,v2,..."))?;
        let values = values.trim();
        let tokens: Vec<String> =
            match values.split_once("..") {
                Some((start, end)) => {
                    let start: u64 = start.trim().parse().map_err(|_| {
                        format!("axis `{field}`: `{values}` is not an integer range")
                    })?;
                    let end: u64 = end.trim().parse().map_err(|_| {
                        format!("axis `{field}`: `{values}` is not an integer range")
                    })?;
                    // Shared with sweep files: empty and oversized
                    // ranges are rejected before anything is allocated.
                    SweepAxis::range_tokens(field.trim(), start, end)?
                }
                None => values
                    .split(',')
                    .map(|v| v.trim().to_string())
                    .filter(|v| !v.is_empty())
                    .collect(),
            };
        axes.push(SweepAxis {
            field: field.trim().to_string(),
            values: tokens,
        });
    }
    if axes.is_empty() {
        return Err("--axes needs at least one `field=values` entry".into());
    }
    Ok(axes)
}

/// `dagfl sweep <file|sweep-preset>` / `dagfl sweep --preset-base <name>
/// --axes <spec>`: expand a parameter grid, run the cells on `--jobs`
/// workers (or list them with `--dry-run`), and print the aggregate
/// report.
fn sweep_command(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let default_jobs = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let jobs = args.get_count_or("jobs", default_jobs)?;
    let mut spec = match (args.positional(), args.get("preset-base")) {
        (Some(source), None) => {
            let looks_like_path = source.ends_with(".toml") || source.contains(['/', '\\']);
            if looks_like_path || Path::new(source).exists() {
                SweepSpec::load(source)?
            } else {
                // A bare word: try the sweep preset registry.
                SweepSpec::preset(source)?
            }
        }
        (None, Some(base)) => {
            let axes_spec = args
                .get("axes")
                .ok_or("`--preset-base` needs `--axes \"field=v1,v2;...\"`")?;
            let mut spec = SweepSpec::over_preset(format!("sweep-{base}"), base);
            spec.axes = parse_axes_flag(axes_spec)?;
            spec
        }
        _ => {
            return Err(
                "`dagfl sweep` needs a sweep file (or sweep preset name), or --preset-base \
                 <name> with --axes"
                    .into(),
            )
        }
    };
    if let Some(csv) = args.get("csv") {
        spec.comparison_csv = Some(csv.to_string());
    }
    let scale = requested_scale(args);
    let runner = SweepRunner::at_scale(spec, scale)?;
    let cells = runner.cells();
    if args.flag("dry-run") {
        println!(
            "sweep {} expands to {} cells:",
            runner.spec().name,
            cells.len()
        );
        for cell in cells {
            println!("  {:>3}  {}", cell.index, cell.id);
        }
        return Ok(());
    }
    eprintln!(
        "# sweep={} cells={} jobs={}",
        runner.spec().name,
        cells.len(),
        jobs.min(cells.len())
    );
    let report = runner.run(jobs)?;
    print!("{}", report.summary());
    Ok(())
}

/// `dagfl scenarios`: list the scenario and sweep preset registries;
/// `--check <dir>` validates every `*.toml` scenario *and* sweep file in
/// a directory (the CI smoke job runs this over `scenarios/`);
/// `--dump <dir>` writes every preset out as a file.
fn scenarios_command(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    if let Some(dir) = args.get("check") {
        return check_scenario_dir(Path::new(dir));
    }
    if let Some(dir) = args.get("dump") {
        return dump_presets(Path::new(dir));
    }
    println!(
        "available presets (quick scale; pass --full or set DAGFL_FULL=1 for the paper's scale):"
    );
    for (name, description) in Scenario::preset_names() {
        println!("  {name:<24} {description}");
    }
    println!("\navailable sweeps (parameter grids; `dagfl sweep <name>`):");
    for (name, description) in SweepSpec::preset_names() {
        println!("  {name:<24} {description}");
    }
    println!("\nrun one with `dagfl run --preset <name>` (add --full for paper scale);");
    println!("check scenario and sweep files with `dagfl scenarios --check <dir>`.");
    Ok(())
}

fn check_scenario_dir(dir: &Path) -> Result<(), Box<dyn Error>> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .toml scenario files found in {}", dir.display()).into());
    }
    let mut failures = Vec::new();
    for path in &paths {
        let outcome = match std::fs::read_to_string(path) {
            // Sweep files go through `SweepSpec::load`, not `from_toml`,
            // so relative file bases anchor to the sweep file's
            // directory exactly as `dagfl sweep <file>` resolves them.
            Ok(text) if dagfl_scenario::is_sweep_toml(&text) => SweepSpec::load(path)
                .and_then(|spec| spec.validate().map(|()| spec))
                .map(|spec| format!("{} (sweep)", spec.name)),
            Ok(text) => Scenario::from_toml(&text)
                .and_then(|s| s.validate().map(|()| s))
                .map(|s| s.name),
            Err(e) => Err(dagfl_scenario::ScenarioError::Io(format!(
                "reading {}: {e}",
                path.display()
            ))),
        };
        match outcome {
            Ok(name) => println!("ok   {} ({name})", path.display()),
            Err(e) => {
                println!("FAIL {}: {e}", path.display());
                failures.push(path.display().to_string());
            }
        }
    }
    if failures.is_empty() {
        println!("{} scenario files valid", paths.len());
        Ok(())
    } else {
        Err(format!("invalid scenario files: {}", failures.join(", ")).into())
    }
}

fn dump_presets(dir: &Path) -> Result<(), Box<dyn Error>> {
    // Pin the quick scale so checked-in files don't depend on the
    // caller's environment.
    for (name, _) in Scenario::preset_names() {
        let scenario = Scenario::preset_at(name, Scale::Quick)?;
        let path = dir.join(format!("{name}.toml"));
        scenario.save(&path)?;
        println!("wrote {}", path.display());
    }
    for (name, _) in SweepSpec::preset_names() {
        let spec = SweepSpec::preset(name)?;
        let path = dir.join(format!("{name}.toml"));
        spec.save(&path)?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfl_core::{ComputeProfile, DelayModel, Normalization, StaleTipPolicy, TipSelector};
    use dagfl_nn::MatmulBackendKind;

    /// The scenario `argv` resolves to.
    fn scenario(argv: &[&str]) -> Result<Scenario, Box<dyn Error>> {
        load_scenario(&ParsedArgs::parse(argv)?)
    }

    /// The async configuration of a scenario.
    fn async_config(argv: &[&str]) -> dagfl_core::AsyncConfig {
        match scenario(argv).unwrap().execution {
            ExecutionSpec::Async { config, .. } => config,
            other => panic!("{argv:?}: not async: {other:?}"),
        }
    }

    /// Every dataset the deleted `--dataset` flag offered has a preset.
    #[test]
    fn dataset_kinds_parse() {
        for (preset, kind) in [
            ("table1-fmnist", "fmnist"),
            ("fig08-alpha10", "fmnist"),
            ("poisoning-p0.2", "fmnist-author"),
            ("table1-poets", "poets"),
            ("table1-cifar", "cifar"),
            ("fedprox-synthetic", "fedprox"),
        ] {
            let s = scenario(&["fedavg", "--preset", preset]).unwrap();
            assert_eq!(s.dataset.kind(), kind, "{preset}");
        }
        let relaxed = scenario(&["run", "--preset", "fig08-alpha10"]).unwrap();
        assert!(matches!(
            relaxed.dataset,
            dagfl_scenario::DatasetSpec::Fmnist { relaxation, .. } if relaxation > 0.0
        ));
    }

    #[test]
    fn build_task_produces_matching_model() {
        // `--backend naive` is now a scenario key.
        let s = scenario(&[
            "local",
            "--preset",
            "smoke",
            "--set",
            "execution.matmul_backend=naive",
        ])
        .unwrap();
        assert_eq!(s.matmul_backend, MatmulBackendKind::Naive);
        let dataset = s.dataset.build();
        let factory = s.build_factory(&dataset);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
        let model = factory(&mut rng);
        // The model accepts the dataset's feature width.
        let eval = model
            .evaluate(dataset.clients()[0].test_x(), dataset.clients()[0].test_y())
            .unwrap();
        assert!(eval.total > 0);
    }

    #[test]
    fn dag_config_respects_flags() {
        let s = scenario(&[
            "run",
            "--preset",
            "smoke",
            "--set",
            "execution.rounds=7",
            "--set",
            "alpha=3",
            "--set",
            "normalization=dynamic",
            "--set",
            "execution.stop_margin=0.2",
        ])
        .unwrap();
        let cfg = s.execution.dag();
        assert_eq!(cfg.rounds, 7);
        assert_eq!(cfg.walk_stop_margin, Some(0.2));
        match cfg.tip_selector {
            TipSelector::Accuracy {
                alpha,
                normalization,
            } => {
                assert_eq!(alpha, 3.0);
                assert_eq!(normalization, Normalization::Dynamic);
            }
            other => panic!("unexpected selector {other:?}"),
        }
    }

    #[test]
    fn selector_flag_switches_strategy() {
        let selector = |sets: &[&str]| {
            let mut argv = vec!["run", "--preset", "smoke"];
            for set in sets {
                argv.extend(["--set", set]);
            }
            scenario(&argv).unwrap().execution.dag().tip_selector
        };
        assert_eq!(selector(&["selector=random"]), TipSelector::Random);
        assert_eq!(
            selector(&["selector=cumulative", "alpha=2"]),
            TipSelector::CumulativeWeight { alpha: 2.0 }
        );
    }

    #[test]
    fn fed_config_wires_stragglers() {
        let parse = |argv: &[&str]| ParsedArgs::parse(argv).unwrap();
        let dag = *Scenario::preset_at("table1-fmnist", Scale::Quick)
            .unwrap()
            .execution
            .dag();
        let args = parse(&[
            "fedprox",
            "--preset",
            "table1-fmnist",
            "--stragglers",
            "0.5",
        ]);
        let cfg = fed_config(&args, &dag).unwrap();
        assert_eq!(cfg.straggler_fraction, 0.5);
        assert_eq!(cfg.proximal_mu, 0.1);
        assert!(!cfg.drop_stragglers, "fedprox keeps stragglers");
        // Everything else is the scenario's Table 1 row.
        assert_eq!(
            FedConfig {
                proximal_mu: 0.0,
                straggler_fraction: 0.0,
                ..cfg
            },
            FedConfig::from_dag(&dag)
        );
        let args = parse(&["fedavg", "--preset", "table1-fmnist", "--stragglers", "0.5"]);
        let cfg = fed_config(&args, &dag).unwrap();
        assert_eq!(cfg.proximal_mu, 0.0);
        assert!(cfg.drop_stragglers, "fedavg drops stragglers");
        for bad in [
            ["--mu", "much"],
            ["--mu", "-5"],
            ["--mu", "inf"],
            ["--stragglers", "1.5"],
            ["--stragglers", "-1"],
            ["--stragglers", "nan"],
        ] {
            let args = parse(&["fedprox", "--preset", "table1-fmnist", bad[0], bad[1]]);
            let err = fed_config(&args, &dag).unwrap_err();
            assert!(err.to_string().contains(&bad[0][2..]), "{bad:?}: {err}");
        }
    }

    #[test]
    fn baselines_refuse_what_they_cannot_honour() {
        for (argv, needle) in [
            (vec!["fedavg", "--preset", "poisoning-p0.2"], "[attack]"),
            (vec!["fedprox", "--preset", "analysis-smoke"], "[analysis]"),
            (
                vec!["local", "--preset", "async-delay2"],
                "async [execution]",
            ),
            (vec!["fedavg", "--preset", "chaos-smoke"], "[faults]"),
            (
                vec!["fedavg", "--preset", "smoke", "--set", "output.csv=x"],
                "[output] csv",
            ),
            (vec!["local", "--preset", "fig05-alpha10"], "[analysis]"),
        ] {
            let err = run_command(&ParsedArgs::parse(argv.clone()).unwrap())
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "{argv:?}: {err}");
        }
        // A disabled analysis section is inert, so it is no obstacle.
        let args = ParsedArgs::parse([
            "local",
            "--preset",
            "analysis-smoke",
            "--set",
            "analysis.enabled=false",
        ])
        .unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn run_command_help_succeeds() {
        let args = ParsedArgs::parse(["help"]).unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn run_command_tiny_dag_succeeds() {
        let args =
            ParsedArgs::parse(["run", "--preset", "smoke", "--set", "execution.rounds=1"]).unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn run_command_rejects_bad_dataset() {
        let args =
            ParsedArgs::parse(["run", "--preset", "smoke", "--set", "dataset.kind=imagenet"])
                .unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("imagenet"));
    }

    #[test]
    fn run_command_tiny_local_succeeds() {
        for command in ["local", "fedavg", "fedprox"] {
            let args = ParsedArgs::parse([command, "--preset", "smoke"]).unwrap();
            run_command(&args).unwrap_or_else(|e| panic!("{command}: {e}"));
        }
    }

    #[test]
    fn run_command_tiny_async_succeeds() {
        let args = ParsedArgs::parse([
            "run",
            "--preset",
            "chaos-smoke",
            "--set",
            "execution.activations=5",
        ])
        .unwrap();
        run_command(&args).unwrap();
    }

    /// Range checks name the scenario key the user set.
    #[test]
    fn validation_errors_name_the_flag_the_user_typed() {
        for (preset, set, path) in [
            (
                "async-cohorts",
                "slow_fraction=1.5",
                "execution.slow_fraction",
            ),
            ("async-delay2", "execution.delay=-1", "execution.delay"),
            ("async-delay2", "interarrival=0", "execution.interarrival"),
            (
                "async-delay2",
                "execution.train_time=-2",
                "execution.train_time",
            ),
            (
                "async-cohorts",
                "execution.slowdown=0.5",
                "execution.slowdown",
            ),
            (
                "smoke",
                "execution.learning_rate=-1",
                "execution.learning_rate",
            ),
            (
                "smoke",
                "execution.local_batches=0",
                "execution.local_batches",
            ),
            ("smoke", "execution.selector=randon", "execution.selector"),
            ("smoke", "normalization=dynamc", "execution.normalization"),
        ] {
            let err = scenario(&["run", "--preset", preset, "--set", set])
                .unwrap_err()
                .to_string();
            assert!(err.contains(&format!("`{path}`")), "{set}: {err}");
        }
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn run_preset_smoke_succeeds_end_to_end() {
        let args = ParsedArgs::parse(["run", "--preset", "smoke"]).unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn run_rejects_unknown_preset_and_missing_flags() {
        let args = ParsedArgs::parse(["run", "--preset", "fig99"]).unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("fig99"));
        let args = ParsedArgs::parse(["run"]).unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("--scenario"));
        let args = ParsedArgs::parse(["run", "--scenario", "a", "--preset", "b"]).unwrap();
        assert!(run_command(&args).is_err());
    }

    #[test]
    fn run_set_overrides_keys_through_the_scenario_reader() {
        let run = |extra: &[&str]| -> Result<(), Box<dyn Error>> {
            let mut argv = vec!["run", "--preset", "smoke"];
            argv.extend_from_slice(extra);
            run_command(&ParsedArgs::parse(argv)?)
        };
        run(&["--set", "execution.walk_depth_max=20", "--set", "alpha=1"]).unwrap();
        for (set, needle) in [
            ("execution.workers=2", "execution.workers"),
            ("attack.fraction=0.1", "[attack]"),
            ("warp_factor=9", "warp_factor"),
            ("alpha", "set"),
            ("alpha=lots", "execution.alpha"),
        ] {
            let err = run(&["--set", set]).unwrap_err().to_string();
            assert!(err.contains(needle), "{set}: {err}");
        }
        // The old worker flag is refused when parsed, not ignored.
        let err = run(&["--workers", "2"]).unwrap_err().to_string();
        assert!(err.contains("--set"), "{err}");
        // Async scenarios take a worker count; zero fails validation.
        let chaos = |set: &str| {
            run_command(
                &ParsedArgs::parse(["run", "--preset", "chaos-smoke", "--set", set]).unwrap(),
            )
        };
        chaos("execution.workers=2").unwrap();
        assert!(chaos("execution.workers=0").is_err());
    }

    #[test]
    fn run_scenario_file_round_trips_through_the_cli() {
        let dir = temp_dir("dagfl_cli_run_scenario_test");
        let path = dir.join("smoke.toml");
        Scenario::preset_at("smoke", Scale::Quick)
            .unwrap()
            .save(&path)
            .unwrap();
        let args = ParsedArgs::parse(["run", "--scenario", path.to_str().unwrap()]).unwrap();
        run_command(&args).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_rejects_missing_and_malformed_scenario_files() {
        let args = ParsedArgs::parse(["run", "--scenario", "/nonexistent/x.toml"]).unwrap();
        assert!(run_command(&args).is_err());
        let dir = temp_dir("dagfl_cli_bad_scenario_test");
        let path = dir.join("bad.toml");
        std::fs::write(&path, "name = \"x\"\n[dataset]\nkind = \"imagenet\"\n").unwrap();
        let args = ParsedArgs::parse(["run", "--scenario", path.to_str().unwrap()]).unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("imagenet"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenarios_lists_presets() {
        let args = ParsedArgs::parse(["scenarios"]).unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn full_flag_resolves_paper_scale() {
        let args = ParsedArgs::parse(["run", "--preset", "smoke", "--full"]).unwrap();
        assert_eq!(requested_scale(&args), Scale::Full);
        // The smoke preset is scale-independent, so this stays cheap.
        run_command(&args).unwrap();
        let args = ParsedArgs::parse(["run", "--preset", "smoke"]).unwrap();
        assert_eq!(requested_scale(&args), Scale::from_env());
    }

    #[test]
    fn parse_axes_flag_handles_lists_ranges_and_errors() {
        let axes = parse_axes_flag("alpha=0.1,1,10;replicate=0..3").unwrap();
        assert_eq!(axes.len(), 2);
        assert_eq!(axes[0].field, "alpha");
        assert_eq!(axes[0].values, ["0.1", "1", "10"]);
        assert_eq!(axes[1].values, ["0", "1", "2"]);
        assert!(parse_axes_flag("").is_err());
        assert!(parse_axes_flag("alpha").is_err());
        assert!(parse_axes_flag("seed=5..5").is_err());
        assert!(parse_axes_flag("seed=a..b").is_err());
        // Oversized ranges are refused before allocation, like files.
        assert!(parse_axes_flag("replicate=0..9999999999").is_err());
    }

    #[test]
    fn sweep_preset_dry_run_lists_cells() {
        let args = ParsedArgs::parse(["sweep", "sweep-smoke", "--dry-run"]).unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn sweep_ad_hoc_grid_runs_end_to_end() {
        let args = ParsedArgs::parse([
            "sweep",
            "--preset-base",
            "smoke",
            "--axes",
            "seed=42,43",
            "--jobs",
            "2",
        ])
        .unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn sweep_file_round_trips_through_the_cli() {
        let dir = temp_dir("dagfl_cli_sweep_file_test");
        let path = dir.join("sweep-smoke.toml");
        dagfl_scenario::SweepSpec::preset("sweep-smoke")
            .unwrap()
            .save(&path)
            .unwrap();
        let args = ParsedArgs::parse(["sweep", path.to_str().unwrap(), "--dry-run"]).unwrap();
        run_command(&args).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_rejects_bad_invocations() {
        // Neither a file nor a preset base.
        let args = ParsedArgs::parse(["sweep"]).unwrap();
        assert!(run_command(&args).is_err());
        // An unknown sweep preset word.
        let args = ParsedArgs::parse(["sweep", "sweep-nothing"]).unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("sweep-nothing"));
        // A missing sweep file.
        let args = ParsedArgs::parse(["sweep", "/nonexistent/sweep.toml"]).unwrap();
        assert!(run_command(&args).is_err());
        // --preset-base without --axes.
        let args = ParsedArgs::parse(["sweep", "--preset-base", "smoke"]).unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("--axes"));
        // An axis rejected by the spec, naming the field path.
        let args = ParsedArgs::parse([
            "sweep",
            "--preset-base",
            "smoke",
            "--axes",
            "execution.delay=1.0",
            "--dry-run",
        ])
        .unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("execution.delay"));
    }

    #[test]
    fn scenarios_dump_then_check_round_trips() {
        let dir = temp_dir("dagfl_cli_scenarios_check_test");
        let args = ParsedArgs::parse(["scenarios", "--dump", dir.to_str().unwrap()]).unwrap();
        run_command(&args).unwrap();
        let args = ParsedArgs::parse(["scenarios", "--check", dir.to_str().unwrap()]).unwrap();
        run_command(&args).unwrap();
        // One broken file fails the whole check.
        std::fs::write(dir.join("broken.toml"), "not a scenario").unwrap();
        let args = ParsedArgs::parse(["scenarios", "--check", dir.to_str().unwrap()]).unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("broken"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenarios_check_rejects_empty_or_missing_dirs() {
        let dir = temp_dir("dagfl_cli_scenarios_empty_test");
        let args = ParsedArgs::parse(["scenarios", "--check", dir.to_str().unwrap()]).unwrap();
        assert!(run_command(&args)
            .unwrap_err()
            .to_string()
            .contains("no .toml"));
        let args = ParsedArgs::parse(["scenarios", "--check", "/nonexistent-dir"]).unwrap();
        assert!(run_command(&args).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn async_config_builds_cohort_delay_and_policy() {
        let cfg = async_config(&[
            "run",
            "--preset",
            "async-delay2",
            "--set",
            "delay_model=cohorts",
            "--set",
            "delay=1.5",
            "--set",
            "execution.slow_delay=12",
            "--set",
            "execution.slow_fraction=0.4",
            "--set",
            "execution.jitter=0.5",
            "--set",
            "compute=match-network",
            "--set",
            "execution.slowdown=4",
            "--set",
            "train_time=0.8",
            "--set",
            "stale_policy=reselect",
        ]);
        assert_eq!(
            cfg.delay,
            DelayModel::Cohorts {
                slow_fraction: 0.4,
                fast: 1.5,
                slow: 12.0,
                jitter: 0.5,
            }
        );
        // The cohorts delay model's slow clients are also compute-slow.
        assert_eq!(
            cfg.compute,
            ComputeProfile::MatchNetworkCohort { slowdown: 4.0 }
        );
        assert_eq!(cfg.stale_policy, StaleTipPolicy::Reselect);
        assert_eq!(cfg.train_time, 0.8);
    }

    #[test]
    fn async_config_uses_independent_cohort_without_cohort_delays() {
        let cfg = async_config(&[
            "run",
            "--preset",
            "async-delay2",
            "--set",
            "compute=two-speed",
            "--set",
            "execution.slowdown=3",
            "--set",
            "execution.compute_slow_fraction=0.2",
        ]);
        assert_eq!(
            cfg.compute,
            ComputeProfile::TwoSpeed {
                slow_fraction: 0.2,
                slowdown: 3.0,
            }
        );
    }

    #[test]
    fn async_config_rejects_out_of_range_values_instead_of_panicking() {
        for set in [
            "execution.delay=-1",
            "execution.interarrival=0",
            "execution.train_time=-2",
            "execution.activations=0",
        ] {
            assert!(
                scenario(&["run", "--preset", "async-delay2", "--set", set]).is_err(),
                "{set}"
            );
        }
        for set in [
            "execution.jitter=-0.5",
            "execution.slow_fraction=1.5",
            "execution.slowdown=0.5",
            "execution.slow_delay=-3",
        ] {
            assert!(
                scenario(&["run", "--preset", "async-cohorts", "--set", set]).is_err(),
                "{set}"
            );
        }
    }

    #[test]
    fn async_config_defaults_to_constant_delay_uniform_compute() {
        let cfg = async_config(&["run", "--preset", "async-delay2"]);
        assert_eq!(cfg.delay, DelayModel::Constant { delay: 2.0 });
        assert_eq!(cfg.compute, ComputeProfile::Uniform);
        assert_eq!(cfg.stale_policy, StaleTipPolicy::PublishAnyway);
        assert_eq!(cfg.total_activations, 30 * 6);
    }

    #[test]
    fn async_config_rejects_unknown_words() {
        for set in ["delay_model=warp", "stale_policy=retry"] {
            let err = scenario(&["run", "--preset", "async-delay2", "--set", set])
                .unwrap_err()
                .to_string();
            assert!(err.contains(set.split('=').nth(1).unwrap()), "{err}");
        }
    }

    /// `[output] csv` on an async scenario is the per-activation series
    /// that the removed `dagfl async` printed.
    #[test]
    fn async_csv_output_is_the_activation_series() {
        let args = ParsedArgs::parse([
            "run",
            "--preset",
            "chaos-smoke",
            "--set",
            "output.csv=cli_async_series_test",
        ])
        .unwrap();
        run_command(&args).unwrap();
        let dir = std::env::var("DAGFL_RESULTS").unwrap_or_else(|_| "results".into());
        let csv = Path::new(&dir).join("cli_async_series_test.csv");
        let content = std::fs::read_to_string(&csv).unwrap();
        assert!(content
            .starts_with("activation,started,completed,client,accuracy,published,stale_parents\n"));
        assert_eq!(content.lines().count(), 61);
        let _ = std::fs::remove_file(&csv);
        let _ = std::fs::remove_dir(&dir);
    }
}
