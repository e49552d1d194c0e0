//! Builds datasets/models from parsed arguments and runs the experiment.

use std::error::Error;
use std::path::Path;

use dagfl_analysis::AnalysisSource;
use dagfl_baselines::{FedConfig, FederatedServer, LocalOnly};
use dagfl_core::{
    AsyncConfig, AsyncSimulation, ComputeProfile, CoreError, CrashWindow, DagConfig, DelayModel,
    FaultPlan, ModelFactory, Normalization, PartitionWindow, Simulation, StaleTipPolicy,
    TipSelector,
};
use dagfl_datasets::{
    cifar100_like, fedprox_synthetic, fmnist_by_author, fmnist_clustered, poets, Cifar100Config,
    FedProxConfig, FederatedDataset, FmnistConfig, PoetsConfig,
};
use dagfl_nn::MatmulBackendKind;
use dagfl_scenario::{
    ModelSpec, Scale, Scenario, ScenarioRunner, SweepAxis, SweepRunner, SweepSpec,
};

use crate::args::{usage_for, Command, ParseError, ParsedArgs, USAGE};

/// The selectable datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Strictly clustered synthetic digits (3 clusters).
    Fmnist,
    /// Relaxed clusters (18 % foreign data).
    FmnistRelaxed,
    /// By-author split (all classes per client).
    FmnistAuthor,
    /// Two-language next-character prediction.
    Poets,
    /// 100-class/20-supercluster hierarchy with Pachinko allocation.
    Cifar,
    /// The FedProx synthetic(0.5, 0.5) benchmark.
    FedProxSynthetic,
}

impl DatasetKind {
    /// Parses the `--dataset` value.
    pub fn parse(word: &str) -> Option<Self> {
        match word {
            "fmnist" => Some(Self::Fmnist),
            "fmnist-relaxed" => Some(Self::FmnistRelaxed),
            "fmnist-author" => Some(Self::FmnistAuthor),
            "poets" => Some(Self::Poets),
            "cifar" => Some(Self::Cifar),
            "fedprox-synthetic" => Some(Self::FedProxSynthetic),
            _ => None,
        }
    }
}

/// Dataset + matching model factory for a CLI invocation.
fn build_task(
    kind: DatasetKind,
    args: &ParsedArgs,
) -> Result<(FederatedDataset, ModelFactory), ParseError> {
    let seed: u64 = args.get_parsed_or("seed", 42)?;
    // Absent means the dataset's own default; an explicit 0 is an error.
    let clients = args.get_count("clients")?;
    let samples = args.get_count("samples")?;
    let dataset = match kind {
        DatasetKind::Fmnist | DatasetKind::FmnistRelaxed => fmnist_clustered(&FmnistConfig {
            num_clients: clients.unwrap_or(15),
            samples_per_client: samples.unwrap_or(60),
            relaxation: if kind == DatasetKind::FmnistRelaxed {
                0.18
            } else {
                0.0
            },
            seed,
            ..FmnistConfig::default()
        }),
        DatasetKind::FmnistAuthor => fmnist_by_author(&FmnistConfig {
            num_clients: clients.unwrap_or(12),
            samples_per_client: samples.unwrap_or(80),
            seed,
            ..FmnistConfig::default()
        }),
        DatasetKind::Poets => poets(&PoetsConfig {
            clients_per_language: clients.map_or(6, |c| c.div_ceil(2)),
            samples_per_client: samples.unwrap_or(400),
            seq_len: 12,
            seed,
        }),
        DatasetKind::Cifar => cifar100_like(&Cifar100Config {
            num_clients: clients.unwrap_or(30),
            samples_per_client: samples.unwrap_or(60),
            seed,
            ..Cifar100Config::default()
        }),
        DatasetKind::FedProxSynthetic => fedprox_synthetic(&FedProxConfig {
            num_clients: clients.unwrap_or(30),
            seed,
            ..FedProxConfig::default()
        }),
    };
    let spec = match kind {
        DatasetKind::Poets => ModelSpec::CharRnn {
            embed: 8,
            hidden: 32,
        },
        DatasetKind::FedProxSynthetic => ModelSpec::Linear,
        _ => ModelSpec::Mlp { hidden: vec![64] },
    };
    let backend_word = args.get_or("backend", "tiled").to_string();
    let backend = MatmulBackendKind::parse(&backend_word).ok_or(ParseError::InvalidValue {
        flag: "backend".into(),
        value: backend_word,
    })?;
    let inner = spec.build_factory(dataset.feature_len(), dataset.num_classes());
    let factory: ModelFactory = std::sync::Arc::new(move |rng| {
        let mut model = inner(rng);
        model.set_matmul_backend(backend);
        model
    });
    Ok((dataset, factory))
}

/// Dataset + factory from the common `--dataset`/`--clients`/...
/// flags, shared with the networked subcommands.
pub(crate) fn build_cli_task(
    args: &ParsedArgs,
) -> Result<(FederatedDataset, ModelFactory), Box<dyn Error>> {
    let dataset_word = args.get_or("dataset", "fmnist").to_string();
    let kind = DatasetKind::parse(&dataset_word).ok_or_else(|| {
        Box::new(ParseError::InvalidValue {
            flag: "dataset".into(),
            value: dataset_word,
        }) as Box<dyn Error>
    })?;
    Ok(build_task(kind, args)?)
}

/// [`dag_config`] for sibling modules (the peer session shares the
/// DAG/hyperparameter flags).
pub(crate) fn cli_dag_config(
    args: &ParsedArgs,
    num_clients: usize,
) -> Result<DagConfig, ParseError> {
    dag_config(args, num_clients)
}

/// The CLI flag a core config field is populated from, so validation
/// errors name what the user actually typed.
fn flag_for_field(field: &str) -> &str {
    match field {
        "delay.delay" | "delay.base" | "delay.fast" => "delay",
        "delay.jitter" => "jitter",
        "delay.slow" => "slow-delay",
        "delay.slow_fraction" | "compute.slow_fraction" => "slow-fraction",
        "compute.slowdown" => "slowdown",
        "mean_interarrival" => "interarrival",
        "train_time" => "train-time",
        "total_activations" => "activations",
        "learning_rate" => "lr",
        "clients_per_round" => "clients-per-round",
        "local_epochs" => "epochs",
        "local_batches" => "batches",
        "batch_size" => "batch-size",
        "walk_stop_margin" => "stop-margin",
        "faults.drop" => "drop",
        "faults.duplicate" => "duplicate",
        "faults.reorder" => "reorder",
        "faults.extra_delay" => "extra-delay",
        "faults.delay_boost" => "delay-boost",
        "faults.partition" => "partition-start",
        "faults.crash" => "crash-at",
        // `rounds`, `alpha`, `seed`, ... already match their flags.
        other => other,
    }
}

/// Maps a core validation error onto the CLI's flag-error shape.
fn config_error(err: CoreError) -> ParseError {
    match err {
        CoreError::InvalidField { field, value, .. } => ParseError::InvalidValue {
            flag: flag_for_field(field).to_string(),
            value,
        },
        other => ParseError::InvalidValue {
            flag: "config".to_string(),
            value: other.to_string(),
        },
    }
}

fn dag_config(args: &ParsedArgs, num_clients: usize) -> Result<DagConfig, ParseError> {
    let alpha: f32 = args.get_parsed_or("alpha", 10.0)?;
    let normalization = match args.get_or("normalization", "simple") {
        "dynamic" => Normalization::Dynamic,
        _ => Normalization::Simple,
    };
    let selector = match args.get_or("selector", "accuracy") {
        "random" => TipSelector::Random,
        "cumulative" => TipSelector::CumulativeWeight { alpha },
        _ => TipSelector::Accuracy {
            alpha,
            normalization,
        },
    };
    let stop_margin: f32 = args.get_parsed_or("stop-margin", 0.0)?;
    let config = DagConfig {
        rounds: args.get_parsed_or("rounds", 30)?,
        clients_per_round: args.get_parsed_or("clients-per-round", 6.min(num_clients))?,
        local_epochs: args.get_parsed_or("epochs", 1)?,
        local_batches: args.get_parsed_or("batches", 10)?,
        batch_size: args.get_parsed_or("batch-size", 10)?,
        learning_rate: args.get_parsed_or("lr", 0.05)?,
        tip_selector: selector,
        walk_stop_margin: (stop_margin > 0.0).then_some(stop_margin),
        seed: args.get_parsed_or("seed", 42)?,
        ..DagConfig::default()
    };
    // Range validation lives in core (`DagConfig::validate`), so
    // programmatic users get the same errors as CLI users.
    config.validate().map_err(config_error)?;
    Ok(config)
}

/// Builds the asynchronous-mode configuration from `--delay-model`,
/// `--stale-policy` and friends.
fn async_config(args: &ParsedArgs, num_clients: usize) -> Result<AsyncConfig, ParseError> {
    let base: f64 = args.get_parsed_or("delay", 2.0)?;
    let jitter: f64 = args.get_parsed_or("jitter", 0.0)?;
    let slow_fraction: f64 = args.get_parsed_or("slow-fraction", 0.3)?;
    let slow_delay: f64 = args.get_parsed_or("slow-delay", 8.0)?;
    let model_word = args.get_or("delay-model", "constant");
    let delay = match model_word {
        "constant" => DelayModel::Constant { delay: base },
        "jitter" => DelayModel::UniformJitter { base, jitter },
        "cohorts" => DelayModel::Cohorts {
            slow_fraction,
            fast: base,
            slow: slow_delay,
            jitter,
        },
        other => {
            return Err(ParseError::InvalidValue {
                flag: "delay-model".into(),
                value: other.into(),
            })
        }
    };
    // Flags that the chosen delay model happens not to use are still
    // range-checked, so a typo like `--slow-fraction 1.5` never passes
    // silently: validate a cohorts model built from all raw values.
    DelayModel::Cohorts {
        slow_fraction,
        fast: base,
        slow: slow_delay,
        jitter,
    }
    .validate()
    .map_err(config_error)?;
    let slowdown: f64 = args.get_parsed_or("slowdown", 1.0)?;
    let compute = if slowdown != 1.0 {
        if model_word == "cohorts" {
            // One shared straggler cohort: slow links and slow compute
            // hit the same clients.
            ComputeProfile::MatchNetworkCohort { slowdown }
        } else {
            ComputeProfile::TwoSpeed {
                slow_fraction,
                slowdown,
            }
        }
    } else {
        ComputeProfile::Uniform
    };
    let stale_policy = match args.get_or("stale-policy", "publish") {
        "publish" => StaleTipPolicy::PublishAnyway,
        "reselect" => StaleTipPolicy::Reselect,
        "discard" => StaleTipPolicy::Discard,
        other => {
            return Err(ParseError::InvalidValue {
                flag: "stale-policy".into(),
                value: other.into(),
            })
        }
    };
    let config = AsyncConfig {
        dag: dag_config(args, num_clients)?,
        total_activations: args.get_parsed_or("activations", 200)?,
        mean_interarrival: args.get_parsed_or("interarrival", 1.0)?,
        delay,
        compute,
        train_time: args.get_parsed_or("train-time", 0.0)?,
        stale_policy,
        gossip_fanout: args.get_parsed_or("fanout", 0)?,
        workers: args.get_parsed_or("workers", 1)?,
    };
    // Core validation covers the rest (delays, slowdown, inter-arrival,
    // training time and the embedded DAG config).
    config.validate().map_err(config_error)?;
    Ok(config)
}

/// Optional float flag: `None` when absent, an error when unparsable.
fn opt_f64(args: &ParsedArgs, flag: &str) -> Result<Option<f64>, ParseError> {
    args.get(flag)
        .map(|raw| {
            raw.parse().map_err(|_| ParseError::InvalidValue {
                flag: flag.to_string(),
                value: raw.to_string(),
            })
        })
        .transpose()
}

/// Builds the fault-injection plan for `dagfl async` from `--drop`,
/// `--partition-start` and friends. All defaults are zero, so a command
/// line without fault flags yields an inert plan and the unfaulted
/// loopback transport.
fn fault_plan(args: &ParsedArgs) -> Result<FaultPlan, ParseError> {
    let mut plan = FaultPlan {
        drop: args.get_parsed_or("drop", 0.0)?,
        duplicate: args.get_parsed_or("duplicate", 0.0)?,
        reorder: args.get_parsed_or("reorder", 0.0)?,
        extra_delay: args.get_parsed_or("extra-delay", 0.0)?,
        delay_boost: args.get_parsed_or("delay-boost", 1.0)?,
        ..FaultPlan::default()
    };
    if let (Some(start), Some(heal)) = (
        opt_f64(args, "partition-start")?,
        opt_f64(args, "partition-heal")?,
    ) {
        plan.partitions.push(PartitionWindow {
            start,
            heal,
            split: args.get_parsed_or("partition-split", 1)?,
        });
    }
    if let Some(at) = opt_f64(args, "crash-at")? {
        plan.crashes.push(CrashWindow {
            peer: args.get_parsed_or("crash-peer", 0)?,
            at,
            restart: opt_f64(args, "crash-restart")?.unwrap_or(f64::INFINITY),
        });
    }
    plan.validate().map_err(config_error)?;
    Ok(plan)
}

fn fed_config(args: &ParsedArgs, num_clients: usize, mu: f32) -> Result<FedConfig, ParseError> {
    Ok(FedConfig {
        rounds: args.get_count_or("rounds", 30)?,
        clients_per_round: args.get_count_or("clients-per-round", 6.min(num_clients))?,
        local_epochs: args.get_count_or("epochs", 1)?,
        local_batches: args.get_count_or("batches", 10)?,
        batch_size: args.get_count_or("batch-size", 10)?,
        learning_rate: args.get_parsed_or("lr", 0.05)?,
        proximal_mu: mu,
        straggler_fraction: args.get_parsed_or("stragglers", 0.0)?,
        drop_stragglers: mu == 0.0,
        seed: args.get_parsed_or("seed", 42)?,
        ..FedConfig::default()
    })
}

/// Runs the parsed command, printing a per-round CSV to stdout.
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
            return Ok(());
        }
        Command::Run => return run_scenario(args),
        Command::Analyze => return analyze_command(args),
        Command::Sweep => return sweep_command(args),
        Command::Scenarios => return scenarios_command(args),
        Command::Perf => return crate::perf::perf_command(args),
        Command::Peer => return crate::net::peer_command(args),
        Command::Tracker => return crate::net::tracker_command(args),
        _ => {}
    }
    let (dataset, factory) = build_cli_task(args)?;
    let n = dataset.num_clients();
    eprintln!(
        "# dataset={} clients={} classes={} base_pureness={:.3}",
        dataset.name(),
        n,
        dataset.num_classes(),
        dataset.base_pureness()
    );
    match args.command() {
        Command::Dag => {
            let config = dag_config(args, n)?;
            let mut sim = Simulation::new(config, dataset, factory);
            println!("round,published,mean_accuracy,mean_loss,tangle_size");
            for _ in 0..config.rounds {
                let m = sim.run_round()?;
                println!(
                    "{},{},{:.4},{:.4},{}",
                    m.round + 1,
                    m.published,
                    m.mean_accuracy(),
                    m.mean_loss(),
                    sim.tangle().len()
                );
            }
            let spec = sim.specialization_metrics();
            eprintln!(
                "# pureness={:.3} modularity={:.3} partitions={} misclassification={:.3}",
                spec.approval_pureness, spec.modularity, spec.partitions, spec.misclassification
            );
        }
        Command::FedAvg | Command::FedProx => {
            let mu = if args.command() == Command::FedProx {
                args.get_parsed_or("mu", 0.1)?
            } else {
                0.0
            };
            let config = fed_config(args, n, mu)?;
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
        }
        Command::Local => {
            let rounds = args.get_count_or("rounds", 30)?;
            let mut local = LocalOnly::new(
                dataset,
                factory,
                args.get_parsed_or("lr", 0.05)?,
                args.get_count_or("batches", 10)?,
                args.get_count_or("batch-size", 10)?,
                args.get_parsed_or("seed", 42)?,
            );
            println!("round,mean_accuracy");
            for round in 0..rounds {
                local.run_round()?;
                println!("{},{:.4}", round + 1, local.mean_accuracy()?);
            }
        }
        Command::Async => {
            let config = async_config(args, n)?;
            let plan = fault_plan(args)?;
            let mut sim = AsyncSimulation::try_new_with_faults(config, dataset, factory, plan)?;
            println!("activation,started,completed,client,accuracy,published,stale_parents");
            for i in 0..config.total_activations {
                let r = sim.step()?;
                println!(
                    "{},{:.2},{:.2},{},{:.4},{},{}",
                    i + 1,
                    r.started,
                    r.completed,
                    r.client,
                    r.accuracy,
                    r.published,
                    r.stale_parents
                );
            }
            let m = sim.metrics();
            eprintln!(
                "# activations={} elapsed={:.2} rate={:.3}/t publish_fraction={:.3}",
                m.activations,
                m.elapsed,
                m.activation_rate(),
                m.publish_fraction()
            );
            eprintln!(
                "# publish_latency mean={:.3} max={:.3} stale_fraction={:.3} \
                 staleness=[{},{},{}] discarded={} reselected={}",
                m.mean_publish_latency,
                m.max_publish_latency,
                m.stale_fraction(),
                m.staleness_histogram[0],
                m.staleness_histogram[1],
                m.staleness_histogram[2],
                m.discarded_stale,
                m.reselections
            );
            eprintln!(
                "# confirmation_depth={:.2} transactions={} tips={} pending={} pureness={:.3}",
                m.mean_confirmation_depth,
                m.transactions,
                m.tips,
                sim.pending_deliveries(),
                sim.approval_pureness()
            );
            let stats = sim.transport_stats();
            if stats.has_faults() {
                eprintln!(
                    "# faults delivered={} dropped={} duplicated={}",
                    stats.delivered, stats.dropped, stats.duplicated
                );
            }
        }
        Command::Help
        | Command::Run
        | Command::Analyze
        | Command::Sweep
        | Command::Scenarios
        | Command::Perf
        | Command::Peer
        | Command::Tracker => {
            unreachable!("handled above")
        }
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
    let mut scenario = match (args.get("scenario"), args.get("preset")) {
        (Some(path), None) => Scenario::load(path)?,
        (None, Some(name)) => Scenario::preset_at(name, requested_scale(args))?,
        _ => {
            return Err(
                "`dagfl run` needs exactly one of --scenario <file> or --preset <name>".into(),
            )
        }
    };
    // Worker-count override for async scenarios: results are
    // byte-identical at any count, so CI runs the same scenario at
    // --workers 1 and --workers N and diffs the digests.
    if let Some(raw) = args.get("workers") {
        let workers: usize = args.get_parsed_or("workers", 1)?;
        if workers == 0 {
            return Err(format!("`--workers {raw}` is out of range (need >= 1)").into());
        }
        match &mut scenario.execution {
            dagfl_scenario::ExecutionSpec::Async { config, .. } => config.workers = workers,
            dagfl_scenario::ExecutionSpec::Rounds(_) => {
                return Err("`--workers` only applies to async-mode scenarios".into())
            }
        }
    }
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
    let mut scenario = match (args.get("scenario"), args.get("preset")) {
        (Some(path), None) => Scenario::load(path)?,
        (None, Some(name)) => Scenario::preset_at(name, requested_scale(args))?,
        _ => {
            return Err(
                "`dagfl analyze` needs exactly one of --scenario <file> or --preset <name>".into(),
            )
        }
    };
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

    #[test]
    fn dataset_kinds_parse() {
        assert_eq!(DatasetKind::parse("fmnist"), Some(DatasetKind::Fmnist));
        assert_eq!(DatasetKind::parse("poets"), Some(DatasetKind::Poets));
        assert_eq!(
            DatasetKind::parse("fedprox-synthetic"),
            Some(DatasetKind::FedProxSynthetic)
        );
        assert_eq!(DatasetKind::parse("unknown"), None);
    }

    #[test]
    fn build_task_produces_matching_model() {
        let args = ParsedArgs::parse(["dag", "--clients", "6", "--samples", "30"]).unwrap();
        let (dataset, factory) = build_task(DatasetKind::Fmnist, &args).unwrap();
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
        let args = ParsedArgs::parse([
            "dag",
            "--rounds",
            "7",
            "--alpha",
            "3",
            "--normalization",
            "dynamic",
            "--stop-margin",
            "0.2",
        ])
        .unwrap();
        let cfg = dag_config(&args, 20).unwrap();
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
        let args = ParsedArgs::parse(["dag", "--selector", "random"]).unwrap();
        assert_eq!(
            dag_config(&args, 10).unwrap().tip_selector,
            TipSelector::Random
        );
        let args = ParsedArgs::parse(["dag", "--selector", "cumulative", "--alpha", "2"]).unwrap();
        assert_eq!(
            dag_config(&args, 10).unwrap().tip_selector,
            TipSelector::CumulativeWeight { alpha: 2.0 }
        );
    }

    #[test]
    fn fed_config_wires_stragglers() {
        let args = ParsedArgs::parse(["fedprox", "--stragglers", "0.5"]).unwrap();
        let cfg = fed_config(&args, 10, 0.1).unwrap();
        assert_eq!(cfg.straggler_fraction, 0.5);
        assert!(!cfg.drop_stragglers, "fedprox keeps stragglers");
        let cfg = fed_config(&args, 10, 0.0).unwrap();
        assert!(cfg.drop_stragglers, "fedavg drops stragglers");
    }

    #[test]
    fn run_command_help_succeeds() {
        let args = ParsedArgs::parse(["help"]).unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn run_command_tiny_dag_succeeds() {
        let args = ParsedArgs::parse([
            "dag",
            "--clients",
            "4",
            "--samples",
            "30",
            "--rounds",
            "2",
            "--clients-per-round",
            "2",
            "--batches",
            "2",
        ])
        .unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn run_command_rejects_bad_dataset() {
        let args = ParsedArgs::parse(["dag", "--dataset", "imagenet"]).unwrap();
        assert!(run_command(&args).is_err());
    }

    #[test]
    fn run_command_tiny_local_succeeds() {
        let args = ParsedArgs::parse([
            "local",
            "--clients",
            "3",
            "--samples",
            "30",
            "--rounds",
            "2",
            "--batches",
            "2",
        ])
        .unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn run_command_tiny_async_succeeds() {
        let args = ParsedArgs::parse([
            "async",
            "--clients",
            "4",
            "--samples",
            "30",
            "--activations",
            "5",
            "--batches",
            "2",
        ])
        .unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn validation_errors_name_the_flag_the_user_typed() {
        for (flags, flag_name) in [
            (vec!["async", "--slow-fraction", "1.5"], "slow-fraction"),
            (vec!["async", "--delay", "-1"], "delay"),
            (vec!["async", "--interarrival", "0"], "interarrival"),
            (vec!["async", "--train-time", "-2"], "train-time"),
            (vec!["async", "--slowdown", "0.5"], "slowdown"),
            (vec!["dag", "--lr", "-1"], "lr"),
            (vec!["dag", "--batches", "0"], "batches"),
        ] {
            let args = ParsedArgs::parse(flags.clone()).unwrap();
            let err = if flags[0] == "async" {
                async_config(&args, 10).unwrap_err()
            } else {
                dag_config(&args, 10).unwrap_err()
            };
            match err {
                ParseError::InvalidValue { ref flag, .. } => {
                    assert_eq!(flag, flag_name, "{flags:?}")
                }
                other => panic!("{flags:?}: unexpected error {other:?}"),
            }
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
        let args = ParsedArgs::parse([
            "async",
            "--delay-model",
            "cohorts",
            "--delay",
            "1.5",
            "--slow-delay",
            "12",
            "--slow-fraction",
            "0.4",
            "--jitter",
            "0.5",
            "--slowdown",
            "4",
            "--train-time",
            "0.8",
            "--stale-policy",
            "reselect",
        ])
        .unwrap();
        let cfg = async_config(&args, 10).unwrap();
        assert_eq!(
            cfg.delay,
            DelayModel::Cohorts {
                slow_fraction: 0.4,
                fast: 1.5,
                slow: 12.0,
                jitter: 0.5,
            }
        );
        // Under the cohorts delay model the compute slowdown applies to
        // the same (network-slow) clients.
        assert_eq!(
            cfg.compute,
            ComputeProfile::MatchNetworkCohort { slowdown: 4.0 }
        );
        assert_eq!(cfg.stale_policy, StaleTipPolicy::Reselect);
        assert_eq!(cfg.train_time, 0.8);
    }

    #[test]
    fn async_config_uses_independent_cohort_without_cohort_delays() {
        let args =
            ParsedArgs::parse(["async", "--slowdown", "3", "--slow-fraction", "0.2"]).unwrap();
        let cfg = async_config(&args, 10).unwrap();
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
        for flags in [
            vec!["async", "--delay", "-1"],
            vec!["async", "--jitter", "-0.5"],
            vec!["async", "--slow-fraction", "1.5"],
            vec!["async", "--slowdown", "0.5"],
            vec!["async", "--interarrival", "0"],
            vec!["async", "--train-time", "-2"],
            vec!["async", "--delay-model", "cohorts", "--slow-delay", "-3"],
        ] {
            let args = ParsedArgs::parse(flags.clone()).unwrap();
            assert!(
                matches!(
                    async_config(&args, 10),
                    Err(ParseError::InvalidValue { .. })
                ),
                "expected InvalidValue for {flags:?}"
            );
        }
    }

    #[test]
    fn async_config_defaults_to_constant_delay_uniform_compute() {
        let args = ParsedArgs::parse(["async"]).unwrap();
        let cfg = async_config(&args, 10).unwrap();
        assert_eq!(cfg.delay, DelayModel::Constant { delay: 2.0 });
        assert_eq!(cfg.compute, ComputeProfile::Uniform);
        assert_eq!(cfg.stale_policy, StaleTipPolicy::PublishAnyway);
        assert_eq!(cfg.total_activations, 200);
    }

    #[test]
    fn async_config_rejects_unknown_words() {
        let args = ParsedArgs::parse(["async", "--delay-model", "warp"]).unwrap();
        assert!(matches!(
            async_config(&args, 10).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
        let args = ParsedArgs::parse(["async", "--stale-policy", "retry"]).unwrap();
        assert!(matches!(
            async_config(&args, 10).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
    }
}
