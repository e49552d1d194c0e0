//! The three benchmark workloads and the code that runs one of them
//! through the simulator's public API, the way `dagfl run` does.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dagfl_core::{
    tangle_digest, AsyncSimulation, ExecutionMode, ShardedModelTangle, Simulation, TransportStats,
};
use dagfl_scenario::{AnalysisSpec, DatasetSpec, ExecutionSpec, Scale, Scenario};

use crate::trace::{traced_factory, NnTrace};

/// The seed whose outcomes `baseline.json` records.
pub const DEFAULT_SEED: u64 = 42;

/// Event-loop workers of `async-10k`: the two cores of the host the
/// benchmark was calibrated on (the preset asks for four).
pub const ASYNC_WORKERS: usize = 2;

/// A benchmark workload: a checked-in scenario preset at a fixed scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fig05-alpha10` at paper scale: walks, candidate evaluation and
    /// the analysis layer.
    RoundsSpecialize,
    /// `scale-10k` at paper scale: dataset set-up, the event loop,
    /// replica delivery and tangle writes.
    Async10k,
    /// `table1-poets` at quick scale: GRU training and evaluation.
    RoundsGru,
}

/// Scenario size: the benchmark's own, or a reduced one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Benchmark,
    /// A few seconds in a debug build, same code paths.
    Reduced,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::RoundsSpecialize,
        Workload::Async10k,
        Workload::RoundsGru,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RoundsSpecialize => "rounds-specialize",
            Workload::Async10k => "async-10k",
            Workload::RoundsGru => "rounds-gru",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many input seeds one end-to-end measurement spreads its runs
    /// over, so that the outcomes, which vary from seed to seed, are
    /// averaged over a fixed set of inputs. 20 to 40 s of runs each.
    pub fn input_seeds(self) -> usize {
        match self {
            Workload::RoundsSpecialize => 5,
            Workload::Async10k => 5,
            Workload::RoundsGru => 10,
        }
    }

    /// Whether the workload runs the async simulator, whose result must
    /// not depend on the number of event-loop workers.
    pub fn is_async(self) -> bool {
        self == Workload::Async10k
    }

    /// The generated scenario for `seed`, serialized to scenario text and
    /// parsed back, so the program sees exactly what a user would give
    /// `dagfl run --scenario`.
    ///
    /// # Errors
    ///
    /// Returns the message of a preset, parse or validation failure.
    pub fn scenario(self, seed: u64, size: Size) -> Result<Scenario, String> {
        let (preset, scale) = match self {
            Workload::RoundsSpecialize => ("fig05-alpha10", Scale::Full),
            Workload::Async10k => ("scale-10k", Scale::Full),
            Workload::RoundsGru => ("table1-poets", Scale::Quick),
        };
        let scale = if size == Size::Reduced {
            Scale::Quick
        } else {
            scale
        };
        let mut scenario = Scenario::preset_at(preset, scale)
            .map_err(|e| e.to_string())?
            .with_seed(seed);
        if let ExecutionSpec::Async { config, .. } = &mut scenario.execution {
            config.workers = ASYNC_WORKERS;
        }
        if size == Size::Reduced {
            let dag = scenario.execution.dag_mut();
            dag.rounds = dag.rounds.min(6);
            if let ExecutionSpec::Async { config, .. } = &mut scenario.execution {
                config.total_activations = 300;
            }
            if let DatasetSpec::FmnistStreamed { clients, .. } = &mut scenario.dataset {
                *clients = 300;
            }
        }
        let scenario = Scenario::from_toml(&scenario.to_toml()).map_err(|e| e.to_string())?;
        scenario.validate().map_err(|e| e.to_string())?;
        Ok(scenario)
    }
}

/// The scenario with the async event loop set to `workers` workers.
pub fn with_workers(mut scenario: Scenario, workers: usize) -> Scenario {
    if let ExecutionSpec::Async { config, .. } = &mut scenario.execution {
        config.workers = workers;
    }
    scenario
}

/// What a run measures beyond the end-to-end numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    /// Nothing: the run is timed as `dagfl run` would be.
    Off,
    /// Every model is wrapped in a timing
    /// [`TracedModel`](crate::trace::TracedModel), and the final tangle
    /// is replayed into a fresh store to time its writes.
    Spans,
    /// The replica backlog (`pending_deliveries()`) is sampled after
    /// every [`BACKLOG_EVERY`]th async step. A sample walks every
    /// replica (about 20 ms at 10,000 clients) and evicts the
    /// simulator's data from the caches, so sampling gets a run of its
    /// own.
    Backlog,
}

/// Async steps between two samples of the replica backlog.
pub const BACKLOG_EVERY: usize = 100;

/// What one run of a scenario produced and how long it took.
#[derive(Debug, Clone)]
pub struct Run {
    /// Dataset generation, in seconds.
    pub build_s: f64,
    /// Simulator construction (model factory included), in seconds.
    pub sim_new_s: f64,
    /// Simulation, analysis snapshots, specialization metrics and the
    /// final digest, in seconds.
    pub run_s: f64,
    /// Completed client updates: rounds × clients per round, or
    /// activations.
    pub updates: usize,
    /// Mean post-training accuracy over the scenario's recent window.
    pub recent_accuracy: f64,
    /// Approval pureness of the final tangle (§4.3).
    pub approval_pureness: f64,
    /// Content digest of the final tangle.
    pub digest: u64,
    /// Per-layer measurements; the `nn` spans, the replay and the
    /// backlog are filled in only by the matching [`Tracing`] mode.
    pub layers: Layers,
}

impl Run {
    /// Dataset build plus simulator construction, in seconds.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.sim_new_s
    }
}

/// Per-layer measurements of one run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// What the traced models recorded.
    pub nn: Arc<NnTrace>,
    /// Wall time of each round or activation step, in milliseconds.
    pub step_ms: Vec<f64>,
    /// Fresh (forward-pass) candidate evaluations.
    pub fresh: usize,
    /// Cache-served candidate evaluations.
    pub cached: usize,
    /// Walk steps (rounds mode).
    pub walk_steps: usize,
    /// Candidates scored by walks (rounds mode).
    pub walk_candidates: usize,
    /// Walk time summed over clients, in seconds (rounds mode).
    pub walk_busy_s: f64,
    /// Analysis snapshots taken.
    pub analysis_snapshots: usize,
    /// `Simulation::reference_parameters` time, in seconds.
    pub reference_params_s: f64,
    /// `dagfl_analysis::analyze` time, in seconds.
    pub cluster_s: f64,
    /// `specialization_metrics` time (tracked and final), in seconds.
    pub specialization_s: f64,
    /// `tangle_digest` time, in seconds.
    pub digest_s: f64,
    /// Async-mode counters, absent in rounds mode.
    pub async_counters: Option<AsyncCounters>,
    /// Transactions in the final tangle, genesis included.
    pub transactions: usize,
    /// Mean time to attach one transaction when the final tangle is
    /// replayed into a fresh store, in microseconds.
    pub attach_replay_us: f64,
}

impl Layers {
    /// Wall time inside the named top-level spans, in seconds: the
    /// simulation steps, analysis, specialization metrics and digest.
    pub fn attributed_s(&self) -> f64 {
        self.step_ms.iter().sum::<f64>() * 1e-3
            + self.reference_params_s
            + self.cluster_s
            + self.specialization_s
            + self.digest_s
    }
}

/// Event-loop and transport counters of an async run.
#[derive(Debug, Clone, Default)]
pub struct AsyncCounters {
    /// Published share of activations.
    pub publish_ratio: f64,
    /// Stale parents re-selected before publishing.
    pub reselections: usize,
    /// Share of activations whose parents went stale.
    pub stale_fraction: f64,
    /// Transport accounting.
    pub transport: TransportStats,
    /// Largest `pending_deliveries()` sampled (see [`Tracing::Backlog`]).
    pub pending_max: usize,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs `scenario` once, timing set-up and run separately, and measures
/// what `tracing` asks for.
///
/// # Errors
///
/// Returns the message of a simulation error, or of a scenario the
/// benchmark does not run (attacks, fault plans, tcp transport).
pub fn run(scenario: &Scenario, tracing: Tracing) -> Result<Run, String> {
    if scenario.attack.is_some() || scenario.faults.is_some() {
        return Err("the benchmark runs no attack or fault scenarios".into());
    }
    let started = Instant::now();
    let dataset = scenario.dataset.build();
    let build_s = secs(started.elapsed());
    let trace = Arc::new(NnTrace::default());
    let factory = scenario.build_factory(&dataset);
    let factory = if tracing == Tracing::Spans {
        traced_factory(factory, Arc::clone(&trace))
    } else {
        factory
    };
    let mut layers = Layers {
        nn: trace,
        ..Layers::default()
    };
    Ok(match &scenario.execution {
        ExecutionSpec::Rounds(dag) => {
            let started = Instant::now();
            let mut sim = Simulation::new(*dag, dataset, factory);
            let sim_new_s = secs(started.elapsed());
            let analysis = scenario.analysis.as_ref().filter(|a| a.enabled);
            let cadence = analysis.map_or(0, |a| a.cadence);
            let track_every = scenario.output.track_every;
            let started = Instant::now();
            let mut last_snapshot = None;
            for round in 1..=dag.rounds {
                let step = Instant::now();
                sim.run_round().map_err(|e| e.to_string())?;
                layers.step_ms.push(secs(step.elapsed()) * 1e3);
                if track_every > 0 && round % track_every == 0 {
                    let t = Instant::now();
                    black_box(sim.specialization_metrics());
                    layers.specialization_s += secs(t.elapsed());
                }
                if cadence > 0 && round % cadence == 0 {
                    let spec = analysis.expect("a cadence implies analysis");
                    snapshot(&mut sim, round, spec, dag.seed, &mut layers)?;
                    last_snapshot = Some(round);
                }
            }
            // The final snapshot, unless the cadence already took it (a
            // second one would advance the walk RNG streams again).
            if let Some(spec) = analysis {
                let round = sim.round();
                if last_snapshot != Some(round) {
                    snapshot(&mut sim, round, spec, dag.seed, &mut layers)?;
                }
            }
            let t = Instant::now();
            let specialization = sim.specialization_metrics();
            layers.specialization_s += secs(t.elapsed());
            let t = Instant::now();
            let digest = tangle_digest(sim.tangle());
            layers.digest_s = secs(t.elapsed());
            let run_s = secs(started.elapsed());
            for m in sim.history() {
                layers.fresh += m.fresh_evaluations;
                layers.cached += m.cached_evaluations;
                layers.walk_steps += m.walk_steps;
                layers.walk_candidates += m.candidates_evaluated;
                layers.walk_busy_s += secs(m.mean_walk_duration) * m.active_clients.len() as f64;
            }
            if tracing == Tracing::Spans {
                finish_tangle_layers(sim.tangle(), digest, &mut layers)?;
            }
            Run {
                build_s,
                sim_new_s,
                run_s,
                updates: sim.round() * dag.clients_per_round,
                recent_accuracy: f64::from(sim.recent_accuracy(scenario.output.recent_window)),
                approval_pureness: specialization.approval_pureness,
                digest,
                layers,
            }
        }
        ExecutionSpec::Async { config, transport } => {
            if transport.mode() != "loopback" {
                return Err("the benchmark runs the in-process loopback transport only".into());
            }
            let started = Instant::now();
            let mut sim =
                AsyncSimulation::try_new(*config, dataset, factory).map_err(|e| e.to_string())?;
            let sim_new_s = secs(started.elapsed());
            let started = Instant::now();
            let mut pending_max = 0;
            while sim.activations() < config.total_activations {
                let step = Instant::now();
                sim.step().map_err(|e| e.to_string())?;
                layers.step_ms.push(secs(step.elapsed()) * 1e3);
                if tracing == Tracing::Backlog && sim.activations() % BACKLOG_EVERY == 0 {
                    pending_max = pending_max.max(sim.pending_deliveries());
                }
            }
            let t = Instant::now();
            let specialization = sim.specialization_metrics_seeded(config.dag.seed ^ 0xC0FF_EE00);
            layers.specialization_s = secs(t.elapsed());
            let t = Instant::now();
            let digest = tangle_digest(sim.tangle());
            layers.digest_s = secs(t.elapsed());
            let run_s = secs(started.elapsed());
            let metrics = sim.metrics();
            layers.fresh = metrics.fresh_evaluations;
            layers.cached = metrics.cached_evaluations;
            layers.async_counters = Some(AsyncCounters {
                publish_ratio: metrics.publish_fraction(),
                reselections: metrics.reselections,
                stale_fraction: metrics.stale_fraction(),
                transport: sim.transport_stats(),
                pending_max,
            });
            if tracing == Tracing::Spans {
                finish_tangle_layers(sim.tangle(), digest, &mut layers)?;
            }
            Run {
                build_s,
                sim_new_s,
                run_s,
                updates: sim.activations(),
                recent_accuracy: f64::from(sim.recent_accuracy(scenario.output.recent_window)),
                approval_pureness: specialization.approval_pureness,
                digest,
                layers,
            }
        }
    })
}

/// One analytics snapshot, as `dagfl run` takes it.
fn snapshot(
    sim: &mut Simulation,
    round: usize,
    spec: &AnalysisSpec,
    seed: u64,
    layers: &mut Layers,
) -> Result<(), String> {
    let config = spec.to_config(seed);
    let t = Instant::now();
    let params = if config.source.wants_parameters() {
        Some(sim.reference_parameters().map_err(|e| e.to_string())?)
    } else {
        None
    };
    layers.reference_params_s += secs(t.elapsed());
    let t = Instant::now();
    let graph = config.source.wants_approvals().then(|| sim.client_graph());
    let truth = sim.dataset().cluster_labels();
    black_box(dagfl_analysis::analyze(
        round,
        params.as_deref(),
        graph.as_ref(),
        &truth,
        &config,
    ));
    layers.cluster_s += secs(t.elapsed());
    layers.analysis_snapshots += 1;
    Ok(())
}

/// Records the tangle's size and replays its transactions, in order, into
/// a fresh store through `attach_with_meta`, timing the writes. The
/// replay must reproduce `digest`.
fn finish_tangle_layers(
    tangle: &ShardedModelTangle,
    digest: u64,
    layers: &mut Layers,
) -> Result<(), String> {
    layers.transactions = tangle.len();
    let genesis = tangle
        .get(tangle.genesis())
        .map_err(|e| e.to_string())?
        .payload()
        .clone();
    let records: Vec<_> = tangle.iter().filter(|tx| !tx.is_genesis()).collect();
    let copy = ShardedModelTangle::new(genesis);
    let started = Instant::now();
    for tx in &records {
        copy.attach_with_meta(tx.payload().clone(), tx.parents(), tx.issuer(), tx.round())
            .map_err(|e| e.to_string())?;
    }
    layers.attach_replay_us = secs(started.elapsed()) * 1e6 / records.len().max(1) as f64;
    if tangle_digest(&copy) != digest {
        return Err("replaying the final tangle changed its digest".into());
    }
    Ok(())
}
