//! Repeated runs of one workload, their correctness checks, and the
//! metrics reported from them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dagfl_scenario::{ExecutionSpec, Scenario};

use crate::workload::{run, with_workers, Layers, Run, Size, Tracing, Workload};

/// No new run starts after this much time, so that one invocation stays
/// inside three minutes whatever `--seconds` asks for.
const TIME_CAP: Duration = Duration::from_secs(120);

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The result of one benchmark invocation.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Simulation runs made, timed and check runs alike.
    pub attempted: usize,
    /// Runs that errored or failed a check.
    pub failed: usize,
    /// Whether every check passed.
    pub correct: bool,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// The run's exact outcomes as one `baseline.json` entry (traced
    /// measurements only).
    pub record: Option<String>,
}

impl Outcome {
    /// The one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// A name / value / unit table for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }
}

/// The median of `values` (the mean of the middle two for an even
/// count); `0.0` for none.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile of `values`; `0.0` for none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `i`th input seed of a measurement taken at `seed`; the 0th is
/// `seed` itself.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A run's digest and outcomes, which repeat exactly for a seed.
type Exact = (u64, f64, f64);

/// Checks every run of one workload: it must complete the scenario's
/// client updates and reproduce the digest and outcomes of every earlier
/// run of the same seed.
struct Checker {
    expected_updates: usize,
    references: BTreeMap<u64, Exact>,
    attempted: usize,
    failed: usize,
}

impl Checker {
    fn new(scenario: &Scenario) -> Self {
        let expected_updates = match &scenario.execution {
            ExecutionSpec::Rounds(dag) => dag.rounds * dag.clients_per_round,
            ExecutionSpec::Async { config, .. } => config.total_activations,
        };
        Self {
            expected_updates,
            references: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts a run of `seed` and returns it if it passed every check.
    fn check(&mut self, seed: u64, result: Result<Run, String>) -> Option<Run> {
        self.attempted += 1;
        let verdict = result.and_then(|r| {
            let exact = (r.digest, r.recent_accuracy, r.approval_pureness);
            let reference = *self.references.entry(seed).or_insert(exact);
            if exact != reference {
                return Err(format!(
                    "seed {seed}: digest {:#018x} (accuracy {}, pureness {}) differs from an \
                     earlier run's {:#018x} ({}, {})",
                    exact.0, exact.1, exact.2, reference.0, reference.1, reference.2
                ));
            }
            if r.updates != self.expected_updates {
                return Err(format!(
                    "{} client updates, expected {}",
                    r.updates, self.expected_updates
                ));
            }
            let fraction = 0.0..=1.0;
            if !fraction.contains(&r.recent_accuracy) || !fraction.contains(&r.approval_pureness) {
                return Err("accuracy or pureness outside [0, 1]".into());
            }
            Ok(r)
        });
        match verdict {
            Ok(r) => {
                eprintln!(
                    "run {} (seed {seed}): set-up {:.3} s, run {:.3} s, digest {:#018x}",
                    self.attempted,
                    r.setup_s(),
                    r.run_s,
                    r.digest
                );
                Some(r)
            }
            Err(e) => {
                eprintln!("run {} failed: {e}", self.attempted);
                self.failed += 1;
                None
            }
        }
    }

    fn outcome(&self, metrics: Vec<Metric>) -> Outcome {
        let finite = metrics.iter().all(|m| m.value.is_finite());
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            correct: self.failed == 0 && self.attempted > 0 && finite,
            metrics,
            record: None,
        }
    }
}

/// Calls `f` with 0, 1, 2, ... at least `min` times and until `seconds`
/// have passed, but starts no call after [`TIME_CAP`].
fn repeat(min: usize, seconds: u64, mut f: impl FnMut(usize)) {
    let started = Instant::now();
    for call in 0.. {
        let elapsed = started.elapsed();
        if (call >= min && elapsed >= Duration::from_secs(seconds)) || elapsed >= TIME_CAP {
            break;
        }
        f(call);
    }
}

/// Runs `workload` once at exactly `seed` (on `workers` event-loop
/// workers, if given) and returns the line [`end_to_end`] reads from the
/// child process that calls this.
///
/// # Errors
///
/// Returns the message of a scenario or simulation failure.
pub fn once(workload: Workload, seed: u64, workers: Option<usize>) -> Result<String, String> {
    let mut scenario = workload.scenario(seed, Size::Benchmark)?;
    if let Some(workers) = workers {
        scenario = with_workers(scenario, workers);
    }
    let r = run(&scenario, Tracing::Off)?;
    Ok(format!(
        "{} {} {} {} {} {} {} {}",
        r.digest,
        r.build_s,
        r.sim_new_s,
        r.run_s,
        r.updates,
        r.recent_accuracy,
        r.approval_pureness,
        peak_rss_mb()
    ))
}

/// Runs [`once`] in a child process of this benchmark, so that every
/// run starts from a fresh process, as `dagfl run` does, and reports its
/// own peak memory. Returns the run and that peak, in MB.
fn in_child(workload: Workload, seed: u64, workers: Option<usize>) -> Result<(Run, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--once", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()]);
    if let Some(workers) = workers {
        command.args(["--workers", &workers.to_string()]);
    }
    let out = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("the run exited with {}", out.status));
    }
    let fields: Vec<&str> = stdout.lines().last().unwrap_or("").split(' ').collect();
    let [digest, build_s, sim_new_s, run_s, updates, accuracy, pureness, rss] = fields[..] else {
        return Err(format!("unreadable run result {stdout:?}"));
    };
    let number = |s: &str| s.parse::<f64>().map_err(|e| format!("{s:?}: {e}"));
    let count = |s: &str| s.parse::<u64>().map_err(|e| format!("{s:?}: {e}"));
    let run = Run {
        build_s: number(build_s)?,
        sim_new_s: number(sim_new_s)?,
        run_s: number(run_s)?,
        updates: count(updates)? as usize,
        recent_accuracy: number(accuracy)?,
        approval_pureness: number(pureness)?,
        digest: count(digest)?,
        layers: Layers::default(),
    };
    Ok((run, number(rss)?))
}

/// Runs `workload` untraced, each run in its own process, cycling over
/// [`Workload::input_seeds`] seeds derived from `seed` until every seed
/// ran, one seed ran twice, and `seconds` have passed. An async workload
/// first runs the first seed on one event-loop worker instead of
/// repeating it. Reports the median of each timing over all runs, the
/// mean of each outcome over the seeds, and the median peak memory.
///
/// # Errors
///
/// Returns the message of a scenario that cannot be generated.
pub fn end_to_end(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let seeds: Vec<u64> = (0..workload.input_seeds())
        .map(|i| input_seed(seed, i))
        .collect();
    let mut checker = Checker::new(&workload.scenario(seed, Size::Benchmark)?);
    let mut min_runs = seeds.len() + 1;
    if workload.is_async() {
        let one_worker = in_child(workload, seeds[0], Some(1)).map(|(r, _)| r);
        checker.check(seeds[0], one_worker);
        min_runs -= 1;
    }
    let mut runs = Vec::new();
    let mut peaks = Vec::new();
    repeat(min_runs, seconds, |i| {
        let seed = seeds[i % seeds.len()];
        let result = in_child(workload, seed, None).map(|(r, peak)| {
            peaks.push(peak);
            r
        });
        runs.extend(checker.check(seed, result));
    });
    let timing = |f: fn(&Run) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let outcomes = checker.references.values();
    let mut outcome = checker.outcome(vec![
        metric("setup_s", "s", timing(Run::setup_s)),
        metric(
            "updates_per_s",
            "updates/s",
            timing(|r| r.updates as f64 / r.run_s),
        ),
        metric("wall_s", "s", timing(|r| r.setup_s() + r.run_s)),
        metric("peak_rss_mb", "MB", median(&peaks)),
        metric(
            "recent_accuracy",
            "fraction",
            mean(outcomes.clone().map(|o| o.1)),
        ),
        metric("approval_pureness", "fraction", mean(outcomes.map(|o| o.2))),
    ]);
    if checker.references.len() < seeds.len() {
        eprintln!(
            "only {} of {} seeds ran",
            checker.references.len(),
            seeds.len()
        );
        outcome.correct = false;
    }
    Ok(outcome)
}

/// The per-layer metrics of one traced run, given the median untraced
/// run time to measure the tracing overhead against and the largest
/// replica backlog seen.
fn layer_metrics(r: &Run, untraced_run_s: f64, pending_max: usize) -> Vec<Metric> {
    let l = &r.layers;
    let nn = &l.nn;
    // Step times are rounds in rounds mode and activations in async mode.
    let (rounds, steps): (&[f64], &[f64]) = match l.async_counters {
        Some(_) => (&[], &l.step_ms),
        None => (&l.step_ms, &[]),
    };
    let a = l.async_counters.clone().unwrap_or_default();
    let count = |n: u64| n as f64;
    let fallbacks = nn.eval_flat_fallbacks.load(Ordering::Relaxed);
    let attributed = l.attributed_s();
    vec![
        metric("datasets.build_s", "s", r.build_s),
        metric("core.sim_new_s", "s", r.sim_new_s),
        metric(
            "nn.train_batch.calls",
            "count",
            count(nn.train_batch.calls()),
        ),
        metric("nn.train_batch.busy_s", "s", nn.train_batch.busy_s()),
        metric(
            "nn.train_batch.us_p50",
            "us",
            nn.train_batch_hist.quantile_us(0.5),
        ),
        metric(
            "nn.train_batch.us_p99",
            "us",
            nn.train_batch_hist.quantile_us(0.99),
        ),
        metric("nn.eval_flat.calls", "count", count(nn.eval_flat.calls())),
        metric("nn.eval_flat.busy_s", "s", nn.eval_flat.busy_s()),
        metric("nn.eval_flat.fallbacks", "count", count(fallbacks)),
        metric("nn.evaluate.calls", "count", count(nn.evaluate.calls())),
        metric("nn.evaluate.busy_s", "s", nn.evaluate.busy_s()),
        metric(
            "nn.set_parameters.calls",
            "count",
            count(nn.set_parameters.calls()),
        ),
        metric("nn.set_parameters.busy_s", "s", nn.set_parameters.busy_s()),
        metric("nn.parameters.calls", "count", count(nn.parameters.calls())),
        metric("nn.parameters.busy_s", "s", nn.parameters.busy_s()),
        metric("evaluator.fresh", "count", l.fresh as f64),
        metric("evaluator.cached", "count", l.cached as f64),
        metric(
            "evaluator.fresh_ratio",
            "fraction",
            l.fresh as f64 / (l.fresh + l.cached).max(1) as f64,
        ),
        metric("walk.steps", "count", l.walk_steps as f64),
        metric("walk.candidates", "count", l.walk_candidates as f64),
        metric("walk.busy_s", "s", l.walk_busy_s),
        metric("simulation.round_ms.p50", "ms", quantile(rounds, 0.5)),
        metric("simulation.round_ms.p90", "ms", quantile(rounds, 0.9)),
        metric("analysis.snapshots", "count", l.analysis_snapshots as f64),
        metric("analysis.reference_params_s", "s", l.reference_params_s),
        metric("analysis.cluster_s", "s", l.cluster_s),
        metric("async_sim.step_ms.p50", "ms", quantile(steps, 0.5)),
        metric("async_sim.step_ms.p99", "ms", quantile(steps, 0.99)),
        metric("async_sim.publish_ratio", "fraction", a.publish_ratio),
        metric("async_sim.reselections", "count", a.reselections as f64),
        metric("async_sim.stale_fraction", "fraction", a.stale_fraction),
        metric("transport.delivered", "count", a.transport.delivered as f64),
        metric("transport.dropped", "count", a.transport.dropped as f64),
        metric(
            "transport.mean_latency",
            "t",
            a.transport.latency_sum / a.transport.latency_count.max(1) as f64,
        ),
        metric("replica.pending_max", "count", pending_max as f64),
        metric("tangle.transactions", "count", l.transactions as f64),
        metric("tangle.attach_replay_us", "us", l.attach_replay_us),
        metric("metrics.specialization_s", "s", l.specialization_s),
        metric("tangle.digest_s", "s", l.digest_s),
        metric("trace.run_s", "s", r.run_s),
        metric(
            "trace.overhead_pct",
            "%",
            (r.run_s / untraced_run_s - 1.0) * 100.0,
        ),
        metric("trace.coverage", "fraction", attributed / r.run_s),
        metric("trace.other_s", "s", r.run_s - attributed),
    ]
}

/// Alternates untraced and traced runs of `workload` at `seed`, in this
/// process, until `seconds` have passed (at least one pair). An async
/// workload first runs on one event-loop worker, sampling the replica
/// backlog. Checks that every run reproduces the same digest and every
/// traced run the same counts, and reports the median of each per-layer
/// metric.
///
/// # Errors
///
/// Returns the message of a scenario that cannot be generated.
pub fn per_layer(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let scenario = workload.scenario(seed, Size::Benchmark)?;
    let mut checker = Checker::new(&scenario);
    let mut pending_max = 0;
    if workload.is_async() {
        let one_worker = run(&with_workers(scenario.clone(), 1), Tracing::Backlog);
        pending_max = checker
            .check(seed, one_worker)
            .and_then(|r| r.layers.async_counters)
            .map_or(0, |a| a.pending_max);
    }
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    repeat(1, seconds, |_| {
        untraced.extend(
            checker
                .check(seed, run(&scenario, Tracing::Off))
                .map(|r| r.run_s),
        );
        traced.extend(checker.check(seed, run(&scenario, Tracing::Spans)));
    });
    let untraced_run_s = median(&untraced);
    let per_run: Vec<Vec<Metric>> = traced
        .iter()
        .map(|r| layer_metrics(r, untraced_run_s, pending_max))
        .collect();
    let Some(first) = per_run.first() else {
        return Ok(checker.outcome(Vec::new()));
    };
    let metrics: Vec<Metric> = first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_run.iter().map(|ms| ms[i].value).collect();
            if m.unit == "count" && values.iter().any(|&v| v != m.value) {
                eprintln!("count {} differs between traced runs: {values:?}", m.name);
                checker.failed += 1;
            }
            metric(m.name, m.unit, median(&values))
        })
        .collect();
    let mut outcome = checker.outcome(metrics);
    outcome.record = Some(record(workload, seed, &traced[0], &outcome.metrics));
    Ok(outcome)
}

/// The `baseline.json` entry of a traced run: the digest and outcomes,
/// then every count, all of which repeat exactly for a seed.
fn record(workload: Workload, seed: u64, r: &Run, metrics: &[Metric]) -> String {
    let mut out = format!(
        "\"{}@{seed}\": {{\"digest\": \"{:#018x}\", \"recent_accuracy\": {}, \
         \"approval_pureness\": {}",
        workload.name(),
        r.digest,
        r.recent_accuracy,
        r.approval_pureness
    );
    for m in metrics.iter().filter(|m| m.unit == "count") {
        let _ = write!(out, ", \"{}\": {}", m.name, m.value);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
    }

    #[test]
    fn the_first_input_seed_is_the_seed_itself() {
        assert_eq!(input_seed(42, 0), 42);
        let seeds: std::collections::BTreeSet<u64> = (0..10).map(|i| input_seed(42, i)).collect();
        assert_eq!(seeds.len(), 10);
    }

    #[test]
    fn outcome_json_has_the_contract_keys() {
        let outcome = Outcome {
            attempted: 2,
            failed: 0,
            correct: true,
            metrics: vec![metric("wall_s", "s", 1.5), metric("peak_rss_mb", "MB", 8.0)],
            record: None,
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"wall_s\": \
             {\"value\": 1.5, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 8, \"unit\": \"MB\"}}}"
        );
    }
}
