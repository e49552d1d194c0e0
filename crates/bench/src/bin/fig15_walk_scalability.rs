//! Figure 15: wall-clock duration of the biased random walk per client,
//! over training rounds, for 5/10/20/40 concurrently active clients.
//!
//! Paper shape: the walk cost is dominated by candidate model evaluation;
//! it spikes early (imbalanced child counts while accuracies differ
//! widely) and levels out, with only marginal differences between
//! concurrency levels — i.e. the approach scales.

use dagfl_bench::output::{emit, f, int};
use dagfl_bench::Scale;
use dagfl_core::{DagConfig, Simulation};
use dagfl_scenario::{DatasetSpec, Scenario};

fn main() {
    let scale = Scale::from_env();
    let rounds = scale.pick(15, 100);
    // The Table 1 FMNIST row on one fixed author-split client pool for
    // every concurrency level, so the series isolates the effect of
    // concurrent activity (like the paper's fixed author-split FMNIST).
    let mut scenario = Scenario::preset_at("table1-fmnist", scale).expect("preset exists");
    scenario.dataset = DatasetSpec::FmnistAuthor {
        clients: 120,
        samples: scale.pick(80, 120),
        seed: 42,
    };
    let mut rows = Vec::new();
    for active in [5usize, 10, 20, 40] {
        let dataset = scenario.dataset.build();
        let factory = scenario.build_factory(&dataset);
        let dag = DagConfig {
            rounds,
            clients_per_round: active,
            ..*scenario.execution.dag()
        };
        let mut sim = Simulation::new(dag, dataset, factory);
        for _ in 0..rounds {
            let m = sim.run_round().expect("round failed");
            rows.push(vec![
                int(active),
                int(m.round + 1),
                f(m.mean_walk_duration.as_secs_f64() * 1000.0),
                int(m.candidates_evaluated),
                int(m.walk_steps),
            ]);
        }
    }
    emit(
        "fig15_walk_scalability",
        &[
            "active_clients",
            "round",
            "walk_duration_ms",
            "candidates_evaluated",
            "walk_steps",
        ],
        &rows,
    );
}
