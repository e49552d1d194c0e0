//! Figure 9: per-client accuracy distributions, Specializing DAG vs
//! FedAvg, on all three datasets, grouped over five consecutive rounds
//! (the paper's box plots).
//!
//! Paper shape: the DAG improves faster with a tighter spread on
//! FMNIST-clustered; on Poets and CIFAR-100 both approaches reach similar
//! accuracy — removing the central server costs nothing.

use dagfl_baselines::{FedConfig, FederatedServer};
use dagfl_bench::output::{emit, f32c, int};
use dagfl_core::Simulation;
use dagfl_scenario::Scenario;
use dagfl_tensor::Summary;

/// Summarises accuracies grouped over 5-round windows.
fn grouped(accs_per_round: &[Vec<f32>]) -> Vec<(usize, Summary)> {
    accs_per_round
        .chunks(5)
        .enumerate()
        .map(|(group, chunk)| {
            let all: Vec<f32> = chunk.iter().flatten().copied().collect();
            ((group + 1) * 5, Summary::of(&all))
        })
        .collect()
}

/// Runs the DAG and FedAvg on one Table 1 preset's dataset, model and
/// hyperparameters.
fn run_pair(name: &str, preset: &str, rows: &mut Vec<Vec<String>>) {
    let scenario = Scenario::preset(preset).expect("preset exists");
    let dag = *scenario.execution.dag();
    let dataset = scenario.dataset.build();
    let factory = scenario.build_factory(&dataset);
    let mut sim = Simulation::new(dag, dataset.clone(), factory.clone());
    sim.run().expect("DAG simulation failed");
    let dag_accs: Vec<Vec<f32>> = sim.history().iter().map(|m| m.accuracies.clone()).collect();
    let mut server = FederatedServer::new(FedConfig::from_dag(&dag), dataset, factory);
    server.run().expect("centralized training failed");
    let fed_accs: Vec<Vec<f32>> = server
        .history()
        .iter()
        .map(|m| m.accuracies.clone())
        .collect();
    for (algorithm, accs) in [("dag", dag_accs), ("fedavg", fed_accs)] {
        for (rounds, s) in grouped(&accs) {
            rows.push(vec![
                name.into(),
                algorithm.into(),
                int(rounds),
                f32c(s.mean),
                f32c(s.stddev),
                f32c(s.min),
                f32c(s.q1),
                f32c(s.median),
                f32c(s.q3),
                f32c(s.max),
            ]);
        }
    }
}

fn main() {
    let mut rows = Vec::new();
    run_pair("fmnist-clustered", "table1-fmnist", &mut rows);
    run_pair("poets", "table1-poets", &mut rows);
    run_pair("cifar100", "table1-cifar", &mut rows);

    emit(
        "fig09_fedavg_comparison",
        &[
            "dataset",
            "algorithm",
            "rounds",
            "mean",
            "stddev",
            "min",
            "q1",
            "median",
            "q3",
            "max",
        ],
        &rows,
    );
}
