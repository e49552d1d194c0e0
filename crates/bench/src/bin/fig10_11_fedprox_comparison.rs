//! Figures 10 & 11: average accuracy (Fig. 10) and loss (Fig. 11) per
//! round on the FedProx synthetic(0.5, 0.5) benchmark — Specializing DAG
//! vs FedAvg vs FedProx, 30 clients with 10 active per round.
//!
//! Following Li et al.'s systems-heterogeneity setup, half of the active
//! clients are stragglers each round: FedAvg *drops* their partial
//! updates, FedProx *incorporates* them (the proximal term keeps partial
//! work useful). The DAG has no stragglers — it is asynchronous by
//! design (§5.3.3).
//!
//! Paper shape: the centralized approaches are steadier early; the DAG is
//! noisier (statistical tip selection) but eventually outperforms FedAvg
//! on both metrics and approaches FedProx on loss.

use dagfl_baselines::{FedConfig, FederatedServer};
use dagfl_bench::output::{emit, f32c, int};
use dagfl_core::Simulation;
use dagfl_scenario::Scenario;

fn main() {
    let scenario = Scenario::preset("fedprox-synthetic").expect("preset exists");
    let dag = *scenario.execution.dag();
    let dataset = scenario.dataset.build();
    let factory = scenario.build_factory(&dataset);
    let mut rows = Vec::new();

    // Specializing DAG.
    let mut sim = Simulation::new(dag, dataset.clone(), factory.clone());
    sim.run().expect("DAG simulation failed");
    for m in sim.history() {
        rows.push(vec![
            "dag".into(),
            int(m.round + 1),
            f32c(m.mean_accuracy()),
            f32c(m.mean_loss()),
        ]);
    }

    // Centralized baselines under 50 % stragglers.
    for (name, mu, drop) in [("fedavg", 0.0f32, true), ("fedprox", 0.1, false)] {
        let config = FedConfig {
            proximal_mu: mu,
            straggler_fraction: 0.5,
            drop_stragglers: drop,
            ..FedConfig::from_dag(&dag)
        };
        let mut server = FederatedServer::new(config, dataset.clone(), factory.clone());
        server.run().expect("centralized training failed");
        for m in server.history() {
            rows.push(vec![
                name.into(),
                int(m.round + 1),
                f32c(m.mean_accuracy()),
                f32c(m.mean_loss()),
            ]);
        }
    }

    emit(
        "fig10_11_fedprox_comparison",
        &["algorithm", "round", "accuracy", "loss"],
        &rows,
    );
}
