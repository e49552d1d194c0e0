//! Whole-round benchmarks: one Specializing-DAG round vs one FedAvg /
//! FedProx round on identical data — the Figure 9/10 cost kernel.

use criterion::{criterion_group, criterion_main, Criterion};

use dagfl_baselines::{FedConfig, FederatedServer};
use dagfl_core::{DagConfig, Simulation};
use dagfl_datasets::{fmnist_clustered, FederatedDataset, FmnistConfig};
use dagfl_scenario::ModelSpec;

fn dataset() -> FederatedDataset {
    fmnist_clustered(&FmnistConfig {
        num_clients: 9,
        samples_per_client: 50,
        ..FmnistConfig::default()
    })
}

fn bench_dag_round(c: &mut Criterion) {
    let ds = dataset();
    let features = ds.feature_len();
    let mut group = c.benchmark_group("fl_round");
    group.sample_size(10);
    group.bench_function("dag_round_3_clients", |b| {
        // One warm simulation; each iteration advances it by one round
        // (the tangle keeps growing, as in a real deployment).
        let mut sim = Simulation::new(
            DagConfig {
                rounds: usize::MAX,
                clients_per_round: 3,
                local_batches: 5,
                ..DagConfig::default()
            },
            ds.clone(),
            ModelSpec::Mlp { hidden: vec![64] }.build_factory(features, 10),
        );
        b.iter(|| sim.run_round().expect("round"));
    });
    group.bench_function("fedavg_round_3_clients", |b| {
        let mut server = FederatedServer::new(
            FedConfig {
                rounds: usize::MAX,
                clients_per_round: 3,
                local_batches: 5,
                ..FedConfig::default()
            },
            ds.clone(),
            ModelSpec::Mlp { hidden: vec![64] }.build_factory(features, 10),
        );
        b.iter(|| server.run_round().expect("round"));
    });
    group.bench_function("fedprox_round_3_clients", |b| {
        let mut server = FederatedServer::new(
            FedConfig {
                rounds: usize::MAX,
                clients_per_round: 3,
                local_batches: 5,
                proximal_mu: 1.0,
                ..FedConfig::default()
            },
            ds.clone(),
            ModelSpec::Mlp { hidden: vec![64] }.build_factory(features, 10),
        );
        b.iter(|| server.run_round().expect("round"));
    });
    group.finish();
}

criterion_group!(benches, bench_dag_round);
criterion_main!(benches);
