//! The accuracy-biased walk with real model evaluations — the dominant
//! cost of the Specializing DAG (§5.3.5) — with cold and warm caches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use dagfl_core::{perturbed_model_tangle, AccuracyBias, ModelEvaluator, Normalization};
use dagfl_datasets::{fmnist_clustered, FmnistConfig};
use dagfl_scenario::ModelSpec;
use dagfl_tangle::RandomWalker;

fn bench_accuracy_walk(c: &mut Criterion) {
    let dataset = fmnist_clustered(&FmnistConfig {
        num_clients: 3,
        samples_per_client: 60,
        ..FmnistConfig::default()
    });
    let client = &dataset.clients()[0];
    let factory = ModelSpec::Mlp { hidden: vec![64] }.build_factory(dataset.feature_len(), 10);
    let mut rng = StdRng::seed_from_u64(0);
    let model = factory(&mut rng);
    let params = model.parameters();

    let mut group = c.benchmark_group("accuracy_walk");
    group.sample_size(10);
    for n in [50usize, 200] {
        let tangle = perturbed_model_tangle(n, &params, 1);
        group.bench_with_input(BenchmarkId::new("cold_cache", n), &tangle, |b, tangle| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| {
                // A fresh evaluator per iteration: every candidate
                // evaluation is a real forward pass.
                let mut evaluator = ModelEvaluator::new(factory(&mut rng));
                let mut bias = AccuracyBias::new(
                    &mut evaluator,
                    client.test_x(),
                    client.test_y(),
                    10.0,
                    Normalization::Simple,
                );
                RandomWalker::new()
                    .walk(tangle, tangle.genesis(), &mut bias, &mut rng)
                    .expect("walk succeeds")
            });
        });
        group.bench_with_input(BenchmarkId::new("warm_cache", n), &tangle, |b, tangle| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut evaluator = ModelEvaluator::new(factory(&mut rng));
            b.iter(|| {
                let mut bias = AccuracyBias::new(
                    &mut evaluator,
                    client.test_x(),
                    client.test_y(),
                    10.0,
                    Normalization::Simple,
                );
                RandomWalker::new()
                    .walk(tangle, tangle.genesis(), &mut bias, &mut rng)
                    .expect("walk succeeds")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_accuracy_walk);
criterion_main!(benches);
