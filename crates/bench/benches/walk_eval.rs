//! Batched evaluation pipeline vs the pre-refactor path, at paper-scale
//! DAG sizes.
//!
//! The pre-refactor `AccuracyBias` evaluated one candidate at a time
//! through a `set_parameters` round-trip into a scratch model, an
//! allocating forward pass (`Model::evaluate` builds a fresh activation
//! matrix per layer plus an intermediate probability matrix) and a
//! hand-threaded `HashMap<TxId, f32>` cache. `legacy` reproduces that
//! path exactly; `batched` is the [`ModelEvaluator`] pipeline (blocked
//! inference matmul, reusable `EvalScratch` buffers, fused softmax +
//! cross-entropy, generation-stamped cache). Both arms walk the same
//! tangle with the same RNG stream, so they perform identical candidate
//! evaluations — only the per-evaluation cost differs.
//!
//! Run with `cargo bench --bench walk_eval`; the final line prints the
//! measured cold-cache speedup at the largest DAG size. Typical
//! measurements on an unloaded AVX2 machine are 2.0-2.4x; host
//! contention compresses the ratio (both arms are memory-sensitive), so
//! the summary compares the fastest of several alternating repetitions.

use std::collections::HashMap;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use dagfl_core::{
    perturbed_model_tangle, AccuracyBias, ModelEvaluator, ModelPayload, Normalization,
};
use dagfl_datasets::{fmnist_clustered, ClientDataset, FmnistConfig};
use dagfl_nn::Model;
use dagfl_scenario::ModelSpec;
use dagfl_tangle::{RandomWalker, Tangle, TxId, WalkBias};
use dagfl_tensor::Matrix;

/// The pre-refactor evaluation pipeline, preserved verbatim as the
/// benchmark baseline: per-candidate `set_parameters` + allocating
/// `Model::evaluate`, memoised in a plain `HashMap`.
struct LegacyAccuracyBias<'a> {
    model: &'a mut dyn Model,
    test_x: &'a Matrix,
    test_y: &'a [usize],
    cache: &'a mut HashMap<TxId, f32>,
    alpha: f32,
}

impl LegacyAccuracyBias<'_> {
    fn accuracy_of(&mut self, tangle: &Tangle<ModelPayload>, id: TxId) -> f32 {
        if let Some(&acc) = self.cache.get(&id) {
            return acc;
        }
        let acc = match tangle.get(id) {
            Ok(tx) => match self.model.set_parameters(tx.payload().params()) {
                Ok(()) => self
                    .model
                    .evaluate(self.test_x, self.test_y)
                    .map(|e| e.accuracy)
                    .unwrap_or(0.0),
                Err(_) => 0.0,
            },
            Err(_) => 0.0,
        };
        self.cache.insert(id, acc);
        acc
    }
}

impl WalkBias<ModelPayload> for LegacyAccuracyBias<'_> {
    fn weights(
        &mut self,
        tangle: &Tangle<ModelPayload>,
        _current: TxId,
        candidates: &[TxId],
    ) -> Vec<f32> {
        let accuracies: Vec<f32> = candidates
            .iter()
            .map(|&c| self.accuracy_of(tangle, c))
            .collect();
        let max = accuracies.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        accuracies
            .iter()
            .map(|&acc| (self.alpha * (acc - max)).exp())
            .collect()
    }
}

fn legacy_walk(
    tangle: &Tangle<ModelPayload>,
    model: &mut dyn Model,
    client: &ClientDataset,
    rng: &mut StdRng,
) {
    let mut cache = HashMap::new();
    let mut bias = LegacyAccuracyBias {
        model,
        test_x: client.test_x(),
        test_y: client.test_y(),
        cache: &mut cache,
        alpha: 10.0,
    };
    RandomWalker::new()
        .walk(tangle, tangle.genesis(), &mut bias, rng)
        .expect("walk succeeds");
}

fn batched_walk(
    tangle: &Tangle<ModelPayload>,
    evaluator: &mut ModelEvaluator,
    client: &ClientDataset,
    rng: &mut StdRng,
) {
    let mut bias = AccuracyBias::new(
        evaluator,
        client.test_x(),
        client.test_y(),
        10.0,
        Normalization::Simple,
    );
    RandomWalker::new()
        .walk(tangle, tangle.genesis(), &mut bias, rng)
        .expect("walk succeeds");
}

fn bench_walk_eval(c: &mut Criterion) {
    // Paper-scale clients hold hundreds of samples; 240 per client
    // gives a 24-row local test split (the 90:10 split of §5.1).
    let dataset = fmnist_clustered(&FmnistConfig {
        num_clients: 3,
        samples_per_client: 240,
        ..FmnistConfig::default()
    });
    let client = &dataset.clients()[0];
    let factory = ModelSpec::Mlp { hidden: vec![64] }.build_factory(dataset.feature_len(), 10);
    let mut rng = StdRng::seed_from_u64(0);
    let mut legacy_model = factory(&mut rng);
    let params = legacy_model.parameters();

    let mut group = c.benchmark_group("walk_eval");
    group.sample_size(10);
    // 500+ transactions is the paper-scale regime of Figure 15.
    for n in [100usize, 500] {
        let tangle = perturbed_model_tangle(n, &params, 1);
        group.bench_with_input(BenchmarkId::new("legacy", n), &tangle, |b, tangle| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| legacy_walk(tangle, legacy_model.as_mut(), client, &mut rng));
        });
        group.bench_with_input(BenchmarkId::new("batched", n), &tangle, |b, tangle| {
            // The scratch model comes from a separate RNG so the walk
            // stream (seed 7) matches the legacy arm draw for draw.
            let mut evaluator = ModelEvaluator::new(factory(&mut StdRng::seed_from_u64(99)));
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| {
                // Cold cache per walk, like the legacy arm: the
                // generation bump invalidates every cached accuracy.
                evaluator.invalidate();
                batched_walk(tangle, &mut evaluator, client, &mut rng)
            });
        });
    }
    group.finish();

    // Head-to-head summary at the paper-scale size: identical RNG
    // streams, cold caches, wall-clock over a fixed number of walks.
    // The arms alternate across repetitions and the fastest repetition
    // of each is compared, so background noise does not masquerade as
    // (or hide) a speedup.
    let test_mode = std::env::args().any(|a| a == "--test");
    let (walks, reps) = if test_mode { (1, 1) } else { (20, 7) };
    let tangle = perturbed_model_tangle(500, &params, 1);
    let mut evaluator = ModelEvaluator::new(factory(&mut rng));
    let mut legacy_best = f64::INFINITY;
    let mut batched_best = f64::INFINITY;
    for _ in 0..reps {
        let mut rng = StdRng::seed_from_u64(11);
        let started = Instant::now();
        for _ in 0..walks {
            legacy_walk(&tangle, legacy_model.as_mut(), client, &mut rng);
        }
        legacy_best = legacy_best.min(started.elapsed().as_secs_f64());
        let mut rng = StdRng::seed_from_u64(11);
        let started = Instant::now();
        for _ in 0..walks {
            evaluator.invalidate();
            batched_walk(&tangle, &mut evaluator, client, &mut rng);
        }
        batched_best = batched_best.min(started.elapsed().as_secs_f64());
    }
    let counters = evaluator.counters();
    println!(
        "walk_eval summary (500 tx, {walks} cold walks, best of {reps}): \
         legacy {:.3}ms, batched {:.3}ms, speedup {:.2}x, \
         {} fresh / {} cached evaluations",
        legacy_best * 1e3,
        batched_best * 1e3,
        legacy_best / batched_best.max(1e-9),
        counters.fresh,
        counters.cached,
    );
}

criterion_group!(benches, bench_walk_eval);
criterion_main!(benches);
