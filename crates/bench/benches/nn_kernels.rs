//! Neural-network kernel benchmarks: the per-round building blocks
//! (training step, evaluation, model averaging).
//!
//! The `train_step_backend` group pits the two [`MatmulBackendKind`]
//! arms against each other on the training shapes (forward, backward
//! and SGD update); the final summary line compares the fastest of
//! several alternating repetitions so host noise does not masquerade
//! as (or hide) a speedup.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use dagfl_datasets::POETS_VOCAB;
use dagfl_nn::{average_parameters, MatmulBackendKind, SgdConfig};
use dagfl_scenario::ModelSpec;
use dagfl_tensor::Matrix;

fn bench_train_batch(c: &mut Criterion) {
    let factory = ModelSpec::Mlp { hidden: vec![64] }.build_factory(196, 10);
    let mut rng = StdRng::seed_from_u64(0);
    let mut model = factory(&mut rng);
    let x = Matrix::from_fn(10, 196, |r, c| ((r * 196 + c) % 11) as f32 * 0.1);
    let y: Vec<usize> = (0..10).map(|i| i % 10).collect();
    let opt = SgdConfig::new(0.05);
    c.bench_function("mlp_train_batch_10x196", |b| {
        b.iter(|| model.train_batch(&x, &y, &opt).expect("train"));
    });
}

fn bench_train_backends(c: &mut Criterion) {
    // The paper-scale training shape: a 32-row mini-batch through the
    // 196 -> 64 -> 10 MLP, full forward + backward + SGD update.
    let factory = ModelSpec::Mlp { hidden: vec![64] }.build_factory(196, 10);
    let x = Matrix::from_fn(32, 196, |r, c| ((r * 196 + c) % 11) as f32 * 0.1);
    let y: Vec<usize> = (0..32).map(|i| i % 10).collect();
    let opt = SgdConfig::new(0.05);

    let mut group = c.benchmark_group("train_step_backend");
    for (name, kind) in [
        ("naive", MatmulBackendKind::Naive),
        ("tiled", MatmulBackendKind::Tiled),
    ] {
        let mut model = factory(&mut StdRng::seed_from_u64(0));
        model.set_matmul_backend(kind);
        group.bench_function(name, |b| {
            b.iter(|| model.train_batch(&x, &y, &opt).expect("train"));
        });
    }
    group.finish();

    // Head-to-head summary: both arms start from the same seed-0 model
    // and walk the same trajectory, alternating across repetitions;
    // the fastest repetition of each is compared.
    let test_mode = std::env::args().any(|a| a == "--test");
    let (steps, reps) = if test_mode { (1, 1) } else { (40, 7) };
    let mut naive_best = f64::INFINITY;
    let mut tiled_best = f64::INFINITY;
    for _ in 0..reps {
        let mut model = factory(&mut StdRng::seed_from_u64(0));
        model.set_matmul_backend(MatmulBackendKind::Naive);
        let started = Instant::now();
        for _ in 0..steps {
            model.train_batch(&x, &y, &opt).expect("train");
        }
        naive_best = naive_best.min(started.elapsed().as_secs_f64());

        let mut model = factory(&mut StdRng::seed_from_u64(0));
        model.set_matmul_backend(MatmulBackendKind::Tiled);
        let started = Instant::now();
        for _ in 0..steps {
            model.train_batch(&x, &y, &opt).expect("train");
        }
        tiled_best = tiled_best.min(started.elapsed().as_secs_f64());
    }
    println!(
        "train_step summary (32x196 batch, {steps} steps, best of {reps}): \
         naive {:.3}ms, tiled {:.3}ms, speedup {:.2}x",
        naive_best * 1e3,
        tiled_best * 1e3,
        naive_best / tiled_best.max(1e-9),
    );
}

fn bench_evaluate(c: &mut Criterion) {
    let factory = ModelSpec::Mlp { hidden: vec![64] }.build_factory(196, 10);
    let mut rng = StdRng::seed_from_u64(0);
    let model = factory(&mut rng);
    let x = Matrix::from_fn(50, 196, |r, c| ((r * 196 + c) % 11) as f32 * 0.1);
    let y: Vec<usize> = (0..50).map(|i| i % 10).collect();
    c.bench_function("mlp_evaluate_50x196", |b| {
        b.iter(|| model.evaluate(&x, &y).expect("evaluate"));
    });
}

fn bench_char_rnn_train(c: &mut Criterion) {
    let factory = ModelSpec::CharRnn {
        embed: 8,
        hidden: 32,
    }
    .build_factory(0, POETS_VOCAB.len());
    let mut rng = StdRng::seed_from_u64(0);
    let mut model = factory(&mut rng);
    let x = Matrix::from_fn(10, 12, |r, t| ((r + t) % 32) as f32);
    let y: Vec<usize> = (0..10).map(|i| i % 32).collect();
    let opt = SgdConfig::new(0.5);
    c.bench_function("gru_train_batch_10x12", |b| {
        b.iter(|| model.train_batch(&x, &y, &opt).expect("train"));
    });
}

fn bench_average_parameters(c: &mut Criterion) {
    let factory = ModelSpec::Mlp { hidden: vec![64] }.build_factory(196, 10);
    let mut rng = StdRng::seed_from_u64(0);
    let a = factory(&mut rng).parameters();
    let b_params = factory(&mut rng).parameters();
    c.bench_function("average_two_models_13k_params", |bench| {
        bench.iter(|| average_parameters(&[&a, &b_params]));
    });
}

fn bench_matmul(c: &mut Criterion) {
    let a = Matrix::from_fn(64, 196, |r, col| ((r + col) % 7) as f32 * 0.3);
    let b = Matrix::from_fn(196, 64, |r, col| ((r * col) % 5) as f32 * 0.2);
    c.bench_function("matmul_64x196x64", |bench| {
        bench.iter(|| a.matmul(&b).expect("matmul"));
    });
}

criterion_group!(
    benches,
    bench_train_batch,
    bench_train_backends,
    bench_evaluate,
    bench_char_rnn_train,
    bench_average_parameters,
    bench_matmul
);
criterion_main!(benches);
