//! The benchmark must measure the program, not change it: traced and
//! untraced runs, and `workload::run` and `ScenarioRunner`, must
//! produce the same tangle on every workload (at a reduced size).

use std::sync::Arc;

use dagfl_core::ModelFactory;
use dagfl_e2ebench::trace::{traced_factory, NnTrace};
use dagfl_e2ebench::workload::{run, with_workers, Run, Size, Tracing, Workload};
use dagfl_nn::{Dense, EvalScratch, Model, Relu, Sequential, SgdConfig};
use dagfl_scenario::ScenarioRunner;
use dagfl_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 9;

fn outcome(r: &Run) -> (u64, f64, f64) {
    (r.digest, r.recent_accuracy, r.approval_pureness)
}

#[test]
fn every_tracing_mode_gives_the_untraced_outcome() {
    for workload in Workload::ALL {
        let scenario = workload.scenario(SEED, Size::Reduced).unwrap();
        let off = run(&scenario, Tracing::Off).unwrap();
        let spans = run(&scenario, Tracing::Spans).unwrap();
        let backlog = run(&scenario, Tracing::Backlog).unwrap();
        assert_eq!(outcome(&off), outcome(&spans), "{}", workload.name());
        assert_eq!(outcome(&off), outcome(&backlog), "{}", workload.name());
        assert!(spans.layers.nn.train_batch.calls() > 0);
        assert_eq!(off.layers.nn.train_batch.calls(), 0);
    }
}

#[test]
fn the_benchmark_run_reproduces_scenario_runner() {
    for workload in Workload::ALL {
        let scenario = workload.scenario(SEED, Size::Reduced).unwrap();
        let report = ScenarioRunner::new(scenario.clone())
            .unwrap()
            .run()
            .unwrap();
        let r = run(&scenario, Tracing::Off).unwrap();
        assert_eq!(r.digest, report.tangle_digest, "{}", workload.name());
        assert_eq!(r.recent_accuracy, f64::from(report.recent_accuracy));
        assert_eq!(r.approval_pureness, report.specialization.approval_pureness);
        let per_unit = if workload.is_async() {
            1
        } else {
            scenario.execution.dag().clients_per_round
        };
        assert_eq!(r.updates, report.progress * per_unit);
    }
}

#[test]
fn async_outcome_and_backlog_do_not_depend_on_workers() {
    let scenario = Workload::Async10k.scenario(SEED, Size::Reduced).unwrap();
    let one = run(&with_workers(scenario.clone(), 1), Tracing::Backlog).unwrap();
    let two = run(&with_workers(scenario, 2), Tracing::Backlog).unwrap();
    assert_eq!(outcome(&one), outcome(&two));
    let backlog = |r: &Run| r.layers.async_counters.as_ref().unwrap().pending_max;
    assert_eq!(backlog(&one), backlog(&two));
    assert!(backlog(&one) > 0);
}

#[test]
fn evaluation_paths_show_in_the_trace() {
    // The MLP evaluates candidates zero-copy; the char-RNN has no such
    // path, so every fresh evaluation falls back to set + evaluate.
    let mlp = run(
        &Workload::RoundsSpecialize
            .scenario(SEED, Size::Reduced)
            .unwrap(),
        Tracing::Spans,
    )
    .unwrap();
    let nn = &mlp.layers.nn;
    // Analysis snapshots walk too, outside the rounds' counters.
    assert!(nn.eval_flat.calls() as usize >= mlp.layers.fresh);
    assert_eq!(
        nn.eval_flat_fallbacks
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );

    let gru = run(
        &Workload::RoundsGru.scenario(SEED, Size::Reduced).unwrap(),
        Tracing::Spans,
    )
    .unwrap();
    let nn = &gru.layers.nn;
    assert_eq!(nn.eval_flat.calls(), 0);
    assert_eq!(
        nn.eval_flat_fallbacks
            .load(std::sync::atomic::Ordering::Relaxed) as usize,
        gru.layers.fresh
    );
    assert!(nn.set_parameters.calls() as usize >= gru.layers.fresh);
}

fn small_factory() -> ModelFactory {
    Arc::new(|rng: &mut StdRng| {
        Box::new(Sequential::new(vec![
            Box::new(Dense::new(rng, 4, 8)),
            Box::new(Relu::new()),
            Box::new(Dense::new(rng, 8, 3)),
        ]))
    })
}

#[test]
fn traced_models_forward_every_call_and_clones_stay_traced() {
    let trace = Arc::new(NnTrace::default());
    let plain = small_factory()(&mut StdRng::seed_from_u64(1));
    let traced = traced_factory(small_factory(), Arc::clone(&trace))(&mut StdRng::seed_from_u64(1));
    let mut plain = plain.boxed_clone();
    let mut traced = traced.boxed_clone();
    let x = Matrix::from_vec(2, 4, vec![0.1, 0.2, 0.3, 0.4, -0.5, 0.6, -0.7, 0.8]).unwrap();
    let y = [0, 2];
    let opt = SgdConfig::new(0.1);
    assert_eq!(plain.num_parameters(), traced.num_parameters());
    assert_eq!(
        plain.train_batch(&x, &y, &opt).unwrap(),
        traced.train_batch(&x, &y, &opt).unwrap()
    );
    assert_eq!(plain.parameters(), traced.parameters());
    let params = plain.parameters();
    let mut scratch = EvalScratch::new();
    let flat = |m: &dyn Model, s: &mut EvalScratch| {
        m.evaluate_flat_params(&params, &x, &y, s)
            .map(|e| e.unwrap().loss)
    };
    assert_eq!(
        flat(plain.as_ref(), &mut scratch),
        flat(traced.as_ref(), &mut scratch)
    );
    assert_eq!(
        plain
            .evaluate_with_scratch(&x, &y, &mut scratch)
            .unwrap()
            .loss,
        traced
            .evaluate_with_scratch(&x, &y, &mut scratch)
            .unwrap()
            .loss
    );
    assert_eq!(
        plain.evaluate(&x, &y).unwrap().loss,
        traced.evaluate(&x, &y).unwrap().loss
    );
    assert_eq!(plain.predict(&x).unwrap(), traced.predict(&x).unwrap());
    traced.set_parameters(&params).unwrap();
    traced.set_matmul_backend(dagfl_tensor::MatmulBackendKind::Naive);
    assert_eq!(trace.train_batch.calls(), 1);
    assert_eq!(trace.parameters.calls(), 1);
    assert_eq!(trace.eval_flat.calls(), 1);
    assert_eq!(trace.evaluate.calls(), 2);
    assert_eq!(trace.set_parameters.calls(), 1);
}
