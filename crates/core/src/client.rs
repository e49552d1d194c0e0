//! A participating client: the four-step loop of Figure 1.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use dagfl_datasets::ClientDataset;
use dagfl_nn::{average_parameters, Evaluation, Model, SgdConfig};
use dagfl_tangle::{CumulativeWeightBias, RandomWalker, TangleRead, TxId, UniformBias};
use dagfl_tensor::Matrix;

use crate::{
    AccuracyBias, CoreError, DagConfig, EvalCounters, ModelEvaluator, ModelPayload, PublishGate,
    TipSelector,
};

/// Result of one client's participation in a round.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The client that trained.
    pub client: u32,
    /// The two tips selected by the biased random walks.
    pub parents: (TxId, TxId),
    /// Performance of the averaged parent model (the client's current
    /// consensus reference) on local test data, before training.
    pub reference: Evaluation,
    /// Performance of the locally trained model on local test data.
    pub trained: Evaluation,
    /// The trained parameters if the publish rule fired (training improved
    /// the model), to be attached to the tangle.
    pub published: Option<Vec<f32>>,
    /// Wall-clock time of tip selection (both walks, including candidate
    /// evaluation) — the quantity of Figure 15.
    pub walk_duration: Duration,
    /// Total walk steps over both walks.
    pub walk_steps: usize,
    /// Total candidate models whose transition weight was computed.
    pub candidates_evaluated: usize,
    /// Fresh (forward-pass) evaluations this round, walks and publish
    /// gate included.
    pub fresh_evaluations: usize,
    /// Evaluations answered from the per-transaction accuracy cache.
    pub cached_evaluations: usize,
}

/// The client-side state of the Specializing DAG: the client's private
/// RNG plus a [`ModelEvaluator`] owning the scratch model and the
/// generation-stamped per-transaction accuracy cache.
pub struct DagClient {
    id: u32,
    rng: StdRng,
    evaluator: ModelEvaluator,
}

/// The reference model of a tip pair: the average of the two tips'
/// parameters (§4.1).
///
/// # Errors
///
/// Propagates tangle errors (unknown tips).
pub(crate) fn average_tips<T: TangleRead<ModelPayload>>(
    tangle: &T,
    (tip1, tip2): (TxId, TxId),
) -> Result<Vec<f32>, CoreError> {
    let p1 = tangle.payload_of(tip1)?.share();
    let p2 = tangle.payload_of(tip2)?.share();
    Ok(average_parameters(&[&p1, &p2]))
}

impl DagClient {
    /// Creates a client with a freshly initialised scratch model.
    pub fn new(id: u32, model: Box<dyn Model>, seed: u64) -> Self {
        Self {
            id,
            rng: StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            evaluator: ModelEvaluator::new(model),
        }
    }

    /// The client's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Number of cached transaction evaluations valid under the current
    /// cache generation.
    pub fn cache_len(&self) -> usize {
        self.evaluator.cache_len()
    }

    /// Invalidates all cached evaluations (by bumping the evaluator's
    /// cache generation). Must be called when the client's local data
    /// changes (e.g. after a poisoning attack flips labels).
    pub fn clear_cache(&mut self) {
        self.evaluator.invalidate();
    }

    /// Cumulative fresh/cached evaluation counts of this client's
    /// evaluator.
    pub fn eval_counters(&self) -> EvalCounters {
        self.evaluator.counters()
    }

    /// Runs one biased random walk and returns `(tip, steps, evaluations)`.
    fn walk_once<T: TangleRead<ModelPayload>>(
        &mut self,
        tangle: &T,
        data: &ClientDataset,
        cfg: &DagConfig,
    ) -> Result<(TxId, usize, usize), CoreError> {
        let start = tangle.sample_walk_start(cfg.walk_depth.0, cfg.walk_depth.1, &mut self.rng);
        let walker = RandomWalker::new();
        match cfg.tip_selector {
            TipSelector::Accuracy {
                alpha,
                normalization,
            } => {
                let mut bias = AccuracyBias::new(
                    &mut self.evaluator,
                    data.test_x(),
                    data.test_y(),
                    alpha,
                    normalization,
                );
                if let Some(margin) = cfg.walk_stop_margin {
                    bias = bias.with_stop_margin(margin);
                }
                let result = walker.walk(tangle, start, &mut bias, &mut self.rng)?;
                Ok((result.tip, result.steps, result.candidates_evaluated))
            }
            TipSelector::Random => {
                let result = walker.walk(tangle, start, &mut UniformBias, &mut self.rng)?;
                Ok((result.tip, result.steps, 0))
            }
            TipSelector::CumulativeWeight { alpha } => {
                let mut bias = CumulativeWeightBias::new(alpha);
                let result = walker.walk(tangle, start, &mut bias, &mut self.rng)?;
                Ok((result.tip, result.steps, 0))
            }
        }
    }

    /// Selects the two parent tips via two independent walks.
    ///
    /// # Errors
    ///
    /// Propagates tangle errors (cannot happen for well-formed tangles).
    pub fn select_tips<T: TangleRead<ModelPayload>>(
        &mut self,
        tangle: &T,
        data: &ClientDataset,
        cfg: &DagConfig,
    ) -> Result<((TxId, TxId), usize, usize), CoreError> {
        let (tip1, steps1, eval1) = self.walk_once(tangle, data, cfg)?;
        let (tip2, steps2, eval2) = self.walk_once(tangle, data, cfg)?;
        Ok(((tip1, tip2), steps1 + steps2, eval1 + eval2))
    }

    /// Computes the client's current reference (consensus) model: the
    /// average of the two walk-selected tips (§4.1). Returns the parameters
    /// and the tips.
    ///
    /// # Errors
    ///
    /// Propagates tangle errors.
    pub fn reference_model<T: TangleRead<ModelPayload>>(
        &mut self,
        tangle: &T,
        data: &ClientDataset,
        cfg: &DagConfig,
    ) -> Result<(Vec<f32>, (TxId, TxId)), CoreError> {
        let (tips, _, _) = self.select_tips(tangle, data, cfg)?;
        Ok((average_tips(tangle, tips)?, tips))
    }

    /// Evaluates an arbitrary parameter vector on the given data using the
    /// client's scratch model.
    ///
    /// # Errors
    ///
    /// Returns an error if the parameter count or data shape mismatches.
    pub fn evaluate_with(
        &mut self,
        params: &[f32],
        x: &Matrix,
        y: &[usize],
    ) -> Result<Evaluation, CoreError> {
        self.evaluator.evaluate_params(params, x, y)
    }

    /// Predicts classes for `x` using an arbitrary parameter vector loaded
    /// into the client's scratch model.
    ///
    /// # Errors
    ///
    /// Returns an error if the parameter count or data shape mismatches.
    pub fn predict_with(&mut self, params: &[f32], x: &Matrix) -> Result<Vec<usize>, CoreError> {
        self.evaluator.predict_params(params, x)
    }

    /// Runs the full four-step loop of Figure 1 against a tangle snapshot:
    /// biased walks → average → local training → publish decision.
    ///
    /// The returned [`TrainOutcome::published`] parameters must be attached
    /// to the tangle by the caller; splitting selection/training (reads)
    /// from publication (writes) lets all active clients of a round work on
    /// the same snapshot, like the paper's discrete-round simulation.
    ///
    /// # Errors
    ///
    /// Returns an error if the model architecture does not match the
    /// tangle's payloads or the dataset shape.
    pub fn train_round<T: TangleRead<ModelPayload>>(
        &mut self,
        tangle: &T,
        data: &ClientDataset,
        cfg: &DagConfig,
    ) -> Result<TrainOutcome, CoreError> {
        let counters_start = self.evaluator.counters();
        // Step 1: biased random walks select two tips.
        let walk_started = Instant::now();
        let ((tip1, tip2), walk_steps, candidates_evaluated) =
            self.select_tips(tangle, data, cfg)?;
        let walk_duration = walk_started.elapsed();
        // Step 2: average the two models. The default publish gate
        // compares against the *best* approved parent (the client's
        // current consensus view): this keeps a client from publishing a
        // model that only improved relative to a bad average — e.g. one
        // contaminated by a random-weight attacker (§4.4).
        let p1 = tangle.payload_of(tip1)?.share();
        let p2 = tangle.payload_of(tip2)?.share();
        // `score` maps malformed payloads to accuracy 0.0 (an
        // unattractive walk target), so guard the averaging explicitly:
        // mismatched parent lengths must surface as an error, not as an
        // `average_parameters` panic.
        if p1.len() != p2.len() {
            return Err(CoreError::Config(format!(
                "selected tips carry incompatible models ({} vs {} parameters)",
                p1.len(),
                p2.len()
            )));
        }
        let mut consensus_accuracy = 0.0f32;
        if cfg.publish_gate == PublishGate::BestParent {
            for tip in [tip1, tip2] {
                let acc = self
                    .evaluator
                    .score(tangle, tip, data.test_x(), data.test_y());
                consensus_accuracy = consensus_accuracy.max(acc);
            }
        }
        let averaged = average_parameters(&[&p1, &p2]);
        let reference = self
            .evaluator
            .evaluate_params(&averaged, data.test_x(), data.test_y())?;
        // Step 3: train on local data (fixed batch budget, Table 1);
        // optionally with frozen leading layers (partial-layer
        // personalisation). Parameters are already loaded from the
        // reference evaluation above.
        let mut opt = SgdConfig::new(cfg.learning_rate);
        if cfg.frozen_prefix > 0 {
            opt = opt.with_frozen_prefix(cfg.frozen_prefix);
        }
        let (model, scratch) = self.evaluator.model_and_scratch();
        for _ in 0..cfg.local_epochs {
            for (x, y) in data.train_batches(cfg.batch_size, cfg.local_batches, &mut self.rng) {
                model.train_batch(&x, &y, &opt)?;
            }
        }
        let trained = model.evaluate_with_scratch(data.test_x(), data.test_y(), scratch)?;
        // Step 4: publish only if training improved on the consensus,
        // with ties broken by loss against the averaged reference so that
        // early chance-level rounds can still make progress.
        let improved = match cfg.publish_gate {
            PublishGate::BestParent => {
                let gate = consensus_accuracy.max(reference.accuracy);
                trained.accuracy > gate
                    || (trained.accuracy == gate && trained.loss < reference.loss)
            }
            PublishGate::AveragedReference => {
                trained.accuracy > reference.accuracy
                    || (trained.accuracy == reference.accuracy && trained.loss < reference.loss)
            }
            PublishGate::Always => true,
        };
        let published = improved.then(|| self.evaluator.model().parameters());
        let counters = self.evaluator.counters().since(counters_start);
        Ok(TrainOutcome {
            client: self.id,
            parents: (tip1, tip2),
            reference,
            trained,
            published,
            walk_duration,
            walk_steps,
            candidates_evaluated,
            fresh_evaluations: counters.fresh,
            cached_evaluations: counters.cached,
        })
    }
}

impl std::fmt::Debug for DagClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DagClient")
            .field("id", &self.id)
            .field("evaluator", &self.evaluator)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelTangle;
    use dagfl_datasets::{fmnist_clustered, FmnistConfig};
    use dagfl_nn::{Dense, Relu, Sequential};
    use dagfl_tangle::Tangle;

    fn small_dataset() -> dagfl_datasets::FederatedDataset {
        fmnist_clustered(&FmnistConfig {
            num_clients: 3,
            samples_per_client: 60,
            ..FmnistConfig::default()
        })
    }

    fn make_model(seed: u64, features: usize) -> Box<dyn Model> {
        let mut rng = StdRng::seed_from_u64(seed);
        Box::new(Sequential::new(vec![
            Box::new(Dense::new(&mut rng, features, 16)),
            Box::new(Relu::new()),
            Box::new(Dense::new(&mut rng, 16, 10)),
        ]))
    }

    fn config() -> DagConfig {
        DagConfig {
            rounds: 1,
            clients_per_round: 1,
            local_batches: 5,
            ..DagConfig::default()
        }
    }

    #[test]
    fn train_round_from_genesis_publishes_improvement() {
        let ds = small_dataset();
        let features = ds.feature_len();
        let model = make_model(0, features);
        let genesis = ModelPayload::new(model.parameters());
        let tangle: ModelTangle = Tangle::new(genesis);
        let mut client = DagClient::new(0, model, 7);
        let outcome = client
            .train_round(&tangle, &ds.clients()[0], &config())
            .unwrap();
        assert_eq!(outcome.client, 0);
        // Both walks start and end at the genesis.
        assert_eq!(outcome.parents.0, tangle.genesis());
        assert_eq!(outcome.parents.1, tangle.genesis());
        // Training from random init on separable data must improve.
        assert!(outcome.published.is_some(), "expected publication");
        assert!(outcome.trained.accuracy >= outcome.reference.accuracy);
    }

    #[test]
    fn caches_accumulate_and_clear() {
        let ds = small_dataset();
        let features = ds.feature_len();
        let model = make_model(0, features);
        let genesis_params = model.parameters();
        let mut tangle: ModelTangle = Tangle::new(ModelPayload::new(genesis_params.clone()));
        let g = tangle.genesis();
        // Two tips for the walk to evaluate.
        tangle
            .attach(ModelPayload::new(genesis_params.clone()), &[g])
            .unwrap();
        tangle
            .attach(ModelPayload::new(genesis_params), &[g])
            .unwrap();
        let mut client = DagClient::new(1, model, 7);
        client
            .train_round(&tangle, &ds.clients()[1], &config())
            .unwrap();
        assert!(
            client.cache_len() >= 2,
            "walk should have cached evaluations"
        );
        client.clear_cache();
        assert_eq!(client.cache_len(), 0);
    }

    #[test]
    fn random_selector_evaluates_no_models() {
        let ds = small_dataset();
        let features = ds.feature_len();
        let model = make_model(0, features);
        let genesis_params = model.parameters();
        let mut tangle: ModelTangle = Tangle::new(ModelPayload::new(genesis_params.clone()));
        let g = tangle.genesis();
        tangle
            .attach(ModelPayload::new(genesis_params), &[g])
            .unwrap();
        let mut client = DagClient::new(2, model, 7);
        let cfg = config().with_tip_selector(TipSelector::Random);
        let outcome = client.train_round(&tangle, &ds.clients()[2], &cfg).unwrap();
        // The walk itself evaluates nothing with the random selector; only
        // the publish gate inspects the (at most two) selected parents.
        assert_eq!(outcome.candidates_evaluated, 0);
        assert!(client.cache_len() <= 2);
    }

    #[test]
    fn incompatible_parent_models_error_instead_of_panicking() {
        // A tangle whose only two tips carry different parameter counts:
        // both walks are forced onto mismatched parents, which must
        // surface as an error (previously the BestParent gate caught it;
        // the evaluator's score-to-zero contract must not turn it into
        // an `average_parameters` panic).
        let ds = small_dataset();
        let features = ds.feature_len();
        let model = make_model(0, features);
        let n = model.num_parameters();
        let mut tangle: ModelTangle = Tangle::new(ModelPayload::new(vec![0.0; n]));
        let g = tangle.genesis();
        tangle
            .attach(ModelPayload::new(vec![0.0; n]), &[g])
            .unwrap();
        tangle
            .attach(ModelPayload::new(vec![1.0; 3]), &[g])
            .unwrap();
        let mut client = DagClient::new(0, model, 7);
        let mut saw_mismatch_error = false;
        for _ in 0..30 {
            match client.train_round(&tangle, &ds.clients()[0], &config()) {
                // Rounds where both walks land on the same tip either
                // succeed (valid payload) or fail with a parameter-count
                // error (malformed payload) — both acceptable here.
                Ok(_) => {}
                Err(e) if e.to_string().contains("incompatible") => saw_mismatch_error = true,
                Err(e) => assert!(e.to_string().contains("parameter"), "{e}"),
            }
        }
        assert!(
            saw_mismatch_error,
            "walks never selected the mismatched tip pair"
        );
    }

    #[test]
    fn cleared_cache_forces_fresh_reevaluation() {
        let ds = small_dataset();
        let features = ds.feature_len();
        let model = make_model(0, features);
        let genesis_params = model.parameters();
        let mut tangle: ModelTangle = Tangle::new(ModelPayload::new(genesis_params.clone()));
        let g = tangle.genesis();
        tangle
            .attach(ModelPayload::new(genesis_params.clone()), &[g])
            .unwrap();
        tangle
            .attach(ModelPayload::new(genesis_params), &[g])
            .unwrap();
        let mut client = DagClient::new(1, model, 7);
        // First round fills the cache with fresh evaluations.
        let first = client
            .train_round(&tangle, &ds.clients()[1], &config())
            .unwrap();
        assert!(first.fresh_evaluations > 0);
        // Second round against the unchanged tangle: walks are answered
        // from the cache.
        let second = client
            .train_round(&tangle, &ds.clients()[1], &config())
            .unwrap();
        assert_eq!(second.fresh_evaluations, 0, "unchanged data re-evaluated");
        assert!(second.cached_evaluations > 0);
        // Simulate a local-data change: the generation bump must force
        // fresh evaluations of the very same transactions.
        client.clear_cache();
        let third = client
            .train_round(&tangle, &ds.clients()[1], &config())
            .unwrap();
        assert!(
            third.fresh_evaluations >= first.fresh_evaluations.min(2),
            "generation bump must force re-evaluation, got {third:?}"
        );
    }

    #[test]
    fn reference_model_averages_tips() {
        let ds = small_dataset();
        let features = ds.feature_len();
        let model = make_model(0, features);
        let n = model.num_parameters();
        let mut tangle: ModelTangle = Tangle::new(ModelPayload::new(vec![0.0; n]));
        let g = tangle.genesis();
        // A single tip with all-ones: reference = average(tip, tip) = ones
        // (both walks must end at the unique tip).
        tangle
            .attach(ModelPayload::new(vec![1.0; n]), &[g])
            .unwrap();
        let mut client = DagClient::new(0, model, 7);
        let (params, (t1, t2)) = client
            .reference_model(&tangle, &ds.clients()[0], &config())
            .unwrap();
        assert_eq!(t1, t2);
        assert!(params.iter().all(|&p| (p - 1.0).abs() < 1e-6));
    }

    #[test]
    fn walk_duration_is_measured() {
        let ds = small_dataset();
        let features = ds.feature_len();
        let model = make_model(0, features);
        let genesis = ModelPayload::new(model.parameters());
        let tangle: ModelTangle = Tangle::new(genesis);
        let mut client = DagClient::new(0, model, 7);
        let outcome = client
            .train_round(&tangle, &ds.clients()[0], &config())
            .unwrap();
        // Positive but far below a second for a genesis-only tangle.
        assert!(outcome.walk_duration < Duration::from_secs(1));
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = small_dataset();
        let features = ds.feature_len();
        let run = |seed: u64| {
            let model = make_model(0, features);
            let genesis = ModelPayload::new(model.parameters());
            let tangle: ModelTangle = Tangle::new(genesis);
            let mut client = DagClient::new(0, model, seed);
            client
                .train_round(&tangle, &ds.clients()[0], &config())
                .unwrap()
                .published
        };
        assert_eq!(run(7), run(7));
    }
}
