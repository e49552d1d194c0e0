//! The discrete-round simulation of the Specializing DAG (§5.3).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dagfl_datasets::{ClientDataset, FederatedDataset};
use dagfl_graphs::{louvain, misclassification_fraction, modularity, partition_count, Graph};
use dagfl_nn::Evaluation;
use dagfl_tangle::TxId;

use crate::client::average_tips;
use crate::{
    ClientGraphTracker, CoreError, DagClient, DagConfig, ModelFactory, ModelPayload, RoundMetrics,
    ShardedModelTangle, SpecializationMetrics, TrainOutcome,
};

/// A client's reference evaluation: `(client id, evaluation, selected tips)`.
pub type ReferenceEvaluation = (u32, Evaluation, (TxId, TxId));

/// A Specializing-DAG training simulation over a federated dataset.
///
/// Each round samples `clients_per_round` clients; every active client runs
/// the Figure 1 loop against the round-start snapshot of the tangle
/// (concurrently when [`DagConfig::parallel`] is set), and all resulting
/// publications are attached at the end of the round. The paper introduces
/// the same round structure purely to compare against centralized
/// approaches (§5.3.3) — the algorithm itself is asynchronous.
pub struct Simulation {
    pub(crate) config: DagConfig,
    pub(crate) dataset: FederatedDataset,
    pub(crate) tangle: ShardedModelTangle,
    pub(crate) clients: Vec<DagClient>,
    pub(crate) rng: StdRng,
    pub(crate) history: Vec<RoundMetrics>,
    pub(crate) round: usize,
    pub(crate) graph: ClientGraphTracker,
}

impl Simulation {
    /// Creates a simulation: the genesis transaction carries a freshly
    /// initialised model, and every client receives its own scratch model
    /// from `factory`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DagConfig::validate`] (call
    /// it first to get a `Result` instead) or `clients_per_round`
    /// exceeds the dataset's client count.
    pub fn new(config: DagConfig, dataset: FederatedDataset, factory: ModelFactory) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid simulation configuration: {e}");
        }
        assert!(
            config.clients_per_round > 0 && config.clients_per_round <= dataset.num_clients(),
            "clients_per_round ({}) must be in 1..={}",
            config.clients_per_round,
            dataset.num_clients()
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let genesis_model = factory(&mut rng);
        let tangle = ShardedModelTangle::new(ModelPayload::new(genesis_model.parameters()));
        let clients: Vec<DagClient> = (0..dataset.num_clients() as u32)
            .map(|id| DagClient::new(id, factory(&mut rng), config.seed.wrapping_add(id as u64)))
            .collect();
        let graph = ClientGraphTracker::new(dataset.cluster_labels());
        Self {
            config,
            dataset,
            tangle,
            clients,
            rng,
            history: Vec::new(),
            round: 0,
            graph,
        }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &DagConfig {
        &self.config
    }

    /// The federated dataset being trained on.
    pub fn dataset(&self) -> &FederatedDataset {
        &self.dataset
    }

    /// The shared tangle of model updates. Reads never take a global
    /// lock, so the borrow can be handed straight to analysis code or
    /// worker threads.
    pub fn tangle(&self) -> &ShardedModelTangle {
        &self.tangle
    }

    /// Rounds completed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Metrics of all completed rounds.
    pub fn history(&self) -> &[RoundMetrics] {
        &self.history
    }

    /// Mean post-training accuracy over the most recent `n` client
    /// evaluations (crossing round boundaries, newest first), the
    /// round-based counterpart of
    /// [`AsyncSimulation::recent_accuracy`](crate::AsyncSimulation::recent_accuracy).
    pub fn recent_accuracy(&self, n: usize) -> f32 {
        let recent: Vec<f32> = self
            .history
            .iter()
            .rev()
            .flat_map(|m| m.accuracies.iter().rev().copied())
            .take(n)
            .collect();
        if recent.is_empty() {
            return 0.0;
        }
        recent.iter().sum::<f32>() / recent.len() as f32
    }

    /// Invalidates every client's evaluation cache by bumping its cache
    /// generation (required after mutating the dataset, e.g. a poisoning
    /// attack). Stale entries can never be served afterwards — lookups
    /// check the generation stamp.
    pub fn clear_caches(&mut self) {
        for client in &mut self.clients {
            client.clear_cache();
        }
    }

    /// Runs a single round and returns its metrics.
    ///
    /// # Errors
    ///
    /// Propagates model/tangle errors (e.g. architecture mismatches).
    pub fn run_round(&mut self) -> Result<RoundMetrics, CoreError> {
        // Sample active clients without replacement, ascending for
        // deterministic processing order.
        let mut ids: Vec<usize> = (0..self.dataset.num_clients()).collect();
        ids.shuffle(&mut self.rng);
        let mut active: Vec<usize> = ids
            .into_iter()
            .take(self.config.clients_per_round)
            .collect();
        active.sort_unstable();

        let outcomes = self.run_active_clients(&active)?;

        // Publication phase: attach all improvements to the shared tangle.
        // With failure injection enabled, some publications are lost on
        // the (simulated) network.
        let mut published = 0;
        for outcome in &outcomes {
            if let Some(params) = &outcome.published {
                if self.config.publication_dropout > 0.0
                    && self.rng.gen::<f32>() < self.config.publication_dropout
                {
                    continue;
                }
                let parents = [outcome.parents.0, outcome.parents.1];
                // The tangle dedups parents on attach; mirror that here so
                // the incremental graph matches a full re-scan exactly.
                let mut parent_issuers = vec![self.tangle.get(parents[0])?.issuer()];
                if parents[1] != parents[0] {
                    parent_issuers.push(self.tangle.get(parents[1])?.issuer());
                }
                self.tangle.attach_with_meta(
                    ModelPayload::new(params.clone()),
                    &parents,
                    Some(outcome.client),
                    self.round as u32,
                )?;
                self.graph.record(outcome.client, &parent_issuers);
                published += 1;
            }
        }

        let total_walk: Duration = outcomes.iter().map(|o| o.walk_duration).sum();
        let metrics = RoundMetrics {
            round: self.round,
            active_clients: outcomes.iter().map(|o| o.client).collect(),
            published,
            accuracies: outcomes.iter().map(|o| o.trained.accuracy).collect(),
            losses: outcomes.iter().map(|o| o.trained.loss).collect(),
            reference_accuracies: outcomes.iter().map(|o| o.reference.accuracy).collect(),
            mean_walk_duration: total_walk
                .checked_div(outcomes.len().max(1) as u32)
                .unwrap_or(Duration::ZERO),
            candidates_evaluated: outcomes.iter().map(|o| o.candidates_evaluated).sum(),
            walk_steps: outcomes.iter().map(|o| o.walk_steps).sum(),
            fresh_evaluations: outcomes.iter().map(|o| o.fresh_evaluations).sum(),
            cached_evaluations: outcomes.iter().map(|o| o.cached_evaluations).sum(),
        };
        self.history.push(metrics.clone());
        self.round += 1;
        Ok(metrics)
    }

    /// Runs the Figure 1 loop for all active clients against the current
    /// tangle snapshot, in parallel if configured.
    fn run_active_clients(&mut self, active: &[usize]) -> Result<Vec<TrainOutcome>, CoreError> {
        let config = self.config;
        let dataset = &self.dataset;
        let tangle = &self.tangle;
        // Collect disjoint &mut borrows of the active clients.
        let mut remaining: &mut [DagClient] = &mut self.clients;
        let mut taken = 0usize;
        let mut client_refs: Vec<&mut DagClient> = Vec::with_capacity(active.len());
        for &idx in active {
            let offset = idx - taken;
            let (_, rest) = remaining.split_at_mut(offset);
            let (client, rest) = rest.split_first_mut().expect("index in range");
            client_refs.push(client);
            remaining = rest;
            taken = idx + 1;
        }
        if config.parallel && active.len() > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = client_refs
                    .into_iter()
                    .zip(active)
                    .map(|(client, &idx)| {
                        let data = &dataset.clients()[idx];
                        // Lock-free read path: every worker walks the
                        // sharded store directly, no guard held.
                        scope.spawn(move || client.train_round(tangle, data, &config))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect::<Result<Vec<_>, _>>()
            })
        } else {
            client_refs
                .into_iter()
                .zip(active)
                .map(|(client, &idx)| client.train_round(tangle, &dataset.clients()[idx], &config))
                .collect()
        }
    }

    /// Runs rounds until `config.rounds` have completed; returns the
    /// metrics of the newly run rounds.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Simulation::run_round`].
    pub fn run(&mut self) -> Result<Vec<RoundMetrics>, CoreError> {
        let mut out = Vec::new();
        while self.round < self.config.rounds {
            out.push(self.run_round()?);
        }
        Ok(out)
    }

    /// The derived client graph `G_clients` (§4.3): the edge weight
    /// between two clients is the number of direct approvals between their
    /// transactions, in either direction. Genesis approvals and
    /// self-approvals are skipped.
    ///
    /// Maintained incrementally at publish time (`O(parents)` per
    /// transaction); [`crate::client_graph_of`] re-derives the same graph
    /// by a full scan and serves as the regression oracle.
    pub fn client_graph(&self) -> Graph {
        self.graph.graph().clone()
    }

    /// The approval pureness (Table 2): the fraction of approval edges
    /// whose endpoints were published by clients of the same ground-truth
    /// cluster. Maintained incrementally at publish time.
    ///
    /// Returns 1.0 when no qualifying approvals exist yet.
    pub fn approval_pureness(&self) -> f64 {
        self.graph.approval_pureness()
    }

    /// Computes the §4.3 specialization metrics of the current tangle.
    pub fn specialization_metrics(&self) -> SpecializationMetrics {
        let graph = self.client_graph();
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xC0FF_EE00 ^ self.round as u64);
        let partition = louvain(&graph, &mut rng);
        SpecializationMetrics {
            modularity: modularity(&graph, &partition),
            partitions: partition_count(&partition),
            misclassification: misclassification_fraction(
                &partition,
                &self.dataset.cluster_labels(),
            ),
            approval_pureness: self.approval_pureness(),
            partition,
        }
    }

    /// Every client's two walk-selected reference tips, in client order.
    ///
    /// With [`DagConfig::parallel`] the walks run on one scoped thread
    /// per available core, each over a contiguous chunk of clients. A
    /// client walks with its own RNG stream, evaluator and scratch model
    /// over the read-only tangle, so the tips, and the state every
    /// stream is left in, are the same at any thread count. Only tip
    /// ids cross threads: averaging the tips into parameter vectors is
    /// left to the caller's thread.
    fn reference_tips(&mut self) -> Result<Vec<(TxId, TxId)>, CoreError> {
        let threads = if self.config.parallel {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            1
        };
        self.reference_tips_on(threads)
    }

    /// [`Simulation::reference_tips`] on exactly `threads` threads.
    fn reference_tips_on(&mut self, threads: usize) -> Result<Vec<(TxId, TxId)>, CoreError> {
        let config = self.config;
        let tangle = &self.tangle;
        let data = self.dataset.clients();
        let select = |clients: &mut [DagClient], data: &[ClientDataset]| {
            clients
                .iter_mut()
                .zip(data)
                .map(|(client, data)| Ok(client.select_tips(tangle, data, &config)?.0))
                .collect::<Result<Vec<_>, CoreError>>()
        };
        if threads <= 1 || self.clients.len() < 2 {
            return select(&mut self.clients, data);
        }
        let chunk = self.clients.len().div_ceil(threads);
        let select = &select;
        std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .clients
                .chunks_mut(chunk)
                .zip(data.chunks(chunk))
                .map(|(clients, data)| scope.spawn(move || select(clients, data)))
                .collect();
            let mut tips = Vec::with_capacity(data.len());
            for worker in workers {
                tips.extend(worker.join().expect("reference walk thread panicked")?);
            }
            Ok(tips)
        })
    }

    /// Evaluates every client's walk-selected reference model on its local
    /// test data; returns `(client, evaluation, reference tips)` triples.
    ///
    /// The walks run in parallel when [`DagConfig::parallel`] is set;
    /// the results are identical either way.
    ///
    /// # Errors
    ///
    /// Propagates model/tangle errors.
    pub fn reference_evaluations(&mut self) -> Result<Vec<ReferenceEvaluation>, CoreError> {
        let tips = self.reference_tips()?;
        let tangle = &self.tangle;
        self.clients
            .iter_mut()
            .zip(self.dataset.clients())
            .zip(tips)
            .map(|((client, data), tips)| {
                let params = average_tips(tangle, tips)?;
                let eval = client.evaluate_with(&params, data.test_x(), data.test_y())?;
                Ok((client.id(), eval, tips))
            })
            .collect()
    }

    /// Every client's walk-selected reference parameter vector, in
    /// client-id order — the flat points the analysis layer clusters.
    ///
    /// Like [`Simulation::reference_evaluations`], the walks draw from
    /// each client's own RNG stream, so calling this advances those
    /// streams deterministically (the same call sites always see the
    /// same state), and they run in parallel when
    /// [`DagConfig::parallel`] is set.
    ///
    /// # Errors
    ///
    /// Propagates model/tangle errors.
    pub fn reference_parameters(&mut self) -> Result<Vec<Vec<f32>>, CoreError> {
        self.reference_tips()?
            .into_iter()
            .map(|tips| average_tips(&self.tangle, tips))
            .collect()
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("round", &self.round)
            .field("clients", &self.clients.len())
            .field("transactions", &self.tangle.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfl_datasets::{fmnist_clustered, FmnistConfig};
    use dagfl_nn::{Dense, Model, Relu, Sequential};
    use std::sync::Arc;

    fn factory(features: usize) -> ModelFactory {
        Arc::new(move |rng: &mut StdRng| {
            Box::new(Sequential::new(vec![
                Box::new(Dense::new(rng, features, 16)),
                Box::new(Relu::new()),
                Box::new(Dense::new(rng, 16, 10)),
            ])) as Box<dyn Model>
        })
    }

    fn small_sim(rounds: usize, parallel: bool) -> Simulation {
        let dataset = fmnist_clustered(&FmnistConfig {
            num_clients: 6,
            samples_per_client: 40,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        let config = DagConfig {
            rounds,
            clients_per_round: 3,
            local_batches: 3,
            parallel,
            ..DagConfig::default()
        };
        Simulation::new(config, dataset, factory(features))
    }

    #[test]
    fn rounds_grow_the_tangle() {
        let mut sim = small_sim(3, false);
        assert_eq!(sim.tangle().len(), 1);
        sim.run().unwrap();
        assert_eq!(sim.round(), 3);
        assert!(sim.tangle().len() > 1, "no transactions were published");
        assert_eq!(sim.history().len(), 3);
    }

    #[test]
    fn parallel_and_sequential_both_work() {
        let mut seq = small_sim(2, false);
        let mut par = small_sim(2, true);
        seq.run().unwrap();
        par.run().unwrap();
        // Both publish transactions; exact equality is not required since
        // thread scheduling does not affect outcomes, but publication
        // ordering within a round is normalised, so the counts match.
        assert_eq!(seq.tangle().len(), par.tangle().len());
    }

    #[test]
    fn metrics_reflect_active_clients() {
        let mut sim = small_sim(1, false);
        let m = sim.run_round().unwrap();
        assert_eq!(m.active_clients.len(), 3);
        assert_eq!(m.accuracies.len(), 3);
        assert_eq!(m.losses.len(), 3);
        assert!(m.published <= 3);
    }

    #[test]
    fn client_graph_counts_approvals() {
        let mut sim = small_sim(5, false);
        sim.run().unwrap();
        let graph = sim.client_graph();
        assert_eq!(graph.num_nodes(), 6);
        // After a few rounds some inter-client approvals must exist.
        assert!(graph.total_weight() > 0.0);
    }

    /// Regression: the incrementally-maintained client graph and pureness
    /// must agree with the full re-scan oracles after every round.
    #[test]
    fn incremental_client_graph_matches_full_rescan() {
        let mut sim = small_sim(5, false);
        for _ in 0..5 {
            sim.run_round().unwrap();
            let oracle = crate::client_graph_of(sim.tangle(), sim.dataset().num_clients());
            assert_eq!(sim.client_graph().edges(), oracle.edges());
            let oracle_pureness =
                crate::approval_pureness_of(sim.tangle(), &sim.dataset().cluster_labels());
            assert!((sim.approval_pureness() - oracle_pureness).abs() < 1e-12);
        }
    }

    #[test]
    fn approval_pureness_is_a_fraction() {
        let mut sim = small_sim(5, false);
        assert_eq!(sim.approval_pureness(), 1.0, "empty tangle is pure");
        sim.run().unwrap();
        let p = sim.approval_pureness();
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn specialization_metrics_are_consistent() {
        let mut sim = small_sim(6, false);
        sim.run().unwrap();
        let m = sim.specialization_metrics();
        assert!((-0.5..=1.0).contains(&m.modularity));
        assert!(m.partitions >= 1);
        assert!((0.0..=1.0).contains(&m.misclassification));
        assert_eq!(m.partition.len(), 6);
    }

    #[test]
    fn reference_evaluations_cover_all_clients() {
        let mut sim = small_sim(2, false);
        sim.run().unwrap();
        let evals = sim.reference_evaluations().unwrap();
        assert_eq!(evals.len(), 6);
        for (client, eval, _) in evals {
            assert!(client < 6);
            assert!((0.0..=1.0).contains(&eval.accuracy));
        }
    }

    /// The reference walks give bit-identical results on one thread and
    /// on many, and leave every client's RNG stream in the same state:
    /// later rounds reach the same tangle digest.
    #[test]
    fn reference_walks_are_identical_serial_and_parallel() {
        let mut serial = small_sim(6, false);
        let mut parallel = small_sim(6, true);
        for _ in 0..3 {
            serial.run_round().unwrap();
            parallel.run_round().unwrap();
        }
        let param_bits = |params: Vec<Vec<f32>>| -> Vec<Vec<u32>> {
            params
                .iter()
                .map(|p| p.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let eval_bits = |evals: Vec<ReferenceEvaluation>| {
            evals
                .into_iter()
                .map(|(id, e, tips)| (id, e.loss.to_bits(), e.accuracy.to_bits(), e.correct, tips))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            param_bits(serial.reference_parameters().unwrap()),
            param_bits(parallel.reference_parameters().unwrap())
        );
        assert_eq!(
            eval_bits(serial.reference_evaluations().unwrap()),
            eval_bits(parallel.reference_evaluations().unwrap())
        );
        // Thread counts that do and do not divide the six clients, on
        // any host.
        let tips = serial.reference_tips_on(1).unwrap();
        assert_eq!(parallel.reference_tips_on(4).unwrap(), tips);
        let mut other = small_sim(6, true);
        for _ in 0..3 {
            other.run_round().unwrap();
        }
        other.reference_parameters().unwrap();
        other.reference_evaluations().unwrap();
        assert_eq!(other.reference_tips_on(6).unwrap(), tips);
        for _ in 0..3 {
            serial.run_round().unwrap();
            parallel.run_round().unwrap();
        }
        assert_eq!(
            crate::tangle_digest(serial.tangle()),
            crate::tangle_digest(parallel.tangle())
        );
    }

    #[test]
    fn determinism_for_fixed_seed() {
        let mut a = small_sim(3, false);
        let mut b = small_sim(3, false);
        a.run().unwrap();
        b.run().unwrap();
        assert_eq!(a.tangle().len(), b.tangle().len());
        let acc_a: Vec<f32> = a.history().iter().map(|m| m.mean_accuracy()).collect();
        let acc_b: Vec<f32> = b.history().iter().map(|m| m.mean_accuracy()).collect();
        assert_eq!(acc_a, acc_b);
    }

    #[test]
    #[should_panic(expected = "clients_per_round")]
    fn oversized_round_panics() {
        let dataset = fmnist_clustered(&FmnistConfig {
            num_clients: 3,
            samples_per_client: 40,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        let config = DagConfig {
            clients_per_round: 10,
            ..DagConfig::default()
        };
        Simulation::new(config, dataset, factory(features));
    }

    #[test]
    fn run_is_idempotent_after_completion() {
        let mut sim = small_sim(2, false);
        sim.run().unwrap();
        let more = sim.run().unwrap();
        assert!(more.is_empty());
        assert_eq!(sim.round(), 2);
    }
}
