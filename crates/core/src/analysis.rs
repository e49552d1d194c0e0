//! Specialization analyses beyond the §4.3 graph metrics: how the
//! *models* themselves diverge across clusters.
//!
//! The paper demonstrates specialization through the approval structure
//! (pureness, modularity). These analyses measure the complementary
//! parameter- and prediction-space views:
//!
//! * the **cluster accuracy matrix** — each cluster's consensus model
//!   evaluated on every cluster's pooled test data; a diagonal-dominant
//!   matrix means models specialised,
//! * the **cluster divergence matrix** — pairwise L2 distance between the
//!   clusters' mean consensus parameters.

use std::collections::HashMap;

use dagfl_nn::average_parameters;
use dagfl_tensor::{l2_distance, Matrix};

use crate::{CoreError, Simulation};

/// Pooled test data of one ground-truth cluster.
#[derive(Debug, Clone)]
struct ClusterPool {
    x: Matrix,
    y: Vec<usize>,
}

/// The cross-cluster evaluation: `accuracy[a][b]` is cluster `a`'s mean
/// consensus model evaluated on cluster `b`'s pooled test data, plus the
/// pairwise parameter distances `divergence[a][b]`.
#[derive(Debug, Clone)]
pub struct ClusterSpecialization {
    /// The distinct cluster labels, sorted; indexes the matrices below.
    pub clusters: Vec<usize>,
    /// `accuracy[a][b]`: cluster a's model on cluster b's data.
    pub accuracy: Vec<Vec<f32>>,
    /// `divergence[a][b]`: L2 distance between the mean consensus
    /// parameters of clusters a and b (0 on the diagonal).
    pub divergence: Vec<Vec<f32>>,
}

impl ClusterSpecialization {
    /// Mean of the diagonal (own-cluster accuracy).
    pub fn mean_own_accuracy(&self) -> f32 {
        let k = self.clusters.len();
        if k == 0 {
            return 0.0;
        }
        (0..k).map(|i| self.accuracy[i][i]).sum::<f32>() / k as f32
    }

    /// Mean of the off-diagonal entries (foreign-cluster accuracy).
    pub fn mean_foreign_accuracy(&self) -> f32 {
        let k = self.clusters.len();
        if k < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut count = 0;
        for a in 0..k {
            for b in 0..k {
                if a != b {
                    total += self.accuracy[a][b];
                    count += 1;
                }
            }
        }
        total / count as f32
    }

    /// The *specialization gap*: own-cluster minus foreign-cluster mean
    /// accuracy. Positive once models have specialised.
    ///
    /// Defined as 0 for degenerate single-cluster matrices: with no
    /// foreign cluster to compare against, a 1×1 accuracy matrix would
    /// otherwise report its sole entry as a "gap" and make an
    /// unclustered dataset look maximally specialised.
    pub fn specialization_gap(&self) -> f32 {
        if self.clusters.len() < 2 {
            return 0.0;
        }
        self.mean_own_accuracy() - self.mean_foreign_accuracy()
    }
}

/// Computes the cross-cluster specialization matrices from each client's
/// current walk-selected reference model.
///
/// # Errors
///
/// Propagates model/tangle errors, and returns [`CoreError::Config`]
/// for datasets with fewer than two ground-truth clusters: the
/// cross-cluster matrices degenerate to 1×1 and every derived statistic
/// (gap, foreign accuracy) silently reads as "specialised" when there
/// is nothing to specialise against.
///
/// # Panics
///
/// Panics if the dataset has no clients (impossible for constructed
/// datasets).
#[allow(clippy::needless_range_loop)] // idx indexes clients, datasets and labels together
pub fn cluster_specialization(sim: &mut Simulation) -> Result<ClusterSpecialization, CoreError> {
    // 1. Collect per cluster: member reference parameters and pooled test
    //    data.
    let cluster_labels = sim.dataset().cluster_labels();
    let mut clusters: Vec<usize> = cluster_labels.clone();
    clusters.sort_unstable();
    clusters.dedup();
    if clusters.len() < 2 {
        return Err(CoreError::Config(format!(
            "cluster specialization needs at least 2 ground-truth clusters, dataset `{}` has {}",
            sim.dataset().name(),
            clusters.len()
        )));
    }

    // Reference parameters per client.
    let mut per_cluster_params: HashMap<usize, Vec<Vec<f32>>> = HashMap::new();
    for (params, &cluster) in sim.reference_parameters()?.into_iter().zip(&cluster_labels) {
        per_cluster_params.entry(cluster).or_default().push(params);
    }

    // Pooled test data per cluster.
    let mut pools: HashMap<usize, ClusterPool> = HashMap::new();
    for (idx, data) in sim.dataset.clients().iter().enumerate() {
        let cluster = cluster_labels[idx];
        let entry = pools.entry(cluster).or_insert_with(|| ClusterPool {
            x: Matrix::zeros(0, data.test_x().cols()),
            y: Vec::new(),
        });
        // Append rows.
        let mut combined =
            Matrix::zeros(entry.x.rows() + data.test_x().rows(), data.test_x().cols());
        for r in 0..entry.x.rows() {
            combined.row_mut(r).copy_from_slice(entry.x.row(r));
        }
        for r in 0..data.test_x().rows() {
            combined
                .row_mut(entry.x.rows() + r)
                .copy_from_slice(data.test_x().row(r));
        }
        entry.x = combined;
        entry.y.extend_from_slice(data.test_y());
    }

    // 2. Mean parameters per cluster.
    let mean_params: HashMap<usize, Vec<f32>> = per_cluster_params
        .iter()
        .map(|(&c, params)| {
            let refs: Vec<&[f32]> = params.iter().map(Vec::as_slice).collect();
            (c, average_parameters(&refs))
        })
        .collect();

    // 3. Cross-evaluate using client 0's scratch model.
    let k = clusters.len();
    let mut accuracy = vec![vec![0.0f32; k]; k];
    let mut divergence = vec![vec![0.0f32; k]; k];
    for (a_idx, &a) in clusters.iter().enumerate() {
        for (b_idx, &b) in clusters.iter().enumerate() {
            let pool = &pools[&b];
            let eval = sim.clients[0].evaluate_with(&mean_params[&a], &pool.x, &pool.y)?;
            accuracy[a_idx][b_idx] = eval.accuracy;
            divergence[a_idx][b_idx] = l2_distance(&mean_params[&a], &mean_params[&b]);
        }
    }
    Ok(ClusterSpecialization {
        clusters,
        accuracy,
        divergence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DagConfig, ModelFactory};
    use dagfl_datasets::{fmnist_clustered, FmnistConfig};
    use dagfl_nn::{Dense, Model, Relu, Sequential};
    use rand::rngs::StdRng;
    use std::sync::Arc;

    fn run_sim(rounds: usize) -> Simulation {
        let dataset = fmnist_clustered(&FmnistConfig {
            num_clients: 9,
            samples_per_client: 60,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        let factory: ModelFactory = Arc::new(move |rng: &mut StdRng| {
            Box::new(Sequential::new(vec![
                Box::new(Dense::new(rng, features, 24)),
                Box::new(Relu::new()),
                Box::new(Dense::new(rng, 24, 10)),
            ])) as Box<dyn Model>
        });
        let mut sim = Simulation::new(
            DagConfig {
                rounds,
                clients_per_round: 5,
                local_batches: 5,
                ..DagConfig::default()
            },
            dataset,
            factory,
        );
        sim.run().expect("simulation runs");
        sim
    }

    #[test]
    fn matrices_have_cluster_dimensions() {
        let mut sim = run_sim(5);
        let spec = cluster_specialization(&mut sim).unwrap();
        assert_eq!(spec.clusters, vec![0, 1, 2]);
        assert_eq!(spec.accuracy.len(), 3);
        assert_eq!(spec.divergence.len(), 3);
        for row in &spec.accuracy {
            assert_eq!(row.len(), 3);
            for &v in row {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn divergence_diagonal_is_zero_and_symmetric() {
        let mut sim = run_sim(5);
        let spec = cluster_specialization(&mut sim).unwrap();
        for a in 0..3 {
            assert_eq!(spec.divergence[a][a], 0.0);
            for b in 0..3 {
                assert!((spec.divergence[a][b] - spec.divergence[b][a]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn single_cluster_dataset_is_rejected_not_reported_as_specialized() {
        use dagfl_datasets::fmnist_by_author;
        // Every by-author client carries all classes in one ground-truth
        // cluster: the 1×1 matrices would read as a positive
        // "specialization gap" if they were computed.
        let dataset = fmnist_by_author(&FmnistConfig {
            num_clients: 4,
            samples_per_client: 30,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        let factory: ModelFactory = Arc::new(move |rng: &mut StdRng| {
            Box::new(Sequential::new(vec![
                Box::new(Dense::new(rng, features, 8)),
                Box::new(Relu::new()),
                Box::new(Dense::new(rng, 8, 10)),
            ])) as Box<dyn Model>
        });
        let mut sim = Simulation::new(
            DagConfig {
                rounds: 1,
                clients_per_round: 2,
                local_batches: 2,
                ..DagConfig::default()
            },
            dataset,
            factory,
        );
        sim.run().expect("simulation runs");
        let err = cluster_specialization(&mut sim).unwrap_err();
        assert!(
            matches!(err, CoreError::Config(_)),
            "expected Config error, got {err:?}"
        );
        assert!(err.to_string().contains("at least 2"), "{err}");
    }

    #[test]
    fn degenerate_gap_is_zero_not_specialized() {
        // A hand-built 1×1 matrix must not report its sole accuracy
        // entry as a specialization gap.
        let spec = ClusterSpecialization {
            clusters: vec![0],
            accuracy: vec![vec![0.9]],
            divergence: vec![vec![0.0]],
        };
        assert_eq!(spec.specialization_gap(), 0.0);
        assert_eq!(spec.mean_foreign_accuracy(), 0.0);
    }

    #[test]
    fn specialization_gap_becomes_positive_on_clustered_data() {
        let mut sim = run_sim(12);
        let spec = cluster_specialization(&mut sim).unwrap();
        // Disjoint class clusters: a cluster's model cannot predict
        // foreign classes, so the gap must be clearly positive.
        assert!(
            spec.specialization_gap() > 0.2,
            "gap {} too small (own {}, foreign {})",
            spec.specialization_gap(),
            spec.mean_own_accuracy(),
            spec.mean_foreign_accuracy()
        );
    }
}
