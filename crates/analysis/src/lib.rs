//! **dagfl-analysis** — the specialization analytics subsystem:
//! unsupervised clustering over client models and approval graphs.
//!
//! The paper demonstrates *implicit* model specialization by eyeballing
//! approval-graph structure. This crate measures it, without ground
//! truth in the loop and deterministically enough to put the numbers in
//! golden-checked CSVs:
//!
//! * [`kmeans`] / [`auto_k`] — seeded, deterministic k-means over flat
//!   client parameter vectors (k-means++ init from a
//!   [`derive_seed`](dagfl_core::derive_seed) stream, deterministic
//!   empty-cluster reseeding, fixed iteration order).
//! * [`silhouette_score`], [`cluster_purity`], [`adjusted_rand_index`]
//!   — the quality metrics; silhouette is unsupervised and drives
//!   auto-k, purity and ARI score against the dataset's ground-truth
//!   clusters.
//! * [`affinity_matrix`] / [`label_propagation`] — the approval-graph
//!   view: pairwise approval-count affinities and deterministic
//!   label-propagation community detection, scored with
//!   [`modularity`](dagfl_graphs::modularity).
//! * [`analyze`] — the per-round pipeline producing an
//!   [`AnalysisSnapshot`]: both views plus their agreement (ARI between
//!   the parameter-space and graph-space partitions).
//!
//! The scenario layer drives [`analyze`] on a cadence and folds the
//! snapshots into `RunReport`s and sweep CSVs; `dagfl analyze` prints
//! them interactively. Everything here is a pure function of its
//! inputs — the determinism contract the `--jobs`-invariance tests
//! assert end to end.
//!
//! # Example
//!
//! ```
//! use dagfl_analysis::{kmeans, KMeansConfig};
//!
//! let points = vec![
//!     vec![0.0, 0.0],
//!     vec![0.1, 0.0],
//!     vec![5.0, 5.0],
//!     vec![5.1, 5.0],
//! ];
//! let result = kmeans(&points, &KMeansConfig { k: 2, ..KMeansConfig::default() });
//! assert_eq!(result.assignments[0], result.assignments[1]);
//! assert_ne!(result.assignments[0], result.assignments[2]);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod community;
mod distance;
mod kmeans;
mod metrics;
#[cfg(test)]
mod oracle;
mod pipeline;

pub use community::{affinity_matrix, label_propagation, DEFAULT_LABEL_PROPAGATION_SWEEPS};
pub use kmeans::{auto_k, kmeans, KMeansConfig, KMeansResult};
pub use metrics::{adjusted_rand_index, cluster_purity, silhouette_score};
pub use pipeline::{
    analyze, AnalysisConfig, AnalysisSnapshot, AnalysisSource, GraphClustering, KSelection,
    ParameterClustering,
};
