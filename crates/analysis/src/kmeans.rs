//! Seeded, deterministic k-means over flat `f32` vectors.
//!
//! The clustering that turns "the models look specialised" into a
//! number must itself be reproducible, or the metric columns it feeds
//! would differ between reruns and worker counts. Three choices pin
//! the output to the `(points, config)` pair alone:
//!
//! * **k-means++ initialisation from a derived seed stream** — every
//!   random draw comes from one `StdRng` seeded via
//!   [`derive_seed`](dagfl_core::derive_seed), so initial centroids
//!   depend only on the data and the seed, never on scheduling.
//! * **Fixed iteration order** — each point's assignment depends only on
//!   that point and the centroids (so the assignment step may run on
//!   any number of threads), distances are summed in element order, and
//!   centroids are recomputed from members in index order (through
//!   [`average_parameters`](dagfl_nn::average_parameters), the same
//!   accumulation the training hot path uses), so float rounding is
//!   identical run to run, at any `--jobs` and on any core count.
//! * **Deterministic empty-cluster reseeding** — an emptied cluster is
//!   re-anchored on the point farthest from its current centroid
//!   (lowest index on ties) instead of a fresh random draw.
//!
//! [`auto_k`] wraps the core loop in a silhouette sweep over a k range,
//! the unsupervised model-selection step the analysis layer uses when a
//! scenario does not fix `k`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dagfl_core::derive_seed;
use dagfl_nn::average_parameters;

use crate::distance::{squared_distance, squared_distances_into, worker_count, DistanceMatrix};
use crate::metrics::silhouette_from;

/// Configuration of one deterministic k-means run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KMeansConfig {
    /// Number of clusters (clamped to the number of points).
    pub k: usize,
    /// Upper bound on Lloyd iterations (the loop also stops at the
    /// first iteration that changes no assignment).
    pub max_iterations: usize,
    /// Master seed for the k-means++ draws.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 2,
            max_iterations: 50,
            seed: 42,
        }
    }
}

/// The result of a [`kmeans`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// The effective cluster count (requested `k` clamped to the number
    /// of points).
    pub k: usize,
    /// Cluster index per input point, in input order.
    pub assignments: Vec<usize>,
    /// Final centroid per cluster.
    pub centroids: Vec<Vec<f32>>,
    /// Sum of squared point-to-centroid distances.
    pub inertia: f64,
    /// Lloyd iterations actually executed.
    pub iterations: usize,
}

/// Points scored together in the assignment step: one lane-batched pass
/// per centroid covers the whole group, and a group's rows stay in cache
/// across the centroids.
const GROUP: usize = 16;

/// Writes the index of each point's nearest centroid into `nearest`
/// (lowest index on exact ties). Centroids are visited in index order and
/// a later one wins only on a strictly smaller distance, the same rule as
/// a per-point scan; the lanes run across points, since a handful of
/// centroids would leave most lanes idle.
fn nearest_centroids(points: &[Vec<f32>], centroids: &[Vec<f32>], nearest: &mut [usize]) {
    let mut best = [f64::INFINITY; GROUP];
    let mut d = [0.0f64; GROUP];
    for (group, nearest) in points.chunks(GROUP).zip(nearest.chunks_mut(GROUP)) {
        let rows: Vec<&[f32]> = group.iter().map(Vec::as_slice).collect();
        let (best, d) = (&mut best[..rows.len()], &mut d[..rows.len()]);
        best.fill(f64::INFINITY);
        nearest.fill(0);
        for (c, centroid) in centroids.iter().enumerate() {
            squared_distances_into(centroid, &rows, d);
            for ((b, n), &dist) in best.iter_mut().zip(nearest.iter_mut()).zip(d.iter()) {
                if dist < *b {
                    *b = dist;
                    *n = c;
                }
            }
        }
    }
}

/// k-means++ initial centroids (Arthur & Vassilvitskii 2007): the first
/// centre is drawn uniformly, each further centre with probability
/// proportional to its squared distance from the nearest chosen centre.
/// All draws come from the seed-derived RNG, so the choice is a pure
/// function of `(points, k, seed)`.
///
/// Each point's distance to its nearest centre is kept as a running
/// minimum updated against the newest centre only; a minimum does not
/// depend on the order its candidates arrive in, so the draws match a
/// full rescan of every centre exactly.
fn plus_plus_init(points: &[Vec<f32>], k: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x4B4D_4541)); // "KMEA"
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    let point_refs: Vec<&[f32]> = points.iter().map(Vec::as_slice).collect();
    let mut distances = vec![f64::INFINITY; points.len()];
    let mut to_newest = vec![0.0f64; points.len()];
    while centroids.len() < k {
        let newest = centroids.last().expect("at least one centre");
        squared_distances_into(newest, &point_refs, &mut to_newest);
        for (best, &d) in distances.iter_mut().zip(&to_newest) {
            if d < *best {
                *best = d;
            }
        }
        let total: f64 = distances.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with a chosen centre; any index works
            // and the lowest unused one keeps the choice deterministic.
            distances.len().saturating_sub(centroids.len()) % points.len()
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = points.len() - 1;
            for (i, &d) in distances.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        centroids.push(points[next].clone());
    }
    centroids
}

/// The assignment step: moves every point to its nearest centroid and
/// reports whether any assignment changed. With `threads > 1` the points
/// are split into contiguous chunks on scoped threads; each point's
/// choice depends only on that point and the centroids, so the
/// assignments are the same at any thread count.
fn assign(
    points: &[Vec<f32>],
    centroids: &[Vec<f32>],
    assignments: &mut [usize],
    threads: usize,
) -> bool {
    let assign_chunk = |points: &[Vec<f32>], assignments: &mut [usize]| {
        let mut nearest = vec![0usize; points.len()];
        nearest_centroids(points, centroids, &mut nearest);
        let changed = nearest != assignments;
        assignments.copy_from_slice(&nearest);
        changed
    };
    if threads <= 1 || points.len() < 2 {
        return assign_chunk(points, assignments);
    }
    let chunk = points.len().div_ceil(threads);
    let assign_chunk = &assign_chunk;
    std::thread::scope(|scope| {
        let workers: Vec<_> = points
            .chunks(chunk)
            .zip(assignments.chunks_mut(chunk))
            .map(|(p, a)| scope.spawn(move || assign_chunk(p, a)))
            .collect();
        workers.into_iter().fold(false, |changed, worker| {
            worker.join().expect("k-means assignment worker panicked") | changed
        })
    })
}

/// Runs seeded k-means over `points` and returns the assignment.
///
/// `k` is clamped to `points.len()`; zero points yield an empty
/// assignment with `k = 0`. Identical `(points, config)` always produce
/// identical output — the determinism contract the scenario layer's
/// `--jobs`-invariance tests assert.
///
/// # Panics
///
/// Panics if the points differ in length.
pub fn kmeans(points: &[Vec<f32>], config: &KMeansConfig) -> KMeansResult {
    let n = points.len();
    let k = config.k.min(n);
    if k == 0 {
        return KMeansResult {
            k: 0,
            assignments: Vec::new(),
            centroids: Vec::new(),
            inertia: 0.0,
            iterations: 0,
        };
    }
    let dim = points[0].len();
    for p in points {
        assert_eq!(p.len(), dim, "points differ in length");
    }
    let mut centroids = plus_plus_init(points, k, config.seed);
    let mut assignments = vec![0usize; n];
    let threads = worker_count(n * k * dim);
    let mut iterations = 0;
    for _ in 0..config.max_iterations.max(1) {
        iterations += 1;
        let mut changed = assign(points, &centroids, &mut assignments, threads);
        // Deterministic empty-cluster reseeding: re-anchor each emptied
        // cluster on the point farthest from its own centroid (lowest
        // index on ties), then reassign that point.
        for (c, centroid) in centroids.iter_mut().enumerate() {
            if assignments.contains(&c) {
                continue;
            }
            let mut far = 0;
            let mut far_d = -1.0;
            for (i, p) in points.iter().enumerate() {
                // Never steal a cluster's only member.
                let donor = assignments[i];
                if assignments.iter().filter(|&&a| a == donor).count() <= 1 {
                    continue;
                }
                let d = squared_distance(p, centroid);
                if d > far_d {
                    far_d = d;
                    far = i;
                }
            }
            assignments[far] = c;
            *centroid = points[far].clone();
            changed = true;
        }
        // Update step: each centroid is the mean of its members in index
        // order, through the shared `average_parameters` accumulation.
        for (c, centroid) in centroids.iter_mut().enumerate() {
            let members: Vec<&[f32]> = points
                .iter()
                .enumerate()
                .filter(|(i, _)| assignments[*i] == c)
                .map(|(_, p)| p.as_slice())
                .collect();
            if !members.is_empty() {
                *centroid = average_parameters(&members);
            }
        }
        if !changed {
            break;
        }
    }
    let inertia = points
        .iter()
        .zip(&assignments)
        .map(|(p, &c)| squared_distance(p, &centroids[c]))
        .sum();
    KMeansResult {
        k,
        assignments,
        centroids,
        inertia,
        iterations,
    }
}

/// Picks `k` by a silhouette sweep: runs [`kmeans`] for every `k` in
/// `min..=max` (clamped to the number of points) and returns the run
/// with the highest silhouette score, preferring the smaller `k` on
/// ties. A range that collapses yields the single `k = min` run.
pub fn auto_k(points: &[Vec<f32>], min: usize, max: usize, config: &KMeansConfig) -> KMeansResult {
    auto_k_scored(points, min, max, config).0
}

/// [`auto_k`], also returning the winner's silhouette score. Every k in
/// the sweep is scored against one shared distance matrix.
pub(crate) fn auto_k_scored(
    points: &[Vec<f32>],
    min: usize,
    max: usize,
    config: &KMeansConfig,
) -> (KMeansResult, f64) {
    let distances = DistanceMatrix::new(points);
    let n = points.len();
    // Both bounds are clamped into 1..=max(n, 1) with `lo <= hi`, so the
    // sweep always runs at least once.
    let lo = min.max(1).min(n.max(1));
    let hi = max.max(lo).min(n.max(1));
    let mut best: Option<(KMeansResult, f64)> = None;
    for k in lo..=hi {
        let result = kmeans(points, &KMeansConfig { k, ..*config });
        let score = silhouette_from(&distances, &result.assignments);
        match &best {
            Some((_, best_score)) if score <= *best_score => {}
            _ => best = Some((result, score)),
        }
    }
    best.expect("the k range is never empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f32>> {
        // Two tight, well-separated blobs of three points each.
        vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![10.0, 10.0],
            vec![10.1, 10.0],
            vec![10.0, 10.1],
        ]
    }

    #[test]
    fn separates_obvious_blobs() {
        let result = kmeans(&blobs(), &KMeansConfig::default());
        assert_eq!(result.k, 2);
        assert_eq!(result.assignments[0], result.assignments[1]);
        assert_eq!(result.assignments[0], result.assignments[2]);
        assert_eq!(result.assignments[3], result.assignments[4]);
        assert_eq!(result.assignments[3], result.assignments[5]);
        assert_ne!(result.assignments[0], result.assignments[3]);
        assert!(result.inertia < 0.1, "inertia {}", result.inertia);
    }

    #[test]
    fn same_seed_same_result_different_seed_may_differ() {
        let points = blobs();
        let config = KMeansConfig {
            k: 2,
            seed: 7,
            ..KMeansConfig::default()
        };
        assert_eq!(kmeans(&points, &config), kmeans(&points, &config));
    }

    #[test]
    fn k_is_clamped_to_the_point_count() {
        let points = vec![vec![0.0], vec![1.0]];
        let result = kmeans(
            &points,
            &KMeansConfig {
                k: 5,
                ..KMeansConfig::default()
            },
        );
        assert_eq!(result.k, 2);
        assert_eq!(result.centroids.len(), 2);
    }

    #[test]
    fn zero_points_yield_an_empty_result() {
        let result = kmeans(&[], &KMeansConfig::default());
        assert_eq!(result.k, 0);
        assert!(result.assignments.is_empty());
    }

    #[test]
    fn identical_points_terminate_and_fill_every_cluster() {
        let points = vec![vec![1.0, 2.0]; 4];
        let result = kmeans(
            &points,
            &KMeansConfig {
                k: 2,
                ..KMeansConfig::default()
            },
        );
        assert_eq!(result.assignments.len(), 4);
        assert!(result.iterations <= KMeansConfig::default().max_iterations);
    }

    #[test]
    fn assignment_is_the_same_at_any_thread_count() {
        let points: Vec<Vec<f32>> = (0..23)
            .map(|i| (0..9).map(|e| ((i * 7 + e * 3) % 11) as f32).collect())
            .collect();
        let centroids = vec![points[0].clone(), points[5].clone(), points[17].clone()];
        let mut serial = vec![0usize; points.len()];
        let serial_changed = assign(&points, &centroids, &mut serial, 1);
        for threads in [2, 3, 8, 64] {
            let mut parallel = vec![0usize; points.len()];
            let changed = assign(&points, &centroids, &mut parallel, threads);
            assert_eq!(parallel, serial, "threads={threads}");
            assert_eq!(changed, serial_changed, "threads={threads}");
        }
    }

    #[test]
    fn auto_k_recovers_the_blob_count() {
        let result = auto_k(&blobs(), 2, 4, &KMeansConfig::default());
        assert_eq!(result.k, 2, "assignments {:?}", result.assignments);
    }

    #[test]
    fn auto_k_handles_degenerate_ranges() {
        let points = vec![vec![0.0], vec![5.0]];
        // Range larger than the point count collapses to n.
        let result = auto_k(&points, 3, 9, &KMeansConfig::default());
        assert_eq!(result.assignments.len(), 2);
        // Empty input.
        let result = auto_k(&[], 2, 4, &KMeansConfig::default());
        assert!(result.assignments.is_empty());
    }
}
