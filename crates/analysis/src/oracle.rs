//! The scalar k-means and silhouette code the lane-batched kernels
//! replaced, kept as differential oracles: every optimised output must
//! match these bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dagfl_core::derive_seed;
use dagfl_nn::average_parameters;

use crate::kmeans::{KMeansConfig, KMeansResult};

/// Squared Euclidean distance, one serial `f64` sum in element order.
fn squared_distance(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum()
}

/// Index of the nearest centroid (lowest index on exact ties).
fn nearest(point: &[f32], centroids: &[Vec<f32>]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = squared_distance(point, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// k-means++ initial centroids (Arthur & Vassilvitskii 2007): the first
/// centre is drawn uniformly, each further centre with probability
/// proportional to its squared distance from the nearest chosen centre.
/// All draws come from the seed-derived RNG, so the choice is a pure
/// function of `(points, k, seed)`.
fn plus_plus_init(points: &[Vec<f32>], k: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x4B4D_4541)); // "KMEA"
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    while centroids.len() < k {
        let distances: Vec<f64> = points.iter().map(|p| nearest(p, &centroids).1).collect();
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
pub(crate) fn kmeans(points: &[Vec<f32>], config: &KMeansConfig) -> KMeansResult {
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
    let mut iterations = 0;
    for _ in 0..config.max_iterations.max(1) {
        iterations += 1;
        // Assignment step, in index order.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let (c, _) = nearest(p, &centroids);
            if assignments[i] != c {
                assignments[i] = c;
                changed = true;
            }
        }
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
/// ties. Falls back to a single `k = min` run when the range collapses.
pub(crate) fn auto_k(
    points: &[Vec<f32>],
    min: usize,
    max: usize,
    config: &KMeansConfig,
) -> KMeansResult {
    let n = points.len();
    let lo = min.max(1).min(n.max(1));
    let hi = max.max(lo).min(n.max(1));
    let mut best: Option<(f64, KMeansResult)> = None;
    for k in lo..=hi {
        let result = kmeans(points, &KMeansConfig { k, ..*config });
        let score = silhouette_score(points, &result.assignments);
        match &best {
            Some((best_score, _)) if score <= *best_score => {}
            _ => best = Some((score, result)),
        }
    }
    best.map(|(_, r)| r)
        .unwrap_or_else(|| kmeans(points, &KMeansConfig { k: lo, ..*config }))
}

/// Mean silhouette coefficient of a clustering, in `[-1, 1]`.
///
/// For each point, `a` is its mean distance to its own cluster's other
/// members and `b` the smallest mean distance to any other cluster; the
/// point's silhouette is `(b - a) / max(a, b)`. Singleton clusters
/// score 0 for their member (the standard convention), and clusterings
/// with fewer than two clusters or two points score 0 overall — there
/// is no between-cluster structure to measure.
pub(crate) fn silhouette_score(points: &[Vec<f32>], assignments: &[usize]) -> f64 {
    assert_eq!(points.len(), assignments.len(), "one label per point");
    let n = points.len();
    if n < 2 {
        return 0.0;
    }
    let mut labels: Vec<usize> = assignments.to_vec();
    labels.sort_unstable();
    labels.dedup();
    if labels.len() < 2 {
        return 0.0;
    }
    // Euclidean (not squared) distances, per the standard definition.
    let mut total = 0.0;
    for i in 0..n {
        let own = assignments[i];
        let mut own_sum = 0.0;
        let mut own_count = 0usize;
        // Mean distance to every foreign cluster, tracked per label.
        let mut foreign: Vec<(usize, f64, usize)> = labels
            .iter()
            .filter(|&&l| l != own)
            .map(|&l| (l, 0.0, 0))
            .collect();
        for j in 0..n {
            if i == j {
                continue;
            }
            let d = squared_distance(&points[i], &points[j]).sqrt();
            if assignments[j] == own {
                own_sum += d;
                own_count += 1;
            } else if let Some(entry) = foreign.iter_mut().find(|(l, _, _)| *l == assignments[j]) {
                entry.1 += d;
                entry.2 += 1;
            }
        }
        if own_count == 0 {
            // Singleton cluster: silhouette 0 by convention.
            continue;
        }
        let a = own_sum / own_count as f64;
        let b = foreign
            .iter()
            .filter(|(_, _, count)| *count > 0)
            .map(|(_, sum, count)| sum / *count as f64)
            .fold(f64::INFINITY, f64::min);
        if !b.is_finite() {
            continue;
        }
        let denom = a.max(b);
        if denom > 0.0 {
            total += (b - a) / denom;
        }
    }
    (total / n as f64).clamp(-1.0, 1.0)
}

mod differential {
    use proptest::prelude::*;

    use crate::{analyze, AnalysisConfig, AnalysisSource, KMeansConfig, KMeansResult, KSelection};

    /// Every field of a k-means result as raw bits, so `-0.0` vs `0.0`
    /// or a last-ulp difference fails the comparison.
    fn bits(r: &KMeansResult) -> (usize, Vec<usize>, Vec<Vec<u32>>, u64, usize) {
        (
            r.k,
            r.assignments.clone(),
            r.centroids
                .iter()
                .map(|c| c.iter().map(|x| x.to_bits()).collect())
                .collect(),
            r.inertia.to_bits(),
            r.iterations,
        )
    }

    /// The sizes the lane kernel is most likely to get wrong: empty,
    /// single, tiny, and counts on either side of the lane width.
    const EDGE_SIZES: [usize; 12] = [0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 23];

    /// Points drawn from `distinct` prototypes, so duplicates (and the
    /// all-coincident inputs that force empty-cluster reseeding) are
    /// common. Coordinates span many binary orders of magnitude, so a
    /// sum taken in any other order than the scalar one rounds
    /// differently; `coarse` instead snaps them to a half-integer grid,
    /// which makes exact distance ties common.
    fn point_set() -> impl Strategy<Value = Vec<Vec<f32>>> {
        (
            0..EDGE_SIZES.len() + 8,
            0usize..40,
            1usize..24,
            any::<bool>(),
        )
            .prop_flat_map(|(size, dim, distinct, coarse)| {
                let n = EDGE_SIZES.get(size).copied().unwrap_or(size);
                (
                    proptest::collection::vec(
                        proptest::collection::vec((-1.0f32..1.0, -24i32..7), dim..=dim),
                        distinct..=distinct,
                    ),
                    proptest::collection::vec(0..distinct, n..=n),
                )
                    .prop_map(move |(prototypes, picks)| {
                        picks
                            .iter()
                            .map(|&p| {
                                prototypes[p]
                                    .iter()
                                    .map(|&(mantissa, exp)| {
                                        if coarse {
                                            (mantissa * 10.0).round() * 0.5
                                        } else {
                                            mantissa * 2f32.powi(exp)
                                        }
                                    })
                                    .collect()
                            })
                            .collect()
                    })
            })
    }

    proptest! {
        #[test]
        fn kmeans_matches_the_scalar_oracle(
            points in point_set(),
            k in 1usize..8,
            seed in any::<u64>(),
        ) {
            let config = KMeansConfig { k, seed, ..KMeansConfig::default() };
            prop_assert_eq!(
                bits(&crate::kmeans(&points, &config)),
                bits(&super::kmeans(&points, &config))
            );
        }

        #[test]
        fn silhouette_matches_the_scalar_oracle(
            points in point_set(),
            labels in proptest::collection::vec(0usize..6, 23..=23),
        ) {
            let labels = &labels[..points.len()];
            prop_assert_eq!(
                crate::silhouette_score(&points, labels).to_bits(),
                super::silhouette_score(&points, labels).to_bits()
            );
        }

        #[test]
        fn auto_k_matches_the_scalar_oracle(
            points in point_set(),
            min in 0usize..5,
            span in 0usize..5,
            seed in any::<u64>(),
        ) {
            let config = KMeansConfig { seed, ..KMeansConfig::default() };
            prop_assert_eq!(
                bits(&crate::auto_k(&points, min, min + span, &config)),
                bits(&super::auto_k(&points, min, min + span, &config))
            );
        }

        #[test]
        fn analyze_matches_the_scalar_pipeline(
            points in point_set(),
            fixed in 0usize..5,
            seed in any::<u64>(),
        ) {
            // `fixed == 0` exercises the shared-matrix auto-k path.
            let (k, oracle) = if fixed == 0 {
                let base = KMeansConfig { seed, ..KMeansConfig::default() };
                (KSelection::default(), super::auto_k(&points, 2, 6, &base))
            } else {
                let config = KMeansConfig { k: fixed, seed, ..KMeansConfig::default() };
                (KSelection::Fixed(fixed), super::kmeans(&points, &config))
            };
            let truth: Vec<usize> = (0..points.len()).map(|i| i % 3).collect();
            let config = AnalysisConfig { k, source: AnalysisSource::Parameters, seed };
            let view = analyze(1, Some(&points), None, &truth, &config)
                .parameters
                .expect("parameter view");
            prop_assert_eq!(view.k, oracle.k);
            prop_assert_eq!(&view.assignments, &oracle.assignments);
            prop_assert_eq!(
                view.silhouette.to_bits(),
                super::silhouette_score(&points, &oracle.assignments).to_bits()
            );
        }
    }

    /// Inputs big enough that the distance matrix and the k-means
    /// assignment step go multi-threaded on a multi-core host.
    #[test]
    fn large_inputs_match_the_scalar_oracle() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Four offset blobs with coordinates of widely varying magnitude.
        let points: Vec<Vec<f32>> = (0..41)
            .map(|i| {
                (0..4_003)
                    .map(|_| {
                        let bits = next();
                        let mantissa = (bits >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                        let exp = (bits % 24) as i32 - 16;
                        mantissa * 2f32.powi(exp) + (i % 4) as f32 * 0.01
                    })
                    .collect()
            })
            .collect();
        let config = KMeansConfig {
            k: 4,
            seed: 9,
            ..KMeansConfig::default()
        };
        assert_eq!(
            bits(&crate::kmeans(&points, &config)),
            bits(&super::kmeans(&points, &config))
        );
        assert_eq!(
            bits(&crate::auto_k(&points, 2, 6, &config)),
            bits(&super::auto_k(&points, 2, 6, &config))
        );
        let labels: Vec<usize> = (0..points.len()).map(|i| i % 5).collect();
        assert_eq!(
            crate::silhouette_score(&points, &labels).to_bits(),
            super::silhouette_score(&points, &labels).to_bits()
        );
    }

    /// All-coincident points leave every cluster but one empty after the
    /// first assignment, so this pins the deterministic reseed path.
    #[test]
    fn empty_cluster_reseeding_matches_the_scalar_oracle() {
        for n in [2, 3, 4, 9] {
            for k in 2..=n.min(5) {
                let points = vec![vec![1.0f32, -2.0, 0.5]; n];
                let config = KMeansConfig {
                    k,
                    ..KMeansConfig::default()
                };
                assert_eq!(
                    bits(&crate::kmeans(&points, &config)),
                    bits(&super::kmeans(&points, &config)),
                    "n={n} k={k}"
                );
            }
        }
    }
}
