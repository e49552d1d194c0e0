//! The pairwise-distance kernel shared by silhouette scoring and
//! k-means.
//!
//! Every distance in this crate is the same `f64` sum of `(x - y)²`
//! over the elements in index order ([`squared_distance`]). The kernel
//! below computes up to [`LANES`] such sums per pass over the elements:
//! each lane is its own accumulator, so every lane performs exactly the
//! additions the scalar loop would, in the same order. Rust never
//! reassociates or contracts floating-point expressions, and
//! `(x - y)² == (y - x)²` bit for bit, so a lane-batched distance
//! equals the scalar one in either argument order. Batching only buys
//! independent add chains (the scalar loop is bound by add latency) and
//! one load of `a` per pass instead of one per pair.

/// Pairs scored per pass over the elements.
const LANES: usize = 16;

/// Lanes of the narrower pass that scores a group's last few pairs, so
/// at most `TAIL_LANES - 1` padding lanes are computed and thrown away.
const TAIL_LANES: usize = 4;

/// Elements per step of the kernel: each lane's differences are squared
/// a block at a time (consecutive loads) and then added in element
/// order.
const BLOCK: usize = 4;

/// Element visits (vector pairs × dimension) per scoped thread: smaller
/// shares would spend more on spawning than they save.
const MIN_PARALLEL_WORK: usize = 1 << 18;

/// Squared Euclidean distance, accumulated in `f64` so long parameter
/// vectors don't lose the low bits that break assignment ties.
pub(crate) fn squared_distance(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum()
}

/// One pass over the elements scoring `a` against `L` vectors.
fn squared_distance_lanes<const L: usize>(a: &[f32], bs: [&[f32]; L]) -> [f64; L] {
    let dim = a.len();
    // Re-slicing to `dim` lets the optimiser drop per-lane bounds checks.
    let bs: [&[f32]; L] = bs.map(|b| &b[..dim]);
    let mut acc = [0.0f64; L];
    let blocked = dim - dim % BLOCK;
    for base in (0..blocked).step_by(BLOCK) {
        let xs = &a[base..base + BLOCK];
        let squares: [[f64; BLOCK]; L] = std::array::from_fn(|l| {
            let ys = &bs[l][base..base + BLOCK];
            std::array::from_fn(|e| {
                let d = f64::from(xs[e]) - f64::from(ys[e]);
                d * d
            })
        });
        for e in 0..BLOCK {
            for (sum, lane) in acc.iter_mut().zip(&squares) {
                *sum += lane[e];
            }
        }
    }
    for e in blocked..dim {
        let x = f64::from(a[e]);
        for (sum, b) in acc.iter_mut().zip(&bs) {
            let d = x - f64::from(b[e]);
            *sum += d * d;
        }
    }
    acc
}

/// Scores one group of at most `L` vectors, padding short groups with
/// `a` itself and discarding the padding results.
fn score_group<const L: usize>(a: &[f32], group: &[&[f32]], out: &mut [f64]) {
    let lanes = std::array::from_fn(|l| group.get(l).copied().unwrap_or(a));
    let sums = squared_distance_lanes::<L>(a, lanes);
    out.copy_from_slice(&sums[..out.len()]);
}

/// Writes `squared_distance(a, b)` for every `b` in `bs` into `out`:
/// [`LANES`] pairs per pass, then the remainder [`TAIL_LANES`] at a time.
///
/// # Panics
///
/// Panics if `out` and `bs` differ in length or a vector is shorter
/// than `a`.
pub(crate) fn squared_distances_into(a: &[f32], bs: &[&[f32]], out: &mut [f64]) {
    assert_eq!(bs.len(), out.len(), "one output per vector");
    let full = bs.len() - bs.len() % LANES;
    let (wide, tail) = bs.split_at(full);
    let (wide_out, tail_out) = out.split_at_mut(full);
    for (group, dst) in wide.chunks(LANES).zip(wide_out.chunks_mut(LANES)) {
        score_group::<LANES>(a, group, dst);
    }
    for (group, dst) in tail.chunks(TAIL_LANES).zip(tail_out.chunks_mut(TAIL_LANES)) {
        score_group::<TAIL_LANES>(a, group, dst);
    }
}

/// How many scoped threads a kernel over `work` element visits gets:
/// one per [`MIN_PARALLEL_WORK`] visits, at most one per available core.
pub(crate) fn worker_count(work: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (work / MIN_PARALLEL_WORK).clamp(1, cores)
}

/// The pairwise Euclidean distances of a point set, stored once as the
/// condensed upper triangle (`n(n−1)/2` entries, row `i` holding
/// `d(i, j)` for `j > i`).
///
/// One matrix serves a whole analysis snapshot: the silhouette of every
/// k an auto-k sweep tries reads the same entries, so each pair is
/// computed once instead of twice per score.
#[derive(Debug)]
pub(crate) struct DistanceMatrix {
    n: usize,
    condensed: Vec<f64>,
}

impl DistanceMatrix {
    /// Builds the matrix on as many scoped threads as [`worker_count`]
    /// grants its size.
    ///
    /// # Panics
    ///
    /// Panics if the points differ in length.
    pub(crate) fn new(points: &[Vec<f32>]) -> Self {
        let work = points.len() * points.len() / 2 * points.first().map_or(0, Vec::len);
        Self::with_threads(points, worker_count(work))
    }

    /// Builds the matrix on `threads` scoped threads (at least one).
    /// Rows are dealt round-robin, so each thread gets a mix of the
    /// triangle's long first rows and short last rows. Every entry is a
    /// pure function of its two points, so the result is identical at
    /// any thread count.
    pub(crate) fn with_threads(points: &[Vec<f32>], threads: usize) -> Self {
        let n = points.len();
        if let Some(first) = points.first() {
            assert!(
                points.iter().all(|p| p.len() == first.len()),
                "points differ in length"
            );
        }
        let mut condensed = vec![0.0f64; n * n.saturating_sub(1) / 2];
        let mut rows: Vec<(usize, &mut [f64])> = Vec::with_capacity(n);
        let mut rest = condensed.as_mut_slice();
        for i in 0..n {
            let (row, tail) = rest.split_at_mut(n - 1 - i);
            rows.push((i, row));
            rest = tail;
        }
        let fill = |i: usize, row: &mut [f64]| {
            let others: Vec<&[f32]> = points[i + 1..].iter().map(Vec::as_slice).collect();
            squared_distances_into(&points[i], &others, row);
            for d in row.iter_mut() {
                *d = d.sqrt();
            }
        };
        let threads = threads.clamp(1, n.max(1));
        if threads == 1 {
            for (i, row) in rows {
                fill(i, row);
            }
        } else {
            let mut dealt: Vec<Vec<(usize, &mut [f64])>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (i, row) in rows {
                dealt[i % threads].push((i, row));
            }
            std::thread::scope(|scope| {
                for share in dealt {
                    scope.spawn(|| {
                        for (i, row) in share {
                            fill(i, row);
                        }
                    });
                }
            });
        }
        Self { n, condensed }
    }

    /// The number of points.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// The distance between points `i` and `j` (0 on the diagonal).
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        let (lo, hi) = match i.cmp(&j) {
            std::cmp::Ordering::Less => (i, j),
            std::cmp::Ordering::Greater => (j, i),
            std::cmp::Ordering::Equal => return 0.0,
        };
        // Rows before `lo` hold (n-1) + (n-2) + ... + (n-lo) entries.
        let row_start = lo * (2 * self.n - lo - 1) / 2;
        self.condensed[row_start + hi - lo - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Coordinates spread over many binary orders of magnitude, so any
    /// change to the summation order shows in the low bits.
    fn points(n: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|e| {
                        let h = (i * 7919 + e * 104_729) % 1_000_003;
                        let exp = (h % 23) as i32 - 15;
                        (h as f32 / 1_000_003.0 - 0.5) * 2f32.powi(exp)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn lanes_match_the_scalar_distance_bit_for_bit() {
        let pts = points(40, 37);
        let others: Vec<&[f32]> = pts[1..].iter().map(Vec::as_slice).collect();
        let mut out = vec![0.0; others.len()];
        squared_distances_into(&pts[0], &others, &mut out);
        for (b, d) in others.iter().zip(&out) {
            assert_eq!(d.to_bits(), squared_distance(&pts[0], b).to_bits());
            // Argument order does not matter either.
            assert_eq!(d.to_bits(), squared_distance(b, &pts[0]).to_bits());
        }
    }

    #[test]
    fn matrix_entries_are_the_scalar_euclidean_distances() {
        for n in [0, 1, 2, 3, 5, 9, 17] {
            let pts = points(n, 11);
            let m = DistanceMatrix::with_threads(&pts, 1);
            assert_eq!(m.len(), n);
            for i in 0..n {
                for j in 0..n {
                    let want = if i == j {
                        0.0
                    } else {
                        squared_distance(&pts[i], &pts[j]).sqrt()
                    };
                    assert_eq!(m.get(i, j).to_bits(), want.to_bits(), "n={n} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn one_thread_and_many_threads_build_the_same_matrix() {
        for n in [0, 1, 2, 3, 5, 9, 26] {
            let pts = points(n, 19);
            let serial = DistanceMatrix::with_threads(&pts, 1);
            for threads in [2, 3, 4, 7, 64] {
                let parallel = DistanceMatrix::with_threads(&pts, threads);
                let bits = |m: &DistanceMatrix| -> Vec<u64> {
                    m.condensed.iter().map(|d| d.to_bits()).collect()
                };
                assert_eq!(bits(&serial), bits(&parallel), "n={n} threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "points differ in length")]
    fn ragged_points_panic() {
        DistanceMatrix::new(&[vec![0.0, 1.0], vec![1.0]]);
    }
}
