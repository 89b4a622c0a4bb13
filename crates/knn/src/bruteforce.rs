//! Exact KNN by exhaustive search.
//!
//! This is the reference against which the octree is tested, and the
//! algorithm whose cost the GPU model charges for neighbor search: GPU
//! point-cloud implementations (including the paper's baselines) compute a
//! dense pairwise-distance matrix and select the top-K, because that maps
//! well onto GPU execution even though it does more work than a tree.

use crate::index::{batch_into, table_slots};
use crate::NeighborIndexTable;
use mesorasi_pointcloud::{Point3, PointCloud};

/// An index paired with its squared distance to the query. Ordering ties are
/// broken by index so results are deterministic across implementations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Index of the candidate point in the searched cloud.
    pub index: usize,
    /// Squared distance to the query point.
    pub dist_sq: f32,
}

impl Candidate {
    fn key(&self) -> (f32, usize) {
        (self.dist_sq, self.index)
    }
}

/// Orders candidates by `(distance, index)`: the one ranking every backend
/// selects by.
#[inline]
pub(crate) fn by_key(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    a.key().partial_cmp(&b.key()).expect("distances are finite")
}

/// Inserts `c` into `best`, an ascending insertion-sorted buffer bounded to
/// `k` candidates (by distance, ties by index). O(k) per insert, which
/// beats a heap for the k ≤ 128 range point-cloud networks use. Shared by
/// the brute-force selection, the octree descent, and the feature search,
/// so every backend breaks ties identically; public so test oracles select
/// with the same rule.
pub fn push_bounded(best: &mut Vec<Candidate>, k: usize, c: Candidate) {
    if best.len() == k && c.key() >= best.last().expect("best is non-empty when len == k").key() {
        return;
    }
    let pos = best.partition_point(|b| b.key() < c.key());
    best.insert(pos, c);
    if best.len() > k {
        best.pop();
    }
}

/// Runs KNN for every centroid in `queries` (indices into `cloud`) and
/// collects the results into a [`NeighborIndexTable`]. Queries are searched
/// in parallel (each is an independent exhaustive scan) through the shared
/// batch driver, so the table does not depend on the thread count. The
/// kNN oracle: every octree table is held to it bit for bit.
///
/// Matches the paper's module semantics: the query set is a subset of the
/// input points ("the neighbor search might be applied to only a subset of
/// the input points", §III-A), and each point is its own nearest neighbor.
///
/// # Panics
///
/// Panics if any query index is out of bounds or `k > cloud.len()`.
pub fn knn_indices(cloud: &PointCloud, queries: &[usize], k: usize) -> NeighborIndexTable {
    let mut out = NeighborIndexTable::default();
    knn_scan(cloud, queries, |q| cloud.point(q), k, table_slots(&mut out, queries, k));
    out
}

/// Exact kNN for query *points*, which need not belong to `cloud` (feature
/// propagation's fine points against the coarse cloud): `out` holds
/// `queries.len()` rows of `k` indices, each ascending by distance, ties by
/// index. The oracle of [`crate::MortonOctree::knn_points_into`]; the same
/// scan body as [`knn_indices`].
///
/// # Panics
///
/// Panics if `out.len() != queries.len() * k` or `k` is out of range.
pub fn knn_points_into(cloud: &PointCloud, queries: &[Point3], k: usize, out: &mut [usize]) {
    assert_eq!(out.len(), queries.len() * k, "one {k}-wide row per query point");
    knn_scan(cloud, queries, |p| p, k, out);
}

/// The scan's one kNN body: every point of `cloud` offered to the bounded
/// selection of each query point `at(q)`, rows written into `slots`.
fn knn_scan<Q: Copy + Sync>(
    cloud: &PointCloud,
    queries: &[Q],
    at: impl Fn(Q) -> Point3 + Sync,
    k: usize,
    slots: &mut [usize],
) {
    assert!(k > 0 && k <= cloud.len(), "k = {k} out of range for {} points", cloud.len());
    let n = cloud.len();
    batch_into(slots, queries, k, n * 8, &mut Vec::new(), |best, q, slot| {
        let query = at(q);
        best.clear();
        for (i, &p) in cloud.points().iter().enumerate() {
            push_bounded(best, k, Candidate { index: i, dist_sq: p.distance_squared(query) });
        }
        for (s, c) in slot.iter_mut().zip(best.iter()) {
            *s = c.index;
        }
        n as u64
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};

    #[test]
    fn nearest_neighbor_of_member_query_is_itself() {
        let cloud = sample_shape(ShapeClass::Sphere, 128, 3);
        let nit = knn_indices(&cloud, &[5, 17, 99], 4);
        for (entry, &q) in (0..3).zip(&[5usize, 17, 99]) {
            assert_eq!(nit.neighbors(entry)[0], q, "self must be first neighbor");
            assert_eq!(nit.centroid(entry), q);
        }
    }

    #[test]
    fn results_are_sorted_by_distance() {
        let cloud = sample_shape(ShapeClass::Chair, 200, 1);
        let nit = knn_indices(&cloud, &[0], 10);
        let dist = |i: usize| cloud.point(i).distance_squared(cloud.point(0));
        for w in nit.neighbors(0).windows(2) {
            assert!(dist(w[0]) <= dist(w[1]));
        }
    }

    #[test]
    fn knn_matches_full_sort() {
        let cloud = sample_shape(ShapeClass::Guitar, 64, 9);
        let q = cloud.point(10);
        let mut all: Vec<Candidate> = cloud
            .points()
            .iter()
            .enumerate()
            .map(|(i, &p)| Candidate { index: i, dist_sq: p.distance_squared(q) })
            .collect();
        all.sort_by(by_key);
        let want: Vec<usize> = all[..7].iter().map(|c| c.index).collect();
        assert_eq!(knn_indices(&cloud, &[10], 7).neighbors(0), want.as_slice());
    }

    #[test]
    fn k_equals_n_returns_everything() {
        let cloud = sample_shape(ShapeClass::Cube, 16, 2);
        let mut idx = knn_indices(&cloud, &[0], 16).neighbors(0).to_vec();
        idx.sort_unstable();
        assert_eq!(idx, (0..16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn k_larger_than_n_panics() {
        let cloud = sample_shape(ShapeClass::Cube, 8, 2);
        let _ = knn_indices(&cloud, &[0], 9);
    }

    #[test]
    fn tie_break_is_by_index() {
        // Four identical points: neighbors must come back in index order,
        // whichever of them asks.
        let cloud = PointCloud::from_points(vec![mesorasi_pointcloud::Point3::ORIGIN; 4]);
        assert_eq!(knn_indices(&cloud, &[3], 3).neighbors(0), &[0, 1, 2]);
    }
}
