//! Exact KNN by exhaustive search.
//!
//! This is the reference against which the octree is tested, and the
//! algorithm whose cost the GPU model charges for neighbor search: GPU
//! point-cloud implementations (including the paper's baselines) compute a
//! dense pairwise-distance matrix and select the top-K, because that maps
//! well onto GPU execution even though it does more work than a tree.

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

/// Selects the `k` smallest candidates (by distance, ties by index) from an
/// unsorted list, in ascending order.
pub(crate) fn select_k_smallest(candidates: &mut Vec<Candidate>, k: usize) -> Vec<Candidate> {
    let mut best: Vec<Candidate> = Vec::with_capacity(k + 1);
    for &c in candidates.iter() {
        push_bounded(&mut best, k, c);
    }
    candidates.clear();
    best
}

/// Finds the `k` nearest neighbors (including the query point itself if it
/// belongs to the cloud) of one explicit query point.
///
/// # Panics
///
/// Panics if `k` exceeds the cloud size or the cloud is empty.
pub fn knn_point(cloud: &PointCloud, query: Point3, k: usize) -> Vec<Candidate> {
    assert!(k > 0 && k <= cloud.len(), "k = {k} out of range for {} points", cloud.len());
    let mut candidates: Vec<Candidate> = cloud
        .points()
        .iter()
        .enumerate()
        .map(|(i, &p)| Candidate { index: i, dist_sq: p.distance_squared(query) })
        .collect();
    select_k_smallest(&mut candidates, k)
}

/// Runs KNN for every centroid in `queries` (indices into `cloud`) and
/// collects the results into a [`NeighborIndexTable`]. Queries are searched
/// in parallel (each is an independent exhaustive scan). A thin wrapper
/// over [`crate::index::BruteForceIndex`]'s `knn_into`, so the reference
/// path and the pluggable backend cannot diverge.
///
/// Matches the paper's module semantics: the query set is a subset of the
/// input points ("the neighbor search might be applied to only a subset of
/// the input points", §III-A), and each point is its own nearest neighbor.
///
/// # Panics
///
/// Panics if any query index is out of bounds or `k > cloud.len()`.
pub fn knn_indices(cloud: &PointCloud, queries: &[usize], k: usize) -> NeighborIndexTable {
    use crate::index::SearchIndex;
    let mut out = NeighborIndexTable::default();
    crate::index::BruteForceIndex::default().knn_into(cloud, queries, k, &mut out);
    out
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
        let found = knn_point(&cloud, cloud.point(0), 10);
        for w in found.windows(2) {
            assert!(w[0].dist_sq <= w[1].dist_sq);
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
        all.sort_by(|a, b| a.key().partial_cmp(&b.key()).unwrap());
        let got = knn_point(&cloud, q, 7);
        let want: Vec<usize> = all[..7].iter().map(|c| c.index).collect();
        let got_idx: Vec<usize> = got.iter().map(|c| c.index).collect();
        assert_eq!(got_idx, want);
    }

    #[test]
    fn k_equals_n_returns_everything() {
        let cloud = sample_shape(ShapeClass::Cube, 16, 2);
        let found = knn_point(&cloud, cloud.point(0), 16);
        let mut idx: Vec<usize> = found.iter().map(|c| c.index).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn k_larger_than_n_panics() {
        let cloud = sample_shape(ShapeClass::Cube, 8, 2);
        let _ = knn_point(&cloud, cloud.point(0), 9);
    }

    #[test]
    fn tie_break_is_by_index() {
        // Four identical points: neighbors must come back in index order.
        let cloud = PointCloud::from_points(vec![Point3::ORIGIN; 4]);
        let found = knn_point(&cloud, Point3::ORIGIN, 3);
        let idx: Vec<usize> = found.iter().map(|c| c.index).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }
}
