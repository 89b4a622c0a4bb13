//! Ball (radius) query with padding — PointNet++'s grouping operator.
//!
//! PointNet++ groups up to `K` points within a fixed radius of each
//! centroid. When a neighborhood holds fewer than `K` points, the first
//! found index is repeated to pad the group to exactly `K` (the original
//! implementation's behaviour). This padding is why Fig. 6's membership
//! counts can exceed what pure KNN would produce in dense regions.

use crate::index::{BruteForceIndex, SearchIndex};
use crate::NeighborIndexTable;
use mesorasi_pointcloud::PointCloud;

/// Writes the nearest `min(found.len(), k)` candidate indices into `slot`
/// (`k` wide), padding the remainder with the first index — the original
/// implementation's behaviour for sparse neighborhoods. `found` must be
/// sorted ascending: every in-range point (the scan), or the octree's
/// survivors, which always include the `k` nearest.
pub(crate) fn pad_slot(found: &[crate::bruteforce::Candidate], slot: &mut [usize]) {
    debug_assert!(!found.is_empty(), "centroid always finds itself");
    let take = found.len().min(slot.len());
    for (s, c) in slot[..take].iter_mut().zip(found) {
        *s = c.index;
    }
    let pad = found[0].index;
    for s in &mut slot[take..] {
        *s = pad;
    }
}

/// Runs a padded ball query for every centroid in `queries`, in parallel
/// per query — the ball-query oracle, beside
/// [`crate::bruteforce::knn_indices`].
///
/// For each centroid, collects at most `k` points within `radius`
/// (ascending by distance; the centroid itself, at distance 0, is first) and
/// pads with the nearest found index up to exactly `k` entries. A centroid
/// always finds at least itself, so entries are never empty. A thin wrapper
/// over [`BruteForceIndex`]'s `ball_into`, so the reference path and the
/// pluggable scan cannot diverge: it gathers *every* in-range point and
/// sorts them all — the plain collect-and-sort definition that the
/// octree's bounded selection, which keeps only what it can return, is
/// tested against.
///
/// # Panics
///
/// Panics if `k == 0`, `radius < 0`, or a query index is out of bounds.
pub fn ball_query(
    cloud: &PointCloud,
    queries: &[usize],
    radius: f32,
    k: usize,
) -> NeighborIndexTable {
    let mut out = NeighborIndexTable::default();
    BruteForceIndex::default().ball_into(cloud, queries, radius, k, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
    use mesorasi_pointcloud::{Point3, PointCloud};

    #[test]
    fn sparse_region_pads_with_first_index() {
        // Two tight clusters far apart; querying a point in the small
        // cluster with a small radius must pad.
        let mut pts = vec![Point3::new(0.0, 0.0, 0.0), Point3::new(0.01, 0.0, 0.0)];
        for i in 0..30 {
            pts.push(Point3::new(10.0 + 0.01 * i as f32, 0.0, 0.0));
        }
        let cloud = PointCloud::from_points(pts);
        let nit = ball_query(&cloud, &[0], 0.5, 8);
        let n = nit.neighbors(0);
        assert_eq!(n[0], 0);
        assert_eq!(n[1], 1);
        // The remaining 6 slots are padded with index 0.
        assert!(n[2..].iter().all(|&i| i == 0));
    }

    #[test]
    fn dense_region_truncates_to_k_nearest() {
        let cloud = sample_shape(ShapeClass::Sphere, 512, 3);
        let nit = ball_query(&cloud, &[0], 2.5, 16); // radius covers everything
        let n = nit.neighbors(0);
        assert_eq!(n.len(), 16);
        // Must equal the 16 nearest by KNN.
        let knn = crate::bruteforce::knn_indices(&cloud, &[0], 16);
        assert_eq!(n, knn.neighbors(0));
    }

    #[test]
    fn centroid_is_always_first() {
        let cloud = sample_shape(ShapeClass::Table, 256, 1);
        let queries: Vec<usize> = (0..256).step_by(31).collect();
        let nit = ball_query(&cloud, &queries, 0.2, 8);
        for (i, &q) in queries.iter().enumerate() {
            assert_eq!(nit.neighbors(i)[0], q);
        }
    }

    #[test]
    fn padding_inflates_membership_counts() {
        // The Fig. 6 effect: with padding, a point in a sparse region can
        // appear many times within one entry.
        let cloud = PointCloud::from_points(vec![Point3::ORIGIN, Point3::new(100.0, 0.0, 0.0)]);
        let nit = ball_query(&cloud, &[0], 1.0, 4);
        let occurrences = nit.neighbors(0).iter().filter(|&&i| i == 0).count();
        assert_eq!(occurrences, 4);
    }
}
