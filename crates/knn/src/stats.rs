//! Neighborhood membership statistics (reproduces Fig. 6).
//!
//! The paper's memory analysis (§III-B) rests on one observation: *the same
//! input point occurs in many neighborhoods*, and the original algorithm
//! re-normalizes (and therefore re-computes features for) the point once per
//! neighborhood. Fig. 6 plots, per input cloud, how many points (`y`) occur
//! in exactly `x` neighborhoods. These helpers compute that distribution
//! from one or more [`NeighborIndexTable`]s so the `fig06` experiment can
//! regenerate the plot's data.

use crate::NeighborIndexTable;

/// Search-traffic counters accumulated by a [`crate::index::SearchContext`]:
/// how much index-build vs query work real inference traffic performs, and
/// how many pairwise distance evaluations the searches actually ran
/// (the quantity the GPU cost model charges, here measured instead of
/// assumed). Plain fields, no global state — each context owns its own
/// counters, and the bench harness reads them off the serving session, so
/// Fig. 6-style overlap analysis can run against production-shaped traffic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchCounters {
    /// Octrees (re)built; feature-space scans have nothing to build.
    pub index_builds: u64,
    /// Wall time spent building indices, in nanoseconds.
    pub index_build_ns: u64,
    /// Batched query calls answered (one per module search or
    /// interpolation stencil): coordinate searches on the octree and
    /// feature-space row scans alike.
    pub query_calls: u64,
    /// Individual queries answered across all calls — centroids, and the
    /// fine points of interpolation stencils.
    pub queries: u64,
    /// Wall time spent answering queries, in nanoseconds.
    pub query_ns: u64,
    /// Pairwise distance evaluations performed by the searches.
    pub distance_evals: u64,
    /// Rows handed to exact ranking by feature-space scans: the rows the
    /// Gram bound could not rule out, plus every row of a query that took
    /// the exhaustive path. Coordinate searches add nothing.
    pub ranked: u64,
}

impl SearchCounters {
    /// Accumulates `other` into `self` (sessions sum their workers).
    pub fn add(&mut self, other: &SearchCounters) {
        self.index_builds += other.index_builds;
        self.index_build_ns += other.index_build_ns;
        self.query_calls += other.query_calls;
        self.queries += other.queries;
        self.query_ns += other.query_ns;
        self.distance_evals += other.distance_evals;
        self.ranked += other.ranked;
    }

    /// `self - baseline`, for measuring a traffic window between two
    /// snapshots. Saturates at zero (snapshots from the same context are
    /// monotonic, so saturation only absorbs caller mistakes).
    pub fn since(&self, baseline: &SearchCounters) -> SearchCounters {
        SearchCounters {
            index_builds: self.index_builds.saturating_sub(baseline.index_builds),
            index_build_ns: self.index_build_ns.saturating_sub(baseline.index_build_ns),
            query_calls: self.query_calls.saturating_sub(baseline.query_calls),
            queries: self.queries.saturating_sub(baseline.queries),
            query_ns: self.query_ns.saturating_sub(baseline.query_ns),
            distance_evals: self.distance_evals.saturating_sub(baseline.distance_evals),
            ranked: self.ranked.saturating_sub(baseline.ranked),
        }
    }
}

/// Counts, for each input point, the number of NIT entries (neighborhoods)
/// it appears in. Duplicate occurrences within one entry (ball-query
/// padding) are counted once per entry, matching the figure's definition of
/// "occurs in a neighborhood".
///
/// # Panics
///
/// Panics if the NIT references an index `>= n_points`.
pub fn membership_counts(nit: &NeighborIndexTable, n_points: usize) -> Vec<u32> {
    if let Some(max) = nit.max_index() {
        assert!(max < n_points, "NIT references point {max} outside 0..{n_points}");
    }
    let mut counts = vec![0u32; n_points];
    let mut seen_entry = vec![usize::MAX; n_points];
    for (entry_idx, (_, neighbors)) in nit.iter().enumerate() {
        for &n in neighbors {
            if seen_entry[n] != entry_idx {
                seen_entry[n] = entry_idx;
                counts[n] += 1;
            }
        }
    }
    counts
}

/// Accumulates membership counts across the modules of one network run —
/// the figure profiles whole-network behaviour, and deeper modules reuse
/// points from earlier ones.
pub fn accumulate_membership(tables: &[(&NeighborIndexTable, usize)]) -> Vec<u32> {
    let n = tables.iter().map(|&(_, n)| n).max().unwrap_or(0);
    let mut total = vec![0u32; n];
    for &(nit, n_points) in tables {
        for (i, c) in membership_counts(nit, n_points).into_iter().enumerate() {
            total[i] += c;
        }
    }
    total
}

/// Share of points whose membership count is at least `threshold` — the
/// paper summarizes Fig. 6 as "over half occur in more than 30
/// neighborhoods" (PointNet++) / "over half in 20" (DGCNN).
pub fn fraction_at_least(counts: &[u32], threshold: u32) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    counts.iter().filter(|&&c| c >= threshold).count() as f64 / counts.len() as f64
}

/// Mean membership count. The paper's Fig. 3 caption: "most points are
/// normalized to 20 to 100 centroids".
pub fn mean_membership(counts: &[u32]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    counts.iter().map(|&c| c as f64).sum::<f64>() / counts.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_nit() -> NeighborIndexTable {
        let mut nit = NeighborIndexTable::new(2);
        nit.push_entry(0, &[0, 2]); // point 2 in neighborhood of 0
        nit.push_entry(1, &[1, 2]); // point 2 again
        nit.push_entry(3, &[3, 3]); // padded entry: 3 counted once
        nit
    }

    #[test]
    fn ranked_is_summed_and_windowed() {
        let a = SearchCounters { queries: 2, ranked: 41, ..SearchCounters::default() };
        let mut total = a;
        total.add(&SearchCounters { ranked: 20, ..a });
        assert_eq!((total.queries, total.ranked), (4, 61));
        assert_eq!(total.since(&a).ranked, 20);
        assert_eq!(a.since(&total).ranked, 0, "saturates");
    }

    #[test]
    fn membership_counts_toy() {
        let counts = membership_counts(&toy_nit(), 4);
        assert_eq!(counts, vec![1, 1, 2, 1]);
    }

    #[test]
    fn padded_duplicates_count_once_per_entry() {
        let mut nit = NeighborIndexTable::new(4);
        nit.push_entry(0, &[0, 0, 0, 0]);
        let counts = membership_counts(&nit, 1);
        assert_eq!(counts, vec![1]);
    }

    #[test]
    fn fraction_and_mean() {
        let counts = vec![1, 2, 3, 4];
        assert_eq!(fraction_at_least(&counts, 3), 0.5);
        assert_eq!(mean_membership(&counts), 2.5);
        assert_eq!(fraction_at_least(&[], 1), 0.0);
        assert_eq!(mean_membership(&[]), 0.0);
    }

    #[test]
    fn accumulate_sums_across_modules() {
        let nit = toy_nit();
        let total = accumulate_membership(&[(&nit, 4), (&nit, 4)]);
        assert_eq!(total, vec![2, 2, 4, 2]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_index_panics() {
        let mut nit = NeighborIndexTable::new(1);
        nit.push_entry(9, &[9]);
        let _ = membership_counts(&nit, 4);
    }

    #[test]
    fn realistic_overlap_statistics() {
        // PointNet++-like first module: 512 centroids, K=32, from 1024 pts.
        use mesorasi_pointcloud::sampling::random_indices;
        use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
        let cloud = sample_shape(ShapeClass::Chair, 1024, 3);
        let centroids = random_indices(&cloud, 512, 1);
        let nit = crate::bruteforce::knn_indices(&cloud, &centroids, 32);
        let counts = membership_counts(&nit, 1024);
        let mean = mean_membership(&counts);
        // 512 × 32 memberships spread over 1024 points = 16 on average.
        assert!((mean - 16.0).abs() < 1.0, "mean membership {mean}");
        // Substantial overlap must exist (points in many neighborhoods).
        assert!(fraction_at_least(&counts, 20) > 0.1);
    }
}
