//! Uniform-grid neighbor search — the backend real-time pipelines use for
//! fixed-radius queries (cell size = radius ⇒ only 27 cells to scan).
//!
//! Results are identical to [`crate::kdtree`]'s radius queries and to the
//! padded [`crate::ball`] semantics; the grid trades build simplicity and
//! cache-friendly scans for the kd-tree's generality. The cells are stored
//! as one sorted `(cell key, point index)` vector rather than a hash map of
//! per-cell vectors, so [`SearchIndex::build_into`] rebuilds over a new
//! cloud in place — same-sized frames rebuild without allocating — and a
//! cell lookup is two binary searches over a contiguous array.

use crate::bruteforce::Candidate;
use crate::index::SearchIndex;
use crate::kdtree::sort_candidates;
use crate::planner::SearchBackend;
use crate::NeighborIndexTable;
use mesorasi_pointcloud::{Aabb, Point3, PointCloud};

/// A uniform grid with cell edge `cell_size` over a cloud.
#[derive(Debug)]
pub struct UniformGrid {
    bounds: Aabb,
    cell_size: f32,
    dims: [usize; 3],
    /// `(cell key, point index)`, sorted — all members of one cell are a
    /// contiguous run, in ascending point order.
    entries: Vec<(u64, u32)>,
    occupied: usize,
    /// Sequential-query candidate scratch (parallel chunks use their own).
    scratch: Vec<Candidate>,
}

impl Default for UniformGrid {
    /// An unbuilt grid with no configured cell size; call
    /// [`UniformGrid::set_cell_size`] then [`SearchIndex::build_into`].
    fn default() -> Self {
        UniformGrid {
            bounds: Aabb::from_points([Point3::ORIGIN]).expect("one point"),
            cell_size: 0.0,
            dims: [1, 1, 1],
            entries: Vec::new(),
            occupied: 0,
            scratch: Vec::new(),
        }
    }
}

impl UniformGrid {
    /// Builds a grid over `cloud` with the given cell edge length.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size <= 0` or the cloud is empty.
    pub fn build(cloud: &PointCloud, cell_size: f32) -> Self {
        let mut grid = UniformGrid::default();
        grid.set_cell_size(cell_size);
        grid.build_into(cloud);
        grid
    }

    /// Configures the cell edge length used by the next
    /// [`SearchIndex::build_into`]. Radius queries are exact as long as the
    /// query radius does not exceed this (the planner builds one grid per
    /// `(cloud, radius)` with `cell_size = radius`).
    ///
    /// # Panics
    ///
    /// Panics if `cell_size <= 0` or not finite.
    pub fn set_cell_size(&mut self, cell_size: f32) {
        assert!(cell_size > 0.0 && cell_size.is_finite(), "cell size must be positive");
        self.cell_size = cell_size;
    }

    fn coords(&self, p: Point3) -> [isize; 3] {
        let min = self.bounds.min();
        let c = |v: f32, lo: f32, d: usize| -> isize {
            (((v - lo) / self.cell_size) as isize).clamp(0, d as isize - 1)
        };
        [c(p.x, min.x, self.dims[0]), c(p.y, min.y, self.dims[1]), c(p.z, min.z, self.dims[2])]
    }

    fn key(&self, c: [isize; 3]) -> u64 {
        ((c[0] as u64) * self.dims[1] as u64 + c[1] as u64) * self.dims[2] as u64 + c[2] as u64
    }

    /// The members of the cell with `key`, in ascending point order.
    fn cell_members(&self, key: u64) -> &[(u64, u32)] {
        let lo = self.entries.partition_point(|e| e.0 < key);
        let hi = lo + self.entries[lo..].partition_point(|e| e.0 == key);
        &self.entries[lo..hi]
    }

    /// Number of occupied cells.
    pub fn occupied_cells(&self) -> usize {
        self.occupied
    }

    /// All points within `radius` of `query`, ascending by distance (ties
    /// by index). Exact as long as `radius <= cell_size`; larger radii scan
    /// proportionally more cells.
    pub fn within_radius(&self, cloud: &PointCloud, query: Point3, radius: f32) -> Vec<Candidate> {
        let mut found = Vec::new();
        self.within_radius_into(cloud, query, radius, &mut found);
        found
    }

    /// [`UniformGrid::within_radius`] writing into a caller-owned vector.
    /// Returns the number of distance evaluations.
    pub fn within_radius_into(
        &self,
        cloud: &PointCloud,
        query: Point3,
        radius: f32,
        found: &mut Vec<Candidate>,
    ) -> u64 {
        assert!(radius >= 0.0, "radius must be non-negative");
        found.clear();
        let reach = (radius / self.cell_size).ceil() as isize;
        let center = self.coords(query);
        let r2 = radius * radius;
        let mut evals = 0u64;
        for dx in -reach..=reach {
            for dy in -reach..=reach {
                for dz in -reach..=reach {
                    let c = [center[0] + dx, center[1] + dy, center[2] + dz];
                    if c.iter().zip(&self.dims).any(|(&v, &d)| v < 0 || v >= d as isize) {
                        continue;
                    }
                    for &(_, i) in self.cell_members(self.key(c)) {
                        let d = cloud.point(i as usize).distance_squared(query);
                        evals += 1;
                        if d <= r2 {
                            found.push(Candidate { index: i as usize, dist_sq: d });
                        }
                    }
                }
            }
        }
        sort_candidates(found);
        evals
    }

    /// Padded ball query over member-point centroids — same semantics as
    /// [`crate::ball::ball_query`], different backend. Parallel per query
    /// (the cell scan is read-only). The allocating form of
    /// [`SearchIndex::ball_into`] — both run the same batch body.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or a query index is out of bounds.
    pub fn ball_query(
        &self,
        cloud: &PointCloud,
        queries: &[usize],
        radius: f32,
        k: usize,
    ) -> NeighborIndexTable {
        let mut out = NeighborIndexTable::default();
        self.ball_batch(cloud, queries, radius, k, &mut Vec::new(), &mut out);
        out
    }

    /// The padded-ball batch body, with caller-owned sequential-path
    /// scratch.
    fn ball_batch(
        &self,
        cloud: &PointCloud,
        queries: &[usize],
        radius: f32,
        k: usize,
        scratch: &mut Vec<Candidate>,
        out: &mut NeighborIndexTable,
    ) -> u64 {
        assert!(k > 0, "k must be positive");
        assert!(radius >= 0.0, "radius must be non-negative");
        let cost = self.per_query_cost(cloud.len());
        crate::kdtree::batch_into(out, queries, k, cost, scratch, |found, q, slot| {
            let evals = self.within_radius_into(cloud, cloud.point(q), radius, found);
            crate::ball::pad_slot(found, slot);
            evals
        })
    }

    /// Nominal per-query scan work: 27 cells of average occupancy.
    fn per_query_cost(&self, n_points: usize) -> usize {
        27 * n_points.div_ceil(self.occupied.max(1)) * 8
    }
}

impl SearchIndex for UniformGrid {
    /// Binning is an in-place unstable sort over reused entry storage, so
    /// same-sized frames rebuild with zero allocations.
    ///
    /// # Panics
    ///
    /// Panics if the cloud is empty or [`UniformGrid::set_cell_size`] was
    /// never called — the grid's resolution is configuration, not
    /// derivable from the cloud.
    fn build_into(&mut self, cloud: &PointCloud) {
        assert!(self.cell_size > 0.0, "set_cell_size before build_into");
        assert!(cloud.len() <= u32::MAX as usize, "grid point indices are 32-bit");
        self.bounds = cloud.bounds().expect("cannot index an empty cloud");
        let extent = self.bounds.extent();
        // A zero-extent cloud (all points coincident) degenerates to a
        // single cell; `max(1)` keeps every dimension valid.
        let dim = |e: f32| ((e / self.cell_size).ceil() as usize).max(1);
        self.dims = [dim(extent.x), dim(extent.y), dim(extent.z)];
        let mut entries = std::mem::take(&mut self.entries);
        entries.clear();
        entries.extend(
            cloud.points().iter().enumerate().map(|(i, &p)| (self.key(self.coords(p)), i as u32)),
        );
        self.entries = entries;
        // Sort by (cell, point index): cells become contiguous runs and
        // members stay in ascending point order — the same order the old
        // hash-map insertion produced.
        self.entries.sort_unstable();
        self.occupied = count_runs(&self.entries);
    }

    /// The grid cannot answer kNN exactly (a neighborhood may extend past
    /// the scanned cells); the planner never routes kNN here.
    fn knn_into(
        &mut self,
        _cloud: &PointCloud,
        _queries: &[usize],
        _k: usize,
        _out: &mut NeighborIndexTable,
    ) -> u64 {
        panic!("the uniform grid serves radius (ball) queries only; plan kNN on another backend");
    }

    /// # Panics
    ///
    /// Panics if `k == 0`, `radius < 0`, or a query index is out of bounds.
    fn ball_into(
        &mut self,
        cloud: &PointCloud,
        queries: &[usize],
        radius: f32,
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64 {
        let mut scratch = std::mem::take(&mut self.scratch);
        let evals = self.ball_batch(cloud, queries, radius, k, &mut scratch, out);
        self.scratch = scratch;
        evals
    }

    fn storage_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u64, u32)>()
            + self.scratch.capacity() * std::mem::size_of::<Candidate>()
    }

    fn kind(&self) -> SearchBackend {
        SearchBackend::Grid
    }
}

/// Number of distinct keys in a sorted `(key, _)` slice.
fn count_runs(entries: &[(u64, u32)]) -> usize {
    let mut runs = 0;
    let mut prev = None;
    for &(k, _) in entries {
        if prev != Some(k) {
            runs += 1;
            prev = Some(k);
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ball, kdtree::KdTree};
    use mesorasi_pointcloud::sampling::random_indices;
    use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};

    #[test]
    fn radius_query_matches_kdtree() {
        let cloud = sample_shape(ShapeClass::Chair, 300, 1);
        let grid = UniformGrid::build(&cloud, 0.25);
        let tree = KdTree::build(&cloud);
        for &q in &[0usize, 57, 123, 299] {
            let a = grid.within_radius(&cloud, cloud.point(q), 0.25);
            let b = tree.within_radius(&cloud, cloud.point(q), 0.25);
            assert_eq!(a, b, "query {q}");
        }
    }

    #[test]
    fn ball_query_matches_kdtree_backend() {
        let cloud = sample_shape(ShapeClass::Lamp, 256, 2);
        let grid = UniformGrid::build(&cloud, 0.2);
        let tree = KdTree::build(&cloud);
        let queries = random_indices(&cloud, 64, 1);
        let a = grid.ball_query(&cloud, &queries, 0.2, 16);
        let b = ball::ball_query(&cloud, &tree, &queries, 0.2, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn ball_into_matches_ball_query() {
        let cloud = sample_shape(ShapeClass::Chair, 200, 9);
        let mut grid = UniformGrid::build(&cloud, 0.3);
        let queries = random_indices(&cloud, 50, 2);
        let want = grid.ball_query(&cloud, &queries, 0.3, 12);
        let mut got = NeighborIndexTable::default();
        let evals = grid.ball_into(&cloud, &queries, 0.3, 12, &mut got);
        assert_eq!(got, want);
        assert!(evals > 0);
    }

    #[test]
    fn build_into_reuses_storage_across_same_sized_clouds() {
        let a = sample_shape(ShapeClass::Chair, 256, 1);
        let b = sample_shape(ShapeClass::Sphere, 256, 2);
        let mut grid = UniformGrid::build(&a, 0.25);
        let bytes = grid.storage_bytes();
        grid.build_into(&b);
        assert_eq!(grid.storage_bytes(), bytes, "same-sized rebuild must not grow storage");
        let tree = KdTree::build(&b);
        let got = grid.within_radius(&b, b.point(17), 0.25);
        assert_eq!(got, tree.within_radius(&b, b.point(17), 0.25));
    }

    #[test]
    fn radius_larger_than_cell_still_exact() {
        let cloud = sample_shape(ShapeClass::Sphere, 200, 3);
        let grid = UniformGrid::build(&cloud, 0.1);
        let tree = KdTree::build(&cloud);
        let a = grid.within_radius(&cloud, cloud.point(5), 0.45);
        let b = tree.within_radius(&cloud, cloud.point(5), 0.45);
        assert_eq!(a, b);
    }

    #[test]
    fn occupied_cells_bounded_by_points() {
        let cloud = sample_shape(ShapeClass::Cube, 128, 4);
        let grid = UniformGrid::build(&cloud, 0.3);
        assert!(grid.occupied_cells() <= 128);
        assert!(grid.occupied_cells() > 1);
    }

    #[test]
    fn zero_radius_finds_exact_duplicates_only() {
        let cloud = sample_shape(ShapeClass::Cone, 64, 5);
        let grid = UniformGrid::build(&cloud, 0.2);
        let found = grid.within_radius(&cloud, cloud.point(7), 0.0);
        assert!(found.iter().any(|c| c.index == 7));
        assert!(found.iter().all(|c| c.dist_sq == 0.0));
    }

    #[test]
    fn coincident_points_collapse_to_one_cell() {
        // Zero-extent AABB: every point lands in the single valid cell and
        // ball queries still answer exactly (the satellite audit case).
        let cloud = PointCloud::from_points(vec![Point3::new(0.5, -1.0, 2.0); 40]);
        let grid = UniformGrid::build(&cloud, 0.2);
        assert_eq!(grid.occupied_cells(), 1);
        let nit = grid.ball_query(&cloud, &[0, 7], 0.2, 5);
        assert_eq!(nit.neighbors(0), &[0, 1, 2, 3, 4]);
        assert_eq!(nit.neighbors(1), &[0, 1, 2, 3, 4]);
    }
}
