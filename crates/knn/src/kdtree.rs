//! A kd-tree for exact 3-D KNN and radius queries.
//!
//! The functional executors run neighbor search many times per network; the
//! kd-tree keeps that tractable on the CPU. Results are bit-identical to
//! [`crate::bruteforce`] (same distance metric, same index tie-breaking), so
//! either can back the executor — the simulator charges GPU brute-force
//! cost regardless of which structure produced the indices.
//!
//! The tree stores its nodes in a flat `Vec` (leaves reference ranges of a
//! single index permutation) so [`SearchIndex::build_into`] can rebuild
//! over a new cloud **in place**: same-sized clouds produce the same node
//! layout, so a streaming frame sequence rebuilds contents without touching
//! the allocator.

use crate::bruteforce::{push_bounded, Candidate};
use crate::index::SearchIndex;
use crate::planner::SearchBackend;
use crate::NeighborIndexTable;
use mesorasi_pointcloud::{Point3, PointCloud};

/// Leaf size below which nodes stop splitting; 16 balances build and query
/// cost for the 1K–130K point clouds used here.
const LEAF_SIZE: usize = 16;

/// One flat tree node. A split's left child is the next node in the vec
/// (pre-order layout); only the right child needs an explicit link.
#[derive(Debug, Clone, Copy)]
enum Node {
    Leaf {
        /// Range `start..start + len` of the items permutation.
        start: u32,
        /// Number of points in the leaf.
        len: u32,
    },
    Split {
        axis: u8,
        value: f32,
        right: u32,
    },
}

/// A kd-tree over a point cloud with reusable storage.
///
/// # Example
///
/// ```
/// use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
/// use mesorasi_knn::kdtree::KdTree;
///
/// let cloud = sample_shape(ShapeClass::Torus, 512, 3);
/// let tree = KdTree::build(&cloud);
/// let nn = tree.knn(&cloud, cloud.point(7), 1);
/// assert_eq!(nn[0].index, 7); // a member point is its own nearest neighbor
/// ```
#[derive(Debug, Default)]
pub struct KdTree {
    nodes: Vec<Node>,
    /// Permutation of `0..size`; leaves own disjoint ranges of it.
    items: Vec<usize>,
    size: usize,
    /// Sequential-query candidate scratch (parallel chunks use their own).
    scratch: Vec<Candidate>,
}

impl KdTree {
    /// Builds a tree over `cloud` in O(n log² n).
    ///
    /// An empty cloud yields a tree whose queries panic (callers check).
    pub fn build(cloud: &PointCloud) -> Self {
        let mut tree = KdTree::default();
        tree.build_into(cloud);
        tree
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.size
    }

    /// True when the tree indexes no points.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Exact `k` nearest neighbors of `query`, ascending by distance with
    /// index tie-breaking — identical ordering to the brute-force search.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > self.len()`.
    pub fn knn(&self, cloud: &PointCloud, query: Point3, k: usize) -> Vec<Candidate> {
        assert!(k > 0 && k <= self.size, "k = {k} out of range for {} points", self.size);
        let mut best: Vec<Candidate> = Vec::with_capacity(k + 1);
        let mut evals = 0u64;
        search(&self.nodes, &self.items, 0, cloud.points(), query, k, &mut best, &mut evals);
        best
    }

    /// KNN for a batch of member-point queries, as a [`NeighborIndexTable`].
    /// Queries run in parallel (tree descent is read-only). The allocating
    /// form of [`SearchIndex::knn_into`] — both run the same batch body.
    pub fn knn_indices(
        &self,
        cloud: &PointCloud,
        queries: &[usize],
        k: usize,
    ) -> NeighborIndexTable {
        let mut out = NeighborIndexTable::default();
        self.knn_batch(cloud, queries, k, &mut Vec::new(), &mut out);
        out
    }

    /// The kNN batch body, with caller-owned sequential-path scratch.
    fn knn_batch(
        &self,
        cloud: &PointCloud,
        queries: &[usize],
        k: usize,
        scratch: &mut Vec<Candidate>,
        out: &mut NeighborIndexTable,
    ) -> u64 {
        assert!(k > 0 && k <= self.size, "k = {k} out of range for {} points", self.size);
        let (nodes, items) = (&self.nodes, &self.items);
        batch_into(out, queries, k, per_query_cost(self.size, k), scratch, |best, q, slot| {
            best.clear();
            let mut evals = 0u64;
            search(nodes, items, 0, cloud.points(), cloud.point(q), k, best, &mut evals);
            for (s, c) in slot.iter_mut().zip(best.iter()) {
                *s = c.index;
            }
            evals
        })
    }

    /// The padded-ball batch body with caller-owned scratch — what
    /// [`SearchIndex::ball_into`] and [`crate::ball::ball_query`] both run.
    pub(crate) fn ball_batch(
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
        let (nodes, items) = (&self.nodes, &self.items);
        let r2 = radius * radius;
        batch_into(out, queries, k, per_query_cost(self.size, k), scratch, |found, q, slot| {
            found.clear();
            let mut evals = 0u64;
            radius_search(nodes, items, 0, cloud.points(), cloud.point(q), r2, found, &mut evals);
            sort_candidates(found);
            crate::ball::pad_slot(found, slot);
            evals
        })
    }

    /// All points within `radius` of `query`, ascending by distance.
    pub fn within_radius(&self, cloud: &PointCloud, query: Point3, radius: f32) -> Vec<Candidate> {
        assert!(radius >= 0.0, "radius must be non-negative");
        let mut found = Vec::new();
        let mut evals = 0u64;
        radius_search(
            &self.nodes,
            &self.items,
            0,
            cloud.points(),
            query,
            radius * radius,
            &mut found,
            &mut evals,
        );
        sort_candidates(&mut found);
        found
    }
}

impl SearchIndex for KdTree {
    /// Clouds of equal size produce identical node layouts, so rebuilding
    /// over a same-sized frame performs zero allocations once the buffers
    /// are warm.
    fn build_into(&mut self, cloud: &PointCloud) {
        assert!(cloud.len() <= u32::MAX as usize, "kd-tree indices are 32-bit");
        self.size = cloud.len();
        self.items.clear();
        self.items.extend(0..cloud.len());
        self.nodes.clear();
        if !self.items.is_empty() {
            let mut items = std::mem::take(&mut self.items);
            build_node(cloud.points(), &mut items, 0, &mut self.nodes);
            self.items = items;
        }
    }

    /// # Panics
    ///
    /// Panics if `k == 0`, `k > self.len()`, or a query is out of bounds.
    fn knn_into(
        &mut self,
        cloud: &PointCloud,
        queries: &[usize],
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64 {
        // The scratch is a field of the struct the (shared) tree data
        // lives in: lend it out for the call.
        let mut scratch = std::mem::take(&mut self.scratch);
        let evals = self.knn_batch(cloud, queries, k, &mut scratch, out);
        self.scratch = scratch;
        evals
    }

    /// # Panics
    ///
    /// Panics if `k == 0`, `radius < 0`, or a query is out of bounds.
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
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.items.capacity() * std::mem::size_of::<usize>()
            + self.scratch.capacity() * std::mem::size_of::<Candidate>()
    }

    fn kind(&self) -> SearchBackend {
        SearchBackend::KdTree
    }
}

/// Sorts candidates ascending by `(distance, index)`. The key is unique per
/// candidate (indices are distinct), so the unstable sort — which does not
/// allocate, unlike `sort_by` — is fully deterministic.
pub(crate) fn sort_candidates(found: &mut [Candidate]) {
    found.sort_unstable_by(|a, b| {
        (a.dist_sq, a.index).partial_cmp(&(b.dist_sq, b.index)).expect("distances are finite")
    });
}

/// Shared out-parameter batch driver for index queries: fills
/// `out` with one entry per query, running `per_query(scratch, query, slot)`
/// (which returns its distance-evaluation count) sequentially with the
/// caller's reusable scratch, or in parallel chunks with per-worker pooled
/// scratch when the workload justifies it. Entries are written in query
/// order and every `per_query` body resets its scratch before use, so both
/// paths — at any chunk size — produce identical tables.
///
/// An ambient [`crate::with_query_tile_budget`] override replaces the cost
/// model's chunk choice with fixed-budget query tiles (clamped to the batch
/// size); a budget covering the whole batch runs sequentially.
pub(crate) fn batch_into(
    out: &mut NeighborIndexTable,
    queries: &[usize],
    k: usize,
    cost_per_query: usize,
    scratch: &mut Vec<Candidate>,
    per_query: impl Fn(&mut Vec<Candidate>, usize, &mut [usize]) -> u64 + Sync,
) -> u64 {
    let pool = crate::candidate_pool();
    batch_chunks_into(out, queries, k, cost_per_query, scratch, pool, |scratch, chunk, slots| {
        let slots = slots.chunks_exact_mut(k);
        chunk.iter().zip(slots).map(|(&q, slot)| per_query(scratch, q, slot)).sum()
    })
}

/// [`batch_into`] one level up: `per_chunk(scratch, queries, slots)` fills
/// the `k`-wide slots of a whole run of consecutive queries, for bodies
/// that work on several queries at once. The sequential path hands it the
/// whole batch with the caller's scratch, the parallel path one chunk per
/// call with the calling worker's slot of `pool`.
pub(crate) fn batch_chunks_into<S: Send>(
    out: &mut NeighborIndexTable,
    queries: &[usize],
    k: usize,
    cost_per_query: usize,
    scratch: &mut S,
    pool: &mesorasi_par::ScratchPool<S>,
    per_chunk: impl Fn(&mut S, &[usize], &mut [usize]) -> u64 + Sync,
) -> u64 {
    let entries = queries.len();
    let (cents, neighs) = out.fill_slots(k, entries);
    cents.copy_from_slice(queries);
    let chunk = match crate::query_tile_budget() {
        Some(budget) => budget.min(entries).max(1),
        None => mesorasi_par::chunk_len(entries, cost_per_query),
    };
    if chunk >= entries {
        per_chunk(scratch, queries, neighs)
    } else {
        let total = std::sync::atomic::AtomicU64::new(0);
        mesorasi_par::par_chunks_mut(neighs, chunk * k, |ci, slots| {
            let chunk_queries = &queries[ci * chunk..][..slots.len() / k];
            let evals = pool.with(|local| per_chunk(local, chunk_queries, slots));
            total.fetch_add(evals, std::sync::atomic::Ordering::Relaxed);
        });
        total.into_inner()
    }
}

/// Rough per-query work estimate for a tree descent — `O(k · log n)` leaf
/// scans plus backtracking — used to gate batch-query parallelism.
pub(crate) fn per_query_cost(size: usize, k: usize) -> usize {
    let depth = usize::BITS as usize - size.max(2).leading_zeros() as usize;
    LEAF_SIZE * depth * (k + 8)
}

fn build_node(points: &[Point3], items: &mut [usize], base: u32, nodes: &mut Vec<Node>) {
    if items.len() <= LEAF_SIZE {
        nodes.push(Node::Leaf { start: base, len: items.len() as u32 });
        return;
    }
    // Split on the widest axis at the median.
    let mut min = points[items[0]];
    let mut max = min;
    for &i in items.iter() {
        min = min.min(points[i]);
        max = max.max(points[i]);
    }
    let extent = max - min;
    let axis = if extent.x >= extent.y && extent.x >= extent.z {
        0
    } else if extent.y >= extent.z {
        1
    } else {
        2
    };
    let mid = items.len() / 2;
    items.select_nth_unstable_by(mid, |&a, &b| {
        points[a][axis]
            .partial_cmp(&points[b][axis])
            .expect("coordinates are finite")
            .then(a.cmp(&b))
    });
    let value = points[items[mid]][axis];
    let me = nodes.len();
    nodes.push(Node::Split { axis: axis as u8, value, right: 0 });
    let (left, right) = items.split_at_mut(mid);
    build_node(points, left, base, nodes);
    let right_at = nodes.len() as u32;
    let Node::Split { right: r, .. } = &mut nodes[me] else { unreachable!("pushed above") };
    *r = right_at;
    build_node(points, right, base + mid as u32, nodes);
}

#[allow(clippy::too_many_arguments)]
fn search(
    nodes: &[Node],
    items: &[usize],
    at: usize,
    points: &[Point3],
    query: Point3,
    k: usize,
    best: &mut Vec<Candidate>,
    evals: &mut u64,
) {
    match nodes[at] {
        Node::Leaf { start, len } => {
            for &i in &items[start as usize..(start + len) as usize] {
                let d = points[i].distance_squared(query);
                *evals += 1;
                push_bounded(best, k, Candidate { index: i, dist_sq: d });
            }
        }
        Node::Split { axis, value, right } => {
            let delta = query[axis as usize] - value;
            let (near, far) =
                if delta < 0.0 { (at + 1, right as usize) } else { (right as usize, at + 1) };
            search(nodes, items, near, points, query, k, best, evals);
            // Visit the far side only if the splitting plane is closer than
            // the current k-th best (or we have fewer than k yet).
            let worst = best.last().map_or(f32::INFINITY, |c| c.dist_sq);
            if best.len() < k || delta * delta <= worst {
                search(nodes, items, far, points, query, k, best, evals);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn radius_search(
    nodes: &[Node],
    items: &[usize],
    at: usize,
    points: &[Point3],
    query: Point3,
    radius_sq: f32,
    found: &mut Vec<Candidate>,
    evals: &mut u64,
) {
    match nodes[at] {
        Node::Leaf { start, len } => {
            for &i in &items[start as usize..(start + len) as usize] {
                let d = points[i].distance_squared(query);
                *evals += 1;
                if d <= radius_sq {
                    found.push(Candidate { index: i, dist_sq: d });
                }
            }
        }
        Node::Split { axis, value, right } => {
            let delta = query[axis as usize] - value;
            let (near, far) =
                if delta < 0.0 { (at + 1, right as usize) } else { (right as usize, at + 1) };
            radius_search(nodes, items, near, points, query, radius_sq, found, evals);
            if delta * delta <= radius_sq {
                radius_search(nodes, items, far, points, query, radius_sq, found, evals);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};

    #[test]
    fn matches_bruteforce_on_every_class_sample() {
        for (seed, class) in
            [(1, ShapeClass::Sphere), (2, ShapeClass::Chair), (3, ShapeClass::Airplane)]
        {
            let cloud = sample_shape(class, 300, seed);
            let tree = KdTree::build(&cloud);
            let queries: Vec<usize> = (0..300).step_by(7).collect();
            for k in [1, 4, 33] {
                let a = bruteforce::knn_indices(&cloud, &queries, k);
                let b = tree.knn_indices(&cloud, &queries, k);
                assert_eq!(a, b, "class {:?} k {k}", class);
            }
        }
    }

    #[test]
    fn knn_into_matches_allocating_path_and_counts_evals() {
        let cloud = sample_shape(ShapeClass::Guitar, 220, 4);
        let mut tree = KdTree::build(&cloud);
        let queries: Vec<usize> = (0..220).step_by(3).collect();
        let mut out = NeighborIndexTable::default();
        let evals = tree.knn_into(&cloud, &queries, 9, &mut out);
        assert_eq!(out, tree.knn_indices(&cloud, &queries, 9));
        assert!(evals > 0, "descents must evaluate distances");
        assert!(evals <= (cloud.len() * queries.len()) as u64, "never worse than brute force");
    }

    #[test]
    fn build_into_reuses_storage_across_same_sized_clouds() {
        let a = sample_shape(ShapeClass::Chair, 256, 1);
        let b = sample_shape(ShapeClass::Lamp, 256, 2);
        let mut tree = KdTree::build(&a);
        let bytes = tree.storage_bytes();
        tree.build_into(&b);
        assert_eq!(tree.storage_bytes(), bytes, "same-sized rebuild must not grow storage");
        // Rebuilt contents answer for the new cloud.
        let queries: Vec<usize> = (0..256).step_by(13).collect();
        assert_eq!(tree.knn_indices(&b, &queries, 5), bruteforce::knn_indices(&b, &queries, 5));
    }

    #[test]
    fn ball_into_matches_ball_query() {
        let cloud = sample_shape(ShapeClass::Lamp, 180, 6);
        let mut tree = KdTree::build(&cloud);
        let queries: Vec<usize> = (0..180).step_by(5).collect();
        let want = crate::ball::ball_query(&cloud, &tree, &queries, 0.3, 8);
        let mut got = NeighborIndexTable::default();
        tree.ball_into(&cloud, &queries, 0.3, 8, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn radius_query_matches_filtering() {
        let cloud = sample_shape(ShapeClass::Lamp, 256, 5);
        let tree = KdTree::build(&cloud);
        let q = cloud.point(10);
        let r = 0.3f32;
        let got: Vec<usize> = tree.within_radius(&cloud, q, r).iter().map(|c| c.index).collect();
        let mut want: Vec<(f32, usize)> = cloud
            .points()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_squared(q) <= r * r)
            .map(|(i, p)| (p.distance_squared(q), i))
            .collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let want: Vec<usize> = want.into_iter().map(|(_, i)| i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn radius_zero_returns_exact_matches_only() {
        let cloud = sample_shape(ShapeClass::Cube, 64, 5);
        let tree = KdTree::build(&cloud);
        let got = tree.within_radius(&cloud, cloud.point(3), 0.0);
        assert!(got.iter().any(|c| c.index == 3));
        assert!(got.iter().all(|c| c.dist_sq == 0.0));
    }

    #[test]
    fn small_cloud_is_single_leaf() {
        let cloud = sample_shape(ShapeClass::Cube, 8, 1);
        let tree = KdTree::build(&cloud);
        assert_eq!(tree.len(), 8);
        let nn = tree.knn(&cloud, cloud.point(0), 8);
        assert_eq!(nn.len(), 8);
    }

    #[test]
    fn tile_budget_chunking_is_bit_identical() {
        let cloud = sample_shape(ShapeClass::Chair, 400, 9);
        let mut tree = KdTree::build(&cloud);
        let queries: Vec<usize> = (0..400).collect();
        let mut want = NeighborIndexTable::default();
        tree.knn_into(&cloud, &queries, 8, &mut want);
        for budget in [1, 7, 64, 400, 401] {
            let mut got = NeighborIndexTable::default();
            crate::with_query_tile_budget(Some(budget), || {
                mesorasi_par::with_threads(4, || tree.knn_into(&cloud, &queries, 8, &mut got))
            });
            assert_eq!(got, want, "budget {budget}");
        }
        // The override restores on exit: cost-model chunking answers again.
        let mut after = NeighborIndexTable::default();
        tree.knn_into(&cloud, &queries, 8, &mut after);
        assert_eq!(after, want);
    }

    #[test]
    fn parallel_queries_retain_pooled_scratch() {
        let cloud = sample_shape(ShapeClass::Sphere, 1024, 2);
        let mut tree = KdTree::build(&cloud);
        let queries: Vec<usize> = (0..1024).collect();
        let mut out = NeighborIndexTable::default();
        crate::with_query_tile_budget(Some(64), || {
            mesorasi_par::with_threads(2, || tree.knn_into(&cloud, &queries, 16, &mut out))
        });
        // The measurement skips slots that concurrently running tests hold
        // at that instant, so give them a moment to hand the slots back.
        let retained = (0..1000).any(|_| {
            std::thread::yield_now();
            crate::parallel_scratch_bytes() > 0
        });
        assert!(retained, "parallel chunks must use the pool");
    }

    #[test]
    fn duplicate_points_tie_break_by_index() {
        let cloud = PointCloud::from_points(vec![Point3::ORIGIN; 40]);
        let tree = KdTree::build(&cloud);
        let nn = tree.knn(&cloud, Point3::ORIGIN, 5);
        let idx: Vec<usize> = nn.iter().map(|c| c.index).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
    }
}
