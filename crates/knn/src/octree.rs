//! A hierarchical Morton-bucket octree: the one spatial index.
//!
//! Every coordinate search the exhaustive scan does not answer runs here,
//! from PointNet++'s 1024-point modules to million-point scenes: points are
//! sorted along the Morton curve ([`mesorasi_pointcloud::morton`]), leaves
//! own contiguous runs of that order, and every node carries the AABB of
//! its run. Because a node's Morton range is a contiguous index range,
//! the whole tree is three flat vectors plus one permutation — rebuildable
//! in place, cache-friendly to descend, and with leaf payloads that are
//! literally slices of the sorted cloud.
//!
//! Both queries descend best-first, children by ascending box distance,
//! and stop at the `k`-th bound. `knn_into` (member centroids) and
//! `knn_points_into` (free query points) share one descent that keeps a
//! `k`-bounded insertion list. `ball_into` — at any radius, 0 and
//! `f32::INFINITY` included — prunes boxes at `min(r², bound)`, collects
//! in-range candidates at or under the bound, and once `2k + LEAF_SIZE`
//! have piled up keeps only the `k` smallest and tightens the bound to the
//! `k`-th distance; a query sorts at most a few `k` survivors, however many
//! points its ball holds. Ties break by `(distance, index)` as in the scan
//! (shared `push_bounded`/`sort_candidates`/`pad_slot`, and `<=` at every
//! bound), so the octree meets the bit-identity bar: the planner can cross
//! over to it without changing a single result. Queries batch in parallel
//! through the shared `batch_into` driver.

use crate::bruteforce::{by_key, push_bounded, Candidate};
use crate::index::{batch_into, per_query_cost, sort_candidates, table_slots};
use crate::NeighborIndexTable;
use mesorasi_pointcloud::{morton, Aabb, Point3, PointCloud};

/// Points per leaf before a Morton run stops splitting: leaves are
/// contiguous scans, so fat leaves amortize descent cost.
pub const LEAF_SIZE: usize = 32;

/// `u32` sentinel for "no child".
const NONE: u32 = u32::MAX;

/// One flat tree node; `aabbs[i]` carries node `i`'s bounding box.
#[derive(Debug, Clone, Copy)]
enum OctNode {
    Leaf {
        /// Range `start..start + len` of the Morton permutation (and of
        /// the sorted payload).
        start: u32,
        len: u32,
    },
    Internal {
        /// Children in Morton-digit order; [`NONE`] for empty octants.
        children: [u32; 8],
    },
}

/// A Morton-bucket octree with reusable storage, implementing
/// [`crate::SearchIndex`].
///
/// # Example
///
/// ```
/// use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
/// use mesorasi_knn::octree::MortonOctree;
/// use mesorasi_knn::{bruteforce, SearchIndex};
///
/// let cloud = sample_shape(ShapeClass::Torus, 512, 3);
/// let queries: Vec<usize> = (0..64).collect();
/// let mut tree = <MortonOctree as SearchIndex>::build(&cloud);
/// let mut out = mesorasi_knn::NeighborIndexTable::default();
/// tree.knn_into(&cloud, &queries, 8, &mut out);
/// assert_eq!(out, bruteforce::knn_indices(&cloud, &queries, 8));
/// ```
#[derive(Debug, Default)]
pub struct MortonOctree {
    nodes: Vec<OctNode>,
    aabbs: Vec<Aabb>,
    /// Original indices in Morton order; leaves own disjoint ranges.
    perm: Vec<usize>,
    /// Morton code per original index (build scratch).
    codes: Vec<u64>,
    /// The cloud in Morton order (`sorted[i]` is point `perm[i]`): leaf
    /// payloads are slices of it.
    sorted: Vec<Point3>,
    size: usize,
    /// Sequential-query candidate scratch (parallel chunks pool their own).
    scratch: Vec<Candidate>,
}

impl MortonOctree {
    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.size
    }

    /// True when the tree indexes no points.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// The one kNN body: the exact `k` nearest indexed points of each query
    /// point `at(q)`, written into `slots` row by row.
    fn knn_batch<Q: Copy + Sync>(
        &mut self,
        queries: &[Q],
        at: impl Fn(Q) -> Point3 + Sync,
        k: usize,
        slots: &mut [usize],
    ) -> u64 {
        assert!(k > 0 && k <= self.size, "k = {k} out of range for {} points", self.size);
        let MortonOctree { nodes, aabbs, perm, sorted, scratch, .. } = self;
        let t = TreeView { nodes, aabbs, perm, sorted };
        batch_into(slots, queries, k, per_query_cost(t.perm.len(), k), scratch, |best, q, slot| {
            best.clear();
            let mut evals = 0u64;
            knn_descend(&t, 0, at(q), k, best, &mut evals);
            for (s, c) in slot.iter_mut().zip(best.iter()) {
                *s = c.index;
            }
            evals
        })
    }
}

impl crate::SearchIndex for MortonOctree {
    fn build_into(&mut self, cloud: &PointCloud) {
        assert!(cloud.len() <= u32::MAX as usize, "octree indices are 32-bit");
        self.size = cloud.len();
        self.nodes.clear();
        self.aabbs.clear();
        morton::sort_permutation_into(cloud, &mut self.codes, &mut self.perm);
        let points = cloud.points();
        self.sorted.clear();
        self.sorted.extend(self.perm.iter().map(|&i| points[i]));
        if !self.perm.is_empty() {
            let mut b = Builder {
                codes: &self.codes,
                perm: &self.perm,
                sorted: &self.sorted,
                nodes: &mut self.nodes,
                aabbs: &mut self.aabbs,
            };
            let top_shift = 3 * (morton::BITS_PER_AXIS as i32 - 1);
            b.build(0, self.perm.len(), top_shift);
        }
    }

    fn knn_into(
        &mut self,
        cloud: &PointCloud,
        queries: &[usize],
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64 {
        let points = cloud.points();
        self.knn_batch(queries, |q| points[q], k, table_slots(out, queries, k))
    }

    fn knn_points_into(
        &mut self,
        _cloud: &PointCloud,
        queries: &[Point3],
        k: usize,
        out: &mut [usize],
    ) -> u64 {
        assert_eq!(out.len(), queries.len() * k, "one {k}-wide row per query point");
        self.knn_batch(queries, |p| p, k, out)
    }

    fn ball_into(
        &mut self,
        cloud: &PointCloud,
        queries: &[usize],
        radius: f32,
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64 {
        assert!(k > 0, "k must be positive");
        assert!(radius >= 0.0, "radius must be non-negative");
        let r2 = radius * radius;
        let MortonOctree { nodes, aabbs, perm, sorted, scratch, .. } = self;
        let t = TreeView { nodes, aabbs, perm, sorted };
        let points = cloud.points();
        let slots = table_slots(out, queries, k);
        batch_into(slots, queries, k, per_query_cost(t.perm.len(), k), scratch, |found, q, slot| {
            found.clear();
            let mut ball = Ball { k, bound: r2, evals: 0 };
            ball.descend(&t, 0, points[q], found);
            sort_candidates(found);
            crate::ball::pad_slot(found, slot);
            ball.evals
        })
    }

    fn storage_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<OctNode>()
            + self.aabbs.capacity() * std::mem::size_of::<Aabb>()
            + self.perm.capacity() * std::mem::size_of::<usize>()
            + self.codes.capacity() * std::mem::size_of::<u64>()
            + self.sorted.capacity() * std::mem::size_of::<Point3>()
            + self.scratch.capacity() * std::mem::size_of::<Candidate>()
    }
}

/// Build-time borrow bundle (the tree's fields, split for the recursion).
struct Builder<'b> {
    codes: &'b [u64],
    perm: &'b [usize],
    sorted: &'b [Point3],
    nodes: &'b mut Vec<OctNode>,
    aabbs: &'b mut Vec<Aabb>,
}

impl Builder<'_> {
    /// Builds the node over `perm[start..start + len]`, whose Morton codes
    /// agree above bit `shift + 3`, and returns its id. Pre-order layout:
    /// a node's id precedes all its descendants'.
    fn build(&mut self, start: usize, len: usize, shift: i32) -> u32 {
        let id = self.nodes.len() as u32;
        let aabb = Aabb::from_points(self.sorted[start..start + len].iter().copied())
            .expect("build ranges are non-empty");
        self.aabbs.push(aabb);
        // A zero-extent run (duplicate points) exhausts `shift` and
        // collapses into one leaf of the full run.
        if len <= LEAF_SIZE || shift < 0 {
            self.nodes.push(OctNode::Leaf { start: start as u32, len: len as u32 });
            return id;
        }
        self.nodes.push(OctNode::Internal { children: [NONE; 8] });
        // Children partition the run by the 3-bit Morton digit at `shift`
        // (the run is code-sorted, so each digit is one contiguous span).
        let mut children = [NONE; 8];
        let mut lo = start;
        for digit in 0..8u64 {
            let hi = if digit == 7 {
                start + len
            } else {
                lo + self.perm[lo..start + len]
                    .partition_point(|&i| (self.codes[i] >> shift) & 7 <= digit)
            };
            if hi > lo {
                children[digit as usize] = self.build(lo, hi - lo, shift - 3);
            }
            lo = hi;
        }
        self.nodes[id as usize] = OctNode::Internal { children };
        id
    }
}

/// Borrowed view of the tree's immutable search data: what every parallel
/// query chunk shares while the candidate scratch is borrowed mutably.
#[derive(Clone, Copy)]
struct TreeView<'t> {
    nodes: &'t [OctNode],
    aabbs: &'t [Aabb],
    perm: &'t [usize],
    sorted: &'t [Point3],
}

/// The children of an internal node whose boxes lie within `bound`, nearest
/// box first: `(box distance, node)` pairs, `m` of them — the order both
/// descents visit them in. A box farther than the bound holds no point
/// either descent could keep, and the bound only tightens, so dropping it
/// before the sort changes nothing but the sort's length.
fn children_within(
    t: &TreeView<'_>,
    children: &[u32; 8],
    query: Point3,
    bound: f32,
) -> ([(f32, u32); 8], usize) {
    let mut order = [(f32::INFINITY, NONE); 8];
    let mut m = 0;
    for &c in children {
        if c != NONE {
            let d = t.aabbs[c as usize].distance_squared_to(query);
            if d <= bound {
                order[m] = (d, c);
                m += 1;
            }
        }
    }
    order[..m].sort_unstable_by(|a, b| a.partial_cmp(b).expect("distances are finite"));
    (order, m)
}

/// Exact kNN descent from node `at` into `best` (kept ascending by
/// `(distance, index)`).
fn knn_descend(
    t: &TreeView<'_>,
    at: u32,
    query: Point3,
    k: usize,
    best: &mut Vec<Candidate>,
    evals: &mut u64,
) {
    match t.nodes[at as usize] {
        OctNode::Leaf { start, len } => {
            let (start, len) = (start as usize, len as usize);
            let payload = &t.sorted[start..start + len];
            *evals += len as u64;
            for (j, &p) in payload.iter().enumerate() {
                let c = Candidate { index: t.perm[start + j], dist_sq: p.distance_squared(query) };
                push_bounded(best, k, c);
            }
        }
        OctNode::Internal { children } => {
            // Prune a child only when its box is strictly farther than the
            // k-th best (`<=` keeps boundary ties, which the index may
            // still win).
            let worst = |best: &Vec<Candidate>| match best.last() {
                Some(w) if best.len() == k => w.dist_sq,
                _ => f32::INFINITY,
            };
            let (order, m) = children_within(t, &children, query, worst(best));
            for &(d, c) in &order[..m] {
                if d <= worst(best) {
                    knn_descend(t, c, query, k, best, evals);
                }
            }
        }
    }
}

/// One padded ball query's selection state: the `k` it returns, the
/// squared-distance bound (`r²`, then the `k`-th smallest distance seen
/// once a compaction has run), and the distance evaluations so far.
struct Ball {
    k: usize,
    bound: f32,
    evals: u64,
}

impl Ball {
    /// Ball descent from node `at`: every point at or under the bound lands
    /// in `found`, unsorted. The bound only tightens, and only to the
    /// `k`-th smallest key among in-range points already found, so what
    /// it drops could never be returned; `found` always includes the `k`
    /// smallest in-range keys seen so far.
    fn descend(&mut self, t: &TreeView<'_>, at: u32, query: Point3, found: &mut Vec<Candidate>) {
        match t.nodes[at as usize] {
            OctNode::Leaf { start, len } => {
                let (start, len) = (start as usize, len as usize);
                let payload = &t.sorted[start..start + len];
                self.evals += len as u64;
                for (j, &p) in payload.iter().enumerate() {
                    let d = p.distance_squared(query);
                    if d <= self.bound {
                        found.push(Candidate { index: t.perm[start + j], dist_sq: d });
                    }
                }
                if found.len() >= 2 * self.k + LEAF_SIZE {
                    self.compact(found);
                }
            }
            OctNode::Internal { children } => {
                let (order, m) = children_within(t, &children, query, self.bound);
                for &(d, c) in &order[..m] {
                    if d <= self.bound {
                        self.descend(t, c, query, found);
                    }
                }
            }
        }
    }

    /// Keeps the `k` smallest `(distance, index)` keys of `found` and
    /// tightens the bound to the `k`-th distance: a point farther than it
    /// has `k` strictly nearer rivals, one at it may still win on index.
    fn compact(&mut self, found: &mut Vec<Candidate>) {
        let kth = self.k - 1;
        found.select_nth_unstable_by(kth, by_key);
        found.truncate(self.k);
        self.bound = found[kth].dist_sq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ball, bruteforce, SearchIndex};
    use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};

    fn queries(n: usize) -> Vec<usize> {
        (0..n).step_by(3).collect()
    }

    #[test]
    fn matches_the_exhaustive_scan_on_knn_and_ball() {
        let cloud = sample_shape(ShapeClass::Chair, 700, 1);
        let q = queries(700);
        let mut tree = <MortonOctree as SearchIndex>::build(&cloud);
        let mut got = NeighborIndexTable::default();
        for k in [1, 9, 64] {
            tree.knn_into(&cloud, &q, k, &mut got);
            assert_eq!(got, bruteforce::knn_indices(&cloud, &q, k), "k {k}");
        }
        tree.ball_into(&cloud, &q, 0.3, 12, &mut got);
        assert_eq!(got, ball::ball_query(&cloud, &q, 0.3, 12));
    }

    #[test]
    fn duplicate_points_collapse_into_one_leaf_and_tie_break_by_index() {
        let cloud = PointCloud::from_points(vec![Point3::new(0.5, -1.0, 2.0); 100]);
        let mut tree = <MortonOctree as SearchIndex>::build(&cloud);
        // Identical codes can never split: the Morton digits run out and
        // the whole run collapses into a single leaf (of > LEAF_SIZE).
        let leaves: Vec<_> = tree
            .nodes
            .iter()
            .filter_map(|n| match *n {
                OctNode::Leaf { len, .. } => Some(len),
                OctNode::Internal { .. } => None,
            })
            .collect();
        assert_eq!(leaves, vec![100]);
        let mut out = NeighborIndexTable::default();
        tree.knn_into(&cloud, &[7, 0], 5, &mut out);
        assert_eq!(out.neighbors(0), &[0, 1, 2, 3, 4]);
        assert_eq!(out, bruteforce::knn_indices(&cloud, &[7, 0], 5));
    }

    #[test]
    fn build_into_reaches_a_storage_fixpoint() {
        let a = sample_shape(ShapeClass::Chair, 512, 1);
        let b = sample_shape(ShapeClass::Lamp, 512, 2);
        let q = queries(512);
        let mut tree = MortonOctree::default();
        let mut out = NeighborIndexTable::default();
        // Node layout is content-dependent, so warm the high-water
        // capacity on both clouds first.
        for cloud in [&a, &b, &a, &b] {
            tree.build_into(cloud);
            tree.knn_into(cloud, &q, 5, &mut out);
        }
        let bytes = tree.storage_bytes();
        for cloud in [&a, &b] {
            tree.build_into(cloud);
            tree.knn_into(cloud, &q, 5, &mut out);
            assert_eq!(out, bruteforce::knn_indices(cloud, &q, 5));
            assert_eq!(tree.storage_bytes(), bytes, "warm rebuilds must not grow storage");
        }
    }

    #[test]
    fn zero_radius_ball_returns_exact_matches_padded() {
        let cloud = sample_shape(ShapeClass::Cube, 300, 4);
        let q = queries(300);
        let want = ball::ball_query(&cloud, &q, 0.0, 4);
        let mut tree = <MortonOctree as SearchIndex>::build(&cloud);
        let mut got = NeighborIndexTable::default();
        tree.ball_into(&cloud, &q, 0.0, 4, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn k_larger_than_n_panics() {
        let cloud = sample_shape(ShapeClass::Cube, 8, 2);
        let mut tree = <MortonOctree as SearchIndex>::build(&cloud);
        let mut out = NeighborIndexTable::default();
        tree.knn_into(&cloud, &[0], 9, &mut out);
    }
}
