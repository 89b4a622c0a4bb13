//! The search subsystem: one trait over both backends, the batch driver
//! they share, and the [`SearchContext`] that owns reusable index storage.
//!
//! Mesorasi treats neighbor search as a first-class phase — delayed
//! aggregation exists precisely to decouple it from feature computation.
//! [`SearchIndex`] makes the build/query split explicit: `build_into`
//! (re)constructs an index over a cloud reusing its storage, and the
//! `*_into` queries write into a caller-owned [`NeighborIndexTable`] (or,
//! for query points outside the cloud, a caller-owned index slice). Its
//! two implementations — the exhaustive scan [`BruteForceIndex`] (nothing to
//! build; the oracle) and the [`MortonOctree`] (the one spatial index) — are
//! **exact** with identical `(distance, index)` tie-breaking, so they are
//! interchangeable bit-for-bit and the scan is the octree's oracle.
//!
//! [`SearchContext`] answers every coordinate search on the octree and adds
//! the arena discipline: a small pool of slots keyed by search space, each
//! holding one built octree plus a verification copy of its cloud. Within a
//! forward pass, every module searching the same `(cloud, space)` — kNN or
//! ball, at any radius, member centroids or feature propagation's free query
//! points — shares one index; across a frame sequence, slots are rebuilt *in
//! place* (capacity reused, contents replaced), so a warm stream performs
//! zero heap allocations in the search phase. The context also meters its
//! traffic ([`SearchCounters`]): index-build vs query time and real
//! distance-evaluation counts.

use crate::bruteforce::{push_bounded, Candidate};
use crate::feature::{self, FeatureScratch, FeatureView};
use crate::octree::MortonOctree;
use crate::stats::SearchCounters;
use crate::NeighborIndexTable;
use mesorasi_pointcloud::{Point3, PointCloud};
use std::time::Instant;

/// A neighbor-search index with an explicit build/query split.
///
/// Implementations must be exact and deterministic: for any cloud and query
/// batch, `knn_into` and `ball_into` produce tables bit-identical to the two
/// oracles, [`crate::bruteforce::knn_indices`] and [`crate::ball::ball_query`]
/// (both the exhaustive scan) — the correctness bar the octree is held to.
/// Queries take `&mut self` so indices can own reusable scratch; they never
/// change query results. Both query methods return the number of pairwise
/// distance evaluations performed (the traffic counters' currency).
pub trait SearchIndex: Send + std::fmt::Debug {
    /// Builds a fresh index over `cloud`.
    fn build(cloud: &PointCloud) -> Self
    where
        Self: Sized + Default,
    {
        let mut index = Self::default();
        index.build_into(cloud);
        index
    }

    /// Rebuilds the index over `cloud`, reusing storage where possible —
    /// same-sized clouds must not grow the backing allocations.
    fn build_into(&mut self, cloud: &PointCloud);

    /// Exact kNN for member-point `queries`, written into `out` (reset to
    /// `queries.len()` entries of `k`, ascending by distance, ties by
    /// index). Returns the distance evaluations performed.
    fn knn_into(
        &mut self,
        cloud: &PointCloud,
        queries: &[usize],
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64;

    /// Exact kNN for query *points*, which need not belong to `cloud` (feature
    /// propagation's fine points against the coarse cloud): `out` holds
    /// `queries.len()` rows of `k` indices, each ascending by distance, ties
    /// by index. The same body answers [`SearchIndex::knn_into`]. Returns the
    /// distance evaluations performed.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != queries.len() * k` or `k` is out of range.
    fn knn_points_into(
        &mut self,
        cloud: &PointCloud,
        queries: &[Point3],
        k: usize,
        out: &mut [usize],
    ) -> u64;

    /// Padded radius query (see [`crate::ball::ball_query`] semantics)
    /// written into `out`. Returns the distance evaluations performed.
    fn ball_into(
        &mut self,
        cloud: &PointCloud,
        queries: &[usize],
        radius: f32,
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64;

    /// Heap bytes retained by the index (capacity, not length).
    fn storage_bytes(&self) -> usize;
}

/// The index-free backend: exhaustive scans, the reference the octree is
/// tested against and the algorithm whose cost the GPU model charges.
/// `build_into` is a no-op (there is nothing to build).
#[derive(Debug, Default)]
pub struct BruteForceIndex {
    scratch: Vec<Candidate>,
}

impl BruteForceIndex {
    /// The scan's one kNN body: every point of `cloud` offered to the
    /// bounded selection of each query point `at(q)`.
    fn knn_batch<Q: Copy + Sync>(
        &mut self,
        cloud: &PointCloud,
        queries: &[Q],
        at: impl Fn(Q) -> Point3 + Sync,
        k: usize,
        slots: &mut [usize],
    ) -> u64 {
        assert!(k > 0 && k <= cloud.len(), "k = {k} out of range for {} points", cloud.len());
        let n = cloud.len();
        batch_into(slots, queries, k, n * 8, &mut self.scratch, |best, q, slot| {
            let query = at(q);
            best.clear();
            for (i, &p) in cloud.points().iter().enumerate() {
                push_bounded(best, k, Candidate { index: i, dist_sq: p.distance_squared(query) });
            }
            for (s, c) in slot.iter_mut().zip(best.iter()) {
                *s = c.index;
            }
            n as u64
        })
    }
}

impl SearchIndex for BruteForceIndex {
    fn build_into(&mut self, _cloud: &PointCloud) {}

    fn knn_into(
        &mut self,
        cloud: &PointCloud,
        queries: &[usize],
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64 {
        self.knn_batch(cloud, queries, |q| cloud.point(q), k, table_slots(out, queries, k))
    }

    fn knn_points_into(
        &mut self,
        cloud: &PointCloud,
        queries: &[Point3],
        k: usize,
        out: &mut [usize],
    ) -> u64 {
        assert_eq!(out.len(), queries.len() * k, "one {k}-wide row per query point");
        self.knn_batch(cloud, queries, |p| p, k, out)
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
        let n = cloud.len();
        let r2 = radius * radius;
        let slots = table_slots(out, queries, k);
        batch_into(slots, queries, k, n * 8, &mut self.scratch, |found, q, slot| {
            let query = cloud.point(q);
            found.clear();
            for (i, &p) in cloud.points().iter().enumerate() {
                let d = p.distance_squared(query);
                if d <= r2 {
                    found.push(Candidate { index: i, dist_sq: d });
                }
            }
            sort_candidates(found);
            crate::ball::pad_slot(found, slot);
            n as u64
        })
    }

    fn storage_bytes(&self) -> usize {
        self.scratch.capacity() * std::mem::size_of::<Candidate>()
    }
}

/// Sorts candidates ascending by `(distance, index)`. The key is unique per
/// candidate (indices are distinct), so the unstable sort — which does not
/// allocate, unlike `sort_by` — is fully deterministic.
pub(crate) fn sort_candidates(found: &mut [Candidate]) {
    found.sort_unstable_by(crate::bruteforce::by_key);
}

/// Resets `out` to one `k`-wide entry per member query, centroids filled
/// in, and returns the neighbor slots for a batch driver to fill.
pub(crate) fn table_slots<'t>(
    out: &'t mut NeighborIndexTable,
    queries: &[usize],
    k: usize,
) -> &'t mut [usize] {
    let (cents, neighs) = out.fill_slots(k, queries.len());
    cents.copy_from_slice(queries);
    neighs
}

/// Shared out-parameter batch driver for index queries: fills the `k`-wide
/// row of `slots` belonging to each query, running
/// `per_query(scratch, query, slot)` (which returns its distance-evaluation
/// count) sequentially with the caller's reusable scratch, or in parallel
/// chunks with per-worker pooled scratch when the workload justifies it.
/// Queries are member indices or free points alike. Rows are written in
/// query order and every `per_query` body resets its scratch before use, so
/// both paths — at any chunk size — produce identical tables.
pub(crate) fn batch_into<Q: Copy + Sync>(
    slots: &mut [usize],
    queries: &[Q],
    k: usize,
    cost_per_query: usize,
    scratch: &mut Vec<Candidate>,
    per_query: impl Fn(&mut Vec<Candidate>, Q, &mut [usize]) -> u64 + Sync,
) -> u64 {
    let pool = crate::candidate_pool();
    batch_chunks_into(slots, queries, k, cost_per_query, scratch, pool, |scratch, chunk, slots| {
        let slots = slots.chunks_exact_mut(k);
        chunk.iter().zip(slots).map(|(&q, slot)| per_query(scratch, q, slot)).sum()
    })
}

/// [`batch_into`] one level up: `per_chunk(scratch, queries, slots)` fills
/// the `k`-wide slots of a whole run of consecutive queries, for bodies
/// that work on several queries at once. The sequential path hands it the
/// whole batch with the caller's scratch, the parallel path one chunk per
/// call with the calling worker's slot of `pool`.
pub(crate) fn batch_chunks_into<Q: Sync, S: Send>(
    slots: &mut [usize],
    queries: &[Q],
    k: usize,
    cost_per_query: usize,
    scratch: &mut S,
    pool: &mesorasi_par::ScratchPool<S>,
    per_chunk: impl Fn(&mut S, &[Q], &mut [usize]) -> u64 + Sync,
) -> u64 {
    let entries = queries.len();
    debug_assert_eq!(slots.len(), entries * k, "one k-wide row per query");
    let chunk = mesorasi_par::chunk_len(entries, cost_per_query);
    if chunk >= entries {
        per_chunk(scratch, queries, slots)
    } else {
        let total = std::sync::atomic::AtomicU64::new(0);
        mesorasi_par::par_chunks_mut(slots, chunk * k, |ci, slots| {
            let chunk_queries = &queries[ci * chunk..][..slots.len() / k];
            let evals = pool.with(|local| per_chunk(local, chunk_queries, slots));
            total.fetch_add(evals, std::sync::atomic::Ordering::Relaxed);
        });
        total.into_inner()
    }
}

/// Rough per-query work estimate for a tree descent — `O(k · log n)` leaf
/// scans plus backtracking, 16 units a level — used only to gate
/// batch-query parallelism ([`mesorasi_par::chunk_len`]).
pub(crate) fn per_query_cost(size: usize, k: usize) -> usize {
    16 * depth(size) * (k + 8)
}

/// `⌈log₂ n⌉`-ish tree depth used by [`per_query_cost`].
fn depth(n: usize) -> usize {
    (usize::BITS - n.max(2).leading_zeros()) as usize
}

/// One cached index: the key it answers for, a verification copy of the
/// indexed cloud, and the structure itself.
#[derive(Debug)]
struct Slot {
    /// Caller-chosen space id (the engine uses module-state ids, the tape
    /// runner uses cloud content hashes).
    space: u64,
    /// Bit-exact copy of the indexed cloud: a slot only answers when its
    /// copy matches the query cloud, so stale or colliding keys can never
    /// produce a wrong table — at worst they trigger a rebuild.
    cloud: PointCloud,
    last_use: u64,
    index: MortonOctree,
}

/// Slots a context retains before evicting least-recently-used ones. Large
/// enough for every space a single network forward builds an octree over:
/// one per searched point set, set-abstraction inputs and feature
/// propagation's coarse levels alike (paper-scale F-PointNet, the widest,
/// indexes four).
const MAX_SLOTS: usize = 16;

/// The search front-end, with reusable per-space index storage.
///
/// Callers address searches by a `space` id of their choosing; the context
/// (re)builds the octree for that space only when the cloud's content
/// changed, and answers into a caller-owned table. See the module docs for
/// the sharing and reuse discipline.
#[derive(Debug, Default)]
pub struct SearchContext {
    counters: SearchCounters,
    /// Row panel and sequential-path tile scratch of the feature-space scan.
    feature_scratch: FeatureScratch,
    slots: Vec<Slot>,
    clock: u64,
}

/// Stand-in for the deleted backend planner, kept only so
/// `benchmark/src/replay.rs` compiles until it drops the name.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct SearchPlanner;

impl SearchPlanner {
    #[doc(hidden)]
    pub fn auto() -> SearchPlanner {
        SearchPlanner
    }
}

impl SearchContext {
    /// An empty context. Never consults the environment.
    pub fn new() -> SearchContext {
        SearchContext { slots: Vec::with_capacity(MAX_SLOTS), ..SearchContext::default() }
    }

    // The shims below are kept only so `benchmark/src/replay.rs` compiles
    // until it drops the calls.
    #[doc(hidden)]
    pub fn with_planner(_: SearchPlanner) -> SearchContext {
        SearchContext::new()
    }

    #[doc(hidden)]
    pub fn set_tile_budget(&mut self, _: Option<usize>) {}

    /// Traffic counters accumulated since construction.
    pub fn counters(&self) -> SearchCounters {
        self.counters
    }

    /// Heap bytes retained by every cached index, verification cloud, and
    /// scratch buffer — the search half of the engine's arena statistics.
    /// Includes the feature-space scan's row panel
    /// (`ceil(rows / 16) · 16 · dim · 4` bytes at the largest shape searched)
    /// and, when a batch ran sequentially, its distance rows; see
    /// [`crate::feature`].
    pub fn storage_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.index.storage_bytes() + s.cloud.storage_bytes()).sum::<usize>()
            + self.feature_scratch.storage_bytes()
    }

    /// Exact kNN for `queries` against `cloud`, written into `out`. `space`
    /// identifies the search space for index sharing (same space +
    /// unchanged cloud ⇒ no rebuild).
    pub fn knn_into(
        &mut self,
        space: u64,
        cloud: &PointCloud,
        queries: &[usize],
        k: usize,
        out: &mut NeighborIndexTable,
    ) {
        self.answer(space, cloud, queries.len(), |index| index.knn_into(cloud, queries, k, out));
    }

    /// Padded radius query for `queries` against `cloud`, written into
    /// `out`.
    pub fn ball_into(
        &mut self,
        space: u64,
        cloud: &PointCloud,
        queries: &[usize],
        radius: f32,
        k: usize,
        out: &mut NeighborIndexTable,
    ) {
        self.answer(space, cloud, queries.len(), |index| {
            index.ball_into(cloud, queries, radius, k, out)
        });
    }

    /// Exact kNN for query points that need not belong to `cloud`, written
    /// row-major into `out` (`queries.len() × k` indices) — feature
    /// propagation's interpolation stencil. `space` is shared with the
    /// member-query searches of the same cloud, so a coarse level a
    /// set-abstraction module already indexed is not rebuilt.
    pub fn knn_points_into(
        &mut self,
        space: u64,
        cloud: &PointCloud,
        queries: &[Point3],
        k: usize,
        out: &mut [usize],
    ) {
        self.answer(space, cloud, queries.len(), |index| {
            index.knn_points_into(cloud, queries, k, out)
        });
    }

    /// The one dispatch site: finds or builds the octree for
    /// `(space, cloud)`, then times and meters `query` against it.
    fn answer(
        &mut self,
        space: u64,
        cloud: &PointCloud,
        queries: usize,
        query: impl FnOnce(&mut MortonOctree) -> u64,
    ) {
        let index = self.ensure_index(space, cloud);
        let start = Instant::now();
        let evals = query(index);
        self.note_query(queries, evals, start);
    }

    /// Feature-space kNN over a borrowed row matrix, written into `out`.
    /// Always the dense row scan (DGCNN's dynamic-graph search: spatial
    /// structures degenerate at feature dimensionality), metered as a query
    /// call with no index build behind it.
    pub fn feature_knn_into(
        &mut self,
        view: FeatureView<'_>,
        queries: &[usize],
        k: usize,
        out: &mut NeighborIndexTable,
    ) {
        let start = Instant::now();
        let evals = feature::knn_rows_into(view, queries, k, out, &mut self.feature_scratch);
        self.note_query(queries.len(), evals, start);
    }

    fn note_query(&mut self, queries: usize, evals: u64, start: Instant) {
        self.counters.query_calls += 1;
        self.counters.queries += queries as u64;
        self.counters.query_ns += start.elapsed().as_nanos() as u64;
        self.counters.distance_evals += evals;
    }

    /// The octree answering queries over `cloud`: the one of the slot keyed
    /// `space`, found or (re)built. Rebuilds happen in place — verification
    /// cloud and index storage reuse their capacity.
    fn ensure_index(&mut self, space: u64, cloud: &PointCloud) -> &mut MortonOctree {
        self.clock += 1;
        let si = match self.slots.iter().position(|s| s.space == space) {
            Some(si) => si,
            None if self.slots.len() < MAX_SLOTS => {
                self.slots.push(Slot {
                    space,
                    cloud: PointCloud::new(),
                    last_use: self.clock,
                    index: MortonOctree::default(),
                });
                self.slots.len() - 1
            }
            None => {
                // Evict the least-recently-used slot and rekey it; its
                // storage carries over, and the content check below decides
                // whether its octree still answers for `cloud`.
                let si = self
                    .slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.last_use)
                    .map(|(i, _)| i)
                    .expect("slot pool is non-empty at capacity");
                self.slots[si].space = space;
                si
            }
        };
        let slot = &mut self.slots[si];
        slot.last_use = self.clock;
        if !slot.cloud.content_eq(cloud) {
            slot.cloud.copy_from(cloud);
            let start = Instant::now();
            slot.index.build_into(cloud);
            self.counters.index_builds += 1;
            self.counters.index_build_ns += start.elapsed().as_nanos() as u64;
        }
        &mut slot.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ball, bruteforce};
    use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};

    fn queries(n: usize) -> Vec<usize> {
        (0..n).step_by(3).collect()
    }

    #[test]
    fn every_backend_matches_bruteforce_knn_through_the_trait() {
        let cloud = sample_shape(ShapeClass::Chair, 150, 1);
        let q = queries(150);
        let want = bruteforce::knn_indices(&cloud, &q, 7);
        let backends: [(&str, Box<dyn SearchIndex>); 2] = [
            ("bruteforce", Box::new(BruteForceIndex::build(&cloud))),
            ("octree", Box::new(MortonOctree::build(&cloud))),
        ];
        for (kind, mut b) in backends {
            let mut got = NeighborIndexTable::default();
            b.knn_into(&cloud, &q, 7, &mut got);
            assert_eq!(got, want, "backend {kind}");
        }
    }

    #[test]
    fn context_answers_match_reference_and_share_indices() {
        let cloud = sample_shape(ShapeClass::Lamp, 400, 2);
        let q = queries(400);
        let mut ctx = SearchContext::new();
        let mut out = NeighborIndexTable::default();

        ctx.knn_into(1, &cloud, &q, 9, &mut out);
        assert_eq!(out, bruteforce::knn_indices(&cloud, &q, 9));

        // One space, one index: kNN and ball queries at any radius share it,
        // and re-querying the same (space, cloud) must not rebuild.
        for radius in [0.25, 0.4] {
            ctx.ball_into(1, &cloud, &q, radius, 8, &mut out);
            assert_eq!(out, ball::ball_query(&cloud, &q, radius, 8));
        }
        ctx.knn_into(1, &cloud, &q, 9, &mut out);
        assert_eq!(ctx.counters().index_builds, 1, "warm spaces must not rebuild");
        assert!(ctx.counters().distance_evals > 0);
        assert!(ctx.storage_bytes() > 0);
    }

    #[test]
    fn context_rebuilds_when_cloud_content_changes_under_same_space() {
        let a = sample_shape(ShapeClass::Chair, 300, 3);
        let b = sample_shape(ShapeClass::Sphere, 300, 4);
        let q = queries(300);
        let mut ctx = SearchContext::new();
        let mut out = NeighborIndexTable::default();
        ctx.knn_into(7, &a, &q, 5, &mut out);
        let builds = ctx.counters().index_builds;
        // Same space id, different frame contents: must rebuild and answer
        // for the new cloud.
        ctx.knn_into(7, &b, &q, 5, &mut out);
        assert_eq!(ctx.counters().index_builds, builds + 1);
        assert_eq!(out, bruteforce::knn_indices(&b, &q, 5));
        // Steady state: same-sized frames stop growing storage.
        let bytes = ctx.storage_bytes();
        ctx.knn_into(7, &a, &q, 5, &mut out);
        ctx.knn_into(7, &b, &q, 5, &mut out);
        assert_eq!(ctx.storage_bytes(), bytes, "rebuilds must reuse slot storage");
    }

    #[test]
    fn slot_pool_evicts_lru_without_unbounded_growth() {
        let q: Vec<usize> = (0..64).collect();
        let mut ctx = SearchContext::new();
        let mut out = NeighborIndexTable::default();
        for space in 0..(MAX_SLOTS as u64 + 9) {
            let cloud = sample_shape(ShapeClass::Cube, 64, space + 1);
            ctx.knn_into(space, &cloud, &q, 4, &mut out);
            assert_eq!(out, bruteforce::knn_indices(&cloud, &q, 4), "space {space}");
        }
        assert!(ctx.slots.len() <= MAX_SLOTS);
    }

    #[test]
    fn cost_model_chunking_is_bit_identical() {
        // At every thread count the cost model cuts the batch into
        // different chunks (or none); the tables may not move.
        let cloud = sample_shape(ShapeClass::Airplane, 500, 6);
        let q: Vec<usize> = (0..500).collect();
        let want_knn = bruteforce::knn_indices(&cloud, &q, 9);
        let want_ball = ball::ball_query(&cloud, &q, 0.3, 8);
        let octree_cost = per_query_cost(cloud.len(), 9);
        for threads in [1, 2, 3, 4, 8] {
            let chunk =
                mesorasi_par::with_threads(threads, || mesorasi_par::chunk_len(500, octree_cost));
            assert_eq!(chunk < 500, threads > 1, "{threads} threads must split the batch");
            let mut ctx = SearchContext::new();
            let mut out = NeighborIndexTable::default();
            mesorasi_par::with_threads(threads, || {
                ctx.knn_into(3, &cloud, &q, 9, &mut out);
                assert_eq!(out, want_knn, "knn at {threads} threads");
                ctx.ball_into(3, &cloud, &q, 0.3, 8, &mut out);
                assert_eq!(out, want_ball, "ball at {threads} threads");
            });
        }
    }

    #[test]
    fn parallel_queries_retain_pooled_scratch() {
        let cloud = sample_shape(ShapeClass::Sphere, 1024, 2);
        let mut tree = MortonOctree::build(&cloud);
        let queries: Vec<usize> = (0..1024).collect();
        let mut out = NeighborIndexTable::default();
        mesorasi_par::with_threads(2, || {
            assert!(mesorasi_par::chunk_len(1024, per_query_cost(1024, 16)) < 1024);
            tree.knn_into(&cloud, &queries, 16, &mut out);
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
    fn feature_search_routes_through_the_context() {
        let data: Vec<f32> = (0..512).map(|i| ((i * 13) % 61) as f32 * 0.2).collect();
        let view = FeatureView::new(&data, 8).unwrap();
        let q: Vec<usize> = (0..64).step_by(5).collect();
        let want = feature::knn_rows(view, &q, 6);
        let mut ctx = SearchContext::new();
        let mut out = NeighborIndexTable::default();
        let cold = ctx.storage_bytes();
        ctx.feature_knn_into(view, &q, 6, &mut out);
        assert_eq!(out, want);
        assert_eq!((ctx.counters().query_calls, ctx.counters().index_builds), (1, 0));
        // The scan's row panel (64 rows = 4 blocks × 16 lanes × 8 dims of
        // f32) is retained by the context and reported, then reused.
        let warm = ctx.storage_bytes();
        assert!(warm >= cold + 64 * 8 * 4, "panel unaccounted: {cold} -> {warm}");
        ctx.feature_knn_into(view, &q, 6, &mut out);
        assert_eq!(ctx.storage_bytes(), warm, "a warm scan of the same shape retains nothing new");
    }
}
