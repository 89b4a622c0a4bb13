//! The pluggable search subsystem: one trait over every backend, plus the
//! [`SearchContext`] that owns reusable index storage.
//!
//! Mesorasi treats neighbor search as a first-class phase — delayed
//! aggregation exists precisely to decouple it from feature computation —
//! so the executors should not hard-code one structure. [`SearchIndex`]
//! makes the build/query split explicit: `build_into` (re)constructs an
//! index over a cloud reusing its storage, and the `*_into` queries write
//! into a caller-owned [`NeighborIndexTable`]. Every implementation is
//! **exact** with identical `(distance, index)` tie-breaking, so backends
//! are interchangeable bit-for-bit and the [`crate::planner::SearchPlanner`]
//! picks purely on predicted cost.
//!
//! [`SearchContext`] adds the arena discipline on top: a small pool of
//! keyed slots, each holding one built index plus a verification copy of
//! its cloud. Within a forward pass, every module searching the same
//! `(cloud, space)` shares one index; across a frame sequence, slots are
//! rebuilt *in place* (capacity reused, contents replaced), so a warm
//! stream performs zero heap allocations in the search phase. The context
//! also meters its traffic ([`SearchCounters`]): index-build vs query time
//! and real distance-evaluation counts.

use crate::bruteforce::{push_bounded, Candidate};
use crate::feature::{self, FeatureScratch, FeatureView};
use crate::grid::UniformGrid;
use crate::kdtree::{batch_into, sort_candidates, KdTree};
use crate::octree::MortonOctree;
use crate::planner::{SearchBackend, SearchLoad, SearchPlanner};
use crate::stats::SearchCounters;
use crate::NeighborIndexTable;
use mesorasi_pointcloud::PointCloud;
use std::time::Instant;

/// A neighbor-search index with an explicit build/query split.
///
/// Implementations must be exact and deterministic: for any cloud and
/// query batch, `knn_into` and `ball_into` produce tables bit-identical to
/// [`crate::bruteforce::knn_indices`] / [`crate::ball::ball_query`] — the
/// correctness bar that lets the planner switch backends freely. Queries
/// take `&mut self` so indices can own reusable scratch; they never change
/// query results. Both query methods return the number of pairwise
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

    /// Which planner backend this index implements.
    fn kind(&self) -> SearchBackend;
}

/// The index-free backend: exhaustive scans, the reference every other
/// backend is tested against and the algorithm whose cost the GPU model
/// charges. `build_into` is a no-op (there is nothing to build), which is
/// exactly why the planner picks it for small workloads.
#[derive(Debug, Default)]
pub struct BruteForceIndex {
    scratch: Vec<Candidate>,
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
        assert!(k > 0 && k <= cloud.len(), "k = {k} out of range for {} points", cloud.len());
        let n = cloud.len();
        batch_into(out, queries, k, n * 8, &mut self.scratch, |best, q, slot| {
            let query = cloud.point(q);
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
        batch_into(out, queries, k, n * 8, &mut self.scratch, |found, q, slot| {
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

    fn kind(&self) -> SearchBackend {
        SearchBackend::BruteForce
    }
}

/// One cached index: the key it answers for, a verification copy of the
/// indexed cloud, and the structure itself.
#[derive(Debug)]
struct Slot {
    /// Caller-chosen space id (the engine uses module-state ids, the tape
    /// runner uses cloud content hashes).
    space: u64,
    /// Grid resolution discriminator (`radius.to_bits()`; 0 otherwise).
    radius_bits: u32,
    /// Bit-exact copy of the indexed cloud: a slot only answers when its
    /// copy matches the query cloud, so stale or colliding keys can never
    /// produce a wrong table — at worst they trigger a rebuild.
    cloud: PointCloud,
    last_use: u64,
    index: Box<dyn SearchIndex>,
}

/// Slots a context retains before evicting least-recently-used ones. Large
/// enough for every space a single network forward touches (the deepest
/// network here searches ~6 distinct (cloud, radius) combinations).
const MAX_SLOTS: usize = 16;

/// A planning search front-end with reusable per-space index storage.
///
/// Callers address searches by a `space` id of their choosing; the context
/// plans a backend, (re)builds the index for that space only when the
/// cloud's content changed, and answers into a caller-owned table. See the
/// module docs for the sharing and reuse discipline.
#[derive(Debug)]
pub struct SearchContext {
    planner: SearchPlanner,
    counters: SearchCounters,
    /// The stateless exhaustive scan lives outside the slot pool — it has
    /// nothing worth caching or verifying.
    brute: BruteForceIndex,
    /// Row panel and sequential-path tile scratch of the feature-space scan.
    feature_scratch: FeatureScratch,
    slots: Vec<Slot>,
    clock: u64,
    /// Fixed query-tile budget applied to every batch query through this
    /// context (see [`crate::with_query_tile_budget`]); `None` defers to
    /// the cost model. Never changes results, only chunk boundaries.
    tile_budget: Option<usize>,
}

impl SearchContext {
    /// A context choosing backends with `planner`, cost-model chunked.
    /// Never consults the environment.
    pub fn with_planner(planner: SearchPlanner) -> SearchContext {
        SearchContext {
            planner,
            counters: SearchCounters::default(),
            brute: BruteForceIndex::default(),
            feature_scratch: FeatureScratch::default(),
            slots: Vec::with_capacity(MAX_SLOTS),
            clock: 0,
            tile_budget: None,
        }
    }

    /// Forces every batch query through fixed-size query tiles of `budget`
    /// points (`None` restores cost-model chunking). Tiling is a
    /// scheduling knob: results stay bit-identical at every budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is `Some(0)`.
    pub fn set_tile_budget(&mut self, budget: Option<usize>) {
        assert!(budget != Some(0), "tile budget must be positive");
        self.tile_budget = budget;
    }

    /// The fixed query-tile budget, if one is set.
    pub fn tile_budget(&self) -> Option<usize> {
        self.tile_budget
    }

    /// Traffic counters accumulated since construction.
    pub fn counters(&self) -> SearchCounters {
        self.counters
    }

    /// Heap bytes retained by every cached index, verification cloud, and
    /// scratch buffer — the search half of the engine's arena statistics.
    /// Includes the feature-space scan's row panel
    /// (`ceil(rows / 16) · 16 · dim · 4` bytes at the largest shape searched)
    /// and, when a batch ran untiled, its distance rows; see
    /// [`crate::feature`].
    pub fn storage_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.index.storage_bytes() + s.cloud.storage_bytes()).sum::<usize>()
            + self.brute.storage_bytes()
            + self.feature_scratch.storage_bytes()
    }

    /// Exact kNN for `queries` against `cloud`, on the planned backend,
    /// written into `out`. `space` identifies the search space for index
    /// sharing (same space + unchanged cloud ⇒ no rebuild).
    pub fn knn_into(
        &mut self,
        space: u64,
        cloud: &PointCloud,
        queries: &[usize],
        k: usize,
        out: &mut NeighborIndexTable,
    ) {
        let load = SearchLoad { n: cloud.len(), queries: queries.len(), k };
        let backend = self.planner.plan_knn(&load);
        self.answer(space, backend, 0.0, cloud, queries.len(), |index| {
            index.knn_into(cloud, queries, k, out)
        });
    }

    /// Padded radius query for `queries` against `cloud`, on the planned
    /// backend, written into `out`.
    pub fn ball_into(
        &mut self,
        space: u64,
        cloud: &PointCloud,
        queries: &[usize],
        radius: f32,
        k: usize,
        out: &mut NeighborIndexTable,
    ) {
        let load = SearchLoad { n: cloud.len(), queries: queries.len(), k };
        let backend = self.planner.plan_ball(&load, radius);
        self.answer(space, backend, radius, cloud, queries.len(), |index| {
            index.ball_into(cloud, queries, radius, k, out)
        });
    }

    /// The one dispatch site: finds or builds `backend`'s index for
    /// `(space, cloud)`, then times and meters `query` against it.
    fn answer(
        &mut self,
        space: u64,
        backend: SearchBackend,
        radius: f32,
        cloud: &PointCloud,
        queries: usize,
        query: impl FnOnce(&mut dyn SearchIndex) -> u64,
    ) {
        let tile_budget = self.tile_budget;
        let index = self.ensure_index(space, backend, radius, cloud);
        let start = Instant::now();
        let evals = crate::with_query_tile_budget(tile_budget, || query(index));
        self.note_query(backend, queries, evals, start);
    }

    /// Feature-space kNN over a borrowed row matrix, written into `out`.
    /// Always the dense row scan (DGCNN's dynamic-graph search: spatial
    /// structures degenerate at feature dimensionality), metered as
    /// [`SearchBackend::BruteForce`].
    pub fn feature_knn_into(
        &mut self,
        view: FeatureView<'_>,
        queries: &[usize],
        k: usize,
        out: &mut NeighborIndexTable,
    ) {
        let start = Instant::now();
        let scratch = &mut self.feature_scratch;
        let evals = crate::with_query_tile_budget(self.tile_budget, || {
            feature::knn_rows_into(view, queries, k, out, scratch)
        });
        self.note_query(SearchBackend::BruteForce, queries.len(), evals, start);
    }

    fn note_query(&mut self, backend: SearchBackend, queries: usize, evals: u64, start: Instant) {
        self.counters.query_calls += 1;
        self.counters.calls_by_backend[backend as usize] += 1;
        self.counters.queries += queries as u64;
        self.counters.query_ns += start.elapsed().as_nanos() as u64;
        self.counters.distance_evals += evals;
    }

    /// A fresh, unbuilt index of `backend` (grids at `cell_size = radius`).
    fn new_index(backend: SearchBackend, radius: f32) -> Box<dyn SearchIndex> {
        match backend {
            SearchBackend::Grid => {
                let mut grid = UniformGrid::default();
                grid.set_cell_size(radius);
                Box::new(grid)
            }
            SearchBackend::Octree => Box::new(MortonOctree::default()),
            SearchBackend::KdTree => Box::new(KdTree::default()),
            SearchBackend::BruteForce => {
                unreachable!("`ensure_index` answers brute force from the shared scan, not a slot")
            }
        }
    }

    /// The index answering `backend` queries over `cloud`: the shared
    /// exhaustive scan, or the slot keyed `(space, backend, radius)`,
    /// found or (re)built. Rebuilds happen in place — verification cloud
    /// and index storage reuse their capacity.
    fn ensure_index(
        &mut self,
        space: u64,
        backend: SearchBackend,
        radius: f32,
        cloud: &PointCloud,
    ) -> &mut dyn SearchIndex {
        if backend == SearchBackend::BruteForce {
            return &mut self.brute;
        }
        self.clock += 1;
        let radius_bits = if backend == SearchBackend::Grid { radius.to_bits() } else { 0 };
        let found = self.slots.iter().position(|s| {
            s.space == space && s.index.kind() == backend && s.radius_bits == radius_bits
        });
        let si = match found {
            Some(si) => si,
            None if self.slots.len() < MAX_SLOTS => {
                self.slots.push(Slot {
                    space,
                    radius_bits,
                    cloud: PointCloud::new(),
                    last_use: self.clock,
                    index: Self::new_index(backend, radius),
                });
                self.slots.len() - 1
            }
            None => {
                // Evict the least-recently-used slot and rekey it, keeping
                // its index storage when the structure (and, for grids,
                // the resolution) carries over.
                let si = self
                    .slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.last_use)
                    .map(|(i, _)| i)
                    .expect("slot pool is non-empty at capacity");
                let old = &self.slots[si];
                if old.index.kind() != backend || old.radius_bits != radius_bits {
                    self.slots[si].index = Self::new_index(backend, radius);
                }
                let slot = &mut self.slots[si];
                slot.space = space;
                slot.radius_bits = radius_bits;
                // Force a rebuild below even if the cloud matches: the
                // index answered a different key before.
                slot.cloud = PointCloud::new();
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
        &mut *slot.index
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
        let mut backends: Vec<Box<dyn SearchIndex>> = vec![
            Box::new(KdTree::build(&cloud)),
            Box::new(<BruteForceIndex as SearchIndex>::build(&cloud)),
            Box::new(<MortonOctree as SearchIndex>::build(&cloud)),
        ];
        for b in &mut backends {
            let mut got = NeighborIndexTable::default();
            b.knn_into(&cloud, &q, 7, &mut got);
            assert_eq!(got, want, "backend {:?}", b.kind());
        }
    }

    #[test]
    fn context_answers_match_reference_and_share_indices() {
        let cloud = sample_shape(ShapeClass::Lamp, 400, 2);
        let q = queries(400);
        let mut ctx = SearchContext::with_planner(SearchPlanner::auto());
        let mut out = NeighborIndexTable::default();

        ctx.knn_into(1, &cloud, &q, 9, &mut out);
        assert_eq!(out, bruteforce::knn_indices(&cloud, &q, 9));

        ctx.ball_into(1, &cloud, &q, 0.25, 8, &mut out);
        let tree = KdTree::build(&cloud);
        assert_eq!(out, ball::ball_query(&cloud, &tree, &q, 0.25, 8));

        // Re-querying the same (space, cloud) must not rebuild.
        let builds = ctx.counters().index_builds;
        ctx.knn_into(1, &cloud, &q, 9, &mut out);
        ctx.ball_into(1, &cloud, &q, 0.25, 8, &mut out);
        assert_eq!(ctx.counters().index_builds, builds, "warm spaces must not rebuild");
        assert!(ctx.counters().distance_evals > 0);
        assert!(ctx.storage_bytes() > 0);
    }

    #[test]
    fn context_rebuilds_when_cloud_content_changes_under_same_space() {
        let a = sample_shape(ShapeClass::Chair, 300, 3);
        let b = sample_shape(ShapeClass::Sphere, 300, 4);
        let q = queries(300);
        let mut ctx = SearchContext::with_planner(SearchPlanner::forced(SearchBackend::KdTree));
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
    fn forced_planner_choices_stay_bit_identical() {
        let cloud = sample_shape(ShapeClass::Guitar, 350, 5);
        let q = queries(350);
        let reference = bruteforce::knn_indices(&cloud, &q, 11);
        for backend in [SearchBackend::BruteForce, SearchBackend::KdTree, SearchBackend::Grid] {
            let mut ctx = SearchContext::with_planner(SearchPlanner::forced(backend));
            let mut out = NeighborIndexTable::default();
            ctx.knn_into(0, &cloud, &q, 11, &mut out);
            assert_eq!(out, reference, "forced {backend:?} drifted on kNN");
            let tree = KdTree::build(&cloud);
            let ball_ref = ball::ball_query(&cloud, &tree, &q, 0.3, 6);
            ctx.ball_into(0, &cloud, &q, 0.3, 6, &mut out);
            assert_eq!(out, ball_ref, "forced {backend:?} drifted on ball");
        }
    }

    #[test]
    fn slot_pool_evicts_lru_without_unbounded_growth() {
        let q: Vec<usize> = (0..64).collect();
        let mut ctx = SearchContext::with_planner(SearchPlanner::forced(SearchBackend::KdTree));
        let mut out = NeighborIndexTable::default();
        for space in 0..(MAX_SLOTS as u64 + 9) {
            let cloud = sample_shape(ShapeClass::Cube, 64, space + 1);
            ctx.knn_into(space, &cloud, &q, 4, &mut out);
            assert_eq!(out, bruteforce::knn_indices(&cloud, &q, 4), "space {space}");
        }
        assert!(ctx.slots.len() <= MAX_SLOTS);
    }

    #[test]
    fn tile_budget_on_context_is_bit_identical_across_budgets() {
        let cloud = sample_shape(ShapeClass::Airplane, 500, 6);
        let q: Vec<usize> = (0..500).collect();
        let want_knn = bruteforce::knn_indices(&cloud, &q, 9);
        let tree = KdTree::build(&cloud);
        let want_ball = ball::ball_query(&cloud, &tree, &q, 0.3, 8);
        for budget in [1, 64, 500, 501] {
            let mut ctx = SearchContext::with_planner(SearchPlanner::auto());
            ctx.set_tile_budget(Some(budget));
            assert_eq!(ctx.tile_budget(), Some(budget));
            let mut out = NeighborIndexTable::default();
            ctx.knn_into(3, &cloud, &q, 9, &mut out);
            assert_eq!(out, want_knn, "budget {budget} knn");
            ctx.ball_into(3, &cloud, &q, 0.3, 8, &mut out);
            assert_eq!(out, want_ball, "budget {budget} ball");
        }
    }

    #[test]
    #[should_panic(expected = "tile budget must be positive")]
    fn zero_tile_budget_panics() {
        SearchContext::with_planner(SearchPlanner::auto()).set_tile_budget(Some(0));
    }

    #[test]
    fn feature_search_routes_through_the_context() {
        let data: Vec<f32> = (0..512).map(|i| ((i * 13) % 61) as f32 * 0.2).collect();
        let view = FeatureView::new(&data, 8).unwrap();
        let q: Vec<usize> = (0..64).step_by(5).collect();
        let want = feature::knn_rows(view, &q, 6);
        let mut ctx = SearchContext::with_planner(SearchPlanner::auto());
        let mut out = NeighborIndexTable::default();
        let cold = ctx.storage_bytes();
        ctx.feature_knn_into(view, &q, 6, &mut out);
        assert_eq!(out, want);
        assert_eq!(ctx.counters().calls_by_backend, [1, 0, 0, 0]);
        // The scan's row panel (64 rows = 4 blocks × 16 lanes × 8 dims of
        // f32) is retained by the context and reported, then reused.
        let warm = ctx.storage_bytes();
        assert!(warm >= cold + 64 * 8 * 4, "panel unaccounted: {cold} -> {warm}");
        ctx.feature_knn_into(view, &q, 6, &mut out);
        assert_eq!(ctx.storage_bytes(), warm, "a warm scan of the same shape retains nothing new");
    }
}
