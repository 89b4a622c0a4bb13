//! Neighbor search — the `N` operator of point-cloud modules.
//!
//! Unlike convolution, where neighbors are found by directly indexing a
//! regular tensor, point-cloud networks must *search* for neighbors because
//! points are irregularly scattered (paper §III-A). This crate provides the
//! search structures the evaluated networks use:
//!
//! * [`bruteforce`] — exact KNN by exhaustive distance computation, for
//!   member centroids and free query points: the reference implementation
//!   and the cost model the GPU simulator charges,
//! * [`octree`] — the Morton-bucket octree, the one spatial index: exact
//!   kNN and radius queries on the CPU at every cloud size (keeps the
//!   functional executors fast; the *simulated* GPU still uses the
//!   brute-force cost, which is what TX2 implementations do),
//! * [`ball`] — radius (ball) query with padding, PointNet++'s grouping,
//!   and its exhaustive-scan oracle,
//! * [`feature`] — KNN in arbitrary-dimensional feature space, used by
//!   DGCNN's dynamic graph construction,
//! * [`nit`] — the Neighbor Index Table, the `N_out × K` index structure
//!   that the delayed-aggregation hardware streams through the NIT buffer,
//! * [`index`] — the batch driver the octree and the scans share, and the
//!   [`SearchContext`] that owns reusable per-space index storage, through
//!   which every coordinate search reaches the octree,
//! * [`stats`] — neighborhood-membership statistics (reproduces Fig. 6)
//!   and the [`stats::SearchCounters`] traffic meters.
//!
//! The octree answers through its own methods (`build_into`, `knn_into`,
//! `knn_points_into`, `ball_into`); the oracles are plain functions,
//! [`bruteforce::knn_indices`], [`bruteforce::knn_points_into`] and
//! [`ball::ball_query`]. Both sides are exact with identical
//! `(distance, index)` tie-breaking: every octree table equals the scan's,
//! bit for bit.
//!
//! # Example
//!
//! ```
//! use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
//! use mesorasi_knn::{bruteforce, MortonOctree, NeighborIndexTable};
//!
//! let cloud = sample_shape(ShapeClass::Sphere, 256, 1);
//! let queries: Vec<usize> = (0..32).collect();
//! let exact = bruteforce::knn_indices(&cloud, &queries, 8);
//! let mut tree = MortonOctree::build(&cloud);
//! let mut fast = NeighborIndexTable::default();
//! tree.knn_into(&cloud, &queries, 8, &mut fast);
//! assert_eq!(exact.neighbors_flat(), fast.neighbors_flat());
//! ```

#![forbid(unsafe_code)]

use std::sync::OnceLock;

pub mod ball;
pub mod bruteforce;
pub mod feature;
pub mod index;
pub mod nit;
pub mod octree;
pub mod stats;

pub use index::SearchContext;
#[doc(hidden)]
pub use index::SearchPlanner;
pub use nit::NeighborIndexTable;
pub use octree::MortonOctree;

/// Per-worker candidate scratch for parallel batch queries. Keyed by
/// `mesorasi_par` worker slot, so a warm pool serves every chunk body
/// without touching the allocator — the zero-alloc streaming bar at
/// `MESORASI_THREADS > 1` rests on this.
pub(crate) fn candidate_pool() -> &'static mesorasi_par::ScratchPool<Vec<bruteforce::Candidate>> {
    static POOL: OnceLock<mesorasi_par::ScratchPool<Vec<bruteforce::Candidate>>> = OnceLock::new();
    POOL.get_or_init(mesorasi_par::ScratchPool::new)
}

/// Heap bytes retained by the per-worker parallel query scratch pools
/// (capacity across all idle slots): the candidate buffers of the scan and
/// the octree, and the feature scan's tile scratch. Surfaced through
/// `EngineStats` so the memory-ceiling contract covers parallel search.
pub fn parallel_scratch_bytes() -> usize {
    candidate_pool().measure_bytes(|v| v.capacity() * std::mem::size_of::<bruteforce::Candidate>())
        + feature::tile_pool().measure_bytes(feature::TileScratch::storage_bytes)
}
