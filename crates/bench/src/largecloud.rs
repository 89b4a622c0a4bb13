//! Out-of-core search records for the bench artifact (schema
//! `mesorasi-bench/8`): index build and query timings at 2^17..2^20-point
//! scales, where the octree backend earns its keep, measured for the
//! octree (resident and paged) against the kd-tree and grid backends on
//! the same cloud.
//!
//! Record identity for `bench-diff` is `(op, backend, threads, dtype)`,
//! so the cloud size and pager mode are encoded in the backend label:
//! `octree-128k`, `octree-1m-paged`, `kdtree-1m`, `grid-128k`, ... The
//! `-paged` configurations run behind a file-backed node store with a
//! byte budget of ⅛ of the cloud's storage, so every query sweep pays
//! real eviction churn. The smoke run uses one 2^15-point cloud; the full run measures 2^17
//! and 2^20 points (the million-point acceptance scale).

use crate::perf::{time_ns, BenchRecord};
use mesorasi_knn::grid::UniformGrid;
use mesorasi_knn::kdtree::KdTree;
use mesorasi_knn::pager::POINT_BYTES;
use mesorasi_knn::{MortonOctree, NeighborIndexTable, SearchIndex};
use mesorasi_par as par;
use mesorasi_pointcloud::{Point3, PointCloud};
use std::cell::RefCell;
use std::time::Duration;

/// Deterministic synthetic cloud from a bare LCG: uniform in [-1, 1]^3.
/// The shape sampler's rejection loops are too slow at million-point
/// scale, and uniform occupancy is the octree's worst case for box
/// pruning — a conservative workload.
pub fn synthetic_cloud(n: usize, seed: u64) -> PointCloud {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut unit = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
    };
    let pts: Vec<Point3> = (0..n).map(|_| Point3::new(unit(), unit(), unit())).collect();
    PointCloud::from_points(pts)
}

/// One measured cloud scale, with the static backend labels that encode
/// size and mode into each record's `bench-diff` identity.
struct SizeSpec {
    n: usize,
    octree: &'static str,
    octree_paged: &'static str,
    kdtree: &'static str,
    grid: &'static str,
}

const SMOKE_SIZES: [SizeSpec; 1] = [SizeSpec {
    n: 1 << 15,
    octree: "octree-32k",
    octree_paged: "octree-32k-paged",
    kdtree: "kdtree-32k",
    grid: "grid-32k",
}];

const FULL_SIZES: [SizeSpec; 2] = [
    SizeSpec {
        n: 1 << 17,
        octree: "octree-128k",
        octree_paged: "octree-128k-paged",
        kdtree: "kdtree-128k",
        grid: "grid-128k",
    },
    SizeSpec {
        n: 1 << 20,
        octree: "octree-1m",
        octree_paged: "octree-1m-paged",
        kdtree: "kdtree-1m",
        grid: "grid-1m",
    },
];

/// Queries per sweep, neighbors per query, and the ball radius (sized so
/// a [-1, 1]^3 uniform cloud holds on the order of k points per ball at
/// the 2^17 scale).
const QUERIES: usize = 256;
const K: usize = 16;
const RADIUS: f32 = 0.05;

fn sizes(smoke: bool) -> &'static [SizeSpec] {
    if smoke {
        &SMOKE_SIZES
    } else {
        &FULL_SIZES
    }
}

/// `index_build` configurations per run (for the smoke-test bookkeeping):
/// octree, octree-paged, kdtree, grid per size.
pub fn build_configs(smoke: bool) -> usize {
    sizes(smoke).len() * 4
}

/// `query` configurations per run: the two octree modes plus kdtree and
/// grid per size.
pub fn query_configs(smoke: bool) -> usize {
    sizes(smoke).len() * 4
}

/// Runs the large-cloud sweep: every configuration at every swept thread
/// count, with the 1-thread run as its own speedup baseline (the paged
/// configurations answer queries sequentially by design — the pager is a
/// memory-bound store, not a parallel one — so their rows show it).
pub fn records(smoke: bool, budget: Duration, sweep: &[usize]) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for spec in sizes(smoke) {
        let cloud = synthetic_cloud(spec.n, 2020);
        let queries: Vec<usize> = (0..spec.n).step_by(spec.n / QUERIES).collect();
        let pager_budget = spec.n * POINT_BYTES / 8;

        // Prebuilt indices for the query records.
        let octree = RefCell::new(<MortonOctree as SearchIndex>::build(&cloud));
        let paged = RefCell::new({
            let mut t = MortonOctree::paged(pager_budget);
            SearchIndex::build_into(&mut t, &cloud);
            t
        });
        let kdtree = RefCell::new(KdTree::build(&cloud));
        let grid = RefCell::new(UniformGrid::build(&cloud, RADIUS));
        let out = RefCell::new(NeighborIndexTable::default());

        // Warm in-place rebuild targets for the index_build records.
        let octree_rb = RefCell::new(<MortonOctree as SearchIndex>::build(&cloud));
        let paged_rb = RefCell::new({
            let mut t = MortonOctree::paged(pager_budget);
            SearchIndex::build_into(&mut t, &cloud);
            t
        });
        let kdtree_rb = RefCell::new(KdTree::build(&cloud));
        let grid_rb = RefCell::new(UniformGrid::build(&cloud, RADIUS));

        let octree_query = |tree: &RefCell<MortonOctree>| {
            tree.borrow_mut().knn_into(&cloud, &queries, K, &mut out.borrow_mut());
        };

        type Kernel<'a> = (&'static str, &'static str, Box<dyn Fn() + 'a>);
        let kernels: Vec<Kernel<'_>> = vec![
            (
                "index_build",
                spec.octree,
                Box::new(|| SearchIndex::build_into(&mut *octree_rb.borrow_mut(), &cloud)),
            ),
            (
                "index_build",
                spec.octree_paged,
                Box::new(|| SearchIndex::build_into(&mut *paged_rb.borrow_mut(), &cloud)),
            ),
            (
                "index_build",
                spec.kdtree,
                Box::new(|| SearchIndex::build_into(&mut *kdtree_rb.borrow_mut(), &cloud)),
            ),
            (
                "index_build",
                spec.grid,
                Box::new(|| SearchIndex::build_into(&mut *grid_rb.borrow_mut(), &cloud)),
            ),
            ("query", spec.octree, Box::new(|| octree_query(&octree))),
            ("query", spec.octree_paged, Box::new(|| octree_query(&paged))),
            (
                "query",
                spec.kdtree,
                Box::new(|| {
                    kdtree.borrow_mut().knn_into(&cloud, &queries, K, &mut out.borrow_mut());
                }),
            ),
            (
                "query",
                spec.grid,
                Box::new(|| {
                    grid.borrow_mut().ball_into(&cloud, &queries, RADIUS, K, &mut out.borrow_mut());
                }),
            ),
        ];

        for (op, backend, kernel) in &kernels {
            let mut base_ns = 0.0f64;
            for &threads in sweep {
                let ns = par::with_threads(threads, || time_ns(budget, kernel));
                if threads == 1 {
                    base_ns = ns;
                }
                let speedup = if ns > 0.0 && base_ns > 0.0 { base_ns / ns } else { 1.0 };
                records.push(BenchRecord {
                    op,
                    backend,
                    threads,
                    dtype: None,
                    ns_per_op: ns,
                    speedup_vs_1t: Some(speedup),
                    extra: None,
                    batch: None,
                    search: None,
                    serve: None,
                    stream: None,
                });
            }
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_clouds_are_deterministic_and_in_bounds() {
        let a = synthetic_cloud(512, 9);
        let b = synthetic_cloud(512, 9);
        assert_eq!(a, b);
        assert_ne!(a, synthetic_cloud(512, 10));
        for p in a.points() {
            for c in [p.x, p.y, p.z] {
                assert!((-1.0..=1.0).contains(&c), "out of bounds: {p:?}");
            }
        }
    }

    #[test]
    fn smoke_sweep_covers_every_configuration() {
        let sweep = [1, 2];
        let recs = records(true, Duration::from_millis(2), &sweep);
        let builds = recs.iter().filter(|r| r.op == "index_build").count();
        let queries = recs.iter().filter(|r| r.op == "query").count();
        assert_eq!(builds, build_configs(true) * sweep.len());
        assert_eq!(queries, query_configs(true) * sweep.len());
        assert!(recs.iter().all(|r| r.ns_per_op > 0.0));
        // The mode labels that make up a record's diff identity all appear.
        for label in ["octree-32k", "octree-32k-paged", "kdtree-32k", "grid-32k"] {
            assert!(recs.iter().any(|r| r.backend == label), "missing {label}");
        }
    }
}
