//! Large-cloud search records for the bench artifact: the octree's index
//! build, kNN and ball-query timings at 2^17..2^20-point scales — the
//! scene-scale numbers a spatial split of the ball query is measured
//! against — and feature propagation's 3-NN stencil at `scene_32k`'s
//! shape, on the scan and on the octree.
//!
//! Every record carries the cloud size in `points` (for the stencil, the
//! number of fine query points).

use crate::perf::{sweep_records, BenchRecord, Kernel};
use mesorasi_knn::index::BruteForceIndex;
use mesorasi_knn::{MortonOctree, NeighborIndexTable, SearchIndex};
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

/// Cloud sizes measured: one for the smoke run, a 2^17-point sweep and
/// the million-point acceptance scale for the full run.
fn sizes(smoke: bool) -> &'static [usize] {
    if smoke {
        &[1 << 15]
    } else {
        &[1 << 17, 1 << 20]
    }
}

/// Queries per sweep, neighbors per query, and the ball radius (sized so
/// a [-1, 1]^3 uniform cloud holds on the order of k points per ball at
/// the 2^17 scale).
const QUERIES: usize = 256;
const K: usize = 16;
const RADIUS: f32 = 0.05;

/// The stencil's fine points (every point of the cloud) and the coarse
/// points they interpolate from: 32,768 × 512 is `scene_32k`'s last
/// feature propagation; the smoke run keeps the coarse set and cuts the
/// fine one.
fn stencil_shape(smoke: bool) -> (usize, usize) {
    (if smoke { 1 << 12 } else { 1 << 15 }, 512)
}

/// Runs the large-cloud sweep: the octree's `index_build` and its `query`
/// (kNN, and `mode: "ball"`) at every swept thread count, then the
/// `stencil` pair.
pub fn records(smoke: bool, budget: Duration, sweep: &[usize]) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for &n in sizes(smoke) {
        let cloud = synthetic_cloud(n, 2020);
        let queries: Vec<usize> = (0..n).step_by(n / QUERIES).collect();

        // A prebuilt index for the query records, and a warm in-place
        // rebuild target for the index_build record.
        let octree = RefCell::new(MortonOctree::build(&cloud));
        let out = RefCell::new(NeighborIndexTable::default());
        let octree_rb = RefCell::new(MortonOctree::build(&cloud));

        let mut kernels = [
            Kernel::new(
                "index_build",
                "octree",
                Box::new(|| octree_rb.borrow_mut().build_into(&cloud)),
            ),
            Kernel::new(
                "query",
                "octree",
                Box::new(|| {
                    octree.borrow_mut().knn_into(&cloud, &queries, K, &mut out.borrow_mut());
                }),
            ),
            Kernel {
                mode: Some("ball"),
                ..Kernel::new(
                    "query",
                    "octree",
                    Box::new(|| {
                        let (tree, out) = (&mut *octree.borrow_mut(), &mut *out.borrow_mut());
                        tree.ball_into(&cloud, &queries, RADIUS, K, out);
                    }),
                )
            },
        ];
        for k in &mut kernels {
            k.points = Some(n);
        }
        records.extend(sweep_records(&kernels, budget, sweep));
    }
    records.extend(stencil_records(smoke, budget, sweep));
    records
}

/// The 3-NN point queries of one stencil, answered into a retained index
/// buffer by the scan and by an octree prebuilt over the coarse points (as
/// a segmentation frame finds it, built by the set-abstraction module that
/// searched that level).
fn stencil_records(smoke: bool, budget: Duration, sweep: &[usize]) -> Vec<BenchRecord> {
    let (n_fine, n_coarse) = stencil_shape(smoke);
    let fine = synthetic_cloud(n_fine, 2021);
    let picks: Vec<usize> = (0..n_fine).step_by(n_fine / n_coarse).collect();
    let coarse = fine.select(&picks);
    let out = RefCell::new(vec![0; n_fine * 3]);
    let scan = RefCell::new(BruteForceIndex::default());
    let octree = RefCell::new(MortonOctree::build(&coarse));
    let query = |index: &RefCell<dyn SearchIndex>| {
        let (index, out) = (&mut *index.borrow_mut(), &mut *out.borrow_mut());
        index.knn_points_into(&coarse, fine.points(), 3, out);
    };
    let mut kernels = [
        Kernel::new("stencil", "bruteforce", Box::new(|| query(&scan))),
        Kernel::new("stencil", "octree", Box::new(|| query(&octree))),
    ];
    for k in &mut kernels {
        k.points = Some(n_fine);
    }
    sweep_records(&kernels, budget, sweep)
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
        assert_eq!(recs.len(), 5 * sweep.len());
        assert!(recs.iter().all(|r| r.ns_per_op > 0.0));
        let (octree, stencil): (Vec<_>, Vec<_>) = recs.iter().partition(|r| r.op != "stencil");
        assert!(octree.iter().all(|r| r.backend == "octree" && r.points == Some(1 << 15)));
        for key in [("index_build", None), ("query", None), ("query", Some("ball"))] {
            let rows = octree.iter().filter(|r| (r.op, r.mode) == key).count();
            assert_eq!(rows, sweep.len(), "{key:?}");
        }
        for backend in ["bruteforce", "octree"] {
            let rows = stencil.iter().filter(|r| r.backend == backend);
            assert!(rows.clone().all(|r| r.points == Some(stencil_shape(true).0)));
            assert_eq!(rows.count(), sweep.len(), "stencil/{backend}");
        }
    }
}
