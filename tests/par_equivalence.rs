//! Parallel/sequential equivalence: every `mesorasi-par`-backed kernel must
//! produce *bit-identical* output at 1, 2, and 8 threads.
//!
//! This is the determinism contract of the parallel layer (chunk-then-
//! combine with fixed per-element accumulation order), checked over
//! randomized inputs. Input sizes are chosen to cross the layer's
//! small-work sequential gate, so the 2- and 8-thread runs genuinely
//! execute on the pool.

use mesorasi::core::{executor, module::Module, module::ModuleConfig, module::NeighborMode};
use mesorasi::knn::{ball, bruteforce, feature::FeatureView, MortonOctree, NeighborIndexTable};
use mesorasi::nn::layers::NormMode;
use mesorasi::nn::Graph;
use mesorasi::par;
use mesorasi::pointcloud::shapes::{sample_shape, ShapeClass};
use mesorasi::pointcloud::{sampling, Point3, PointCloud};
use mesorasi::tensor::{group, ops, Matrix};
use proptest::prelude::*;

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// Runs `f` at each swept thread count and asserts all results are equal
/// (`PartialEq`, which for `Matrix` and `NeighborIndexTable` is exact —
/// no tolerance anywhere).
fn assert_thread_invariant<R: PartialEq + std::fmt::Debug>(
    what: &str,
    f: impl Fn() -> R,
) -> Result<(), TestCaseError> {
    let baseline = par::with_threads(1, &f);
    for &threads in &THREAD_SWEEP[1..] {
        let got = par::with_threads(threads, &f);
        prop_assert_eq!(&got, &baseline, "{} diverged at {} threads vs sequential", what, threads);
    }
    Ok(())
}

fn arb_matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-2.0f32..2.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

fn arb_cloud(points: std::ops::Range<usize>) -> impl Strategy<Value = PointCloud> {
    prop::collection::vec((-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0), points).prop_map(|pts| {
        PointCloud::from_points(pts.into_iter().map(|(x, y, z)| Point3::new(x, y, z)).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_family_is_thread_invariant(
        a in arb_matrix(64..128, 8..24),
        b_cols in 8usize..24,
    ) {
        let b = Matrix::from_fn(a.cols(), b_cols, |r, c| ((r * 13 + c * 7) % 11) as f32 - 5.0);
        assert_thread_invariant("matmul", || ops::matmul(&a, &b))?;
        assert_thread_invariant("matmul_at_b", || ops::matmul_at_b(&a, &b2_like(&a)))?;
        assert_thread_invariant("matmul_a_bt", || ops::matmul_a_bt(&a, &a.clone()))?;
    }

    #[test]
    fn group_kernels_are_thread_invariant(
        src in arb_matrix(48..96, 8..24),
        k in 2usize..6,
        n_groups in 24usize..64,
    ) {
        let groups: Vec<usize> =
            (0..n_groups * k).map(|i| (i * 31 + i / k) % src.rows()).collect();
        assert_thread_invariant("gather_rows", || group::gather_rows(&src, &groups))?;
        assert_thread_invariant("gather_max_reduce (values + argmax)", || {
            group::gather_max_reduce(&src, &groups, k)
        })?;
        let gathered = group::gather_rows(&src, &groups);
        assert_thread_invariant("group_max_reduce (values + argmax)", || {
            group::group_max_reduce(&gathered, k)
        })?;
        let centroids = group::gather_rows(&src, &groups[..n_groups]);
        let grouped = group::gather_rows(&src, &groups);
        assert_thread_invariant("subtract_centroid_per_group", || {
            group::subtract_centroid_per_group(&grouped, &centroids, k)
        })?;
        assert_thread_invariant("gather_max_into", || {
            let mut out = Matrix::zeros(0, 0);
            group::gather_max_into(&src, &groups, k, &mut out);
            out
        })?;
        assert_thread_invariant("group_max_into", || {
            let mut out = Matrix::zeros(0, 0);
            group::group_max_into(&grouped, k, &mut out);
            out
        })?;
    }

    #[test]
    fn knn_backends_yield_identical_nits_across_threads(
        cloud in arb_cloud(200..320),
        k in 1usize..9,
    ) {
        let queries: Vec<usize> = (0..cloud.len()).step_by(2).collect();
        assert_thread_invariant("bruteforce NIT", || {
            bruteforce::knn_indices(&cloud, &queries, k)
        })?;
        assert_thread_invariant("ball NIT", || ball::ball_query(&cloud, &queries, 0.3, k))?;
        let tree = std::cell::RefCell::new(MortonOctree::build(&cloud));
        assert_thread_invariant("octree NIT", || {
            let mut out = NeighborIndexTable::default();
            tree.borrow_mut().knn_into(&cloud, &queries, k, &mut out);
            out
        })?;
        assert_thread_invariant("octree ball NIT", || {
            let mut out = NeighborIndexTable::default();
            tree.borrow_mut().ball_into(&cloud, &queries, 0.3, k, &mut out);
            out
        })?;
        let flat = cloud.to_xyz_rows();
        let view = FeatureView::new(&flat, 3).expect("xyz rows are rectangular");
        assert_thread_invariant("feature NIT", || {
            mesorasi::knn::feature::knn_rows(view, &queries, k)
        })?;
    }

    /// DGCNN-width rows with a ragged last 16-row block: every query chunk,
    /// on whichever worker, reads the one panel built per call, so the
    /// table may not depend on the thread count. A draw is kept only where
    /// the cost model's 8-thread chunk is not a multiple of four, so every
    /// chunk ends in a short four-query distance tile, not just the last
    /// (97–128 rows make chunks of exactly four and are redrawn).
    #[test]
    fn wide_feature_knn_is_thread_and_tile_invariant(
        feats in arb_matrix(70..130, 64..65),
        k in 1usize..21,
    ) {
        prop_assume!(feats.rows() % 16 != 0);
        let rows = feats.rows();
        // The scan's per-query cost: one pass over `rows × 64` features.
        let chunk = par::with_threads(8, || par::chunk_len(rows, rows * 64 * 3));
        prop_assume!(chunk % 4 != 0);
        prop_assert!(chunk < rows, "8 threads must split {} queries", rows);
        let view = FeatureView::new(feats.as_slice(), 64).expect("matrix storage is rectangular");
        let queries: Vec<usize> = (0..rows).collect();
        assert_thread_invariant("wide feature NIT", || {
            mesorasi::knn::feature::knn_rows(view, &queries, k)
        })?;
    }
}

/// A product deep enough for `matmul_into`'s packed order (`B` is 188 KB,
/// `k` spans two `k`-blocks): the row chunks a
/// thread count picks move the row-block boundaries and which chunk packs
/// which panel copy, never a bit of the result.
#[test]
fn packed_matmul_is_thread_invariant() {
    let a = Matrix::from_fn(131, 600, |r, c| ((r * 29 + c * 13) % 23) as f32 * 0.125 - 1.3);
    let b = Matrix::from_fn(600, 80, |r, c| ((r * 13 + c * 7) % 11) as f32 * 0.3 - 1.5);
    assert_thread_invariant("packed matmul", || ops::matmul(&a, &b)).unwrap();
}

/// The engine's max-reduce at 77 columns — one 64-wide tile, one
/// 8-wide, five single columns — and enough groups that 2 and 8 threads
/// chunk them differently: chunks are whole groups, so no thread count
/// moves a comparison.
#[test]
fn tiled_max_reduce_is_thread_invariant() {
    let src = Matrix::from_fn(300, 77, |r, c| ((r * 29 + c * 13) % 23) as f32 * 0.125 - 1.3);
    let (n_groups, k) = (2000, 16);
    let groups: Vec<usize> = (0..n_groups * k).map(|i| (i * 31 + i / k) % src.rows()).collect();
    assert_thread_invariant("gather_max_into", || {
        let mut out = Matrix::zeros(0, 0);
        group::gather_max_into(&src, &groups, k, &mut out);
        out
    })
    .unwrap();
    let grouped = group::gather_rows(&src, &groups);
    assert_thread_invariant("group_max_into", || {
        let mut out = Matrix::zeros(0, 0);
        group::group_max_into(&grouped, k, &mut out);
        out
    })
    .unwrap();
}

/// `scene_32k`'s two coordinate searches at its own shapes: the octree's
/// bounded ball selection (512 centroids, radius 0.2, `k = 32` over 32,768
/// points — many compactions per query) and feature propagation's 3-NN
/// stencil (every one of the 32,768 points against those 512, through a
/// context's octree, weights included). Queries split into different
/// chunks at each thread count; no table moves a bit.
#[test]
fn scene_scale_ball_and_stencil_are_thread_invariant() {
    use mesorasi::core::runner;
    use mesorasi::knn::SearchContext;
    let cloud = sample_shape(ShapeClass::Chair, 32768, 7);
    let queries: Vec<usize> = (0..32768).step_by(64).collect();
    let tree = std::cell::RefCell::new(MortonOctree::build(&cloud));
    assert_thread_invariant("scene-scale octree ball NIT", || {
        let mut out = NeighborIndexTable::default();
        tree.borrow_mut().ball_into(&cloud, &queries, 0.2, 32, &mut out);
        out
    })
    .unwrap();
    let coarse = cloud.select(&queries);
    let ctx = std::cell::RefCell::new(SearchContext::new());
    assert_thread_invariant("scene-scale FP stencil", || {
        let (mut indices, mut weights) = (Vec::new(), Vec::new());
        runner::search_stencils_into(
            &mut ctx.borrow_mut(),
            0,
            &coarse,
            &cloud,
            &mut indices,
            &mut weights,
        );
        (indices, weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>())
    })
    .unwrap();
}

/// A deterministic second operand shaped for `matmul_at_b(a, ·)`.
fn b2_like(a: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), 12, |r, c| ((r * 5 + c * 3) % 17) as f32 * 0.25 - 2.0)
}

/// End-to-end: a full delayed-aggregation module forward (neighbor search,
/// PFT matmuls, fused gather-max, centroid subtract) is bit-identical
/// across thread counts — the NITs and every activation row.
#[test]
fn delayed_module_forward_is_thread_invariant() {
    let cloud = sample_shape(ShapeClass::Chair, 256, 11);
    let mut rng = mesorasi::pointcloud::seeded_rng(42);
    let config = ModuleConfig::offset("eq", 64, 8, NeighborMode::CoordKnn, vec![3, 32, 48]);
    let module = Module::new(config, NormMode::None, &mut rng);
    let centroids = sampling::random_indices(&cloud, 64, 3);
    let features = Matrix::from_vec(cloud.len(), 3, cloud.to_xyz_rows());

    let forward = |threads: usize| {
        par::with_threads(threads, || {
            let nit = bruteforce::knn_indices(&cloud, &centroids, 8);
            let mut g = Graph::new();
            let x = g.input(features.clone());
            let y = executor::delayed_offset(&mut g, &module, x, &nit);
            (nit, g.value(y).clone())
        })
    };

    let (nit1, out1) = forward(1);
    for threads in [2, 8] {
        let (nit, out) = forward(threads);
        assert_eq!(nit, nit1, "NIT diverged at {threads} threads");
        assert_eq!(out, out1, "module output diverged at {threads} threads");
    }
}

/// Gradients route through argmax indices, so backward must be
/// thread-invariant too (the argmax tie-breaks are part of the contract).
#[test]
fn backward_pass_is_thread_invariant() {
    let cloud = sample_shape(ShapeClass::Lamp, 192, 5);
    let mut rng = mesorasi::pointcloud::seeded_rng(9);
    let config = ModuleConfig::offset("grad-eq", 48, 6, NeighborMode::CoordKnn, vec![3, 24, 16]);
    let module = Module::new(config, NormMode::None, &mut rng);
    let centroids = sampling::random_indices(&cloud, 48, 1);
    let features = Matrix::from_vec(cloud.len(), 3, cloud.to_xyz_rows());

    let grad = |threads: usize| {
        par::with_threads(threads, || {
            let nit = bruteforce::knn_indices(&cloud, &centroids, 6);
            let mut g = Graph::new();
            let x = g.input(features.clone());
            let y = executor::delayed_offset(&mut g, &module, x, &nit);
            let t = g.input(Matrix::zeros(48, 16));
            let loss = g.mse(y, t);
            g.backward(loss);
            g.param_grad(module.mlp.first_layer().weight.id())
                .expect("first layer receives gradient")
                .clone()
        })
    };

    let g1 = grad(1);
    for threads in [2, 8] {
        assert_eq!(grad(threads), g1, "weight gradient diverged at {threads} threads");
    }
}
