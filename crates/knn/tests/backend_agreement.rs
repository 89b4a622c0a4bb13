//! Deterministic backend-agreement tests: the octree's kNN and ball
//! tables must match the exhaustive scan's (`bruteforce::knn_indices`,
//! `ball::ball_query` — the reference implementations) on seeded clouds,
//! including the edge cases the proptest suite's randomized inputs rarely
//! hit: k = 1, k = n, duplicate points (distance ties, broken by index in
//! both backends), a single point, a zero-extent cloud, radius 0 and ∞.
//!
//! The second half drives the *pluggable* subsystem: both backends behind
//! the [`SearchIndex`] trait-object path, and the octree through a
//! [`SearchContext`], must produce NITs bit-identical to the scan for both
//! kNN and padded radius queries.
//!
//! A third part holds the octree's bounded ball selection to the
//! collect-and-sort oracle where keeping only `k` could go wrong: ties
//! straddling the `k`-th slot, unbounded and zero radii, padding, and the
//! scene-scale shape (release only). The fourth holds the octree to the
//! scan at the cloud sizes it exists for (2^15 here, 2^20 `#[ignore]`d for
//! the `threads-2` CI job's release step), and the last pins the
//! two-pass feature-space scan to the one-pair-at-a-time scan it replaced,
//! table for table.

use mesorasi_knn::bruteforce::{push_bounded, Candidate};
use mesorasi_knn::feature::{self, FeatureScratch, FeatureView};
use mesorasi_knn::index::BruteForceIndex;
use mesorasi_knn::{
    ball, bruteforce, MortonOctree, NeighborIndexTable, SearchContext, SearchIndex,
};
use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
use mesorasi_pointcloud::{Point3, PointCloud};
use proptest::prelude::*;

fn all_queries(cloud: &PointCloud) -> Vec<usize> {
    (0..cloud.len()).collect()
}

/// A cloud where several coordinates appear two or three times, so the
/// k-th neighbor is frequently decided purely by the index tie-break.
fn cloud_with_duplicates() -> PointCloud {
    let mut pts = Vec::new();
    for i in 0..8 {
        let p = Point3::new(i as f32 * 0.25, (i % 3) as f32 * 0.5, 0.0);
        pts.push(p);
        pts.push(p); // exact duplicate
        if i % 2 == 0 {
            pts.push(p); // triplicate
        }
    }
    PointCloud::from_points(pts)
}

/// The octree's kNN table for `queries`, from a fresh build.
fn octree_knn(cloud: &PointCloud, queries: &[usize], k: usize) -> NeighborIndexTable {
    let mut out = NeighborIndexTable::default();
    MortonOctree::build(cloud).knn_into(cloud, queries, k, &mut out);
    out
}

/// The octree's padded ball table for `queries`, from a fresh build.
fn octree_ball(cloud: &PointCloud, queries: &[usize], radius: f32, k: usize) -> NeighborIndexTable {
    let mut out = NeighborIndexTable::default();
    MortonOctree::build(cloud).ball_into(cloud, queries, radius, k, &mut out);
    out
}

#[test]
fn octree_matches_bruteforce_on_seeded_clouds() {
    for (shape, n, seed) in
        [(ShapeClass::Chair, 64, 1), (ShapeClass::Sphere, 200, 2), (ShapeClass::Torus, 33, 3)]
    {
        let cloud = sample_shape(shape, n, seed);
        let queries = all_queries(&cloud);
        for k in [1, 2, 7, n / 2, n] {
            let want = bruteforce::knn_indices(&cloud, &queries, k);
            let got = octree_knn(&cloud, &queries, k);
            assert_eq!(want, got, "octree vs bruteforce, shape {shape:?}, n {n}, k {k}");
        }
    }
}

#[test]
fn octree_matches_bruteforce_k_equals_one_is_self() {
    let cloud = sample_shape(ShapeClass::Car, 100, 4);
    let queries = all_queries(&cloud);
    let want = bruteforce::knn_indices(&cloud, &queries, 1);
    let got = octree_knn(&cloud, &queries, 1);
    assert_eq!(want, got);
    // With k = 1 and unique coordinates, each point's nearest neighbor is
    // itself (distance 0 sorts first).
    for (q, neighbors) in got.iter() {
        assert_eq!(neighbors, &[q], "point {q} should be its own nearest neighbor");
    }
}

#[test]
fn octree_matches_bruteforce_k_equals_n_is_full_ranking() {
    let cloud = sample_shape(ShapeClass::Lamp, 24, 5);
    let n = cloud.len();
    let queries = all_queries(&cloud);
    let want = bruteforce::knn_indices(&cloud, &queries, n);
    let got = octree_knn(&cloud, &queries, n);
    assert_eq!(want, got);
    // k = n returns every index exactly once per entry.
    for (_, neighbors) in got.iter() {
        let mut sorted = neighbors.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}

#[test]
fn octree_matches_bruteforce_with_duplicate_points() {
    let cloud = cloud_with_duplicates();
    let n = cloud.len();
    let queries = all_queries(&cloud);
    for k in [1, 2, 3, n] {
        let want = bruteforce::knn_indices(&cloud, &queries, k);
        assert_eq!(want, octree_knn(&cloud, &queries, k), "duplicate-point cloud, k {k}");
    }
}

#[test]
fn octree_ball_query_matches_the_scan_on_seeded_clouds() {
    for (shape, n, seed, radius, k) in [
        (ShapeClass::Chair, 150, 6, 0.2, 8),
        (ShapeClass::Sphere, 80, 7, 0.35, 4),
        (ShapeClass::Guitar, 60, 8, 0.15, 1),
    ] {
        let cloud = sample_shape(shape, n, seed);
        let queries = all_queries(&cloud);
        let want = ball::ball_query(&cloud, &queries, radius, k);
        let got = octree_ball(&cloud, &queries, radius, k);
        assert_eq!(want, got, "octree vs scan ball query, shape {shape:?}, r {radius}, k {k}");
    }
}

#[test]
fn ball_query_with_covering_radius_matches_bruteforce_knn() {
    // `sample_shape` normalizes to the unit sphere, so radius 3 covers
    // every pair; an unpadded ball query then degenerates to exact KNN —
    // and so does an unbounded one.
    let cloud = sample_shape(ShapeClass::Table, 90, 9);
    let n = cloud.len();
    let queries = all_queries(&cloud);
    for k in [1, 5, n] {
        let want = bruteforce::knn_indices(&cloud, &queries, k);
        for radius in [3.0, f32::INFINITY] {
            let via_scan = ball::ball_query(&cloud, &queries, radius, k);
            let via_octree = octree_ball(&cloud, &queries, radius, k);
            assert_eq!(want, via_scan, "scan ball query, radius {radius}, k {k}");
            assert_eq!(want, via_octree, "octree ball query, radius {radius}, k {k}");
        }
    }
}

#[test]
fn ball_query_backends_agree_on_duplicate_points() {
    let cloud = cloud_with_duplicates();
    let queries = all_queries(&cloud);
    // Radius 0 keeps exactly the duplicates of each centroid, index-ordered.
    for radius in [0.3, 0.0] {
        for k in [1, 4, 9] {
            let want = ball::ball_query(&cloud, &queries, radius, k);
            let got = octree_ball(&cloud, &queries, radius, k);
            assert_eq!(want, got, "duplicate-point ball query, r {radius}, k {k}");
        }
    }
}

#[test]
fn single_point_cloud_every_backend_returns_the_point() {
    let cloud = PointCloud::from_points(vec![Point3::new(0.5, -0.25, 1.0)]);
    let want = bruteforce::knn_indices(&cloud, &[0], 1);
    assert_eq!(want.neighbors(0), &[0]);
    assert_eq!(octree_knn(&cloud, &[0], 1), want);
    assert_eq!(ball::ball_query(&cloud, &[0], 0.5, 1), want);
    assert_eq!(octree_ball(&cloud, &[0], 0.5, 1), want);
}

// ---------------------------------------------------------------------
// The octree's bounded ball selection against the collect-and-sort oracle.
// ---------------------------------------------------------------------

/// A cloud in which the origin's ball neighbors tie in bulk: the origin,
/// five nearer points, 240 points at one distance (the 48 signed
/// permutations of `(0.25, 0.5, 0.125)`, five copies each, so the tie group
/// spans every octant's leaves), 24 farther ones inside radius 1 and a
/// shell outside it. Coordinates are multiples of 1/16, so every distance
/// is exact and equal distances are equal bits. Indices are scattered by
/// a fixed permutation, so ties break by index, not by insertion order;
/// the origin stays index 0.
fn cloud_with_a_tie_group() -> PointCloud {
    let mut pts = vec![Point3::ORIGIN];
    pts.extend((1..=5).map(|i| Point3::new(0.0625 * i as f32, 0.0, 0.0)));
    let signed = |v: [f32; 3]| {
        (0..8).map(move |s| {
            let f = |b: usize, x: f32| if s >> b & 1 == 1 { -x } else { x };
            Point3::new(f(0, v[0]), f(1, v[1]), f(2, v[2]))
        })
    };
    let (a, b, c) = (0.25, 0.5, 0.125);
    for v in [[a, b, c], [a, c, b], [b, a, c], [b, c, a], [c, a, b], [c, b, a]] {
        for p in signed(v) {
            pts.extend([p; 5]);
        }
    }
    for p in signed([0.5, 0.5, 0.5]) {
        pts.extend([p; 3]);
    }
    pts.extend(signed([1.0, 0.75, 0.5]));
    let n = pts.len();
    // 97 is prime to n, so i -> 97 i mod n is a permutation.
    assert_ne!(n % 97, 0);
    let mut scattered = vec![Point3::ORIGIN; n];
    for (i, p) in pts.into_iter().enumerate() {
        scattered[i * 97 % n] = p;
    }
    PointCloud::from_points(scattered)
}

/// The cases where keeping only the `k` smallest keys could go wrong, each
/// on a cloud large enough for the selection to compact (`2k + 32` in-range
/// candidates) at least once: an unbounded radius, which compacts as soon
/// as two leaves are in; a tie group straddling the `k`-th slot across
/// several compactions; `k = 1`, where every compaction bounds at the
/// query's own distance 0; `k` above the in-range population (padding);
/// radius 0.
#[test]
fn octree_ball_selection_matches_the_collect_and_sort_oracle() {
    let ties = cloud_with_a_tie_group();
    assert_eq!(ties.point(0), Point3::ORIGIN);
    let all = all_queries(&ties);
    // Six points nearer than the tie group: k = 8..64 ends inside it.
    for k in [1, 6, 7, 8, 16, 32, 64, 246, 247, 300] {
        for radius in [1.0, f32::INFINITY, 0.0, 0.6] {
            let want = ball::ball_query(&ties, &all, radius, k);
            let got = octree_ball(&ties, &all, radius, k);
            assert_eq!(got, want, "tie group, r {radius}, k {k}");
        }
    }
    let dense = sample_shape(ShapeClass::Lamp, 2000, 27);
    let queries: Vec<usize> = (0..2000).step_by(7).collect();
    for k in [1, 4, 32] {
        for radius in [f32::INFINITY, 0.3, 0.0] {
            let want = ball::ball_query(&dense, &queries, radius, k);
            assert_eq!(octree_ball(&dense, &queries, radius, k), want, "r {radius}, k {k}");
        }
    }
}

/// `scene_32k`'s first set-abstraction shape: 512 centroids, radius 0.2,
/// `k = 32` over 32,768 surface points, where a ball holds hundreds of
/// points and the selection compacts many times per query.
#[test]
#[cfg_attr(debug_assertions, ignore = "16.8 M pairs through the oracle: release only")]
fn scene_scale_octree_ball_matches_the_collect_and_sort_oracle() {
    let cloud = sample_shape(ShapeClass::Chair, 32768, 7);
    let queries: Vec<usize> = (0..32768).step_by(64).collect();
    let want = ball::ball_query(&cloud, &queries, 0.2, 32);
    assert_eq!(octree_ball(&cloud, &queries, 0.2, 32), want);
}

// ---------------------------------------------------------------------
// The pluggable subsystem: trait objects and the context.
// ---------------------------------------------------------------------

/// Both backends behind `Box<dyn SearchIndex>`, by name; each answers kNN
/// and ball queries at any radius.
fn backends(cloud: &PointCloud) -> [(&'static str, Box<dyn SearchIndex>); 2] {
    [
        ("bruteforce", Box::new(BruteForceIndex::build(cloud))),
        ("octree", Box::new(MortonOctree::build(cloud))),
    ]
}

#[test]
fn trait_object_knn_matches_bruteforce_with_ties_and_extremes() {
    let clouds = [sample_shape(ShapeClass::Vase, 180, 21), cloud_with_duplicates()];
    for cloud in &clouds {
        let n = cloud.len();
        let queries = all_queries(cloud);
        for k in [1, 3, n / 2, n] {
            let want = bruteforce::knn_indices(cloud, &queries, k);
            for (kind, backend) in &mut backends(cloud) {
                let mut got = NeighborIndexTable::default();
                let evals = backend.knn_into(cloud, &queries, k, &mut got);
                assert_eq!(got, want, "{kind} kNN drifted at k {k}, n {n}");
                assert!(evals > 0, "{kind} must meter distance work");
            }
        }
    }
}

#[test]
fn trait_object_ball_matches_reference_with_padding_and_ties() {
    // The duplicate cloud forces index-order tie-breaks; the sparse pair
    // forces padding in every backend.
    for (cloud, radius, k) in [
        (sample_shape(ShapeClass::Table, 160, 22), 0.25, 8),
        (cloud_with_duplicates(), 0.3, 9),
        // Covering radius: the padded ball query degenerates to exact kNN.
        (sample_shape(ShapeClass::Sphere, 90, 23), 3.0, 5),
    ] {
        let queries = all_queries(&cloud);
        let want = ball::ball_query(&cloud, &queries, radius, k);
        for (kind, backend) in &mut backends(&cloud) {
            let mut got = NeighborIndexTable::default();
            backend.ball_into(&cloud, &queries, radius, k, &mut got);
            assert_eq!(got, want, "{kind} ball drifted (r {radius}, k {k})");
        }
    }
}

#[test]
fn trait_object_rebuild_over_new_frame_answers_for_the_new_cloud() {
    let a = sample_shape(ShapeClass::Chair, 128, 24);
    let b = sample_shape(ShapeClass::Guitar, 128, 25);
    let queries = all_queries(&a);
    for (kind, backend) in &mut backends(&a) {
        backend.build_into(&b);
        let mut got = NeighborIndexTable::default();
        backend.knn_into(&b, &queries, 6, &mut got);
        assert_eq!(got, bruteforce::knn_indices(&b, &queries, 6), "{kind}");
    }
}

/// Satellite audit: a zero-extent AABB (all points coincident) gives every
/// point the same Morton code, so the octree is one leaf of 30; both
/// backends must still agree, ties broken by index, padding never needed
/// (everything is in radius).
#[test]
fn coincident_cloud_zero_extent_agrees_with_all_backends() {
    let cloud = PointCloud::from_points(vec![Point3::new(-2.0, 0.5, 3.25); 30]);
    let queries = all_queries(&cloud);
    for k in [1, 7, 30] {
        let want = ball::ball_query(&cloud, &queries, 0.4, k);
        // All coincident ⇒ the k nearest are simply indices 0..k.
        assert_eq!(want.neighbors(0), (0..k).collect::<Vec<_>>().as_slice());
        for (kind, backend) in &mut backends(&cloud) {
            let mut got = NeighborIndexTable::default();
            backend.ball_into(&cloud, &queries, 0.4, k, &mut got);
            assert_eq!(got, want, "{kind} on coincident cloud, k {k}");
        }
    }
}

/// Satellite audit: k far larger than the in-range population — the
/// octree must pad exactly like the scan pads, never panic or truncate.
#[test]
fn octree_k_beyond_in_range_population_pads_identically() {
    // A line of tight pairs: radius 0.1 reaches at most 2 points.
    let mut pts = Vec::new();
    for i in 0..24 {
        pts.push(Point3::new(i as f32, 0.0, 0.0));
        pts.push(Point3::new(i as f32 + 0.01, 0.0, 0.0));
    }
    let cloud = PointCloud::from_points(pts);
    let queries = all_queries(&cloud);
    for k in [2, 5, 16] {
        let want = ball::ball_query(&cloud, &queries, 0.1, k);
        let got = octree_ball(&cloud, &queries, 0.1, k);
        assert_eq!(got, want, "k {k}");
        // Sparse neighborhoods: entries pad with their first index.
        assert!(got.neighbors(0).iter().filter(|&&i| i == 0).count() >= k - 2);
    }
}

/// Point queries (feature propagation's fine points, not members of the
/// searched cloud) run the same kNN body as member queries: for points of
/// the cloud both backends answer exactly the member table's rows, and for
/// points off it the octree answers the scan's rows, ties included.
#[test]
fn point_queries_match_member_queries_and_the_scan() {
    let coarse = cloud_with_duplicates();
    let n = coarse.len();
    let members: Vec<usize> = (0..n).rev().collect();
    let member_points: Vec<Point3> = members.iter().map(|&q| coarse.point(q)).collect();
    let fine = sample_shape(ShapeClass::Sphere, 150, 28);
    for k in [1, 3, n] {
        let want = bruteforce::knn_indices(&coarse, &members, k);
        let mut off_cloud = Vec::new();
        for (kind, backend) in &mut backends(&coarse) {
            let mut rows = vec![usize::MAX; n * k];
            let evals = backend.knn_points_into(&coarse, &member_points, k, &mut rows);
            assert_eq!(rows, want.neighbors_flat(), "{kind} member points, k {k}");
            assert!(evals > 0, "{kind} must meter distance work");
            let mut rows = vec![usize::MAX; fine.len() * k];
            backend.knn_points_into(&coarse, fine.points(), k, &mut rows);
            off_cloud.push(rows);
        }
        assert_eq!(off_cloud[0], off_cloud[1], "off-cloud points, k {k}");
    }
}

/// The context must produce the scan's NIT, for kNN and ball alike, and
/// is a pure dispatcher: its table *and* its metered distance evaluations
/// equal a direct call on an octree over the same cloud, built once.
#[test]
fn context_tables_and_evals_equal_a_direct_octree_call() {
    let cloud = sample_shape(ShapeClass::Airplane, 300, 26);
    let queries: Vec<usize> = (0..300).step_by(2).collect();
    let knn_want = bruteforce::knn_indices(&cloud, &queries, 10);
    let ball_want = ball::ball_query(&cloud, &queries, 0.3, 10);
    let mut ctx = SearchContext::new();
    let mut direct = MortonOctree::build(&cloud);
    let (mut got, mut direct_got) = (NeighborIndexTable::default(), NeighborIndexTable::default());

    ctx.knn_into(0, &cloud, &queries, 10, &mut got);
    assert_eq!(got, knn_want, "kNN drifted");
    let knn_evals = direct.knn_into(&cloud, &queries, 10, &mut direct_got);
    assert_eq!(got, direct_got, "context kNN != direct octree");
    assert_eq!(ctx.counters().distance_evals, knn_evals, "kNN evals");

    ctx.ball_into(0, &cloud, &queries, 0.3, 10, &mut got);
    assert_eq!(got, ball_want, "ball drifted");
    let ball_evals = direct.ball_into(&cloud, &queries, 0.3, 10, &mut direct_got);
    assert_eq!(got, direct_got, "context ball != direct octree");
    assert_eq!(ctx.counters().distance_evals, knn_evals + ball_evals, "ball evals");
    assert_eq!((ctx.counters().query_calls, ctx.counters().index_builds), (2, 1));
}

// ---------------------------------------------------------------------
// Large clouds: the octree against the scan, over few enough queries for
// the scan to be the oracle at a million points.
// ---------------------------------------------------------------------

/// Deterministic synthetic cloud from a bare LCG — cheap enough for
/// million-point scales, unlike the shape sampler.
fn synthetic_cloud(n: usize, seed: u64) -> PointCloud {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut unit = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
    };
    PointCloud::from_points((0..n).map(|_| Point3::new(unit(), unit(), unit())).collect())
}

/// kNN and ball tables of `index`, rebuilt over `cloud`.
fn rebuilt_answers(
    index: &mut dyn SearchIndex,
    cloud: &PointCloud,
    queries: &[usize],
    k: usize,
    radius: f32,
) -> (NeighborIndexTable, NeighborIndexTable) {
    index.build_into(cloud);
    let (mut knn, mut ball) = (NeighborIndexTable::default(), NeighborIndexTable::default());
    assert!(index.knn_into(cloud, queries, k, &mut knn) > 0);
    assert!(index.ball_into(cloud, queries, radius, k, &mut ball) > 0);
    (knn, ball)
}

/// One octree rebuilt over two `n`-point clouds in turn: every kNN and
/// ball table over 256 queries equals the scan's, and once both clouds
/// have been seen (node layout is content-dependent) two more rounds of
/// warm rebuilds leave `storage_bytes()` where it was.
fn octree_agrees_with_the_scan_across_warm_rebuilds(n: usize) {
    let clouds = [synthetic_cloud(n, 2020), synthetic_cloud(n, 2021)];
    let queries: Vec<usize> = (0..n).step_by(n / 256).collect();
    let (k, radius) = (16, 0.05);
    let mut scan = BruteForceIndex::default();
    let want = clouds.each_ref().map(|c| rebuilt_answers(&mut scan, c, &queries, k, radius));
    let mut octree = MortonOctree::default();
    let mut warm_bytes = None;
    for round in 0..3 {
        for (cloud, want) in clouds.iter().zip(&want) {
            let got = rebuilt_answers(&mut octree, cloud, &queries, k, radius);
            assert_eq!(got.0, want.0, "kNN drifted from the scan, n {n} round {round}");
            assert_eq!(got.1, want.1, "ball drifted from the scan, n {n} round {round}");
            if let Some(bytes) = warm_bytes {
                assert_eq!(octree.storage_bytes(), bytes, "warm rebuild grew storage, n {n}");
            }
        }
        warm_bytes = Some(octree.storage_bytes());
    }
}

#[test]
fn octree_matches_the_scan_at_32k_points_across_warm_rebuilds() {
    octree_agrees_with_the_scan_across_warm_rebuilds(1 << 15);
}

#[test]
#[ignore = "million-point acceptance; run with --release --ignored (threads-2 CI job)"]
fn octree_matches_the_scan_at_a_million_points_across_warm_rebuilds() {
    octree_agrees_with_the_scan_across_warm_rebuilds(1 << 20);
}

// ---------------------------------------------------------------------
// Feature space: the two-pass tiled scan against the per-pair scan.
// ---------------------------------------------------------------------

/// The scan `feature::knn_rows_into` replaced: one `distance_squared` per
/// (query, row) pair, rows offered to `push_bounded` in ascending index.
fn per_pair_knn(view: FeatureView<'_>, queries: &[usize], k: usize) -> (NeighborIndexTable, u64) {
    let mut out = NeighborIndexTable::new(k);
    let (mut best, mut neighbors, mut evals) = (Vec::new(), Vec::new(), 0);
    for &q in queries {
        best.clear();
        for i in 0..view.rows() {
            let dist_sq = feature::distance_squared(view.row(q), view.row(i));
            push_bounded(&mut best, k, Candidate { index: i, dist_sq });
            evals += 1;
        }
        neighbors.clear();
        neighbors.extend(best.iter().map(|c| c.index));
        out.push_entry(q, &neighbors);
    }
    (out, evals)
}

/// Row counts around the 16-lane block edge — 33, 50 and 250 also leave
/// fewer blocks than the `ceil(3k / 16)` minima groups `k = 20` or
/// `k = rows` ask for, so unused `+∞` lanes sit among the minima — and dims
/// around the 4-wide vector edge.
const FEATURE_ROWS: [usize; 8] = [1, 15, 16, 17, 33, 50, 64, 250];
const FEATURE_DIMS: [usize; 4] = [1, 3, 64, 130];

/// `(rows, dim, data)`: continuous values, optionally snapped to a 0.5 grid
/// (so distances tie between distinct rows), then edited element- and
/// row-wise: duplicated rows, `±0.0`, and — in half the cases — `NaN`/`±∞`.
/// One case in four is then flattened to a single repeated row (every
/// distance ties at the bound, 0), and one in four keeps only
/// `min(rows, 20) − 1` rows finite, the rest alternately `NaN` and `+∞`:
/// one fewer than the middle `k` the test asks for.
fn arb_feature_rows() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (0..FEATURE_ROWS.len(), 0..FEATURE_DIMS.len(), 0u8..2, 0u8..2, 0u8..4).prop_flat_map(
        |(r, d, snap, non_finite, shape)| {
            let (rows, dim) = (FEATURE_ROWS[r], FEATURE_DIMS[d]);
            let values = prop::collection::vec(-2.0f32..2.0, rows * dim);
            let edits =
                prop::collection::vec((0u8..3 + 3 * non_finite, 0..rows, 0..rows, 0..dim), 0..12);
            (values, edits).prop_map(move |(mut data, edits)| {
                if snap == 1 {
                    data.iter_mut().for_each(|v| *v = (*v * 2.0).round() / 2.0);
                }
                for (kind, a, b, col) in edits {
                    match kind {
                        0 => data.copy_within(a * dim..(a + 1) * dim, b * dim),
                        1 => data[a * dim + col] = 0.0,
                        2 => data[a * dim + col] = -0.0,
                        3 => data[a * dim + col] = f32::NAN,
                        4 => data[a * dim + col] = f32::INFINITY,
                        _ => data[a * dim + col] = f32::NEG_INFINITY,
                    }
                }
                match shape {
                    2 => (1..rows).for_each(|r| data.copy_within(0..dim, r * dim)),
                    3 => (rows.min(20) - 1..rows).for_each(|r| {
                        data[r * dim] = if r % 2 == 0 { f32::NAN } else { f32::INFINITY };
                    }),
                    _ => {}
                }
                (rows, dim, data)
            })
        },
    )
}

/// 1024 × 128 at `k = 20`, every row a query: DGCNN's widest search, the
/// shape the scan's tile, bound and buffer sizes were chosen at. Values on
/// a four-level grid, so distances are small integers (about 1.5 rows per
/// value around the 20th place) and ties at the bound are common; some rows
/// are exact copies of others.
#[test]
#[cfg_attr(debug_assertions, ignore = "a million 128-wide pairs through the oracle: release only")]
fn paper_scale_feature_scan_matches_the_per_pair_scan() {
    let (rows, dim, k) = (1024, 128, 20);
    let mut data: Vec<f32> =
        (0..rows * dim).map(|i| (((i * 2_654_435_761) >> 7) % 4) as f32).collect();
    for r in (0..rows).step_by(37) {
        data.copy_within(r * dim..(r + 1) * dim, ((r * 5 + 3) % rows) * dim);
    }
    let view = FeatureView::new(&data, dim).expect("rows * dim values");
    let queries: Vec<usize> = (0..rows).collect();
    let (want, want_evals) = per_pair_knn(view, &queries, k);
    let mut got = NeighborIndexTable::default();
    let evals = feature::knn_rows_into(view, &queries, k, &mut got, &mut FeatureScratch::default());
    assert_eq!(got, want);
    assert_eq!(evals, want_evals);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Same tables and evaluation counts as the per-pair scan: at every
    /// block tail, for `k = 1` through `k = rows`, on query subsets of
    /// every length modulo the four-query tile, with index tie-breaks and
    /// non-finite features, sequentially and in the parallel query chunks
    /// that read one shared panel, with the scratch reused across shapes.
    #[test]
    fn blocked_feature_scan_matches_the_per_pair_scan(
        (rows, dim, data) in arb_feature_rows(),
        start in 0usize..250,
        step in 1usize..4,
        drop in 0usize..4,
    ) {
        let view = FeatureView::new(&data, dim).expect("rows * dim values");
        let mut queries: Vec<usize> = (start % rows..rows).step_by(step).collect();
        queries.truncate(queries.len().saturating_sub(drop).max(1));
        let mut scratch = FeatureScratch::default();
        let mut got = NeighborIndexTable::default();
        for k in [1, rows.min(20), rows] {
            let (want, want_evals) = per_pair_knn(view, &queries, k);
            for threads in [1, 8] {
                let evals = mesorasi_par::with_threads(threads, || {
                    feature::knn_rows_into(view, &queries, k, &mut got, &mut scratch)
                });
                prop_assert_eq!(&got, &want, "rows {} dim {} k {} threads {}", rows, dim, k, threads);
                prop_assert_eq!(evals, want_evals);
            }
        }
    }
}
