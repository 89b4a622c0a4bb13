//! KNN in arbitrary-dimensional feature space.
//!
//! DGCNN rebuilds its neighbor graph *per module*, searching in the output
//! feature space of the previous module rather than in 3-D coordinates
//! (paper §V-A: "the neighbor search in module i searches in the output
//! feature space of module i−1"). Feature dimensions reach 64–512, where a
//! spatial tree degenerates, so implementations — and our GPU cost model — use a
//! dense pairwise-distance computation. This module provides that search
//! over row-major feature matrices.
//!
//! # The scan
//!
//! [`knn_rows_into`] bounds first, then ranks. Once per call it keeps, in
//! the caller's [`FeatureScratch`], the searched rows transposed
//! (`dim × rows`), each row's squared norm `n_r = fl(‖r‖²)` and an error
//! scale `t_r` (below). Queries are then answered in tiles of
//! `max(PACK_MIN_ROWS, 256 KiB / (4 · rows))` rows (64 at DGCNN's 1024),
//! in two passes:
//!
//! 1. **Gram tile.** The tile's query rows, gathered into a matrix, times
//!    the transposed rows through [`mesorasi_tensor::ops::matmul_into`] —
//!    the packed, register-tiled matmul driver — give every `g = q · r` of
//!    the tile: 256 KiB at DGCNN's shape, a block that stays in L2, never
//!    the `rows × rows` matrix. Each pair gets the estimate
//!    `d̂ = (n_q + n_r) − 2g` and the half-width `E = (t_q + t_r)²`.
//! 2. **Bound, select, rank,** one query at a time, in `simd` kernels.
//!    [`mesorasi_tensor::simd::gram_bounds`] writes every row's interval
//!    `[d̂ − E, d̂ + E]` and folds the upper ends into `w = min(ceil(3k /
//!    16), ceil(rows / 16)) · 16` lane-wise minima — minimum `c` is over
//!    the rows whose index is `c` modulo `w`; τ̂ is the `k`-th smallest of
//!    them ([`mesorasi_tensor::simd::kth_smallest`]);
//!    [`mesorasi_tensor::simd::select_below`] keeps, by a compare mask and
//!    a compress, the rows whose lower end is not above τ̂ — about 23 per
//!    query at `k = 20` over 1024 rows. Only those are ranked: sorted by
//!    lower end, they fall into clusters of overlapping intervals.
//!    Intervals that do not overlap order their rows by themselves; the
//!    members of a cluster that reaches the first `k` places — near-ties,
//!    duplicates, the query's own row against a twin — are ordered by
//!    `(distance, index)` on the per-pair scan's own distance,
//!    [`distance_squared`], which [`mesorasi_tensor::simd::sqdist8`]
//!    computes bit for bit for eight rows at a time.
//!
//! **Why `E` bounds the error.** Write `D = ‖q − r‖²` for the exact
//! distance, `S = (‖q‖ + ‖r‖)² ≥ D`, `u = 2⁻²⁴` and `γ_n = nu / (1 − nu)`.
//! The ranked distance `ref` ([`distance_squared`]) rounds each of its `d`
//! terms at most three times and their sum `d − 1` times, all terms
//! non-negative, so `|ref − D| ≤ γ_{d+2} D`. For the estimate, `n_r` (an
//! `f64` sum rounded once to `f32`) is within `γ_d` of `‖r‖²`, `g` (a chain
//! of `d` fused multiply-adds) within `γ_d ‖q‖‖r‖` of `q · r`, and `d̂`
//! rounds twice more (`2g` is exact), so `|d̂ − D| ≤ γ_{d+2} S` and
//! `|d̂ − ref| ≤ 2γ_{d+2} S`. Gradual underflow adds at most `2⁻¹⁵⁰` per
//! operation outright, over some `2d + 8` operations: `η = (4d + 16) ·
//! 2⁻¹⁴⁹` covers that twice. The scale is `t_r = √c · ‖r‖ + √η / 2` with
//! `c = 2γ_{d+4}`, computed in `f64` and inflated by `2⁻²⁰` before its one
//! rounding to `f32`, so `(t_q + t_r)² ≥ cS + η` and its two `f32`
//! roundings leave `E ≥ 2γ_{d+4} S + η/2 ≥ 2γ_{d+2} S + 4uS + η/2`; the
//! `4uS` absorbs the rounding of `d̂ ± E` itself. So
//! `fl(d̂ − E) ≤ ref ≤ fl(d̂ + E)` for every pair of rows with `‖r‖ ≤ 2⁶²`,
//! and in that range nothing overflows.
//!
//! **Why every neighbor survives, and in order.** The `w` residue classes
//! are disjoint, so the `k` minima that are `≤ τ̂` are upper ends of `k`
//! distinct rows: at least `k` rows have `ref ≤ τ̂`, so the `k`-th smallest
//! `ref` is `≤ τ̂`. Every member of the answer — and every row tied with the
//! `k`-th, ties at τ̂ included — has `d̂ − E ≤ ref ≤ τ̂` and survives. In
//! ascending order of lower end, a new cluster starts only past the upper
//! ends of everything before it, so every `ref` in one cluster is below
//! every `ref` in the next; rows with equal `ref` share a cluster, where
//! the `(distance, index)` rule orders them. The first `k` rows so ordered
//! are the per-pair scan's `k` rows, in its order.
//!
//! **When a query scans every row.** A row whose norm is not finite or
//! exceeds `2⁶²` (a `NaN` or `±∞` feature, or a square that would
//! overflow) gets `t_r = +∞`: every interval it is in has an infinite or
//! `NaN` end, so it is always kept (the compare is unordered, `−∞` and
//! `NaN` pass) and never wins a minimum. A query whose τ̂ or whose kept
//! intervals are not finite — it met such a row, or is one — takes the
//! exhaustive path: every row offered in ascending index to the shared
//! [`crate::bruteforce::push_bounded`], which is the one-pair-at-a-time
//! scan itself, `NaN` distances and all. The tables are the per-pair
//! scan's for every input.
//!
//! The call keeps `(dim + 2) · rows` floats; per worker the tile keeps the
//! gathered queries, the Gram tile, two `rows`-long interval ends, the `w`
//! minima, a `rows`-long survivor list with its order, and the candidates
//! of a cluster or of the exhaustive path: pooled per `mesorasi-par` slot
//! for the parallel path, in the [`FeatureScratch`] for the sequential
//! one, grown once and counted in [`FeatureScratch::storage_bytes`] and
//! [`crate::parallel_scratch_bytes`].

use crate::bruteforce::Candidate;
use crate::NeighborIndexTable;
use mesorasi_tensor::ops::{matmul_into, PACK_MIN_ROWS};
use mesorasi_tensor::simd::{self, GramBound, SQDIST_ROWS};
use mesorasi_tensor::Matrix;
use std::sync::OnceLock;

/// A borrowed row-major `rows × dim` feature matrix.
///
/// # Example
///
/// ```
/// use mesorasi_knn::feature::FeatureView;
///
/// let data = [0.0, 0.0, 1.0, 0.0, 0.0, 3.0];
/// let view = FeatureView::new(&data, 3).expect("2 rows of dim 3");
/// assert_eq!(view.rows(), 2);
/// assert_eq!(view.row(1), &[0.0, 0.0, 3.0]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FeatureView<'a> {
    data: &'a [f32],
    dim: usize,
}

impl<'a> FeatureView<'a> {
    /// Wraps `data` as a matrix with `dim` columns.
    ///
    /// Returns `None` when `data.len()` is not a multiple of `dim` or `dim`
    /// is zero.
    pub fn new(data: &'a [f32], dim: usize) -> Option<Self> {
        if dim == 0 || !data.len().is_multiple_of(dim) {
            return None;
        }
        Some(FeatureView { data, dim })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Feature dimension (columns).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// Squared Euclidean distance between two equal-length vectors, summed in
/// ascending `d`: the distance [`knn_rows_into`]'s tables are ranked by,
/// which it computes only for the rows its bound cannot order.
#[inline]
pub fn distance_squared(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Lanes per block of the minima width.
const LANES: usize = 16;

/// Gram tile budget: a tile holds `max(PACK_MIN_ROWS, this / (4 · rows))`
/// queries, so at DGCNN's 1024 rows a 64-query tile of 256 KiB that stays
/// in L2 while the bound pass reads it.
const GRAM_TILE_BYTES: usize = 256 * 1024;

/// Rows whose `f64` squared norm exceeds this (`‖r‖ > 2⁶²`), or is not
/// finite, get an infinite error scale: beyond it `(‖q‖ + ‖r‖)²` could
/// overflow `f32`.
const WILD_NORM: f64 = (1u128 << 124) as f64;

/// Reusable storage of [`knn_rows_into`]: the searched rows transposed,
/// their norms and error scales, and the sequential path's tile scratch.
/// All keep their capacity between calls, so a warm call of the same shape
/// does not allocate.
#[derive(Debug, Default)]
pub struct FeatureScratch {
    transposed: Matrix,
    norms: Vec<f32>,
    scales: Vec<f32>,
    tile: TileScratch,
}

impl FeatureScratch {
    /// Heap bytes retained (capacity, not length).
    pub fn storage_bytes(&self) -> usize {
        (self.transposed.capacity() + self.norms.capacity() + self.scales.capacity())
            * std::mem::size_of::<f32>()
            + self.tile.storage_bytes()
    }
}

/// What one worker needs to answer a query tile: the gathered query rows,
/// their Gram tile, and the per-query [`Select`] scratch.
#[derive(Debug, Default)]
pub(crate) struct TileScratch {
    queries: Matrix,
    gram: Matrix,
    select: Select,
}

impl TileScratch {
    /// Heap bytes retained (capacity, not length).
    pub(crate) fn storage_bytes(&self) -> usize {
        (self.queries.capacity() + self.gram.capacity()) * std::mem::size_of::<f32>()
            + self.select.storage_bytes()
    }
}

/// Pass 2's scratch for one query at a time: the lower and upper bounds,
/// the lane-wise minima τ̂ is taken from, the survivor list, the
/// survivors' sort keys, and the candidates of an overlap cluster or of
/// the exhaustive path.
#[derive(Debug, Default)]
struct Select {
    lower: Vec<f32>,
    upper: Vec<f32>,
    minima: Vec<f32>,
    kept: Vec<u32>,
    keys: Vec<u64>,
    best: Vec<Candidate>,
}

impl Select {
    /// Heap bytes retained (capacity, not length).
    fn storage_bytes(&self) -> usize {
        (self.lower.capacity() + self.upper.capacity() + self.minima.capacity())
            * std::mem::size_of::<f32>()
            + self.kept.capacity() * std::mem::size_of::<u32>()
            + self.keys.capacity() * std::mem::size_of::<u64>()
            + self.best.capacity() * std::mem::size_of::<Candidate>()
    }

    /// Sizes the buffers for `rows` searched rows and `width` minima.
    fn reset(&mut self, rows: usize, width: usize) {
        self.lower.resize(rows, 0.0);
        self.upper.resize(rows, 0.0);
        self.minima.resize(width, 0.0);
        self.kept.resize(rows, 0);
    }

    /// Answers the query row `q`, whose Gram row `bound` carries, into
    /// `slot` (`k` wide): bound, select, rank what survives — or, when τ̂
    /// or a survivor's interval is not finite, every row. Returns the rows
    /// ranked.
    fn answer(
        &mut self,
        view: FeatureView<'_>,
        q: &[f32],
        bound: GramBound<'_>,
        slot: &mut [usize],
    ) -> u64 {
        let k = slot.len();
        simd::gram_bounds(bound, &mut self.lower, &mut self.upper, &mut self.minima);
        let tau = simd::kth_smallest(&self.minima, k);
        let kept = simd::select_below(&self.lower, tau, &mut self.kept);
        if tau.is_finite() && self.rank(view, q, kept, slot) {
            return kept as u64;
        }
        let best = &mut self.best;
        best.clear();
        for (index, row) in (0..view.rows()).map(|r| (r, view.row(r))) {
            let dist_sq = distance_squared(q, row);
            crate::bruteforce::push_bounded(best, k, Candidate { index, dist_sq });
        }
        for (s, c) in slot.iter_mut().zip(best.iter()) {
            *s = c.index;
        }
        (kept + view.rows()) as u64
    }

    /// Orders the first `kept` survivors of the query row `q` and writes the
    /// first `k` into `slot`. Sorted by lower bound (one `u64` key each: the
    /// bound's bits, then the row), they fall into clusters of
    /// overlapping intervals; clusters are ordered by their intervals
    /// alone, and the members of a cluster that reaches the first `k`
    /// places are ranked by `(distance, index)` on their
    /// [`distance_squared`]. Returns `false`, writing nothing, when a
    /// survivor's interval is not finite: the bound cannot place it.
    fn rank(&mut self, view: FeatureView<'_>, q: &[f32], kept: usize, slot: &mut [usize]) -> bool {
        let Select { lower, upper, kept: rows, keys, best: cluster, .. } = self;
        let k = slot.len();
        keys.clear();
        for &r in &rows[..kept] {
            let (lo, up) = (lower[r as usize], upper[r as usize]);
            if !(lo.is_finite() && up.is_finite()) {
                return false;
            }
            // Unsigned order of these bits is the order of `lo`.
            let bits = if lo < 0.0 { !lo.to_bits() } else { lo.to_bits() | 1 << 31 };
            keys.push(u64::from(bits) << 32 | u64::from(r));
        }
        debug_assert!(kept >= k, "the bound keeps at least k rows");
        keys.sort_unstable();
        let row = |i: usize| keys[i] as u32 as usize;
        // The end of the cluster that starts at place `start`.
        let cluster_end = |start: usize| {
            let (mut reach, mut end) = (upper[row(start)], start + 1);
            while end < kept && lower[row(end)] <= reach {
                reach = reach.max(upper[row(end)]);
                end += 1;
            }
            end
        };
        // The members of every cluster that reaches the first `k` places,
        // their distances taken eight rows at a time across clusters.
        cluster.clear();
        let mut start = 0;
        while start < k {
            let end = cluster_end(start);
            if end - start > 1 {
                cluster.extend((start..end).map(|i| Candidate { index: row(i), dist_sq: 0.0 }));
            }
            start = end;
        }
        for group in cluster.chunks_mut(SQDIST_ROWS) {
            let rows = std::array::from_fn(|j| view.row(group[j.min(group.len() - 1)].index));
            for (c, dist_sq) in group.iter_mut().zip(simd::sqdist8(q, rows)) {
                c.dist_sq = dist_sq;
            }
        }
        let (mut start, mut member) = (0, 0);
        while start < k {
            let end = cluster_end(start);
            if end - start == 1 {
                slot[start] = row(start);
            } else {
                let members = &mut cluster[member..member + end - start];
                member += end - start;
                // `(distance, index)`: these distances are finite and not
                // below `+0.0`, so their bits order as their values.
                members.sort_unstable_by_key(|c| (c.dist_sq.to_bits(), c.index));
                for (s, c) in slot[start..].iter_mut().zip(members.iter()) {
                    *s = c.index;
                }
            }
            start = end;
        }
        true
    }
}

/// Per-worker [`TileScratch`] of the parallel path, keyed like
/// [`crate::candidate_pool`].
pub(crate) fn tile_pool() -> &'static mesorasi_par::ScratchPool<TileScratch> {
    static POOL: OnceLock<mesorasi_par::ScratchPool<TileScratch>> = OnceLock::new();
    POOL.get_or_init(mesorasi_par::ScratchPool::new)
}

/// Fills `transposed` with `view` transposed, and `norms` / `scales` with
/// each row's `fl(‖r‖²)` and error scale `t_r = √c · ‖r‖ + √η / 2` (see
/// the module docs' "# The scan").
fn prepare(view: FeatureView<'_>, scratch: &mut FeatureScratch) {
    // Stripes of eight output rows, each filled front to back in 8 × 8
    // blocks: sixteen output rows one row-stride apart would share a cache
    // set whenever `rows` is a multiple of 1024.
    const STRIPE: usize = 8;
    let (rows, dim) = (view.rows(), view.dim());
    scratch.transposed.reset_shape(dim, rows);
    let out = scratch.transposed.as_mut_slice();
    for (s, stripe) in out.chunks_mut(STRIPE * rows).enumerate() {
        let d = s * STRIPE..(s * STRIPE + STRIPE).min(dim);
        let mut r0 = 0;
        while r0 + STRIPE <= rows {
            let mut block = [[0.0f32; STRIPE]; STRIPE];
            for (rr, r) in (r0..r0 + STRIPE).enumerate() {
                for (column, &v) in block.iter_mut().zip(&view.row(r)[d.clone()]) {
                    column[rr] = v;
                }
            }
            for (out_row, column) in stripe.chunks_exact_mut(rows).zip(&block) {
                out_row[r0..r0 + STRIPE].copy_from_slice(column);
            }
            r0 += STRIPE;
        }
        for r in r0..rows {
            for (out_row, &v) in stripe.chunks_exact_mut(rows).zip(&view.row(r)[d.clone()]) {
                out_row[r] = v;
            }
        }
    }
    // c = 2γ_{d+4}; absurd widths get no bound at all.
    let nu = (dim + 4) as f64 * 2f64.powi(-24);
    let c = if nu < 0.5 { 2.0 * nu / (1.0 - nu) } else { f64::INFINITY };
    let half_root_eta = ((4 * dim + 16) as f64 * 2f64.powi(-149)).sqrt() / 2.0;
    scratch.norms.clear();
    scratch.scales.clear();
    for r in 0..rows {
        // Eight partial sums: the order of an `f64` sum of `f32` squares
        // moves it by far less than the `f32` rounding that follows.
        let mut lanes = [0.0f64; STRIPE];
        let chunks = view.row(r).chunks_exact(STRIPE);
        for chunk in chunks.clone().chain([chunks.remainder()]) {
            for (lane, &v) in lanes.iter_mut().zip(chunk) {
                *lane += f64::from(v) * f64::from(v);
            }
        }
        let norm: f64 = lanes.iter().sum();
        scratch.norms.push(norm as f32);
        scratch.scales.push(if norm <= WILD_NORM && c.is_finite() {
            (((c * norm).sqrt() + half_root_eta) * (1.0 + 2f64.powi(-20))) as f32
        } else {
            f32::INFINITY
        });
    }
}

/// KNN over feature rows: for each query row index, the `k` rows nearest in
/// Euclidean distance (the query row itself is included and, at distance 0,
/// comes first). Ties break by row index.
///
/// # Panics
///
/// Panics if `k == 0`, `k > view.rows()`, or a query index is out of range.
pub fn knn_rows(view: FeatureView<'_>, queries: &[usize], k: usize) -> NeighborIndexTable {
    let mut out = NeighborIndexTable::default();
    knn_rows_into(view, queries, k, &mut out, &mut FeatureScratch::default());
    out
}

/// [`knn_rows`] writing into a caller-owned table, with caller-owned
/// scratch. The transposed rows are built once and read by every query
/// tile, on whichever worker runs it. Returns the number of distance
/// evaluations (`rows × queries`).
///
/// # Panics
///
/// Panics if `k == 0`, `k > view.rows()`, or a query index is out of range.
pub fn knn_rows_into(
    view: FeatureView<'_>,
    queries: &[usize],
    k: usize,
    out: &mut NeighborIndexTable,
    scratch: &mut FeatureScratch,
) -> u64 {
    scan_into(view, queries, k, out, scratch);
    (view.rows() * queries.len()) as u64
}

/// [`knn_rows_into`], returning instead the rows handed to exact ranking:
/// the survivors of the bound, plus every row for a query that took the
/// exhaustive path.
pub(crate) fn scan_into(
    view: FeatureView<'_>,
    queries: &[usize],
    k: usize,
    out: &mut NeighborIndexTable,
    scratch: &mut FeatureScratch,
) -> u64 {
    let (rows, dim) = (view.rows(), view.dim());
    assert!(k > 0 && k <= rows, "k = {k} out of range for {rows} rows");
    prepare(view, scratch);
    let FeatureScratch { transposed, norms, scales, tile } = scratch;
    let (transposed, norms, scales) = (&*transposed, norms.as_slice(), scales.as_slice());
    let width = (3 * k).div_ceil(LANES).min(rows.div_ceil(LANES)) * LANES;
    let tile_rows = (GRAM_TILE_BYTES / (4 * rows)).max(PACK_MIN_ROWS);
    let slots = crate::index::table_slots(out, queries, k);
    let (cost, pool) = (rows * dim * 3, tile_pool());
    let tile_scan = |tile: &mut TileScratch, chunk: &[usize], slots: &mut [usize]| {
        let TileScratch { queries: tile_queries, gram, select } = tile;
        select.reset(rows, width);
        let mut ranked = 0;
        for (qs, slots) in chunk.chunks(tile_rows).zip(slots.chunks_mut(tile_rows * k)) {
            // Pass 1: the tile's Gram block.
            tile_queries.reset_shape(qs.len(), dim);
            for (dst, &q) in tile_queries.as_mut_slice().chunks_exact_mut(dim).zip(qs) {
                dst.copy_from_slice(view.row(q));
            }
            matmul_into(tile_queries, transposed, gram);
            // Pass 2, one query at a time.
            for (i, (&q, slot)) in qs.iter().zip(slots.chunks_exact_mut(k)).enumerate() {
                let (query_norm, query_scale) = (norms[q], scales[q]);
                let bound = GramBound { dots: gram.row(i), norms, scales, query_norm, query_scale };
                ranked += select.answer(view, view.row(q), bound, slot);
            }
        }
        ranked
    };
    crate::index::batch_chunks_into::<PACK_MIN_ROWS, _, _>(
        slots, queries, k, cost, tile, pool, tile_scan,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_rejects_ragged_data() {
        assert!(FeatureView::new(&[1.0, 2.0, 3.0], 2).is_none());
        assert!(FeatureView::new(&[1.0, 2.0], 0).is_none());
        assert!(FeatureView::new(&[], 4).is_some());
    }

    #[test]
    fn knn_in_feature_space_finds_closest_rows() {
        // Rows: 0 at origin, 1 near origin, 2 far, 3 nearest to 2.
        let data = [
            0.0, 0.0, //
            0.1, 0.0, //
            5.0, 5.0, //
            5.0, 5.1, //
        ];
        let view = FeatureView::new(&data, 2).unwrap();
        let nit = knn_rows(view, &[0, 2], 2);
        assert_eq!(nit.neighbors(0), &[0, 1]);
        assert_eq!(nit.neighbors(1), &[2, 3]);
    }

    #[test]
    fn matches_3d_bruteforce_when_dim_is_3() {
        use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
        let cloud = sample_shape(ShapeClass::Vase, 128, 4);
        let flat = cloud.to_xyz_rows();
        let view = FeatureView::new(&flat, 3).unwrap();
        let queries: Vec<usize> = (0..128).step_by(11).collect();
        let a = knn_rows(view, &queries, 9);
        let b = crate::bruteforce::knn_indices(&cloud, &queries, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn knn_rows_into_matches_allocating_variant() {
        let data: Vec<f32> = (0..600).map(|i| ((i * 37) % 101) as f32 * 0.1).collect();
        let view = FeatureView::new(&data, 6).unwrap();
        let queries: Vec<usize> = (0..100).step_by(7).collect();
        let want = knn_rows(view, &queries, 5);
        let mut got = crate::NeighborIndexTable::default();
        let evals = knn_rows_into(view, &queries, 5, &mut got, &mut FeatureScratch::default());
        assert_eq!(got, want);
        assert!(evals > 0);
    }

    #[test]
    fn self_is_first_neighbor() {
        let data: Vec<f32> = (0..40).map(|i| i as f32).collect();
        let view = FeatureView::new(&data, 4).unwrap();
        let nit = knn_rows(view, &[3, 7], 3);
        assert_eq!(nit.neighbors(0)[0], 3);
        assert_eq!(nit.neighbors(1)[0], 7);
    }

    #[test]
    fn distance_squared_basic() {
        assert_eq!(distance_squared(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(distance_squared(&[], &[]), 0.0);
    }
}
