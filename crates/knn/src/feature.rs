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
//! [`knn_rows_into`] bounds first, then ranks. Once per call the searched
//! rows are copied into a dim-major *panel* of 16-row blocks
//! (`panel[(block · dim + d) · 16 + lane]`, row `block · 16 + lane`; the
//! last block's unused lanes hold zeros), `ceil(rows / 16) · 16 · dim · 4`
//! bytes held in the caller's [`FeatureScratch`]. Queries are then answered
//! four at a time, in two passes that are both exact:
//!
//! 1. **Distances.** [`mesorasi_tensor::simd::sqdist_rows`] writes the four
//!    queries' distances to every row into a `4 × ceil16(rows)` buffer
//!    (16 KB at 1024 rows, so it stays in L1). Each of its accumulators
//!    takes `(q[d] − row[d])²` for `d` ascending — the same sum
//!    [`distance_squared`] computes, so every distance is bit-equal to it —
//!    and a panel column, once loaded, serves all four queries. The unused
//!    lanes of each distance row are then set to `+∞`.
//! 2. **Bound, then rank.** Per query, the distance row is folded into
//!    `w = min(ceil(3k / 16), ceil(rows / 16)) · 16` lane-wise minima —
//!    minimum `c` is over the rows whose index is `c` modulo `w` — and τ is
//!    the `k`-th smallest of them. Only rows with `d ≤ τ` are offered, in
//!    ascending index, to the shared [`crate::bruteforce::push_bounded`]:
//!    about 23 rows per query at `k = 20` over 1024 rows, where ranking
//!    every row as it arrived made about 97 sorted inserts.
//!
//! **τ bounds the `k`-th distance from above.** The `w` residue classes are
//! disjoint, so the `k` minima that are `≤ τ` are distances of `k` distinct
//! rows. At least `k` rows therefore lie within τ, the `k`-th smallest
//! distance is `≤ τ`, and every member of the answer passes the filter —
//! including every row tied at τ, so the `(distance, index)` rule decides
//! among ties exactly as before. Offering a superset of the answer in
//! ascending index to the same bounded insert leaves the same `k` rows in
//! the same order. An `+∞` lane never wins a minimum; when fewer than `k`
//! classes hold a row at finite distance, τ is `+∞` and nothing is
//! filtered.
//!
//! **`NaN` bypass.** No comparison orders a `NaN` distance, and what
//! `push_bounded` leaves after meeting one depends on the whole sequence of
//! offers. A distance row holding any `NaN` therefore gets no bound: every
//! row is offered, which is the one-pair-at-a-time scan itself. The tables
//! are those of that scan for every input, non-finite features included.
//!
//! Per worker the scan keeps, beside the `k + 1` candidates of the
//! selection buffer, `4 · ceil16(rows) + w` floats: pooled per
//! `mesorasi-par` slot for the parallel path, in the [`FeatureScratch`]
//! for the sequential one, grown once and counted in
//! [`FeatureScratch::storage_bytes`] and [`crate::parallel_scratch_bytes`].

use crate::bruteforce::Candidate;
use crate::NeighborIndexTable;
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
/// ascending `d`. [`knn_rows_into`] does not call it: it is the scalar
/// reference that scan's distances are bit-equal to.
#[inline]
pub fn distance_squared(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Rows per panel block, and lanes per block of a distance row.
const LANES: usize = mesorasi_tensor::simd::SQDIST_LANES;

/// Queries whose distance rows are computed in one pass over the panel.
const QUERY_TILE: usize = 4;

/// Reusable storage of [`knn_rows_into`]: the dim-major panel of the
/// searched rows and the sequential path's tile scratch. Both keep their
/// capacity between calls, so a warm call of the same shape does not
/// allocate.
#[derive(Debug, Default)]
pub struct FeatureScratch {
    panel: Vec<f32>,
    tile: TileScratch,
}

impl FeatureScratch {
    /// Heap bytes retained (capacity, not length).
    pub fn storage_bytes(&self) -> usize {
        self.panel.capacity() * std::mem::size_of::<f32>() + self.tile.storage_bytes()
    }
}

/// What one worker needs to answer a query tile: the tile's distance rows
/// (`QUERY_TILE × ceil16(rows)`), the lane-wise minima the bound is taken
/// from, and the selection buffer.
#[derive(Debug, Default)]
pub(crate) struct TileScratch {
    dist: Vec<f32>,
    minima: Vec<f32>,
    best: Vec<Candidate>,
}

impl TileScratch {
    /// Heap bytes retained (capacity, not length).
    pub(crate) fn storage_bytes(&self) -> usize {
        (self.dist.capacity() + self.minima.capacity()) * std::mem::size_of::<f32>()
            + self.best.capacity() * std::mem::size_of::<Candidate>()
    }
}

/// Per-worker [`TileScratch`] of the parallel path, keyed like
/// [`crate::candidate_pool`].
pub(crate) fn tile_pool() -> &'static mesorasi_par::ScratchPool<TileScratch> {
    static POOL: OnceLock<mesorasi_par::ScratchPool<TileScratch>> = OnceLock::new();
    POOL.get_or_init(mesorasi_par::ScratchPool::new)
}

/// Copies `view` into `panel` in the blocked dim-major layout. Every real
/// lane is overwritten, so only the last block's unused lanes are zeroed.
fn fill_panel(view: FeatureView<'_>, panel: &mut Vec<f32>) {
    let (rows, dim) = (view.rows(), view.dim());
    panel.resize(rows.div_ceil(LANES) * dim * LANES, 0.0);
    for (b, block) in panel.chunks_exact_mut(dim * LANES).enumerate() {
        let used = LANES.min(rows - b * LANES);
        for lane in 0..used {
            for (col, &v) in block.chunks_exact_mut(LANES).zip(view.row(b * LANES + lane)) {
                col[lane] = v;
            }
        }
        if used < LANES {
            block.chunks_exact_mut(LANES).for_each(|col| col[used..].fill(0.0));
        }
    }
}

/// An upper bound τ on the `k`-th smallest of `dist` (one padded distance
/// row, unused lanes `+∞`), or `None` when the row holds a `NaN` and so has
/// no bound. The module docs' "# The scan" has the argument.
fn kth_bound(dist: &[f32], k: usize, minima: &mut Vec<f32>) -> Option<f32> {
    let width = (3 * k).div_ceil(LANES).min(dist.len() / LANES) * LANES;
    minima.clear();
    minima.resize(width, f32::INFINITY);
    let mut nan = false;
    for chunk in dist.chunks(width) {
        for (m, &d) in minima.iter_mut().zip(chunk) {
            nan |= d.is_nan();
            *m = if d < *m { d } else { *m };
        }
    }
    (!nan).then(|| *minima.select_nth_unstable_by(k - 1, f32::total_cmp).1)
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
/// scratch. The panel is built once and read by every query chunk, on
/// whichever worker runs it. Returns the number of distance evaluations
/// (`rows × queries`).
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
    let (rows, dim) = (view.rows(), view.dim());
    assert!(k > 0 && k <= rows, "k = {k} out of range for {rows} rows");
    let FeatureScratch { panel, tile } = scratch;
    fill_panel(view, panel);
    let panel = panel.as_slice();
    let padded = panel.len() / dim;
    let cost = rows * dim * 3;
    let pool = tile_pool();
    let slots = crate::index::table_slots(out, queries, k);
    crate::index::batch_chunks_into(slots, queries, k, cost, tile, pool, |tile, chunk, slots| {
        let TileScratch { dist, minima, best } = tile;
        dist.resize(QUERY_TILE * padded, 0.0);
        for (qs, slots) in chunk.chunks(QUERY_TILE).zip(slots.chunks_mut(QUERY_TILE * k)) {
            // Pass 1: the tile's distances to every row.
            let qrows: [&[f32]; QUERY_TILE] =
                std::array::from_fn(|i| view.row(qs[i.min(qs.len() - 1)]));
            let dist = &mut dist[..qs.len() * padded];
            mesorasi_tensor::simd::sqdist_rows(&qrows[..qs.len()], panel, dist);
            for (dist, slot) in dist.chunks_exact_mut(padded).zip(slots.chunks_exact_mut(k)) {
                dist[rows..].fill(f32::INFINITY);
                // Pass 2: rank what the bound lets through.
                let tau = kth_bound(dist, k, minima);
                best.clear();
                for (index, &dist_sq) in dist[..rows].iter().enumerate() {
                    if tau.is_none_or(|tau| dist_sq <= tau) {
                        crate::bruteforce::push_bounded(best, k, Candidate { index, dist_sq });
                    }
                }
                for (s, c) in slot.iter_mut().zip(best.iter()) {
                    *s = c.index;
                }
            }
        }
        (rows * chunk.len()) as u64
    })
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
