//! KNN in arbitrary-dimensional feature space.
//!
//! DGCNN rebuilds its neighbor graph *per module*, searching in the output
//! feature space of the previous module rather than in 3-D coordinates
//! (paper §V-A: "the neighbor search in module i searches in the output
//! feature space of module i−1"). Feature dimensions reach 64–512, where a
//! kd-tree degenerates, so implementations — and our GPU cost model — use a
//! dense pairwise-distance computation. This module provides that search
//! over row-major feature matrices.
//!
//! # The scan
//!
//! [`knn_rows_into`] ranks 16 candidate rows per pass. Once per call the
//! searched rows are copied into a dim-major *panel* of 16-row blocks
//! (`panel[(block · dim + d) · 16 + lane]`, row `block · 16 + lane`; the
//! last block's unused lanes hold zeros and are never offered to the
//! selection), `ceil(rows / 16) · 16 · dim · 4` bytes held in the caller's
//! [`FeatureScratch`]. Per query and block, 16 accumulators take
//! `(q[d] − row[d])²` for `d` ascending. The lanes are independent, each the
//! same ascending-`d` sum [`distance_squared`] computes, so every distance
//! is bit-equal to it. Rows are still offered to the bounded selection in
//! ascending index with the `(distance, index)` tie-break, so the tables are
//! those of the one-pair-at-a-time scan for every input, non-finite
//! features included.

use crate::bruteforce::Candidate;
use crate::NeighborIndexTable;

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

/// Candidate rows ranked per pass of the scan (see the module docs).
const LANES: usize = 16;

/// Reusable storage of [`knn_rows_into`]: the dim-major panel of the
/// searched rows and the sequential path's selection buffer. Both keep
/// their capacity between calls, so a warm call of the same shape does not
/// allocate.
#[derive(Debug, Default)]
pub struct FeatureScratch {
    panel: Vec<f32>,
    best: Vec<Candidate>,
}

impl FeatureScratch {
    /// Heap bytes retained (capacity, not length).
    pub fn storage_bytes(&self) -> usize {
        self.panel.capacity() * std::mem::size_of::<f32>()
            + self.best.capacity() * std::mem::size_of::<Candidate>()
    }
}

/// Copies `view` into `panel` in the blocked dim-major layout, zeroing the
/// last block's unused lanes.
fn fill_panel(view: FeatureView<'_>, panel: &mut Vec<f32>) {
    let (rows, dim) = (view.rows(), view.dim());
    panel.clear();
    panel.resize(rows.div_ceil(LANES) * dim * LANES, 0.0);
    for (b, block) in panel.chunks_exact_mut(dim * LANES).enumerate() {
        for lane in 0..LANES.min(rows - b * LANES) {
            for (col, &v) in block.chunks_exact_mut(LANES).zip(view.row(b * LANES + lane)) {
                col[lane] = v;
            }
        }
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
    let FeatureScratch { panel, best } = scratch;
    fill_panel(view, panel);
    let panel = panel.as_slice();
    let cost = rows * dim * 3;
    crate::kdtree::batch_into(out, queries, k, cost, best, |best, q, slot| {
        let qrow = view.row(q);
        best.clear();
        for (b, block) in panel.chunks_exact(dim * LANES).enumerate() {
            let mut acc = [0.0f32; LANES];
            for (&x, col) in qrow.iter().zip(block.chunks_exact(LANES)) {
                for (a, &y) in acc.iter_mut().zip(col) {
                    let e = x - y;
                    *a += e * e;
                }
            }
            let base = b * LANES;
            for (lane, &dist_sq) in acc[..LANES.min(rows - base)].iter().enumerate() {
                // Strictly greater, and false for NaN on either side: skips
                // only what `push_bounded` would reject.
                if best.len() == k && dist_sq > best[k - 1].dist_sq {
                    continue;
                }
                crate::bruteforce::push_bounded(best, k, Candidate { index: base + lane, dist_sq });
            }
        }
        for (s, c) in slot.iter_mut().zip(best.iter()) {
            *s = c.index;
        }
        rows as u64
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
