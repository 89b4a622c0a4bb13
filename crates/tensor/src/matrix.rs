//! The [`Matrix`] storage type.

use std::fmt;
use std::ops::Range;

/// A dense row-major `f32` matrix.
///
/// Everything in the workspace — point features, MLP weights, activations,
/// the Point Feature Table — is a `Matrix`. Row-major layout matches the
/// paper's tables (one row per point) and makes the row-gather used by
/// aggregation a contiguous copy.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A `rows × cols` matrix with every element `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows × cols");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a slice of equal-length rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Builds a matrix element-by-element from `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Size of the matrix's elements in bytes — used by the
    /// memory-footprint experiments (Fig. 10).
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The raw row-major data, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major data.
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshapes the matrix in place to `rows × cols`, keeping the backing
    /// allocation. Existing element values are unspecified afterwards (the
    /// `_into` kernels fully define their output). Never shrinks the backing
    /// capacity, so a buffer cycling through the shapes of an inference plan
    /// stops allocating once it has seen the largest one.
    pub fn reset_shape(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Overwrites this matrix with `other`'s shape and contents, reusing the
    /// backing allocation — the buffer-recycling sibling of `Clone::clone`,
    /// used by the session's `infer_into` path so repeated inference on
    /// same-shaped inputs stops allocating for outputs.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.reset_shape(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Number of elements the backing allocation can hold without
    /// growing — used by the arena to report steady-state behaviour.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// A `0 × 0` matrix whose backing store can hold `elems` elements
    /// without reallocating — the initial state of an arena slot.
    pub fn with_capacity(elems: usize) -> Self {
        Matrix { rows: 0, cols: 0, data: Vec::with_capacity(elems) }
    }

    /// The transpose.
    pub fn transposed(&self) -> Self {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_cols_into(0..self.cols, &mut out);
        out
    }

    /// Columns `cols` of `self`, transposed into `out` (reshaped to
    /// `cols.len() × rows`). Copied in 16 × 16 tiles: the 16 source rows a
    /// tile reads and the 16 output rows it writes stay in L1 across it,
    /// where a row-at-a-time copy writes each element to a different cache
    /// line.
    pub(crate) fn transpose_cols_into(&self, cols: Range<usize>, out: &mut Matrix) {
        const TILE: usize = 16;
        out.reset_shape(cols.len(), self.rows);
        for r0 in (0..self.rows).step_by(TILE) {
            let r1 = (r0 + TILE).min(self.rows);
            for c0 in cols.clone().step_by(TILE) {
                let c1 = (c0 + TILE).min(cols.end);
                for r in r0..r1 {
                    for (c, &v) in (c0..c1).zip(&self.row(r)[c0..c1]) {
                        out.data[(c - cols.start) * self.rows + r] = v;
                    }
                }
            }
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl FnMut(f32) -> f32) -> Self {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Panics
    ///
    /// Panics when column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Self {
        assert_eq!(self.cols, other.cols, "vstack requires equal column counts");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Horizontally concatenates `self` with `other` (the "+" tensor
    /// concatenation in DGCNN's architecture, Fig. 1b).
    ///
    /// # Panics
    ///
    /// Panics when row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Self {
        let mut out = Matrix::zeros(0, 0);
        self.hstack_into(other, &mut out);
        out
    }

    /// [`Matrix::hstack`] writing into a caller-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics when row counts differ.
    pub fn hstack_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "hstack requires equal row counts");
        out.reset_shape(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
    }

    /// Maximum absolute element, or 0 for an empty matrix. Used by tests to
    /// bound the divergence the delayed-aggregation approximation introduces.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    /// True when all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Default for Matrix {
    /// The empty `0 × 0` matrix (no allocation) — lets arena slots be
    /// `std::mem::take`n during execution.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ... {} more rows", self.rows - show_rows)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let c = Matrix::from_fn(2, 2, |r, col| (r * 2 + col + 1) as f32);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    #[should_panic(expected = "rows × cols")]
    fn from_vec_length_mismatch_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_round_trips() {
        // 17 × 33 ends in a partial tile on both axes.
        for (rows, cols) in [(3, 5), (17, 33), (1, 40), (0, 5)] {
            let m = Matrix::from_fn(rows, cols, |r, c| (r * 100 + c) as f32);
            assert_eq!(m.transposed().transposed(), m);
            assert_eq!(m.transposed(), Matrix::from_fn(cols, rows, |r, c| m[(c, r)]));
        }
    }

    #[test]
    fn stacking() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.vstack(&b), Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        assert_eq!(a.hstack(&b), Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
    }

    #[test]
    #[should_panic(expected = "equal column counts")]
    fn vstack_mismatch_panics() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        let _ = a.vstack(&b);
    }

    #[test]
    fn norms_and_bounds() {
        let m = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert_eq!(m.frobenius_norm(), 5.0);
        assert_eq!(m.max_abs(), 4.0);
        assert!(m.is_finite());
        let bad = Matrix::from_rows(&[&[f32::NAN]]);
        assert!(!bad.is_finite());
    }

    #[test]
    fn size_bytes_counts_f32s() {
        assert_eq!(Matrix::zeros(4, 8).size_bytes(), 128);
    }

    #[test]
    fn copy_from_matches_clone_and_keeps_capacity() {
        let big = Matrix::from_fn(6, 5, |r, c| (r * 7 + c) as f32);
        let small = Matrix::from_fn(2, 2, |r, c| -((r + c) as f32));
        let mut buf = Matrix::zeros(0, 0);
        buf.copy_from(&big);
        assert_eq!(buf, big);
        let cap = buf.capacity();
        buf.copy_from(&small);
        assert_eq!(buf, small);
        assert_eq!(buf.capacity(), cap, "copy_from must not shrink the backing store");
    }

    #[test]
    fn debug_output_is_nonempty_and_truncated() {
        let m = Matrix::zeros(10, 10);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 10x10"));
        assert!(s.contains("more rows"));
    }
}
