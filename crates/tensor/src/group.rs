//! Irregular kernels: gather, grouped reduction, scatter.
//!
//! These implement the aggregation (`A`) and reduction steps of a
//! point-cloud module. Both execution strategies use them:
//!
//! * the original formulation gathers *input* rows per neighborhood,
//!   subtracts the centroid row, runs the MLP, then max-reduces;
//! * the delayed formulation max-reduces gathered rows of the *Point
//!   Feature Table* and subtracts the centroid's feature row afterwards
//!   (`max(p1−pi, p2−pi) = max(p1,p2) − pi`, paper §IV-A).
//!
//! The max-reduce exists in two forms. [`group_max_reduce`] and
//! [`gather_max_reduce`] are the tape's: they allocate their result and
//! return argmax indices so the training substrate can route gradients
//! through the max (only the winning row receives gradient), one element
//! at a time. [`group_max_into`] and [`gather_max_into`] are the engine's:
//! values only, into a caller-owned buffer, through the register tile of
//! [`crate::simd::max_rows`]. The tape's loops are the oracle the tile is
//! tested against — same comparison, same order, same bits.

use crate::{Element, Mat, Matrix};
use mesorasi_par as par;

/// Gathers `indices.len()` rows of `src` into a new matrix (row `i` of the
/// result is `src.row(indices[i])`). Indices may repeat — this *is* the
/// irregular gather whose memory behaviour the Aggregation Unit accelerates.
/// Parallel over output rows (each row is one contiguous copy).
///
/// # Panics
///
/// Panics if any index is out of bounds.
pub fn gather_rows<T: Element>(src: &Mat<T>, indices: &[usize]) -> Mat<T> {
    let mut out = Mat::zeros(0, 0);
    gather_rows_into(src, indices, &mut out);
    out
}

/// [`gather_rows`] writing into a caller-owned buffer.
///
/// # Panics
///
/// Panics if any index is out of bounds.
pub fn gather_rows_into<T: Element>(src: &Mat<T>, indices: &[usize], out: &mut Mat<T>) {
    let cols = src.cols();
    out.reset_shape(indices.len(), cols);
    if cols == 0 {
        for &i in indices {
            assert!(i < src.rows(), "gather index {i} out of bounds for {} rows", src.rows());
        }
        return;
    }
    let row_chunk = par::chunk_len(indices.len(), cols);
    par::par_chunks_mut(out.as_mut_slice(), row_chunk * cols, |ci, chunk| {
        for (ri, out_row) in chunk.chunks_mut(cols).enumerate() {
            let i = indices[ci * row_chunk + ri];
            assert!(i < src.rows(), "gather index {i} out of bounds for {} rows", src.rows());
            out_row.copy_from_slice(src.row(i));
        }
    });
}

/// Adds each row of `grad` into row `indices[i]` of `acc` — the transpose
/// (backward pass) of [`gather_rows`].
///
/// # Panics
///
/// Panics if shapes disagree or any index is out of bounds.
pub fn scatter_add_rows(acc: &mut Matrix, indices: &[usize], grad: &Matrix) {
    assert_eq!(indices.len(), grad.rows(), "one gradient row per index");
    assert_eq!(acc.cols(), grad.cols(), "column widths must match");
    for (r, &i) in indices.iter().enumerate() {
        assert!(i < acc.rows(), "scatter index {i} out of bounds for {} rows", acc.rows());
        for (a, &g) in acc.row_mut(i).iter_mut().zip(grad.row(r)) {
            *a += g;
        }
    }
}

/// Subtracts `centroid_rows.row(i / k)` from each row `i` of `grouped` —
/// the aggregation normalization `p_k − p_i` applied to a gathered
/// `(N_out·K) × M` matrix with `k` consecutive rows per group.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn subtract_centroid_per_group<T: Element>(
    grouped: &Mat<T>,
    centroid_rows: &Mat<T>,
    k: usize,
) -> Mat<T> {
    let mut out = Mat::zeros(0, 0);
    subtract_centroid_per_group_into(grouped, centroid_rows, k, &mut out);
    out
}

/// [`subtract_centroid_per_group`] writing into a caller-owned buffer.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn subtract_centroid_per_group_into<T: Element>(
    grouped: &Mat<T>,
    centroid_rows: &Mat<T>,
    k: usize,
    out: &mut Mat<T>,
) {
    assert!(k > 0, "group size must be positive");
    assert_eq!(grouped.rows() % k, 0, "grouped rows must be a multiple of k");
    assert_eq!(grouped.rows() / k, centroid_rows.rows(), "one centroid per group");
    assert_eq!(grouped.cols(), centroid_rows.cols(), "widths must match");
    out.reset_shape(grouped.rows(), grouped.cols());
    let cols = grouped.cols();
    if cols == 0 {
        return;
    }
    out.as_mut_slice().copy_from_slice(grouped.as_slice());
    let group_chunk = par::chunk_len(centroid_rows.rows(), k * cols);
    par::par_chunks_mut(out.as_mut_slice(), group_chunk * k * cols, |ci, chunk| {
        for (gi, group) in chunk.chunks_mut(k * cols).enumerate() {
            let c = centroid_rows.row(ci * group_chunk + gi);
            for row in group.chunks_mut(cols) {
                for (o, &cv) in row.iter_mut().zip(c) {
                    *o -= cv;
                }
            }
        }
    });
}

/// Column-wise max over each group of `k` consecutive rows, producing a
/// `(rows/k) × cols` matrix plus, per output element, the index of the
/// winning input row (for gradient routing).
///
/// # Panics
///
/// Panics if `rows` is not a multiple of `k` or `k == 0`.
pub fn group_max_reduce(grouped: &Matrix, k: usize) -> (Matrix, Vec<usize>) {
    assert!(k > 0, "group size must be positive");
    assert_eq!(grouped.rows() % k, 0, "rows must be a multiple of k");
    let n_out = grouped.rows() / k;
    let cols = grouped.cols();
    let mut out = Matrix::zeros(n_out, cols);
    let mut arg = vec![0usize; n_out * cols];
    if cols == 0 {
        return (out, arg);
    }
    // Parallel over whole groups: each group's max scan stays on one
    // thread, preserving the sequential comparison order exactly.
    let group_chunk = par::chunk_len(n_out, k * cols);
    let stride = group_chunk * cols;
    par::par_chunks_mut_pair(out.as_mut_slice(), &mut arg, stride, stride, |ci, vals, args| {
        for (gi, (out_row, arg_row)) in vals.chunks_mut(cols).zip(args.chunks_mut(cols)).enumerate()
        {
            let first = (ci * group_chunk + gi) * k;
            out_row.copy_from_slice(grouped.row(first));
            arg_row.fill(first);
            for r in first + 1..first + k {
                for ((&v, o), a) in grouped.row(r).iter().zip(out_row.iter_mut()).zip(&mut *arg_row)
                {
                    if v > *o {
                        *o = v;
                        *a = r;
                    }
                }
            }
        }
    });
    (out, arg)
}

/// Values-only [`group_max_reduce`] writing into a caller-owned buffer —
/// the inference-plan variant, which needs no argmax because no gradient
/// will ever be routed back. Comparison order matches `group_max_reduce`
/// exactly, so the values are bit-identical.
///
/// # Panics
///
/// Panics if `rows` is not a multiple of `k` or `k == 0`.
pub fn group_max_into<T: Element>(grouped: &Mat<T>, k: usize, out: &mut Mat<T>) {
    assert!(k > 0, "group size must be positive");
    assert_eq!(grouped.rows() % k, 0, "rows must be a multiple of k");
    max_rows_into(grouped, None, grouped.rows() / k, k, out);
}

/// Elements [`Element::max_rows`] folds per unit of [`par::chunk_len`] work:
/// the tile retires a vector of compares per cycle where the work unit is
/// roughly one scalar inner-loop operation.
const MAX_ELEMS_PER_WORK_UNIT: usize = 16;

/// The engine's max-reduce, behind [`group_max_into`] (`rows` is `None`:
/// `k` consecutive rows per group) and [`gather_max_into`] (`rows` is the
/// validated index table): [`Element::max_rows`] over chunks of whole
/// groups, so each group's comparison order stays on one thread.
fn max_rows_into<T: Element>(
    src: &Mat<T>,
    rows: Option<&[usize]>,
    n_out: usize,
    k: usize,
    out: &mut Mat<T>,
) {
    let cols = src.cols();
    out.reset_shape(n_out, cols);
    if cols == 0 {
        return;
    }
    let group_chunk = par::chunk_len(n_out, k * cols / MAX_ELEMS_PER_WORK_UNIT);
    par::par_chunks_mut(out.as_mut_slice(), group_chunk * cols, |ci, vals| {
        T::max_rows(src.as_slice(), cols, rows, ci * group_chunk * k, k, vals);
    });
}

/// Like [`group_max_reduce`] but the groups are given as explicit row-index
/// lists into `src` (the delayed-aggregation path: groups are NIT entries
/// indexing the Point Feature Table, no gathered intermediate needed).
///
/// `groups` is a flattened `n_groups × k` index matrix. Returns the reduced
/// `n_groups × cols` matrix and, per output element, the *source row in
/// `src`* that won the max.
///
/// # Panics
///
/// Panics if `groups.len()` is not a multiple of `k`, `k == 0`, or an index
/// is out of bounds.
pub fn gather_max_reduce(src: &Matrix, groups: &[usize], k: usize) -> (Matrix, Vec<usize>) {
    assert!(k > 0, "group size must be positive");
    assert_eq!(groups.len() % k, 0, "groups must be a multiple of k");
    let n_out = groups.len() / k;
    let cols = src.cols();
    let mut out = Matrix::zeros(n_out, cols);
    let mut arg = vec![0usize; n_out * cols];
    if cols == 0 {
        for &i in groups {
            assert!(i < src.rows(), "group index {i} out of bounds");
        }
        return (out, arg);
    }
    let group_chunk = par::chunk_len(n_out, k * cols);
    let stride = group_chunk * cols;
    par::par_chunks_mut_pair(out.as_mut_slice(), &mut arg, stride, stride, |ci, vals, args| {
        for (gi, (out_row, arg_row)) in vals.chunks_mut(cols).zip(args.chunks_mut(cols)).enumerate()
        {
            let g = ci * group_chunk + gi;
            let entry = &groups[g * k..(g + 1) * k];
            let first = entry[0];
            assert!(first < src.rows(), "group index {first} out of bounds");
            out_row.copy_from_slice(src.row(first));
            arg_row.fill(first);
            for &i in &entry[1..] {
                assert!(i < src.rows(), "group index {i} out of bounds");
                for ((&v, o), a) in src.row(i).iter().zip(out_row.iter_mut()).zip(&mut *arg_row) {
                    if v > *o {
                        *o = v;
                        *a = i;
                    }
                }
            }
        }
    });
    (out, arg)
}

/// Values-only [`gather_max_reduce`] writing into a caller-owned buffer
/// (see [`group_max_into`] for why no argmax is tracked). Bit-identical to
/// the argmax-tracking variant's values.
///
/// # Panics
///
/// Panics if `groups.len()` is not a multiple of `k`, `k == 0`, or an index
/// is out of bounds.
pub fn gather_max_into<T: Element>(src: &Mat<T>, groups: &[usize], k: usize, out: &mut Mat<T>) {
    assert!(k > 0, "group size must be positive");
    assert_eq!(groups.len() % k, 0, "groups must be a multiple of k");
    for &i in groups {
        assert!(i < src.rows(), "group index {i} out of bounds");
    }
    max_rows_into(src, Some(groups), groups.len() / k, k, out);
}

/// Weighted row interpolation `out[g] = Σ_j weights[g·k+j] ·
/// x[indices[g·k+j]]` — the 3-NN feature-propagation stencil (PointNet++'s
/// `three_interpolate`). Shared by the autograd tape and the planned
/// executor so both produce bit-identical values. Stencil weights are
/// per-sample `f32` data at every element type (like network inputs) and
/// are widened exactly at use.
///
/// # Panics
///
/// Panics when `indices.len() != weights.len()`, the length is not a
/// multiple of `k`, or an index is out of bounds.
pub fn weighted_gather<T: Element>(
    src: &Mat<T>,
    indices: &[usize],
    weights: &[f32],
    k: usize,
) -> Mat<T> {
    let mut out = Mat::zeros(0, 0);
    weighted_gather_into(src, indices, weights, k, &mut out);
    out
}

/// [`weighted_gather`] writing into a caller-owned buffer.
///
/// # Panics
///
/// Panics on the same inconsistencies as [`weighted_gather`].
pub fn weighted_gather_into<T: Element>(
    src: &Mat<T>,
    indices: &[usize],
    weights: &[f32],
    k: usize,
    out: &mut Mat<T>,
) {
    assert_eq!(indices.len(), weights.len(), "one weight per index");
    assert!(k > 0 && indices.len().is_multiple_of(k), "indices must be n × k");
    let n_out = indices.len() / k;
    out.reset_shape(n_out, src.cols());
    out.as_mut_slice().fill(T::ZERO);
    for g in 0..n_out {
        for j in 0..k {
            let w = T::from_f64(f64::from(weights[g * k + j]));
            let row = src.row(indices[g * k + j]);
            for (o, &v) in out.row_mut(g).iter_mut().zip(row) {
                *o += w * v;
            }
        }
    }
}

/// Routes gradients back through a max reduction: for every output element
/// `(g, c)`, adds `grad[(g, c)]` to `acc[(arg[g*cols+c], c)]`.
///
/// # Panics
///
/// Panics if `arg.len() != grad.len()` or widths disagree.
pub fn max_reduce_backward(acc: &mut Matrix, arg: &[usize], grad: &Matrix) {
    assert_eq!(arg.len(), grad.len(), "one argmax per gradient element");
    assert_eq!(acc.cols(), grad.cols(), "widths must match");
    let cols = grad.cols();
    for g in 0..grad.rows() {
        for c in 0..cols {
            let src_row = arg[g * cols + c];
            acc[(src_row, c)] += grad[(g, c)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix64;

    #[test]
    fn gather_copies_rows_with_repeats() {
        let src = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let out = gather_rows(&src, &[2, 0, 2]);
        assert_eq!(out, Matrix::from_rows(&[&[3.0, 3.0], &[1.0, 1.0], &[3.0, 3.0]]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_out_of_bounds_panics() {
        let src = Matrix::zeros(2, 2);
        let _ = gather_rows(&src, &[2]);
    }

    #[test]
    fn scatter_is_gather_transpose() {
        // For any y = gather(x, idx): scatter_add(ones_like(y)) accumulates
        // occurrence counts, i.e. gatherᵀ · 1.
        let mut acc = Matrix::zeros(3, 2);
        let grad = Matrix::full(4, 2, 1.0);
        scatter_add_rows(&mut acc, &[0, 2, 2, 2], &grad);
        assert_eq!(acc, Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 0.0], &[3.0, 3.0]]));
    }

    #[test]
    fn subtract_centroid_per_group_known() {
        let grouped = Matrix::from_rows(&[&[1.0], &[2.0], &[10.0], &[20.0]]);
        let centroids = Matrix::from_rows(&[&[1.0], &[10.0]]);
        let out = subtract_centroid_per_group(&grouped, &centroids, 2);
        assert_eq!(out, Matrix::from_rows(&[&[0.0], &[1.0], &[0.0], &[10.0]]));
    }

    #[test]
    fn group_max_reduce_tracks_argmax() {
        let grouped = Matrix::from_rows(&[
            &[1.0, 9.0],
            &[5.0, 2.0], // group 0: max = [5, 9], arg rows = [1, 0]
            &[0.0, 0.0],
            &[-1.0, 3.0], // group 1: max = [0, 3], arg rows = [2, 3]
        ]);
        let (out, arg) = group_max_reduce(&grouped, 2);
        assert_eq!(out, Matrix::from_rows(&[&[5.0, 9.0], &[0.0, 3.0]]));
        assert_eq!(arg, vec![1, 0, 2, 3]);
    }

    #[test]
    fn gather_max_reduce_equals_gather_then_reduce() {
        let src = Matrix::from_fn(6, 3, |r, c| ((r * 7 + c * 13) % 9) as f32);
        let groups = [0usize, 3, 5, 1, 1, 4];
        let k = 3;
        let (a, _) = gather_max_reduce(&src, &groups, k);
        let (b, _) = group_max_reduce(&gather_rows(&src, &groups), k);
        assert_eq!(a, b);
    }

    #[test]
    fn gather_max_arg_points_into_src() {
        let src = Matrix::from_rows(&[&[0.0], &[5.0], &[3.0]]);
        let (out, arg) = gather_max_reduce(&src, &[0, 1, 2], 3);
        assert_eq!(out, Matrix::from_rows(&[&[5.0]]));
        assert_eq!(arg, vec![1]); // row 1 of src won
    }

    #[test]
    fn f64_group_kernels_select_the_same_rows_as_f32() {
        // Gathers and max scans only move and compare values, so the f64
        // instantiation is the exact widening of the f32 result.
        let src = Matrix::from_fn(12, 6, |r, c| ((r * 31 + c * 17) as f32 * 0.37).sin() * 2.0);
        let src64 = Matrix64::cast_from(&src);
        let groups = [0usize, 5, 11, 2, 2, 7, 9, 1, 4];
        assert_eq!(gather_rows(&src64, &groups), Matrix64::cast_from(&gather_rows(&src, &groups)));
        let mut maxed64 = Matrix64::zeros(0, 0);
        gather_max_into(&src64, &groups, 3, &mut maxed64);
        let mut maxed = Matrix::zeros(0, 0);
        gather_max_into(&src, &groups, 3, &mut maxed);
        assert_eq!(maxed64, Matrix64::cast_from(&maxed));
    }

    /// The `_into` reductions' panic contract, per element type: indices are
    /// validated before any row is read (whichever slot of an entry holds
    /// the bad one, and even when there are no columns to read), shapes
    /// before that.
    macro_rules! into_panic_contract {
        ($dtype:ident, $t:ty) => {
            mod $dtype {
                use crate::{group, Mat};

                fn reduce(rows: usize, cols: usize, groups: &[usize], k: usize) {
                    let src = Mat::<$t>::zeros(rows, cols);
                    group::gather_max_into(&src, groups, k, &mut Mat::zeros(0, 0));
                }

                #[test]
                #[should_panic(expected = "group index 4 out of bounds")]
                fn gather_max_into_rejects_an_index_in_the_first_slot() {
                    reduce(4, 70, &[0, 1, 4, 2], 2);
                }

                #[test]
                #[should_panic(expected = "group index 9 out of bounds")]
                fn gather_max_into_rejects_an_index_in_a_later_slot() {
                    reduce(4, 70, &[0, 1, 2, 9], 2);
                }

                #[test]
                #[should_panic(expected = "group index 4 out of bounds")]
                fn gather_max_into_rejects_an_index_with_no_columns() {
                    reduce(4, 0, &[0, 4], 2);
                }

                #[test]
                #[should_panic(expected = "group size must be positive")]
                fn gather_max_into_rejects_k_zero() {
                    reduce(4, 3, &[], 0);
                }

                #[test]
                #[should_panic(expected = "groups must be a multiple of k")]
                fn gather_max_into_rejects_a_partial_entry() {
                    reduce(4, 3, &[0, 1, 2], 2);
                }

                #[test]
                #[should_panic(expected = "group size must be positive")]
                fn group_max_into_rejects_k_zero() {
                    group::group_max_into(&Mat::<$t>::zeros(4, 3), 0, &mut Mat::zeros(0, 0));
                }

                #[test]
                #[should_panic(expected = "rows must be a multiple of k")]
                fn group_max_into_rejects_ragged_rows() {
                    group::group_max_into(&Mat::<$t>::zeros(5, 3), 2, &mut Mat::zeros(0, 0));
                }
            }
        };
    }
    into_panic_contract!(into_panics_f32, f32);
    into_panic_contract!(into_panics_f64, f64);

    #[test]
    fn max_backward_routes_to_winner_only() {
        let mut acc = Matrix::zeros(3, 2);
        // one group, winners: col0 → row 1, col1 → row 2
        let arg = vec![1usize, 2];
        let grad = Matrix::from_rows(&[&[10.0, 20.0]]);
        max_reduce_backward(&mut acc, &arg, &grad);
        assert_eq!(acc, Matrix::from_rows(&[&[0.0, 0.0], &[10.0, 0.0], &[0.0, 20.0]]));
    }

    #[test]
    fn max_before_subtract_identity() {
        // max(p1−pi, ..., pk−pi) == max(p1, ..., pk) − pi  (paper §IV-A).
        let pft = Matrix::from_fn(8, 4, |r, c| ((r * 31 + c * 17) % 11) as f32 - 5.0);
        let centroid = 3usize;
        let group = [0usize, 2, 5, 7];
        // subtract-then-max
        let gathered = gather_rows(&pft, &group);
        let centroid_rows = gather_rows(&pft, &[centroid]);
        let offsets = subtract_centroid_per_group(&gathered, &centroid_rows, group.len());
        let (a, _) = group_max_reduce(&offsets, group.len());
        // max-then-subtract
        let (reduced, _) = gather_max_reduce(&pft, &group, group.len());
        let b = crate::ops::sub(&reduced, &centroid_rows);
        assert_eq!(a, b);
    }
}
