//! Shape/stride invariants of [`Matrix`] and deterministic edge cases of
//! the `group` reduction kernels the aggregation executors are built on.
//!
//! The module-level unit tests cover the happy paths; this suite pins down
//! the layout contract (row-major, stride = cols) that `gather_rows`'
//! `copy_from_slice` and the NPU cost model's `size_bytes` both rely on,
//! plus the degenerate group shapes (k = 1, single group, repeated indices)
//! the randomized proptest inputs rarely produce.

use mesorasi_tensor::{group, ops, Matrix};

// ---------------------------------------------------------------- layout --

#[test]
fn row_major_layout_row_r_starts_at_r_times_cols() {
    let m = Matrix::from_fn(5, 3, |r, c| (r * 10 + c) as f32);
    assert_eq!(m.shape(), (5, 3));
    assert_eq!(m.len(), 15);
    for r in 0..5 {
        assert_eq!(m.row(r), &m.as_slice()[r * 3..(r + 1) * 3], "row {r} stride");
        for c in 0..3 {
            assert_eq!(m[(r, c)], (r * 10 + c) as f32);
            assert_eq!(m[(r, c)], m.as_slice()[r * 3 + c], "index (r,c) = data[r*cols+c]");
        }
    }
}

#[test]
fn from_vec_round_trips_through_into_vec() {
    let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
    let m = Matrix::from_vec(3, 4, data.clone());
    assert_eq!(m.shape(), (3, 4));
    assert_eq!(m.into_vec(), data);
}

#[test]
#[should_panic(expected = "rows × cols")]
fn from_vec_rejects_wrong_length() {
    let _ = Matrix::from_vec(3, 4, vec![0.0; 11]);
}

#[test]
#[should_panic(expected = "same length")]
fn from_rows_rejects_ragged_rows() {
    let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
}

#[test]
fn row_mut_writes_land_at_the_right_stride() {
    let mut m = Matrix::zeros(4, 3);
    m.row_mut(2).copy_from_slice(&[7.0, 8.0, 9.0]);
    assert_eq!(m.as_slice(), &[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.0, 8.0, 9.0, 0.0, 0.0, 0.0]);
}

#[test]
fn transpose_swaps_shape_and_is_an_involution() {
    // Whole and partial 16 × 16 copy tiles, a single row, no rows.
    for (rows, cols) in [(3, 5), (17, 33), (32, 16), (1, 21), (0, 5)] {
        let m = Matrix::from_fn(rows, cols, |r, c| (r * 31 + c * 7) as f32);
        let t = m.transposed();
        assert_eq!(t.shape(), (cols, rows));
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(m[(r, c)], t[(c, r)]);
            }
        }
        assert_eq!(t.transposed(), m);
    }
}

#[test]
fn stacking_preserves_row_major_layout() {
    let a = Matrix::from_rows(&[&[1.0, 2.0]]);
    let b = Matrix::from_rows(&[&[3.0, 4.0]]);
    let v = a.vstack(&b);
    assert_eq!(v.shape(), (2, 2));
    assert_eq!(v.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    let h = a.hstack(&b);
    assert_eq!(h.shape(), (1, 4));
    assert_eq!(h.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
}

#[test]
fn empty_matrices_have_consistent_shape_metadata() {
    for m in [Matrix::zeros(0, 0), Matrix::zeros(0, 5), Matrix::zeros(5, 0)] {
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.size_bytes(), 0);
        assert_eq!(m.len(), m.rows() * m.cols());
    }
}

#[test]
fn size_bytes_matches_f32_element_count() {
    let m = Matrix::zeros(7, 9);
    assert_eq!(m.size_bytes(), 7 * 9 * 4);
}

#[test]
fn identity_from_fn_and_map_agree_on_layout() {
    let i3 = Matrix::identity(3);
    let built = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
    assert_eq!(i3, built);
    let doubled = i3.map(|x| 2.0 * x);
    assert_eq!(doubled.shape(), (3, 3));
    assert_eq!(doubled[(1, 1)], 2.0);
    assert_eq!(doubled[(0, 1)], 0.0);
}

// ----------------------------------------------------- group reductions --

#[test]
fn gather_of_empty_index_list_is_zero_by_cols() {
    let src = Matrix::from_fn(4, 3, |r, c| (r + c) as f32);
    let out = group::gather_rows(&src, &[]);
    assert_eq!(out.shape(), (0, 3));
}

#[test]
fn group_max_reduce_with_k_one_is_identity_with_self_argmax() {
    let m = Matrix::from_fn(5, 2, |r, c| (r * 2 + c) as f32 - 4.0);
    let (out, arg) = group::group_max_reduce(&m, 1);
    assert_eq!(out, m);
    // Every output element's winner is its own row.
    let expect: Vec<usize> = (0..5).flat_map(|r| [r, r]).collect();
    assert_eq!(arg, expect);
}

#[test]
fn group_max_reduce_single_group_matches_column_max() {
    let m = Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 8.0], &[4.0, 0.0]]);
    let (out, arg) = group::group_max_reduce(&m, 3);
    assert_eq!(out, Matrix::from_rows(&[&[4.0, 8.0]]));
    assert_eq!(arg, vec![2, 1]);
}

#[test]
fn gather_max_reduce_handles_repeated_indices_in_a_group() {
    // A NIT entry padded with a repeated index (ball-query padding) must
    // reduce as if the row appeared once.
    let src = Matrix::from_rows(&[&[1.0, 5.0], &[2.0, 4.0], &[9.0, 0.0]]);
    let (out, arg) = group::gather_max_reduce(&src, &[1, 1, 1, 0], 4);
    assert_eq!(out, Matrix::from_rows(&[&[2.0, 5.0]]));
    assert_eq!(arg, vec![1, 0]);
}

#[test]
fn subtract_centroid_with_k_one_subtracts_rowwise() {
    let grouped = Matrix::from_rows(&[&[5.0, 5.0], &[7.0, 7.0]]);
    let centroids = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
    let out = group::subtract_centroid_per_group(&grouped, &centroids, 1);
    assert_eq!(out, Matrix::from_rows(&[&[4.0, 3.0], &[4.0, 3.0]]));
}

#[test]
#[should_panic(expected = "multiple of k")]
fn group_max_reduce_rejects_partial_groups() {
    let m = Matrix::zeros(5, 2);
    let _ = group::group_max_reduce(&m, 2);
}

#[test]
fn max_reduce_backward_accumulates_across_groups() {
    // Two groups whose winners are the same source row: gradients add.
    let mut acc = Matrix::zeros(3, 1);
    let arg = vec![2usize, 2];
    let grad = Matrix::from_rows(&[&[1.5], &[2.5]]);
    group::max_reduce_backward(&mut acc, &arg, &grad);
    assert_eq!(acc, Matrix::from_rows(&[&[0.0], &[0.0], &[4.0]]));
}

#[test]
fn delayed_aggregation_identity_on_a_padded_group() {
    // max-then-subtract == subtract-then-max even when the group repeats
    // rows — the exactness claim Ltd-Mesorasi relies on (paper §IV-A).
    let pft = Matrix::from_fn(6, 3, |r, c| ((r * 13 + c * 5) % 7) as f32 - 3.0);
    let group_idx = [4usize, 4, 2, 0]; // padded entry
    let centroid_rows = group::gather_rows(&pft, &[3]);
    let gathered = group::gather_rows(&pft, &group_idx);
    let offsets = group::subtract_centroid_per_group(&gathered, &centroid_rows, group_idx.len());
    let (subtract_then_max, _) = group::group_max_reduce(&offsets, group_idx.len());
    let (reduced, _) = group::gather_max_reduce(&pft, &group_idx, group_idx.len());
    let max_then_subtract = ops::sub(&reduced, &centroid_rows);
    assert_eq!(subtract_then_max, max_then_subtract);
}
