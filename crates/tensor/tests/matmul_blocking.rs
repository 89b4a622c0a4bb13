//! `ops::matmul_into` at the shapes its cache blocking switches on, pinned
//! bit for bit against the unblocked references.
//!
//! The driver walks a small `B` in place and takes a deep one as packed
//! 16-column panels, in row blocks, with `k` split into blocks whose
//! partial sums pass through `out`. None of that may change a single bit:
//! every case here sits just below or just above one of the driver's shape
//! rules (or is a layer shape of the evaluated networks), runs in `f32`
//! against [`ops::naive::matmul_into`] and in both dtypes against a
//! sequential ascending-`p` chain, and writes into a recycled output full
//! of `NaN` — the plan arena hands kernels dirty slots.
//!
//! Paper-scale reference products are slow unoptimised; CI also runs this
//! file with `--release`, and with `--no-default-features` for the scalar
//! micro-kernels.

use mesorasi_tensor::{ops, Element, Mat, Matrix};

/// Deterministic pseudo-random matrix; every `zero_every`-th element is an
/// exact zero of alternating sign (the reference skips zero coefficients,
/// the tier adds their `±0.0` products).
fn noisy<T: Element>(rows: usize, cols: usize, seed: u64, zero_every: usize) -> Mat<T> {
    Mat::from_fn(rows, cols, |r, c| {
        let i = r * cols + c;
        if zero_every > 0 && i.is_multiple_of(zero_every) {
            return T::from_f64(if i.is_multiple_of(2) { 0.0 } else { -0.0 });
        }
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
        T::from_f64(((h >> 11) as f64 / 1e12).sin() * 3.0)
    })
}

/// One sequential chain per output element: ascending `p` from `+0.0`, one
/// `mul` and one `add` per step.
fn chain_oracle<T: Element>(a: &Mat<T>, b: &Mat<T>) -> Mat<T> {
    Mat::from_fn(a.rows(), b.cols(), |i, j| {
        a.row(i).iter().enumerate().fold(T::ZERO, |acc, (p, &x)| acc + x * b.row(p)[j])
    })
}

fn bits<T: Element>(m: &Mat<T>) -> ((usize, usize), Vec<u64>) {
    (m.shape(), m.as_slice().iter().map(|v| v.to_f64().to_bits()).collect())
}

/// A recycled output: wrong shape, every element `NaN`.
fn dirty<T: Element>() -> Mat<T> {
    Mat::from_fn(7, 300, |_, _| T::from_f64(f64::NAN))
}

/// `matmul_into` on an `(m, k, n)` product into a dirty output equals the
/// sequential chain bitwise; returns the operands and the product.
fn check<T: Element>(m: usize, k: usize, n: usize) -> (Mat<T>, Mat<T>, Mat<T>) {
    let a = noisy::<T>(m, k, 17, 5);
    let b = noisy::<T>(k, n, 18, 0);
    let mut out = dirty::<T>();
    ops::matmul_into(&a, &b, &mut out);
    assert_eq!(bits(&out), bits(&chain_oracle(&a, &b)), "({m},{k},{n}) vs the chain");
    (a, b, out)
}

/// [`check`] in both dtypes, and the `f32` product against the naive
/// reference too.
fn check_both(m: usize, k: usize, n: usize) {
    check::<f64>(m, k, n);
    let (a, b, out) = check::<f32>(m, k, n);
    let mut want = Matrix::zeros(0, 0);
    ops::naive::matmul_into(&a, &b, &mut want);
    assert_eq!(bits(&out), bits(&want), "({m},{k},{n}) vs naive");
}

#[test]
fn both_sides_of_the_pack_threshold_on_b_bytes() {
    // B is walked in place up to 32 KB and packed above: k·n = 8192
    // elements in f32, 4096 in f64.
    for (k, n) in [(128, 64), (129, 64), (64, 64), (65, 64), (256, 32), (257, 32)] {
        check_both(40, k, n);
    }
}

#[test]
fn both_sides_of_the_pack_threshold_on_rows() {
    // Fewer than 32 rows never pack, however deep B is.
    for m in [31, 32, 33] {
        check_both(m, 130, 80);
    }
}

#[test]
fn both_sides_of_the_k_block_depth() {
    // A packed panel holds 512 f32 / 256 f64 rows of B: one more row is a
    // second k-block of depth 1, continued from the sums stored in `out`.
    for k in [255, 256, 257, 511, 512, 513, 1024, 1025] {
        check_both(36, k, 40);
    }
}

#[test]
fn both_sides_of_the_row_block_height() {
    // Row blocks hold 512 KB of A: 64 rows at k = 2048 in f32, 32 in f64.
    // One row more splits into two evened blocks, the second ending in a
    // row tail.
    for m in [32, 33, 64, 65, 70, 129] {
        check_both(m, 2048, 20);
    }
    // Deeper still the block height is floored at 32 rows in f32 too.
    check_both(67, 8192, 17);
}

#[test]
fn column_tails_of_a_packed_product_continue_partial_sums() {
    // n % 16 ∈ {1..15}: the last panel is narrower than the register tile
    // and runs the 8-column and single-column paths, here on a second
    // k-block (k % kc ≠ 0) and with a row tail (m % 4 ≠ 0).
    for n in 17..32 {
        check_both(35, 520, n);
    }
}

#[test]
fn network_layer_shapes() {
    // The last SA3 layer of PointNet++, a concat-input layer, and three
    // shapes with odd tails; (8,1300,40) and (40,1300,40) put k past the
    // panel depth below and above the row threshold.
    for (m, k, n) in
        [(128, 512, 1024), (131, 259, 250), (9, 300, 77), (8, 1300, 40), (40, 1300, 40)]
    {
        check_both(m, k, n);
    }
}

#[test]
fn empty_and_tiny_products_overwrite_a_dirty_output() {
    // k == 0 has no products: every element is the chain's start, +0.0,
    // not whatever the recycled buffer held. n == 0 and m == 0 are empty.
    for (m, k, n) in [(40, 0, 50), (3, 0, 5), (1, 0, 1), (40, 7, 0), (0, 9, 33), (0, 0, 0)] {
        check_both(m, k, n);
    }
    let mut out = dirty::<f32>();
    ops::matmul_into(&Matrix::zeros(40, 0), &Matrix::zeros(0, 50), &mut out);
    assert_eq!(out.shape(), (40, 50));
    assert!(out.as_slice().iter().all(|v| v.to_bits() == 0), "k == 0 must yield +0.0");
    // m < 4: rows only ever go through the single-row kernel.
    for m in 1..4 {
        check_both(m, 600, 40);
    }
}
