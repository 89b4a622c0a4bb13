//! Dense kernels: matrix products, broadcasts, activations, statistics.
//!
//! The matmul family is data-parallel over output rows via [`mesorasi_par`]:
//! every output row is produced entirely by one chunk with a fixed
//! accumulation order, so results are bit-identical at every thread count
//! (and the whole layer degrades to the plain sequential loop at an
//! effective thread count of 1 or for small shapes).
//!
//! # The fast tier and the [`naive`] reference
//!
//! Every matmul runs through one driver, [`matmul_into`]: register-tiled
//! micro-kernels — [`crate::simd`]'s: AVX2 behind runtime detection,
//! otherwise the same tiles as an auto-vectorizable block-accumulator
//! scalar kernel — cache-blocked by operand shape (row block · packed `B`
//! panel · `k`-block, see its docs).
//! The two transpose variants, which only training runs, are that driver
//! on a transposed copy of one operand. The pre-tier kernels are
//! preserved verbatim in [`naive`]: they are the semantics reference the
//! property tests compare against, and the `"naive"` backend the bench
//! harness records so every `BENCH_*.json` carries the measured speedup.
//!
//! Fast tier and reference are **bit-identical for finite inputs**: every
//! output element accumulates its products in ascending-`p` order in both
//! (tiling and blocking reorder only *which rows and columns* are resident
//! in registers and cache, never the per-element chain — a chain split
//! into `k`-blocks passes through `out`, and a store and reload of an
//! `f32` is exact), and the vector lanes perform the same one-mul-one-add
//! per element as the scalar loop (no FMA). The only
//! textual difference is the reference's skip of zero `A` elements in
//! [`naive::matmul_into`] and [`naive::matmul_at_b_into`], which here
//! adds `±0.0` products instead — an IEEE-754 identity on every finite
//! sum (a running sum that starts at `+0.0` can never become `-0.0`:
//! `+0.0 + ±0.0 == +0.0` and exact cancellation rounds to `+0.0`, so
//! `x + ±0.0 == x` bitwise throughout the chain).

use crate::{simd, Matrix};
use mesorasi_par as par;

/// `A · B` for `A: m×k`, `B: k×n`, parallel over output rows.
///
/// # Panics
///
/// Panics when the inner dimensions disagree.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    matmul_into(a, b, &mut out);
    out
}

/// [`matmul`] writing into a caller-owned buffer (reshaped, fully
/// overwritten; no allocation once the buffer's capacity suffices).
///
/// Register-tiled: output rows go four at a time through [`simd::mm4`],
/// which holds a 4-row × 16-column output tile in registers for a whole
/// `p` walk — each `B` row segment is loaded once per four output rows
/// (the naive kernel re-reads and re-writes the output row on every `p`
/// step, which is what makes it memory-bound).
///
/// Cache-blocked by the shape of the operands. The tile walks a 16-column
/// slice of `B` top to bottom — `k` loads, one `B` row apart — and between
/// row quads that slice stays in L1 only while all of `B` fits there: a
/// row stride of `n` elements maps the slice's cache lines onto few sets
/// (a single one at `n` = 1024), so a deeper `B` read in place is fetched
/// again from L2 or memory by every row quad. A deep `B` is
/// therefore taken in the order row block · panel · `k`-block · row quad:
/// each 16-column panel of `B` is copied once per row block into a
/// contiguous buffer of at most `PANEL_BYTES` (L1-resident whatever `n`
/// is) and reused by every row quad of the block, whose `A` slice
/// (`A_BLOCK_BYTES`) stays in L2 across the panels; `k` beyond the
/// buffer's depth is split into blocks whose partial sums are stored to
/// and reloaded from `out`. A `B` within the L1 budget, or a product of
/// too few rows to repay the copy, is the same walk with one row block,
/// one `n`-wide panel read in place (row-major `B` *is* a contiguous
/// `k × n` panel) and one `k`-block.
///
/// A store and reload of an `f32` is exact, so either way each output
/// element runs the same chain — ascending `p` from `+0.0`, one
/// `mul` and one `add` per step — and the result is bit-identical to
/// [`naive::matmul_into`] for finite inputs (see the module docs; the
/// reference's sparse zero-skip becomes `±0.0` additions here), whatever
/// the blocking and the thread count.
///
/// # Panics
///
/// Panics when the inner dimensions disagree.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch: {:?} × {:?}", a.shape(), b.shape());
    let (m, k) = a.shape();
    let n = b.cols();
    out.reset_shape(m, n);
    if n == 0 {
        return;
    }
    let blocking = Blocking::pick(m, k, n);
    let packs = blocking.packs(n);
    let mut row_chunk = par::chunk_len(m, 2 * k * n);
    if packs {
        // Every chunk packs all of `B` once per row block: chunks of at
        // least `PACK_MIN_ROWS` rows, evened out so the last is no sliver,
        // keep that copy a small fraction of the chunk's MACs.
        row_chunk = row_chunk.max(PACK_MIN_ROWS);
        row_chunk = m.div_ceil((m / row_chunk).max(1));
    }
    par::par_chunks_mut(out.as_mut_slice(), row_chunk * n, |ci, chunk| {
        if packs {
            blocked_rows(a, b, ci * row_chunk, chunk, blocking, &mut Panel([0.0; PANEL_ELEMS]).0);
        } else {
            blocked_rows(a, b, ci * row_chunk, chunk, blocking, &mut []);
        }
    });
}

/// Width of a packed `B` panel: the column count of the register tile.
const PANEL_COLS: usize = 16;
/// L1 budget of the `B` panel a row quad walks, which decides both
/// whether to pack and how deep: a `B` within it already *is* an
/// L1-resident panel and is walked in place (packing it would only re-read
/// `A` once per 16 columns), a larger one is packed into `kc × 16` pieces
/// of this size. Two thirds of the 48 KB L1d of the host this tier is
/// measured on — the rest is left to the four streaming `A` rows and the
/// output tile — and exactly the networks' deepest layer (`k` = 512) in one
/// `k`-block: 16 KB and 24 KB, which split that layer in two, measured
/// 5–10 % slower on it.
const PANEL_BYTES: usize = 32 * 1024;
/// L2 budget of one row block's `A` slice, which fixes the block's height:
/// every panel of `B` re-reads the slice, so it has to stay resident
/// between panels. A quarter of a 2 MB L2; at `(1024,512)×(512,1024)`
/// 128 KB measured 15 % slower, 256 KB 5 % slower, 1 MB level.
const A_BLOCK_BYTES: usize = 512 * 1024;
/// Fewest rows a packed panel must be reused by: packing costs one element
/// copy per this many MACs. Below it the copy stops paying while `B` still
/// fits L2 (in place 52 vs packed 47 GFLOP/s at `(16,256)×(256,256)`, 49 vs
/// 35 at `(8,256)×(256,512)`; from 32 rows up packed is level or ahead),
/// and the networks' only products that short are their one-row classifier
/// heads, where a copied panel would be used once. No product with fewer
/// rows packs, and no parallel chunk or row block of a packed product is
/// shorter.
const PACK_MIN_ROWS: usize = 32;

/// Elements of the packed-panel buffer.
const PANEL_ELEMS: usize = PANEL_BYTES / size_of::<f32>();

/// The packed-panel buffer: stack-resident (a warm call allocates
/// nothing), cache-line aligned.
#[repr(align(64))]
struct Panel([f32; PANEL_ELEMS]);

/// Loop blocking of one [`matmul_into`] call, picked from the operand
/// shapes alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Blocking {
    /// Columns of `B` per panel: `n` walks `B` in place, [`PANEL_COLS`]
    /// packs.
    panel_cols: usize,
    /// Depth of a `k`-block.
    kc: usize,
    /// Rows per row block.
    mc: usize,
}

impl Blocking {
    fn pick(m: usize, k: usize, n: usize) -> Blocking {
        let elem = size_of::<f32>();
        if m < PACK_MIN_ROWS || k * n * elem <= PANEL_BYTES {
            return Blocking { panel_cols: n, kc: k, mc: m };
        }
        let mc = (A_BLOCK_BYTES / (k * elem)).max(PACK_MIN_ROWS);
        Blocking { panel_cols: PANEL_COLS, kc: PANEL_BYTES / (PANEL_COLS * elem), mc: mc - mc % 4 }
    }

    fn packs(&self, n: usize) -> bool {
        self.panel_cols < n
    }
}

/// Output rows `first..` of `A · B` into `out_rows` (whole rows of the
/// output), in the order `blocking` gives: row block · panel · `k`-block ·
/// row quad. Each panel is copied into `panel` when `blocking` packs and
/// read in place otherwise, where one row block, one panel and one
/// `k`-block make this the plain walk of every row quad over all of `B`.
fn blocked_rows(
    a: &Matrix,
    b: &Matrix,
    first: usize,
    out_rows: &mut [f32],
    blocking: Blocking,
    panel: &mut [f32],
) {
    let k = a.cols();
    let n = b.cols();
    let Blocking { panel_cols, kc, mc } = blocking;
    let packs = blocking.packs(n);
    // Even row blocks, in whole quads, so the last is no sliver.
    let rows = out_rows.len() / n;
    let mc = rows.div_ceil(rows.div_ceil(mc)).next_multiple_of(4);
    for (bi, block) in out_rows.chunks_mut(mc * n).enumerate() {
        let first = first + bi * mc;
        for j0 in (0..n).step_by(panel_cols) {
            let w = panel_cols.min(n - j0);
            // Block 0 runs even at k == 0: it is what overwrites `out`.
            let mut p0 = 0;
            loop {
                let kb = kc.min(k - p0);
                let bp: &[f32] = if packs {
                    let packed = &mut panel[..kb * w];
                    for (dst, p) in packed.chunks_exact_mut(w).zip(p0..) {
                        dst.copy_from_slice(&b.row(p)[j0..j0 + w]);
                    }
                    packed
                } else {
                    &b.as_slice()[p0 * n..]
                };
                walk_quads(
                    block,
                    n,
                    |i, rows| {
                        let a_rows = quad_rows(a, first + i).map(|r| &r[p0..p0 + kb]);
                        simd::mm4(a_rows, bp, w, rows.map(|r| &mut r[j0..j0 + w]), p0 > 0);
                    },
                    |i, row| {
                        let a_row = &a.row(first + i)[p0..p0 + kb];
                        simd::mm1(a_row, bp, w, &mut row[j0..j0 + w], p0 > 0);
                    },
                );
                p0 += kb;
                if p0 >= k {
                    break;
                }
            }
        }
    }
}

/// Rows `i..i + 4` of `a`.
fn quad_rows(a: &Matrix, i: usize) -> [&[f32]; 4] {
    [a.row(i), a.row(i + 1), a.row(i + 2), a.row(i + 3)]
}

/// Walks `rows` (whole `n`-wide rows) four at a time through
/// `quad(first_row, rows)` with the tail through `single(row, out_row)`,
/// row indices relative to the slice.
fn walk_quads(
    rows: &mut [f32],
    n: usize,
    quad: impl Fn(usize, [&mut [f32]; 4]),
    single: impl Fn(usize, &mut [f32]),
) {
    let rows_here = rows.len() / n;
    let mut ri = 0;
    while ri + 4 <= rows_here {
        let quad_rows = &mut rows[ri * n..(ri + 4) * n];
        let (r0, rest) = quad_rows.split_at_mut(n);
        let (r1, rest) = rest.split_at_mut(n);
        let (r2, r3) = rest.split_at_mut(n);
        quad(ri, [r0, r1, r2, r3]);
        ri += 4;
    }
    while ri < rows_here {
        single(ri, &mut rows[ri * n..(ri + 1) * n]);
        ri += 1;
    }
}

/// Output rows per pass of [`matmul_at_b`], i.e. columns of `A` transposed
/// at a time: a wide product's transient buffers (the transposed columns
/// and the pass's product) stay a fraction of its output instead of
/// doubling the call's heap peak. At `(128, 2048)ᵀ × (128, 128)` a
/// whole-`A` copy took that peak to 2 MB, which glibc's allocator returned
/// to the kernel on every call and faulted back in on the next (≈ 480 page
/// faults, 1.3–2× the call's time).
const AT_B_ROWS: usize = 256;

/// `Aᵀ · B` for `A: k×m`, `B: k×n` — the weight-gradient product of a
/// linear layer (`dW = Xᵀ · dY`): [`matmul_into`] on a transposed copy of
/// `A`, 256 output rows per pass.
///
/// Output element `(i, j)` is the chain `Σ_p A[p][i] · B[p][j]`, ascending
/// `p` from `+0.0`, one `mul` and one `add` per step, so the result is
/// bit-identical to [`naive::matmul_at_b_into`] for finite inputs: the
/// reference's sparse zero-skip (gradients behind a ReLU are mostly zeros)
/// becomes `±0.0` additions here, an IEEE-754 no-op on every finite
/// running sum (see the module docs).
///
/// # Panics
///
/// Panics when the row counts disagree.
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_at_b shape mismatch: {:?}ᵀ × {:?}",
        a.shape(),
        b.shape()
    );
    let (m, n) = (a.cols(), b.cols());
    let mut out = Vec::with_capacity(m * n);
    let (mut at, mut part) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    for i0 in (0..m).step_by(AT_B_ROWS) {
        a.transpose_cols_into(i0..(i0 + AT_B_ROWS).min(m), &mut at);
        matmul_into(&at, b, &mut part);
        out.extend_from_slice(part.as_slice());
    }
    Matrix::from_vec(m, n, out)
}

/// `A · Bᵀ` for `A: m×k`, `B: n×k` — the input-gradient product of a linear
/// layer (`dX = dY · Wᵀ`): [`matmul_into`] on a transposed copy of `B`.
///
/// Output element `(i, j)` is the dot product of `A` row `i` and `B` row
/// `j` as one chain in ascending `p` from `+0.0`, bit-identical to
/// [`naive::matmul_a_bt_into`].
///
/// # Panics
///
/// Panics when the column counts disagree.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_a_bt shape mismatch: {:?} × {:?}ᵀ",
        a.shape(),
        b.shape()
    );
    matmul(a, &b.transposed())
}

/// Elementwise `a + b`.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    add_into(a, b, &mut out);
    out
}

/// [`add`] writing into a caller-owned buffer.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn add_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.shape(), b.shape(), "add shape mismatch");
    out.reset_shape(a.rows(), a.cols());
    for ((o, &x), &y) in out.as_mut_slice().iter_mut().zip(a.as_slice()).zip(b.as_slice()) {
        *o = x + y;
    }
}

/// Elementwise `a - b`.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn sub(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    sub_into(a, b, &mut out);
    out
}

/// [`sub`] writing into a caller-owned buffer.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn sub_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.shape(), b.shape(), "sub shape mismatch");
    out.reset_shape(a.rows(), a.cols());
    for ((o, &x), &y) in out.as_mut_slice().iter_mut().zip(a.as_slice()).zip(b.as_slice()) {
        *o = x - y;
    }
}

/// Elementwise (Hadamard) product.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn hadamard(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    hadamard_into(a, b, &mut out);
    out
}

/// [`hadamard`] writing into a caller-owned buffer.
///
/// # Panics
///
/// Panics when shapes differ.
pub fn hadamard_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.shape(), b.shape(), "hadamard shape mismatch");
    out.reset_shape(a.rows(), a.cols());
    for ((o, &x), &y) in out.as_mut_slice().iter_mut().zip(a.as_slice()).zip(b.as_slice()) {
        *o = x * y;
    }
}

/// `a * s` for a scalar `s`.
pub fn scale(a: &Matrix, s: f32) -> Matrix {
    a.map(|v| v * s)
}

/// [`scale`] writing into a caller-owned buffer.
pub fn scale_into(a: &Matrix, s: f32, out: &mut Matrix) {
    out.reset_shape(a.rows(), a.cols());
    for (o, &x) in out.as_mut_slice().iter_mut().zip(a.as_slice()) {
        *o = x * s;
    }
}

/// Adds the `1 × cols` row vector `bias` to every row of `a` — the bias
/// broadcast of a linear layer.
///
/// # Panics
///
/// Panics when `bias` is not a single row of matching width.
pub fn add_bias_row(a: &Matrix, bias: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    add_bias_row_into(a, bias, &mut out);
    out
}

/// [`add_bias_row`] writing into a caller-owned buffer.
///
/// # Panics
///
/// Panics when `bias` is not a single row of matching width.
pub fn add_bias_row_into(a: &Matrix, bias: &Matrix, out: &mut Matrix) {
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), a.cols(), "bias width must match");
    out.reset_shape(a.rows(), a.cols());
    let b = bias.row(0);
    for r in 0..a.rows() {
        for ((o, &x), &v) in out.row_mut(r).iter_mut().zip(a.row(r)).zip(b) {
            *o = x + v;
        }
    }
}

/// ReLU: `max(v, 0)` elementwise — the non-linearity φ whose presence makes
/// delayed-aggregation *approximate* (paper Equ. 3).
pub fn relu(a: &Matrix) -> Matrix {
    a.map(|v| v.max(0.0))
}

/// [`relu`] writing into a caller-owned buffer.
pub fn relu_into(a: &Matrix, out: &mut Matrix) {
    out.reset_shape(a.rows(), a.cols());
    for (o, &x) in out.as_mut_slice().iter_mut().zip(a.as_slice()) {
        *o = x.max(0.0);
    }
}

/// The ReLU gradient mask: 1 where `pre_activation > 0`, else 0.
pub fn relu_mask(pre_activation: &Matrix) -> Matrix {
    pre_activation.map(|v| if v > 0.0 { 1.0 } else { 0.0 })
}

/// Column-wise sum of `a` as a `1 × cols` row — the bias gradient.
pub fn sum_rows(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(1, a.cols());
    for r in 0..a.rows() {
        for (o, &v) in out.row_mut(0).iter_mut().zip(a.row(r)) {
            *o += v;
        }
    }
    out
}

/// Per-column mean and (population) variance — batch-normalization
/// statistics. Returns `(mean, var)` as `1 × cols` rows.
///
/// # Panics
///
/// Panics on an empty matrix.
pub fn column_stats(a: &Matrix) -> (Matrix, Matrix) {
    assert!(a.rows() > 0, "column stats of empty matrix");
    let n = a.rows() as f32;
    let mean = scale(&sum_rows(a), 1.0 / n);
    let mut var = Matrix::zeros(1, a.cols());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            let d = a[(r, c)] - mean[(0, c)];
            var[(0, c)] += d * d;
        }
    }
    var.map_inplace(|v| v / n);
    (mean, var)
}

/// Per-column standardization `(x − mean) · inv_std` with population
/// statistics, `inv_std = 1/√(var + 1e-5)` — the shared forward kernel
/// behind `Graph::standardize` and the planned executor (both must produce
/// bit-identical values, so the arithmetic lives in exactly one place).
///
/// `stats` is a reusable scratch buffer; on return it holds
/// `[mean₀.. mean_{c}, inv_std₀.. inv_std_{c}]` so the autograd tape can
/// keep `inv_std` for its backward pass.
///
/// # Panics
///
/// Panics on an empty matrix.
pub fn standardize_into(a: &Matrix, stats: &mut Vec<f32>, out: &mut Matrix) {
    assert!(a.rows() > 0, "column stats of empty matrix");
    let (rows, cols) = a.shape();
    let n = rows as f32;
    stats.clear();
    stats.resize(2 * cols, 0.0);
    let (mean, inv) = stats.split_at_mut(cols);
    // Same accumulation order as `sum_rows` + `scale(_, 1/n)`.
    for r in 0..rows {
        for (m, &v) in mean.iter_mut().zip(a.row(r)) {
            *m += v;
        }
    }
    let s = 1.0 / n;
    for m in mean.iter_mut() {
        *m *= s;
    }
    // Same accumulation order (and final division) as `column_stats`' var.
    for r in 0..rows {
        for (c, &v) in a.row(r).iter().enumerate() {
            let d = v - mean[c];
            inv[c] += d * d;
        }
    }
    for v in inv.iter_mut() {
        *v = 1.0 / (*v / n + 1e-5).sqrt();
    }
    out.reset_shape(rows, cols);
    for r in 0..rows {
        for (c, (o, &v)) in out.row_mut(r).iter_mut().zip(a.row(r)).enumerate() {
            *o = (v - mean[c]) * inv[c];
        }
    }
}

/// Row-wise softmax (numerically stable).
pub fn softmax_rows(a: &Matrix) -> Matrix {
    let mut out = a.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Index of the maximum element in each row (ties: first).
pub fn argmax_rows(a: &Matrix) -> Vec<usize> {
    (0..a.rows())
        .map(|r| {
            let row = a.row(r);
            let mut best = 0;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            best
        })
        .collect()
}

/// Column-wise max over all rows, as a `1 × cols` row, with the arg rows —
/// the global max-pool closing PointNet-style networks.
///
/// # Panics
///
/// Panics on an empty matrix.
pub fn max_pool_columns(a: &Matrix) -> (Matrix, Vec<usize>) {
    assert!(a.rows() > 0, "max pool of empty matrix");
    let mut out = Matrix::from_vec(1, a.cols(), a.row(0).to_vec());
    let mut arg = vec![0usize; a.cols()];
    for r in 1..a.rows() {
        for (c, &v) in a.row(r).iter().enumerate() {
            if v > out[(0, c)] {
                out[(0, c)] = v;
                arg[c] = r;
            }
        }
    }
    (out, arg)
}

/// The pre-tier matmul kernels, preserved verbatim: plain i-k-j AXPY loops
/// with a sparse zero-skip, parallel over the same fixed row chunks as the
/// fast tier. They are the semantics reference the property suite compares
/// the blocked/vectorized kernels against (bit-identical for finite
/// inputs), and the `"naive"` backend of the bench harness, so every
/// committed `BENCH_*.json` carries the kernel tier's measured speedup.
pub mod naive {
    use super::par;
    use crate::Matrix;

    /// Reference `A · B` — see [`super::matmul_into`] for the fast tier.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(a.cols(), b.rows(), "matmul shape mismatch: {:?} × {:?}", a.shape(), b.shape());
        let (m, k) = a.shape();
        let n = b.cols();
        out.reset_shape(m, n);
        if n == 0 {
            return;
        }
        out.as_mut_slice().fill(0.0);
        let row_chunk = par::chunk_len(m, 2 * k * n);
        par::par_chunks_mut(out.as_mut_slice(), row_chunk * n, |ci, chunk| {
            for (ri, out_row) in chunk.chunks_mut(n).enumerate() {
                let a_row = a.row(ci * row_chunk + ri);
                for (p, &a_ip) in a_row.iter().enumerate().take(k) {
                    if a_ip == 0.0 {
                        continue;
                    }
                    let b_row = b.row(p);
                    for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                        *o += a_ip * b_pj;
                    }
                }
            }
        });
    }

    /// Reference `Aᵀ · B` — see [`super::matmul_at_b`].
    ///
    /// # Panics
    ///
    /// Panics when the row counts disagree.
    pub fn matmul_at_b_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(
            a.rows(),
            b.rows(),
            "matmul_at_b shape mismatch: {:?}ᵀ × {:?}",
            a.shape(),
            b.shape()
        );
        let (k, m) = a.shape();
        let n = b.cols();
        out.reset_shape(m, n);
        if n == 0 {
            return;
        }
        out.as_mut_slice().fill(0.0);
        let row_chunk = par::chunk_len(m, 2 * k * n);
        par::par_chunks_mut(out.as_mut_slice(), row_chunk * n, |ci, chunk| {
            let first = ci * row_chunk;
            let rows_here = chunk.len() / n;
            for p in 0..k {
                let a_cols = &a.row(p)[first..first + rows_here];
                let b_row = b.row(p);
                for (ri, &a_pi) in a_cols.iter().enumerate() {
                    if a_pi == 0.0 {
                        continue;
                    }
                    let out_row = &mut chunk[ri * n..(ri + 1) * n];
                    for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                        *o += a_pi * b_pj;
                    }
                }
            }
        });
    }

    /// Reference `A · Bᵀ` — see [`super::matmul_a_bt`].
    ///
    /// # Panics
    ///
    /// Panics when the column counts disagree.
    pub fn matmul_a_bt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(
            a.cols(),
            b.cols(),
            "matmul_a_bt shape mismatch: {:?} × {:?}ᵀ",
            a.shape(),
            b.shape()
        );
        let (m, k) = a.shape();
        let n = b.rows();
        out.reset_shape(m, n);
        if n == 0 {
            return;
        }
        let row_chunk = par::chunk_len(m, 2 * k * n);
        par::par_chunks_mut(out.as_mut_slice(), row_chunk * n, |ci, chunk| {
            for (ri, out_row) in chunk.chunks_mut(n).enumerate() {
                let a_row = a.row(ci * row_chunk + ri);
                for (j, o) in out_row.iter_mut().enumerate().take(n) {
                    let b_row = b.row(j);
                    let mut acc = 0.0;
                    for (&x, &y) in a_row.iter().zip(b_row) {
                        acc += x * y;
                    }
                    *o = acc;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
        assert_eq!(matmul(&a, &Matrix::identity(4)), a);
        assert_eq!(matmul(&Matrix::identity(3), &a), a);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_bad_shapes_panic() {
        let _ = matmul(&Matrix::zeros(2, 3), &Matrix::zeros(2, 3));
    }

    #[test]
    fn blocking_follows_the_operand_shapes() {
        // The boundary shapes `tests/matmul_blocking.rs` runs against the
        // references: this pins which side of each rule they sit on.
        let in_place = |m, k, n| Blocking { panel_cols: n, kc: k, mc: m };
        let packed = |kc, mc| Blocking { panel_cols: PANEL_COLS, kc, mc };
        // B up to PANEL_BYTES is walked in place, whatever the row count.
        assert_eq!(Blocking::pick(40, 128, 64), in_place(40, 128, 64));
        assert_eq!(Blocking::pick(40, 129, 64), packed(512, 1016));
        assert_eq!(Blocking::pick(32768, 64, 128), in_place(32768, 64, 128));
        // Fewer than PACK_MIN_ROWS rows never pack.
        assert_eq!(Blocking::pick(31, 512, 1024), in_place(31, 512, 1024));
        assert_eq!(Blocking::pick(32, 512, 1024), packed(512, 256));
        // Row blocks hold A_BLOCK_BYTES of A, floored at PACK_MIN_ROWS.
        assert_eq!(Blocking::pick(70, 2048, 20), packed(512, 64));
        assert_eq!(Blocking::pick(67, 8192, 17), packed(512, 32));
        // A deep B no wider than one panel is already contiguous: k- and
        // row-blocked, but read in place.
        assert!(!Blocking::pick(64, 1024, 13).packs(13));
        assert!(Blocking::pick(64, 1024, 17).packs(17));
    }

    #[test]
    fn transpose_variants_match_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5);
        let b = Matrix::from_fn(4, 5, |r, c| (r + 2 * c) as f32 * 0.25);
        assert!(approx_eq(&matmul_at_b(&a, &b), &matmul(&a.transposed(), &b), 1e-5));
        let c = Matrix::from_fn(2, 3, |r, c| (r * 7 + c) as f32);
        let d = Matrix::from_fn(5, 3, |r, c| (r + c) as f32);
        assert!(approx_eq(&matmul_a_bt(&c, &d), &matmul(&c, &d.transposed()), 1e-5));
    }

    #[test]
    fn matmul_is_distributive_over_sub() {
        // The algebraic heart of delayed-aggregation: (A - B)·W = A·W - B·W.
        let a = Matrix::from_fn(3, 3, |r, c| (r * c) as f32 + 1.0);
        let b = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
        let w = Matrix::from_fn(3, 2, |r, c| (r as f32 - c as f32) * 0.5);
        let lhs = matmul(&sub(&a, &b), &w);
        let rhs = sub(&matmul(&a, &w), &matmul(&b, &w));
        assert!(approx_eq(&lhs, &rhs, 1e-5));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(add(&a, &b), Matrix::from_rows(&[&[4.0, 2.0]]));
        assert_eq!(sub(&a, &b), Matrix::from_rows(&[&[-2.0, -6.0]]));
        assert_eq!(hadamard(&a, &b), Matrix::from_rows(&[&[3.0, -8.0]]));
        assert_eq!(scale(&a, 2.0), Matrix::from_rows(&[&[2.0, -4.0]]));
    }

    #[test]
    fn bias_broadcast() {
        let a = Matrix::zeros(3, 2);
        let b = Matrix::from_rows(&[&[1.0, 2.0]]);
        let out = add_bias_row(&a, &b);
        for r in 0..3 {
            assert_eq!(out.row(r), &[1.0, 2.0]);
        }
    }

    #[test]
    fn relu_and_mask() {
        let a = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        assert_eq!(relu(&a), Matrix::from_rows(&[&[0.0, 0.0, 2.0]]));
        assert_eq!(relu_mask(&a), Matrix::from_rows(&[&[0.0, 0.0, 1.0]]));
    }

    #[test]
    fn column_stats_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 10.0]]);
        let (mean, var) = column_stats(&a);
        assert_eq!(mean, Matrix::from_rows(&[&[2.0, 10.0]]));
        assert_eq!(var, Matrix::from_rows(&[&[1.0, 0.0]]));
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let s = softmax_rows(&a);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!(s[(0, 2)] > s[(0, 1)] && s[(0, 1)] > s[(0, 0)]);
        assert!((s[(1, 0)] - 1.0 / 3.0).abs() < 1e-5, "large inputs stay stable");
    }

    #[test]
    fn argmax_and_max_pool() {
        let a = Matrix::from_rows(&[&[1.0, 9.0], &[5.0, 2.0]]);
        assert_eq!(argmax_rows(&a), vec![1, 0]);
        let (pooled, arg) = max_pool_columns(&a);
        assert_eq!(pooled, Matrix::from_rows(&[&[5.0, 9.0]]));
        assert_eq!(arg, vec![1, 0]);
    }

    #[test]
    fn sum_rows_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(sum_rows(&a), Matrix::from_rows(&[&[4.0, 6.0]]));
    }

    /// Deterministic pseudo-random matrix with a configurable fraction of
    /// exact zeros (the fast tier and the reference treat zeros through
    /// different code paths — both must stay value-identical).
    fn noisy(rows: usize, cols: usize, seed: u32, zero_every: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let h = (r as u32)
                .wrapping_mul(2654435761)
                .wrapping_add((c as u32).wrapping_mul(40503))
                .wrapping_add(seed);
            if zero_every > 0 && (h as usize).is_multiple_of(zero_every) {
                0.0
            } else {
                ((h >> 8) as f32 / 1e5).sin() * 3.0
            }
        })
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive() {
        // Shapes straddle every block boundary: odd rows (the unpaired
        // tail), k below/at/above MATMUL_KC, n not a multiple of the
        // vector width, and degenerate edges (K=0, 1×N, empty).
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 9),
            (2, 64, 8),
            (3, 65, 17),
            (5, 0, 4),
            (0, 3, 3),
            (7, 130, 33),
            (16, 128, 128),
            (9, 200, 1),
        ] {
            for zero_every in [0, 2, 3] {
                let a = noisy(m, k, 11, zero_every);
                let b = noisy(k, n, 23, 0);
                let mut fast = Matrix::zeros(0, 0);
                let mut reference = Matrix::zeros(0, 0);
                matmul_into(&a, &b, &mut fast);
                naive::matmul_into(&a, &b, &mut reference);
                assert_eq!(fast, reference, "matmul {m}×{k}×{n} zeros 1/{zero_every}");
            }
        }
    }

    #[test]
    fn at_b_and_a_bt_are_bit_identical_to_naive() {
        // Shapes straddle the register-tile boundaries: m below/at/above a
        // quad (unpaired row tails), n across the 16- and 8-lane column
        // blocks, and zero fractions that exercise the reference's sparse
        // skip against the tier's ±0.0 additions. (9, 520, 21) runs
        // `matmul_at_b` in three passes of `AT_B_ROWS`, the last one short.
        // The last shape of each list takes `matmul_into`'s packed branch:
        // at least 32 rows, a `B` past 32 KB and `k` past one 512-deep
        // panel, so partial sums pass through `out`. Release adds
        // PointNet++'s SA gradients at 16384 points, 67 inputs and 64
        // outputs, slow unoptimised.
        let paper_scale = |shape| if cfg!(debug_assertions) { None } else { Some(shape) };
        for (k, m, n) in [
            (1, 1, 1),
            (7, 3, 9),
            (64, 5, 12),
            (130, 33, 2),
            (64, 9, 40),
            (30, 8, 33),
            (13, 17, 19),
            (9, 520, 21),
            (1030, 36, 40),
        ]
        .into_iter()
        .chain(paper_scale((16384, 67, 64)))
        {
            for zero_every in [0, 2, 3] {
                let a = noisy(k, m, 31, zero_every);
                let b = noisy(k, n, 41, 0);
                let mut reference = Matrix::zeros(0, 0);
                naive::matmul_at_b_into(&a, &b, &mut reference);
                assert_eq!(matmul_at_b(&a, &b), reference, "at_b {k}ᵀ{m}×{n} zeros 1/{zero_every}");
            }
        }
        for (m, k, n) in [
            (1, 1, 1),
            (3, 9, 7),
            (5, 12, 64),
            (33, 2, 130),
            (9, 64, 40),
            (12, 7, 35),
            (36, 1030, 40),
        ]
        .into_iter()
        .chain(paper_scale((16384, 64, 67)))
        {
            let a = noisy(m, k, 51, 0);
            let b = noisy(n, k, 61, 4);
            let mut reference = Matrix::zeros(0, 0);
            naive::matmul_a_bt_into(&a, &b, &mut reference);
            assert_eq!(matmul_a_bt(&a, &b), reference, "a_bt {m}×{k}×{n}ᵀ");
        }
    }
}
