//! Vectorized micro-kernels — the workspace's only `unsafe` island.
//!
//! One primitive pair powers the matmul tier in [`crate::ops`]: [`mm4`] /
//! [`mm1`], register-accumulator matmul blocks. A 4-row × 16-column output
//! tile lives entirely in registers while the kernel walks `p` over the
//! shared dimension, so the hot loop touches memory only to read `A`
//! coefficients and stream rows of `B`; each output element is stored once
//! per walk. Per element the products accumulate in ascending-`p` order
//! with separate `mul` and `add` instructions, which is the whole
//! bit-identity contract: any lane width (8-lane AVX2, auto-vectorized
//! scalar) produces the same rounding sequence. The kernels do no cache
//! blocking of their own — `b` is whatever contiguous `k × n` panel the
//! caller hands over, all of `B` or a packed 16-column piece of it — but
//! their `accumulate` form starts the tile from the sums already in `out`,
//! which is how [`crate::ops::matmul_into`] splits a deep `k` into L1-sized
//! blocks: a store and reload in the element type is exact, so the chain
//! is the one an unsplit walk would run.
//!
//! A second entry, [`sqdist_rows`], serves the feature-space kNN scan of
//! `mesorasi-knn` rather than the matmul tier: squared distances from a
//! tile of queries to every row of a dim-major panel. It lives here for
//! its dispatch, not for intrinsics — it has none. Its body is one safe
//! generic function over the query-tile width whose 16-lane loops the
//! compiler vectorises; the island contributes a
//! `#[target_feature(enable = "avx2")]` wrapper that inlines that body at
//! 4 queries × 16 lanes (eight ymm accumulators), which is the only way to
//! have safe code compiled wider than the crate's x86-64 baseline and
//! chosen at runtime. Elsewhere the same body runs one query per pass at
//! baseline width — the loop the scan used before; on SSE2 tiles of 2 and
//! 4 queries measured no faster (16 xmm registers cannot hold them).
//!
//! A third, [`max_rows`], is the engine's aggregation and reduction
//! kernel behind [`crate::group::gather_max_into`] and
//! [`crate::group::group_max_into`]: the column-wise max over groups of
//! `k` rows, named by an index table or consecutive. It is here for the
//! same reason as [`sqdist_rows`] — one safe generic body, no intrinsics,
//! and an AVX2 `target_feature` wrapper so the body's 64-column tile is
//! eight ymm accumulators that stay in registers across all `k` rows and
//! are stored once (32 columns at baseline width, 16 for `f64`). The loop
//! it replaced compared each element against an output row in memory — a
//! load, a branch and a store per element — and ran at about a nanosecond
//! per element on a table that sat in L2. The fold is spelled
//! `if v > acc { v } else { acc }` and never `max()`: the tape's argmax
//! loop is that comparison, under which a `NaN` in a group's first row
//! stays, a later `NaN` loses, and `−0.0` is not replaced by `+0.0`, while
//! `f32::max` drops the first-row `NaN` and may return either zero. (x86's
//! `maxps` happens to be exactly this select with the operands in this
//! order, so the compiler may emit it.)
//!
//! FMA is deliberately never used: a fused multiply-add rounds once where
//! `mul` + `add` round twice, which would break the scalar ≡ vector
//! contract.
//!
//! The matmul entry points are the `f32` hooks of [`Element`]: they check
//! every bound the vector paths rely on, then dispatch. With the `simd`
//! cargo feature (default on), x86_64 checks for AVX2 at runtime
//! (`is_x86_feature_detected!`, cached by std) and falls back to the
//! scalar micro-kernels on machines without it; other architectures
//! (including aarch64, where the scalar blocks auto-vectorize to NEON —
//! Rust never contracts `mul` + `add` into FMA) always use the scalar
//! micro-kernels. Without the feature, only the scalar micro-kernels
//! compile — no `unsafe` remains in the crate. The scalar micro-kernels
//! are safe code written once over `T: Element`; they are also the `f64`
//! hooks.
//!
//! The rest of the workspace is `#![forbid(unsafe_code)]` (the crate root
//! here carries `deny` so this one module can opt back in); keep every
//! `unsafe` block inside this file.
#![allow(unsafe_code)]

use crate::Element;

/// Four-row matmul block: `out[r][j] = Σ_p a[r][p] · b[p·n + j]` for the
/// row-major `k × n` matrix `b`, overwriting each `out[r]` completely —
/// or, with `accumulate`, continuing each element's chain from the partial
/// sum already in `out[r][j]` (how a `k`-block after the first extends the
/// sum the previous block stored; see [`crate::ops::matmul_into`]).
///
/// This is the register-tiled heart of [`crate::ops::matmul_into`]: four
/// output rows share every load of a `B` row, and the output tile stays in
/// registers for the whole `p` walk (each element accumulates in ascending
/// `p`, one `mul` + one `add` per step — bit-identical to the naive
/// kernel on finite inputs).
///
/// # Panics
///
/// Panics when the `a` rows disagree in length, when an `out` row is not
/// exactly `n` long, or when `b` is smaller than `k × n`.
#[inline]
pub fn mm4(a: [&[f32]; 4], b: &[f32], n: usize, out: [&mut [f32]; 4], accumulate: bool) {
    let k = a[0].len();
    for row in &a[1..] {
        assert_eq!(row.len(), k, "mm4 A-row length mismatch");
    }
    for row in &out {
        assert_eq!(row.len(), n, "mm4 out-row length mismatch");
    }
    assert!(b.len() >= k * n, "mm4 B too small");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime; the asserts
        // above are the bounds `mm4_avx2` requires.
        return unsafe { x86::mm4_avx2(a, b, n, out, accumulate) };
    }
    mm4_scalar(a, b, n, out, accumulate);
}

/// Single-row matmul block: `out[j] = Σ_p a[p] · b[p·n + j]` — the row
/// tail of [`mm4`], same accumulation order, rounding contract and
/// `accumulate` form.
///
/// # Panics
///
/// Panics when `out` is not exactly `n` long or `b` is smaller than
/// `k × n`.
#[inline]
pub fn mm1(a: &[f32], b: &[f32], n: usize, out: &mut [f32], accumulate: bool) {
    assert_eq!(out.len(), n, "mm1 out length mismatch");
    assert!(b.len() >= a.len() * n, "mm1 B too small");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime; the asserts
        // above are the bounds `mm1_avx2` requires.
        return unsafe { x86::mm1_avx2(a, b, n, out, accumulate) };
    }
    mm1_scalar(a, b, n, out, accumulate);
}

#[inline(always)]
pub(crate) fn mm4_scalar<T: Element>(
    a: [&[T]; 4],
    b: &[T],
    n: usize,
    out: [&mut [T]; 4],
    accumulate: bool,
) {
    for (ar, or) in a.into_iter().zip(out) {
        mm1_scalar(ar, b, n, or, accumulate);
    }
}

/// The scalar register tile: 8 column accumulators held in locals over
/// the full `p` walk (auto-vectorizes on SSE2/NEON without changing the
/// per-element mul-then-add rounding sequence), stored once. With
/// `accumulate` the accumulators start from `out` instead of zero — a
/// store and reload in the element type is exact, so the chain is the one
/// an unsplit `p` walk would run.
#[inline(always)]
pub(crate) fn mm1_scalar<T: Element>(a: &[T], b: &[T], n: usize, out: &mut [T], accumulate: bool) {
    let mut j = 0;
    while j + 8 <= n {
        let mut acc = [T::ZERO; 8];
        if accumulate {
            acc.copy_from_slice(&out[j..j + 8]);
        }
        for (p, &ap) in a.iter().enumerate() {
            let br = &b[p * n + j..p * n + j + 8];
            for (s, &bv) in acc.iter_mut().zip(br) {
                *s += ap * bv;
            }
        }
        out[j..j + 8].copy_from_slice(&acc);
        j += 8;
    }
    for (jj, o) in out.iter_mut().enumerate().skip(j) {
        let mut s = if accumulate { *o } else { T::ZERO };
        for (p, &ap) in a.iter().enumerate() {
            s += ap * b[p * n + jj];
        }
        *o = s;
    }
}

/// Rows per block of the dim-major panel [`sqdist_rows`] reads: element `d`
/// of row `block · 16 + lane` sits at `panel[(block · dim + d) · 16 + lane]`.
pub const SQDIST_LANES: usize = 16;

/// Squared Euclidean distances from each query to every row of a dim-major
/// panel: `out[q · padded + block · 16 + lane] = Σ_d (queries[q][d] −
/// panel[(block · dim + d) · 16 + lane])²` with `dim = queries[0].len()`
/// and `padded = panel.len() / dim`. Each element is its own ascending-`d`
/// chain of one `sub`, one `mul` and one `add` per step, so the sums carry
/// the bits of the one-pair-at-a-time loop whichever form runs: four
/// queries per pass over the panel under AVX2 (runtime-detected, `simd`
/// feature), one per pass at the target's baseline width otherwise.
///
/// # Panics
///
/// Panics when the queries disagree in length or are empty vectors, when
/// `panel` is not whole 16-row blocks, or when `out` is not exactly
/// `queries.len() × padded` long.
#[inline]
pub fn sqdist_rows(queries: &[&[f32]], panel: &[f32], out: &mut [f32]) {
    let Some(first) = queries.first() else {
        assert!(out.is_empty(), "sqdist_rows out length mismatch");
        return;
    };
    let dim = first.len();
    assert!(dim > 0, "sqdist_rows zero-length query");
    for q in queries {
        assert_eq!(q.len(), dim, "sqdist_rows query length mismatch");
    }
    assert_eq!(panel.len() % (dim * SQDIST_LANES), 0, "sqdist_rows panel is not whole blocks");
    assert_eq!(out.len(), queries.len() * (panel.len() / dim), "sqdist_rows out length mismatch");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime, which is all
        // `sqdist_rows_avx2` requires: its body is safe code.
        return unsafe { x86::sqdist_rows_avx2(queries, panel, out) };
    }
    sqdist_rows_tiled::<1>(queries, panel, out);
}

/// [`sqdist_rows`] behind its checks: whole tiles of `Q` queries, then the
/// remainder one query at a time.
#[inline(always)]
fn sqdist_rows_tiled<const Q: usize>(queries: &[&[f32]], panel: &[f32], out: &mut [f32]) {
    let padded = panel.len() / queries[0].len();
    let mut rows = out.chunks_exact_mut(padded);
    let mut tiles = queries.chunks_exact(Q);
    for tile in &mut tiles {
        let q: [&[f32]; Q] = std::array::from_fn(|r| tile[r]);
        sqdist_tile(q, panel, std::array::from_fn(|_| rows.next().expect("one out row per query")));
    }
    for (&q, row) in tiles.remainder().iter().zip(rows) {
        sqdist_tile([q], panel, [row]);
    }
}

/// The distance tile: `Q` queries × 16 panel rows of accumulators held in
/// locals over the whole `d` walk, each panel column loaded once for all
/// `Q` queries, stored once per block. Plain indexed arithmetic — the
/// compiler vectorises the 16-lane loops at whatever width the enclosing
/// function is compiled for, and never contracts `mul` + `add`.
#[inline(always)]
fn sqdist_tile<const Q: usize>(q: [&[f32]; Q], panel: &[f32], mut out: [&mut [f32]; Q]) {
    let dim = q[0].len();
    let q = q.map(|row| &row[..dim]);
    for (b, block) in panel.chunks_exact(dim * SQDIST_LANES).enumerate() {
        let mut acc = [[0.0f32; SQDIST_LANES]; Q];
        for (d, col) in block.chunks_exact(SQDIST_LANES).enumerate() {
            for (acc_r, q_r) in acc.iter_mut().zip(&q) {
                let x = q_r[d];
                for (a, &y) in acc_r.iter_mut().zip(col) {
                    let e = x - y;
                    *a += e * e;
                }
            }
        }
        for (out_r, acc_r) in out.iter_mut().zip(&acc) {
            out_r[b * SQDIST_LANES..(b + 1) * SQDIST_LANES].copy_from_slice(acc_r);
        }
    }
}

/// Column-wise max over groups of `k` rows of the row-major, `cols`-wide
/// `src` — the engine's aggregation and reduction kernel. `out` is whole
/// `cols`-wide rows; its row `g` reduces the source rows at positions
/// `first + g·k .. first + (g + 1)·k` of the row-index source `rows`: an
/// index table (the NIT of a delayed aggregation), or `None` for the
/// identity — position `i` is row `i`, `k` consecutive rows per group, no
/// table materialised. Per column the group's first row seeds the result
/// and each later row replaces it only if `v > acc`, in group order: a
/// first-row `NaN` stays, a later `NaN` loses, and `−0.0` is not replaced
/// by `+0.0`. Under AVX2 (runtime-detected, `simd` feature) a 64-column
/// slice of the output row is held in eight ymm accumulators across all
/// `k` rows; elsewhere the same body runs 32 columns wide.
///
/// # Panics
///
/// Panics when `k` or `cols` is zero, when `out` is not whole rows, or
/// when a position or a row index is out of bounds.
#[inline]
pub fn max_rows(
    src: &[f32],
    cols: usize,
    rows: Option<&[usize]>,
    first: usize,
    k: usize,
    out: &mut [f32],
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime, which is all
        // `max_rows_avx2` requires: its body is safe code.
        return unsafe { x86::max_rows_avx2(src, cols, rows, first, k, out) };
    }
    max_rows_tiled::<f32, 32>(src, cols, rows, first, k, out);
}

/// [`max_rows`] at a full tile of `W` columns: per group, full tiles, then
/// the column tail through the same tile 8 wide and 1 wide.
#[inline(always)]
pub(crate) fn max_rows_tiled<T: Element, const W: usize>(
    src: &[T],
    cols: usize,
    rows: Option<&[usize]>,
    first: usize,
    k: usize,
    out: &mut [T],
) {
    assert!(k > 0 && cols > 0, "max_rows needs a row and a column per group");
    assert_eq!(out.len() % cols, 0, "max_rows out is not whole rows");
    let n_rows = src.len() / cols;
    for (g, out_row) in out.chunks_exact_mut(cols).enumerate() {
        // Where the group's `j`-th source row starts in `src`.
        let start = |j: usize| {
            let i = first + g * k + j;
            let row = rows.map_or(i, |table| table[i]);
            assert!(row < n_rows, "max_rows row {row} out of bounds for {n_rows} rows");
            row * cols
        };
        let c = max_tiles::<T, W>(src, &start, k, 0, out_row);
        let c = max_tiles::<T, 8>(src, &start, k, c, out_row);
        max_tiles::<T, 1>(src, &start, k, c, out_row);
    }
}

/// The max-reduce tile: from column `c` on, every `W`-column slice of
/// `out_row` that fits is seeded from the group's first row, folded over
/// the other `k − 1` rows in locals and stored once. Returns the first
/// column left over. The select is spelled out because `max()` is a
/// different function (it drops a first-row `NaN` and may swap zeros); the
/// compiler vectorises it at the enclosing function's width.
#[inline(always)]
fn max_tiles<T: Element, const W: usize>(
    src: &[T],
    start: &impl Fn(usize) -> usize,
    k: usize,
    mut c: usize,
    out_row: &mut [T],
) -> usize {
    while c + W <= out_row.len() {
        let mut acc = [T::ZERO; W];
        acc.copy_from_slice(&src[start(0) + c..][..W]);
        for j in 1..k {
            for (a, &v) in acc.iter_mut().zip(&src[start(j) + c..][..W]) {
                *a = if v > *a { v } else { *a };
            }
        }
        out_row[c..c + W].copy_from_slice(&acc);
        c += W;
    }
    c
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    /// [`super::sqdist_rows`] at 4 queries × 16 lanes, compiled for AVX2:
    /// eight ymm accumulators, two panel loads and a broadcast per `d`. The
    /// body is the safe generic tile, inlined here so the attribute decides
    /// its vector width; there is nothing for an intrinsic to add.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sqdist_rows_avx2(queries: &[&[f32]], panel: &[f32], out: &mut [f32]) {
        super::sqdist_rows_tiled::<4>(queries, panel, out);
    }

    /// [`super::max_rows`] at 64 columns per tile, compiled for AVX2: eight
    /// ymm accumulators per group and column slice, one compare-and-select
    /// per source row. As with [`sqdist_rows_avx2`], the body is the safe
    /// generic one and the attribute only decides its vector width.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn max_rows_avx2(
        src: &[f32],
        cols: usize,
        rows: Option<&[usize]>,
        first: usize,
        k: usize,
        out: &mut [f32],
    ) {
        super::max_rows_tiled::<f32, 64>(src, cols, rows, first, k, out);
    }

    /// 4 rows × 16 columns of the output held in eight ymm accumulators
    /// for the whole `p` walk; each `B` row segment is loaded once and
    /// feeds all four output rows. With `accumulate` the accumulators are
    /// loaded from `out` instead of zeroed.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime, and the
    /// bounds checked by [`super::mm4`] must hold.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mm4_avx2(
        a: [&[f32]; 4],
        b: &[f32],
        n: usize,
        out: [&mut [f32]; 4],
        accumulate: bool,
    ) {
        let k = a[0].len();
        let mut j = 0;
        while j + 16 <= n {
            // SAFETY: j + 16 <= n, every out row is n long and
            // b.len() >= k·n bound every access; mul then add — never
            // FMA — matches scalar rounding.
            unsafe {
                let mut acc = [[_mm256_setzero_ps(); 2]; 4];
                if accumulate {
                    for r in 0..4 {
                        acc[r][0] = _mm256_loadu_ps(out[r].as_ptr().add(j));
                        acc[r][1] = _mm256_loadu_ps(out[r].as_ptr().add(j + 8));
                    }
                }
                for p in 0..k {
                    let bp = b.as_ptr().add(p * n + j);
                    let vb0 = _mm256_loadu_ps(bp);
                    let vb1 = _mm256_loadu_ps(bp.add(8));
                    for r in 0..4 {
                        let va = _mm256_set1_ps(*a[r].get_unchecked(p));
                        acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(va, vb0));
                        acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(va, vb1));
                    }
                }
                for r in 0..4 {
                    _mm256_storeu_ps(out[r].as_mut_ptr().add(j), acc[r][0]);
                    _mm256_storeu_ps(out[r].as_mut_ptr().add(j + 8), acc[r][1]);
                }
            }
            j += 16;
        }
        if j + 8 <= n {
            // SAFETY: j + 8 <= n, every out row is n long and
            // b.len() >= k·n bound every access.
            unsafe {
                let mut acc = [_mm256_setzero_ps(); 4];
                if accumulate {
                    for r in 0..4 {
                        acc[r] = _mm256_loadu_ps(out[r].as_ptr().add(j));
                    }
                }
                for p in 0..k {
                    let vb = _mm256_loadu_ps(b.as_ptr().add(p * n + j));
                    for r in 0..4 {
                        let va = _mm256_set1_ps(*a[r].get_unchecked(p));
                        acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(va, vb));
                    }
                }
                for r in 0..4 {
                    _mm256_storeu_ps(out[r].as_mut_ptr().add(j), acc[r]);
                }
            }
            j += 8;
        }
        for jj in j..n {
            for r in 0..4 {
                let mut s = if accumulate { out[r][jj] } else { 0.0f32 };
                for (p, &ap) in a[r].iter().enumerate() {
                    s += ap * b[p * n + jj];
                }
                out[r][jj] = s;
            }
        }
    }

    /// One output row, 8 columns per pass in one ymm accumulator. With
    /// `accumulate` the accumulator is loaded from `out` instead of zeroed.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime, and the
    /// bounds checked by [`super::mm1`] must hold.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mm1_avx2(
        a: &[f32],
        b: &[f32],
        n: usize,
        out: &mut [f32],
        accumulate: bool,
    ) {
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: j + 8 <= n = out.len() and b.len() >= k·n bound
            // every access; mul then add — never FMA — matches scalar
            // rounding.
            unsafe {
                let mut acc: __m256 = if accumulate {
                    _mm256_loadu_ps(out.as_ptr().add(j))
                } else {
                    _mm256_setzero_ps()
                };
                for (p, &ap) in a.iter().enumerate() {
                    let vb = _mm256_loadu_ps(b.as_ptr().add(p * n + j));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(ap), vb));
                }
                _mm256_storeu_ps(out.as_mut_ptr().add(j), acc);
            }
            j += 8;
        }
        for (jj, o) in out.iter_mut().enumerate().skip(j) {
            let mut s = if accumulate { *o } else { 0.0f32 };
            for (p, &ap) in a.iter().enumerate() {
                s += ap * b[p * n + jj];
            }
            *o = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, seed: u32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 8) as f32 / 1e6).sin()
            })
            .collect()
    }

    fn mm_reference(a: &[f32], b: &[f32], k: usize, n: usize) -> Vec<f32> {
        // The naive per-element chain: ascending p, one mul + one add.
        (0..n)
            .map(|j| {
                let mut s = 0.0f32;
                for p in 0..k {
                    s += a[p] * b[p * n + j];
                }
                s
            })
            .collect()
    }

    #[test]
    fn mm1_matches_reference_bitwise() {
        for (k, n) in [(0, 5), (1, 1), (3, 8), (7, 16), (13, 17), (64, 40), (128, 33)] {
            let a = sample(k, 1);
            let b = sample(k * n, 2);
            let mut out = vec![f32::NAN; n];
            mm1(&a, &b, n, &mut out, false);
            assert_eq!(out, mm_reference(&a, &b, k, n), "k = {k}, n = {n}");
        }
    }

    #[test]
    fn mm4_matches_four_mm1_bitwise() {
        for (k, n) in [(0, 3), (2, 8), (5, 16), (9, 24), (64, 19), (100, 48)] {
            let rows: Vec<Vec<f32>> = (0..4).map(|r| sample(k, 10 + r)).collect();
            let b = sample(k * n, 99);
            let mut out =
                [vec![f32::NAN; n], vec![f32::NAN; n], vec![f32::NAN; n], vec![f32::NAN; n]];
            {
                let [o0, o1, o2, o3] = &mut out;
                mm4([&rows[0], &rows[1], &rows[2], &rows[3]], &b, n, [o0, o1, o2, o3], false);
            }
            for (r, o) in out.iter().enumerate() {
                let mut want = vec![0.0f32; n];
                mm1(&rows[r], &b, n, &mut want, false);
                assert_eq!(o, &want, "k = {k}, n = {n}, row {r}");
            }
        }
    }

    #[test]
    fn vector_and_scalar_micro_kernels_agree_bitwise() {
        // The contract the whole crate rests on: whatever path the public
        // kernels dispatch to must equal the scalar micro-kernels
        // bit-for-bit.
        for (k, n) in [(3, 7), (17, 16), (64, 31), (128, 64)] {
            let a = sample(k, 8);
            let b = sample(k * n, 9);
            let mut via_dispatch = vec![f32::NAN; n];
            let mut via_scalar = vec![f32::NAN; n];
            mm1(&a, &b, n, &mut via_dispatch, false);
            mm1_scalar(&a, &b, n, &mut via_scalar, false);
            assert_eq!(via_dispatch, via_scalar, "k = {k}, n = {n}");
        }
    }

    #[test]
    fn accumulate_forms_agree_with_the_scalar_tile_bitwise() {
        // A k-block after the first starts from the partial sums in `out`:
        // the dispatched kernels must continue them exactly as the scalar
        // tile does, on the 16-, 8- and 1-column paths alike.
        for (k, n) in [(0, 5), (3, 7), (17, 16), (64, 31), (40, 24), (128, 64)] {
            let rows: Vec<Vec<f32>> = (0..4).map(|r| sample(k, 40 + r)).collect();
            let b = sample(k * n, 41);
            let partial: Vec<Vec<f32>> = (0..4).map(|r| sample(n, 50 + r)).collect();
            let mut via_dispatch = partial.clone();
            let mut via_scalar = partial.clone();
            {
                let [o0, o1, o2, o3] = &mut via_dispatch[..] else { unreachable!() };
                mm4([&rows[0], &rows[1], &rows[2], &rows[3]], &b, n, [o0, o1, o2, o3], true);
                let [s0, s1, s2, s3] = &mut via_scalar[..] else { unreachable!() };
                mm4_scalar([&rows[0], &rows[1], &rows[2], &rows[3]], &b, n, [s0, s1, s2, s3], true);
            }
            assert_eq!(via_dispatch, via_scalar, "mm4 k = {k}, n = {n}");
            let mut single = partial[0].clone();
            mm1(&rows[0], &b, n, &mut single, true);
            assert_eq!(single, via_scalar[0], "mm1 k = {k}, n = {n}");
        }
    }

    #[test]
    fn a_split_walk_continues_the_unsplit_chain_bitwise() {
        // Storing the partial sums after `split` steps and reloading them
        // for the rest is the unsplit chain: exact in the element type.
        for (k, split, n) in [(1, 0, 3), (9, 4, 8), (40, 39, 17), (96, 32, 31), (130, 64, 48)] {
            let rows: Vec<Vec<f32>> = (0..4).map(|r| sample(k, 60 + r)).collect();
            let b = sample(k * n, 61);
            let mut out = vec![vec![f32::NAN; n]; 4];
            for (range, accumulate) in [(0..split, false), (split..k, true)] {
                let [a0, a1, a2, a3] = [0, 1, 2, 3].map(|r| &rows[r][range.clone()]);
                let [o0, o1, o2, o3] = &mut out[..] else { unreachable!() };
                mm4([a0, a1, a2, a3], &b[range.start * n..], n, [o0, o1, o2, o3], accumulate);
            }
            let mut single = vec![f32::NAN; n];
            mm1(&rows[0][..split], &b, n, &mut single, false);
            mm1(&rows[0][split..], &b[split * n..], n, &mut single, true);
            for (r, o) in out.iter().enumerate() {
                assert_eq!(o, &mm_reference(&rows[r], &b, k, n), "mm4 k = {k}, n = {n}, row {r}");
            }
            assert_eq!(single, out[0], "mm1 k = {k}, n = {n}");
        }
    }

    #[test]
    fn sqdist_forms_agree_with_the_per_pair_sum_bitwise() {
        // What `mesorasi_knn::feature::distance_squared` computes: the
        // scan's tables are pinned to it, so every form of the tile must
        // reproduce its bits, `NaN`s and infinities included.
        fn per_pair(a: &[f32], b: &[f32]) -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
        }
        let rows = 37usize; // two full blocks and a ragged third
        let padded = rows.div_ceil(SQDIST_LANES) * SQDIST_LANES;
        for dim in [1, 3, 64, 130] {
            let mut data = sample(rows * dim, dim as u32);
            let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
            for (i, v) in specials.into_iter().enumerate() {
                data[(i * 5 % rows) * dim + i % dim] = v;
            }
            let row = |r: usize| &data[r * dim..(r + 1) * dim];
            let mut panel = vec![0.0f32; padded * dim];
            for r in 0..rows {
                for (d, &v) in row(r).iter().enumerate() {
                    panel[((r / SQDIST_LANES) * dim + d) * SQDIST_LANES + r % SQDIST_LANES] = v;
                }
            }
            // Seven queries: one tile of four and three singles, rows with
            // and without a special value.
            let queries: Vec<&[f32]> = [0, 5, 10, 15, 1, 36, 20].map(row).to_vec();
            // `NaN` payloads are not part of the contract, `NaN`-ness is.
            let bits = |v: &[f32]| {
                v.iter()
                    .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
                    .collect::<Vec<_>>()
            };
            let mut want = vec![0.0f32; queries.len() * padded];
            for (q, out) in queries.iter().zip(want.chunks_exact_mut(padded)) {
                for (r, o) in out[..rows].iter_mut().enumerate() {
                    *o = per_pair(q, row(r));
                }
                // Unused lanes read the panel's zero padding.
                out[rows..].fill(per_pair(q, &vec![0.0; dim]));
            }
            let mut got = vec![f32::NAN; want.len()];
            sqdist_rows(&queries, &panel, &mut got);
            assert_eq!(bits(&got), bits(&want), "dispatched, dim {dim}");
            got.fill(f32::NAN);
            sqdist_rows_tiled::<1>(&queries, &panel, &mut got);
            assert_eq!(bits(&got), bits(&want), "one query per pass, dim {dim}");
            got.fill(f32::NAN);
            sqdist_rows_tiled::<4>(&queries, &panel, &mut got);
            assert_eq!(bits(&got), bits(&want), "four queries per pass, dim {dim}");
        }
        sqdist_rows(&[], &[], &mut []);
    }

    #[test]
    fn max_rows_forms_agree_with_a_per_element_fold_bitwise() {
        // 77 columns: a 64-wide tile (or two 32-wide, or four 16-wide),
        // one 8-wide and five single columns. Both row sources, starting
        // mid-table at position 3.
        let (n_rows, cols, k, first, n_groups) = (23usize, 77usize, 5usize, 3usize, 4usize);
        let mut src = sample(n_rows * cols, 7);
        let specials = [f32::NAN, -0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0, -0.0];
        for (i, v) in specials.into_iter().enumerate() {
            src[(i * 3 % n_rows) * cols + i * 11 % cols] = v;
        }
        src[3 * cols..4 * cols].fill(f32::NAN); // a group's first row, under either source
        let table: Vec<usize> = (0..first + n_groups * k).map(|i| (i * 7 + 3) % n_rows).collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for rows in [None, Some(&table[..])] {
            let row = |i: usize| rows.map_or(i, |t| t[i]);
            let mut want = vec![0.0f32; n_groups * cols];
            for (g, out) in want.chunks_exact_mut(cols).enumerate() {
                out.copy_from_slice(&src[row(first + g * k) * cols..][..cols]);
                for j in 1..k {
                    for (o, &v) in out.iter_mut().zip(&src[row(first + g * k + j) * cols..][..cols])
                    {
                        if v > *o {
                            *o = v;
                        }
                    }
                }
            }
            type Form = fn(&[f32], usize, Option<&[usize]>, usize, usize, &mut [f32]);
            let forms: [(&str, Form); 4] = [
                ("dispatched", max_rows),
                ("16 wide", max_rows_tiled::<f32, 16>),
                ("32 wide", max_rows_tiled::<f32, 32>),
                ("64 wide", max_rows_tiled::<f32, 64>),
            ];
            for (name, form) in forms {
                let mut got = vec![f32::NAN; want.len()];
                form(&src, cols, rows, first, k, &mut got);
                assert_eq!(bits(&got), bits(&want), "{name}");
            }
        }
        max_rows(&src, cols, None, 0, k, &mut []);
    }

    #[test]
    #[should_panic(expected = "max_rows row 2 out of bounds for 2 rows")]
    fn max_rows_rejects_a_row_past_the_source() {
        max_rows(&[0.0; 6], 3, Some(&[1, 2]), 0, 2, &mut [0.0; 3]);
    }
}
