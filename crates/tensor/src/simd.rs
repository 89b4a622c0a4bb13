//! Vectorized micro-kernels — the workspace's only `unsafe` island.
//!
//! # Tiers
//!
//! Every kernel here runs in one of three tiers, picked at runtime in the
//! order `avx512f` → `avx2` → scalar ([`tier`] names the one the CPU
//! runs). The x86 tiers need the `simd` cargo feature (default on) and
//! `is_x86_feature_detected!` (cached by std), and each also needs `fma`;
//! without the feature, on other architectures (including aarch64, where
//! the scalar blocks auto-vectorize to NEON and the matmul's `f32::mul_add`
//! is one `fmla`) or on a CPU with neither extension — or with AVX2 but no
//! FMA — the scalar tier runs, and without the feature no `unsafe` remains
//! in the crate. The scalar tier is safe code.
//!
//! # The matmul tile
//!
//! One primitive pair powers the matmul tier in [`crate::ops`]: [`mm4`] /
//! [`mm1`], register-accumulator matmul blocks. An output tile — 4 rows ×
//! 32 columns in eight zmm registers under AVX-512, 4 × 16 in eight ymm
//! registers under AVX2 (`tile_cols()`) — lives entirely in registers while
//! the kernel walks `p` over the shared dimension, so the hot loop touches
//! memory only to read `A` coefficients and stream rows of `B`; each output
//! element is stored once per walk. Column tails narrow through the same
//! tile one vector wide, then a ymm vector (under AVX-512), then single
//! columns. The zmm and ymm tiles are one body, generic over a private
//! lane-vector trait (load, store, splat, fma, add, max) that each
//! `#[target_feature]` wrapper instantiates at its width.
//!
//! Per element the products accumulate in ascending-`p` order from `+0.0`
//! with one fused multiply-add per step, `acc = fma(a, b, acc)` — the
//! multiply-accumulate unit of the paper's systolic array, which rounds
//! each step once. That is the whole bit-identity contract: IEEE-754
//! `fusedMultiplyAdd` is correctly rounded, so any lane width (16-lane
//! `vfmadd` under AVX-512, 8-lane under AVX2, `f32::mul_add` in the scalar
//! tier) produces the same bits per element. The scalar tier pays for it
//! on x86 without `fma`, where `f32::mul_add` is a call into libm's `fmaf`,
//! about 5× the cost of a separate multiply and add; on aarch64 it is one
//! `fmla`.
//!
//! The kernels do no cache blocking of their own — `b` is whatever
//! contiguous `k × n` panel the caller hands over, all of `B` or a packed
//! tile-wide piece of it — but their `accumulate` form starts the
//! tile from the sums already in `out`, which is how
//! [`crate::ops::matmul_into`] splits a deep `k` into L1-sized blocks: a
//! store and reload of an `f32` is exact, so the chain is the one an
//! unsplit walk would run.
//!
//! # The epilogue
//!
//! A walk may end in an [`Epilogue`]: before the single store, the tile
//! adds a bias row and optionally applies ReLU in registers, which is how
//! [`crate::ops::linear_into`] writes a linear layer's output once instead
//! of three times. Per element that is `acc + bias`, then ReLU as the
//! compare-and-select `acc > 0 ? acc : +0.0` (`maxps` with the zero
//! second, so `−0.0` and `NaN` become `+0.0`) — the same bits as the
//! unfused [`crate::ops::add_bias_row_into`] and [`crate::ops::relu_into`],
//! which run the same select.
//!
//! # The scan and reduce kernels
//!
//! Four entries serve the feature-space kNN scan of `mesorasi-knn` rather
//! than the matmul tier, after its Gram tile: [`gram_bounds`] turns a
//! query's row of dot products into an interval per searched row and the
//! lane-wise minima of the upper ends ([`GramBound`]); [`kth_smallest`]
//! ranks those minima; [`select_below`] keeps the rows whose lower end is
//! not above that rank's value; [`sqdist8`] takes the exact distances of
//! kept rows whose intervals overlap, eight at a time. [`gram_bounds`] and
//! the counting body of [`kth_smallest`] are safe generic code that
//! `#[target_feature]` wrappers compile at the AVX-512 and AVX2 widths.
//! Under AVX-512 the count and the select are compare-mask loops — a
//! broadcast compare and a masked add per value, a `vcmpps` mask and a
//! `vpcompressd` per 16 rows — where the compiler's vectorisation of the
//! safe bodies spilled or branched; AVX2 has its own select (a `vmovmskps`
//! mask and its set bits). [`sqdist8`] is an AVX2 8 × 8 register transpose
//! feeding eight distance chains, which the AVX-512 tier runs too. Every
//! tier computes the same bits and lists: `tests/gram_select.rs` calls each
//! one through [`test_tiers`].
//!
//! A fifth, [`max_rows`], is the engine's aggregation and reduction
//! kernel behind [`crate::group::gather_max_into`] and
//! [`crate::group::group_max_into`]: the column-wise max over groups of
//! `k` rows, named by an index table or consecutive. It is here for the
//! same reason as [`gram_bounds`] — one safe generic body, no intrinsics,
//! and an AVX2 `target_feature` wrapper so the body's 64-column tile is
//! eight ymm accumulators that stay in registers across all `k` rows and
//! are stored once (32 columns at baseline width). The AVX-512 tier runs
//! this AVX2 kernel: a 128-column zmm form measured no faster. The
//! loop it replaced compared each element against an output row
//! in memory — a load, a branch and a store per element — and ran at about
//! a nanosecond per element on a table that sat in L2. The fold is spelled
//! `if v > acc { v } else { acc }` and never `max()`: the tape's argmax
//! loop is that comparison, under which a `NaN` in a group's first row
//! stays, a later `NaN` loses, and `−0.0` is not replaced by `+0.0`, while
//! `f32::max` drops the first-row `NaN` and may return either zero. (x86's
//! `maxps` happens to be exactly this select with the operands in this
//! order, so the compiler may emit it.)
//!
//! The entry points check every bound the vector paths rely on, then
//! dispatch. The rest of the workspace is `#![forbid(unsafe_code)]` (the
//! crate root here carries `deny` so this one module can opt back in);
//! keep every `unsafe` block inside this file.
#![allow(unsafe_code)]

/// The kernel tier the CPU runs; the vector tiers exist only in builds
/// that can dispatch to them.
#[derive(Debug, Clone, Copy)]
enum Tier {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx512,
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx2,
    Scalar,
}

/// The best tier the CPU and the build allow, `avx512f` first; either
/// vector tier also needs `fma`.
#[inline]
fn detect() -> Tier {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        // AVX-512F CPUs have AVX2; asking for both lets every AVX-512 path
        // fall back on an AVX2 kernel without a second check. Both vector
        // tiers fuse the matmul's multiply-add, so both need `fma`.
        let fma = std::arch::is_x86_feature_detected!("fma");
        if fma
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx2")
        {
            return Tier::Avx512;
        }
        if fma && std::arch::is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
    }
    Tier::Scalar
}

/// The name of the tier every kernel here dispatches to on the running CPU:
/// `"avx512f"`, `"avx2"` or `"scalar"`.
pub fn tier() -> &'static str {
    match detect() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Tier::Avx512 => "avx512f",
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Tier::Avx2 => "avx2",
        Tier::Scalar => "scalar",
    }
}

/// Columns of the widest [`mm4`] register tile on the running CPU: 32 under
/// AVX-512, 16 otherwise — the width [`crate::ops::matmul_into`] packs `B`
/// panels at.
pub(crate) fn tile_cols() -> usize {
    match detect() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Tier::Avx512 => 32,
        _ => 16,
    }
}

/// What a matmul walk applies to its tile between the last `p` step and
/// the store: `acc + bias[j]`, then, with `relu`, `max(acc, 0)`.
#[derive(Debug, Clone, Copy)]
pub struct Epilogue<'a> {
    /// One bias per output column of the block (`n` long).
    pub bias: &'a [f32],
    /// Apply ReLU after the bias.
    pub relu: bool,
}

impl Epilogue<'_> {
    /// The epilogue of one element in column `j`: the arithmetic of
    /// [`crate::ops::add_bias_row_into`] then [`crate::ops::relu_into`].
    #[inline(always)]
    fn apply(self, acc: f32, j: usize) -> f32 {
        let v = acc + self.bias[j];
        if self.relu {
            relu(v)
        } else {
            v
        }
    }
}

/// ReLU of one element, `v > 0 ? v : +0.0` — `−0.0` and `NaN` map to
/// `+0.0` — spelled as the select `maxps(v, 0)` performs. Every ReLU in the
/// crate is this function: `f32::max` leaves the sign of a zero result
/// unspecified, and the compiler was seen to return `−0.0` from
/// `(−0.0).max(0.0)` in one inlining context and `+0.0` in another.
#[inline(always)]
pub(crate) fn relu(v: f32) -> f32 {
    if v > 0.0 {
        v
    } else {
        0.0
    }
}

/// Four-row matmul block: `out[r][j] = Σ_p a[r][p] · b[p·n + j]` for the
/// row-major `k × n` matrix `b`, overwriting each `out[r]` completely —
/// or, with `accumulate`, continuing each element's chain from the partial
/// sum already in `out[r][j]` (how a `k`-block after the first extends the
/// sum the previous block stored; see [`crate::ops::matmul_into`]). With an
/// `epilogue`, the finished sums get its bias (and ReLU) before the store.
///
/// This is the register-tiled heart of [`crate::ops::matmul_into`]: four
/// output rows share every load of a `B` row, and the output tile stays in
/// registers for the whole `p` walk (each element accumulates in ascending
/// `p`, one fused multiply-add per step — bit-identical to the naive
/// kernel on finite inputs).
///
/// # Panics
///
/// Panics when the `a` rows disagree in length, when an `out` row or the
/// epilogue's bias is not exactly `n` long, or when `b` is smaller than
/// `k × n`.
#[inline]
pub fn mm4(
    a: [&[f32]; 4],
    b: &[f32],
    n: usize,
    out: [&mut [f32]; 4],
    accumulate: bool,
    epilogue: Option<Epilogue<'_>>,
) {
    mm_rows(a, b, n, out, accumulate, epilogue);
}

/// Single-row matmul block: `out[j] = Σ_p a[p] · b[p·n + j]` — the row
/// tail of [`mm4`], same accumulation order, rounding contract,
/// `accumulate` form and epilogue.
///
/// # Panics
///
/// Panics when `out` or the epilogue's bias is not exactly `n` long or `b`
/// is smaller than `k × n`.
#[inline]
pub fn mm1(
    a: &[f32],
    b: &[f32],
    n: usize,
    out: &mut [f32],
    accumulate: bool,
    epilogue: Option<Epilogue<'_>>,
) {
    mm_rows([a], b, n, [out], accumulate, epilogue);
}

/// [`mm4`] and [`mm1`] at `R` rows: the checks, then the dispatch.
#[inline(always)]
fn mm_rows<const R: usize>(
    a: [&[f32]; R],
    b: &[f32],
    n: usize,
    out: [&mut [f32]; R],
    accumulate: bool,
    epilogue: Option<Epilogue<'_>>,
) {
    let k = a[0].len();
    for row in &a[1..] {
        assert_eq!(row.len(), k, "mm A-row length mismatch");
    }
    for row in &out {
        assert_eq!(row.len(), n, "mm out-row length mismatch");
    }
    assert!(b.len() >= k * n, "mm B too small");
    if let Some(e) = epilogue {
        assert_eq!(e.bias.len(), n, "mm epilogue bias length mismatch");
    }
    match detect() {
        // SAFETY: the tier's extension was verified at runtime; the asserts
        // above are the bounds the vector tiles require.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Tier::Avx512 => unsafe { x86::mm_avx512(a, b, n, out, accumulate, epilogue) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Tier::Avx2 => unsafe { x86::mm_avx2(a, b, n, out, accumulate, epilogue) },
        _ => mm_scalar(a, b, n, out, accumulate, epilogue),
    }
}

/// The scalar tier of [`mm4`] / [`mm1`]: one row at a time.
#[inline(always)]
fn mm_scalar<const R: usize>(
    a: [&[f32]; R],
    b: &[f32],
    n: usize,
    out: [&mut [f32]; R],
    accumulate: bool,
    epilogue: Option<Epilogue<'_>>,
) {
    for (ar, or) in a.into_iter().zip(out) {
        mm1_scalar(ar, b, n, or, accumulate, epilogue);
    }
}

/// The scalar register tile: 8 column accumulators held in locals over
/// the full `p` walk, one `f32::mul_add` per element and step (a libm
/// call on x86 without `fma`, an `fmla` on aarch64), stored once. With
/// `accumulate` the accumulators start from `out` instead of zero — a
/// store and reload of an `f32` is exact, so the chain is the one
/// an unsplit `p` walk would run.
#[inline(always)]
fn mm1_scalar(
    a: &[f32],
    b: &[f32],
    n: usize,
    out: &mut [f32],
    accumulate: bool,
    epilogue: Option<Epilogue<'_>>,
) {
    let mut j = 0;
    while j + 8 <= n {
        let mut acc = [0.0f32; 8];
        if accumulate {
            acc.copy_from_slice(&out[j..j + 8]);
        }
        for (p, &ap) in a.iter().enumerate() {
            let br = &b[p * n + j..p * n + j + 8];
            for (s, &bv) in acc.iter_mut().zip(br) {
                *s = ap.mul_add(bv, *s);
            }
        }
        if let Some(e) = epilogue {
            for (c, s) in acc.iter_mut().enumerate() {
                *s = e.apply(*s, j + c);
            }
        }
        out[j..j + 8].copy_from_slice(&acc);
        j += 8;
    }
    mm_tail([a], b, n, [out], j, accumulate, epilogue);
}

/// Columns `j..n` of `R` output rows, one element chain at a time: the
/// tail every tier ends with.
#[inline(always)]
fn mm_tail<const R: usize>(
    a: [&[f32]; R],
    b: &[f32],
    n: usize,
    out: [&mut [f32]; R],
    j: usize,
    accumulate: bool,
    epilogue: Option<Epilogue<'_>>,
) {
    for (ar, or) in a.into_iter().zip(out) {
        for (jj, o) in or.iter_mut().enumerate().skip(j) {
            let mut s = if accumulate { *o } else { 0.0 };
            for (p, &ap) in ar.iter().enumerate() {
                s = ap.mul_add(b[p * n + jj], s);
            }
            *o = epilogue.map_or(s, |e| e.apply(s, jj));
        }
    }
}

/// One query's row of the feature scan's Gram bound: for searched row `r`
/// the estimate `d̂ = (query_norm + norms[r]) − (dots[r] + dots[r])` of the
/// squared distance and its half-width `e = s·s`, `s = query_scale +
/// scales[r]`, so that the distance lies in `[d̂ − e, d̂ + e]`. The
/// arithmetic is spelled out in that order, unfused, in every tier, so
/// every tier computes the same bits. What makes the interval hold is the
/// caller's choice of norms and scales; `mesorasi_knn::feature` has the
/// argument.
#[derive(Debug, Clone, Copy)]
pub struct GramBound<'a> {
    /// `q · r` for every searched row `r`: the query's row of a Gram tile.
    pub dots: &'a [f32],
    /// `‖r‖²` per searched row.
    pub norms: &'a [f32],
    /// Error scale per searched row.
    pub scales: &'a [f32],
    /// `‖q‖²`.
    pub query_norm: f32,
    /// The query's own error scale.
    pub query_scale: f32,
}

impl GramBound<'_> {
    /// `(d̂ − e, d̂ + e)` of row `r`.
    #[inline(always)]
    fn bounds(&self, r: usize) -> (f32, f32) {
        let g = self.dots[r];
        let d = (self.query_norm + self.norms[r]) - (g + g);
        let s = self.query_scale + self.scales[r];
        let e = s * s;
        (d - e, d + e)
    }
}

/// The lower bound `d̂ − e` and the upper bound `d̂ + e` of every row into
/// `lower` and `upper`, and the lane-wise minima of the upper bounds into
/// `minima`: `minima[c]` becomes the smallest upper bound over the rows
/// whose index is `c` modulo `minima.len()`, or `+∞` when the class is
/// empty. A `NaN` bound never wins a minimum. One safe generic body, which
/// the compiler vectorises at 16 lanes under AVX-512 and 8 under AVX2
/// (`#[target_feature]` wrappers) and at baseline width otherwise.
///
/// # Panics
///
/// Panics when `minima` is empty or `lower`, `upper` and the bound's rows
/// disagree in length.
#[inline]
pub fn gram_bounds(bound: GramBound<'_>, lower: &mut [f32], upper: &mut [f32], minima: &mut [f32]) {
    gram_bounds_on(TestTier(detect()), bound, lower, upper, minima);
}

/// [`gram_bounds`] on a given tier. Test support, not API.
#[doc(hidden)]
pub fn gram_bounds_on(
    TestTier(tier): TestTier,
    bound: GramBound<'_>,
    lower: &mut [f32],
    upper: &mut [f32],
    minima: &mut [f32],
) {
    let rows = bound.dots.len();
    assert!(!minima.is_empty(), "gram_bounds needs a lane");
    assert!(
        [bound.norms.len(), bound.scales.len(), lower.len(), upper.len()] == [rows; 4],
        "gram_bounds rows disagree in length"
    );
    match tier {
        // SAFETY: the tier's extension was verified at runtime, which is
        // all the wrappers require: their body is safe code.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Tier::Avx512 => unsafe { x86::gram_bounds_avx512(bound, lower, upper, minima) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Tier::Avx2 => unsafe { x86::gram_bounds_avx2(bound, lower, upper, minima) },
        _ => gram_bounds_body(bound, lower, upper, minima),
    }
}

/// [`gram_bounds`] behind its checks, 16 rows at a time as fixed-size
/// arrays (row `r` folds into lane `r mod minima.len()`, so a block of 16
/// rows lands on 16 consecutive lanes when that width is a multiple of 16),
/// then the row tail one at a time.
#[inline(always)]
fn gram_bounds_body(
    bound: GramBound<'_>,
    lower: &mut [f32],
    upper: &mut [f32],
    minima: &mut [f32],
) {
    const B: usize = 16;
    let (rows, width) = (bound.dots.len(), minima.len());
    minima.fill(f32::INFINITY);
    let (mut r, mut lane) = (0, 0);
    if width.is_multiple_of(B) {
        while r + B <= rows {
            let m: &mut [f32; B] = (&mut minima[lane..lane + B]).try_into().expect("B lanes");
            let lo: &mut [f32; B] = (&mut lower[r..r + B]).try_into().expect("B rows");
            let up: &mut [f32; B] = (&mut upper[r..r + B]).try_into().expect("B rows");
            let g: &[f32; B] = bound.dots[r..r + B].try_into().expect("B rows");
            let n: &[f32; B] = bound.norms[r..r + B].try_into().expect("B rows");
            let t: &[f32; B] = bound.scales[r..r + B].try_into().expect("B rows");
            for l in 0..B {
                let d = (bound.query_norm + n[l]) - (g[l] + g[l]);
                let s = bound.query_scale + t[l];
                let e = s * s;
                lo[l] = d - e;
                up[l] = d + e;
                m[l] = if up[l] < m[l] { up[l] } else { m[l] };
            }
            r += B;
            lane = if lane + B == width { 0 } else { lane + B };
        }
    }
    for r in r..rows {
        (lower[r], upper[r]) = bound.bounds(r);
        let m = &mut minima[r % width];
        *m = if upper[r] < *m { upper[r] } else { *m };
    }
}

/// The `k`-th smallest of `values` (`k` from 1) under `<`: the largest value
/// with fewer than `k` values below it. Rank by counting — each value's
/// count of smaller values, a vectorised compare-and-add over the slice,
/// then a branch-free running maximum — so the cost is `values.len()²`
/// compares and no mispredicted branch; meant for the few dozen minima of
/// [`gram_bounds`]. Values must not be `NaN` (those minima never are).
///
/// # Panics
///
/// Panics unless `1 ≤ k ≤ values.len()`.
#[inline]
pub fn kth_smallest(values: &[f32], k: usize) -> f32 {
    kth_smallest_on(TestTier(detect()), values, k)
}

/// [`kth_smallest`] on a given tier. Test support, not API.
#[doc(hidden)]
pub fn kth_smallest_on(TestTier(tier): TestTier, values: &[f32], k: usize) -> f32 {
    assert!(k >= 1 && k <= values.len(), "kth_smallest k = {k} of {}", values.len());
    match tier {
        // SAFETY: the tier's extension was verified at runtime; the
        // kernel reads only whole 16-value chunks of `values`.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Tier::Avx512 => unsafe { x86::kth_smallest_avx512(values, k) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Tier::Avx2 => unsafe { x86::kth_smallest_avx2(values, k) },
        _ => kth_smallest_body(values, k),
    }
}

/// [`kth_smallest`] behind its check: each value's count of smaller
/// values, a compare-and-add over the slice, then a branch-free running
/// maximum over the values with fewer than `k` below them.
#[inline(always)]
fn kth_smallest_body(values: &[f32], k: usize) -> f32 {
    let mut kth = f32::NEG_INFINITY;
    for &v in values {
        let below: u32 = values.iter().map(|&w| u32::from(w < v)).sum();
        kth = if (below as usize) < k && v > kth { v } else { kth };
    }
    kth
}

/// Writes, in ascending order, the index of every element of `values` that
/// is not above `tau` into the front of `out`, and returns how many there
/// are. A `NaN` element is kept (the compare is unordered). A compare mask
/// and a compress (`vpcompressd`) per 16 elements under AVX-512, a compare
/// mask and its set bits per 8 under AVX2, a branch-free store per element
/// otherwise; all give the same list.
///
/// # Panics
///
/// Panics when `out` is shorter than `values` or `values` is longer than a
/// `u32` indexes.
#[inline]
pub fn select_below(values: &[f32], tau: f32, out: &mut [u32]) -> usize {
    select_below_on(TestTier(detect()), values, tau, out)
}

/// [`select_below`] on a given tier. Test support, not API.
#[doc(hidden)]
pub fn select_below_on(
    TestTier(tier): TestTier,
    values: &[f32],
    tau: f32,
    out: &mut [u32],
) -> usize {
    assert!(out.len() >= values.len(), "select_below out is shorter than the values");
    assert!(u32::try_from(values.len()).is_ok(), "select_below values exceed u32 indices");
    match tier {
        // SAFETY: the tier's extension was verified at runtime; the asserts
        // above are the bounds the vector loops rely on.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Tier::Avx512 => unsafe { x86::select_below_avx512(values, tau, out) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Tier::Avx2 => unsafe { x86::select_below_avx2(values, tau, out) },
        _ => select_below_from(values, tau, 0, out, 0),
    }
}

/// Elements `first..` of [`select_below`], one at a time, appended to the
/// `n` indices already in `out`; returns the new count. The store is
/// unconditional and only the count is not, so `out[n]` is in bounds
/// whenever `n ≤ i`.
#[inline(always)]
fn select_below_from(
    values: &[f32],
    tau: f32,
    first: usize,
    out: &mut [u32],
    mut n: usize,
) -> usize {
    for (i, &v) in values.iter().enumerate().skip(first) {
        out[n] = i as u32;
        n += usize::from(v.partial_cmp(&tau) != Some(std::cmp::Ordering::Greater));
    }
    n
}

/// Rows [`sqdist8`] takes at once.
pub const SQDIST_ROWS: usize = 8;

/// Squared Euclidean distances from `query` to eight rows at once:
/// `out[j] = Σ_d (query[d] − rows[j][d])²`, each its own ascending-`d` chain
/// of one `sub`, one `mul` and one `add` per step from `−0.0` (where a
/// Rust `f32` sum starts) — the one-pair-at-a-time sum of
/// `mesorasi_knn::feature::distance_squared`, bit for bit, in every tier. Under AVX2 (which the AVX-512 tier also
/// runs) eight `d` at a time of the eight rows are loaded and transposed in
/// registers, so the eight chains advance in the lanes of one ymm
/// accumulator; the scalar tier runs the chains in lockstep.
///
/// # Panics
///
/// Panics when a row is shorter than the query.
#[inline]
pub fn sqdist8(query: &[f32], rows: [&[f32]; SQDIST_ROWS]) -> [f32; SQDIST_ROWS] {
    sqdist8_on(TestTier(detect()), query, rows)
}

/// [`sqdist8`] on a given tier. Test support, not API.
#[doc(hidden)]
pub fn sqdist8_on(
    TestTier(tier): TestTier,
    query: &[f32],
    rows: [&[f32]; SQDIST_ROWS],
) -> [f32; SQDIST_ROWS] {
    let rows = rows.map(|r| &r[..query.len()]);
    match tier {
        // SAFETY: both vector tiers verified AVX2 at runtime; every row
        // was cut to the query's length above.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Tier::Avx512 | Tier::Avx2 => unsafe { x86::sqdist8_avx2(query, rows) },
        _ => sqdist8_from(query, rows, 0, [-0.0; SQDIST_ROWS]),
    }
}

/// [`sqdist8`]'s chains from step `first` on, continuing the sums in `acc`.
#[inline(always)]
fn sqdist8_from(
    query: &[f32],
    rows: [&[f32]; SQDIST_ROWS],
    first: usize,
    mut acc: [f32; SQDIST_ROWS],
) -> [f32; SQDIST_ROWS] {
    for (d, &x) in query.iter().enumerate().skip(first) {
        for (a, r) in acc.iter_mut().zip(&rows) {
            let e = x - r[d];
            *a += e * e;
        }
    }
    acc
}

/// A kernel tier this CPU runs, as a token only [`test_tiers`] hands out,
/// so that a test can call each tier's `*_on` kernel directly. Test
/// support, not API.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct TestTier(Tier);

/// The scalar tier and every vector tier this CPU and build can run, by
/// name. Test support, not API.
#[doc(hidden)]
pub fn test_tiers() -> Vec<(&'static str, TestTier)> {
    #[allow(unused_mut)]
    let mut tiers = vec![("scalar", TestTier(Tier::Scalar))];
    match detect() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Tier::Avx512 => tiers.extend(
            [("avx512f", Tier::Avx512), ("avx2", Tier::Avx2)].map(|(n, t)| (n, TestTier(t))),
        ),
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Tier::Avx2 => tiers.push(("avx2", TestTier(Tier::Avx2))),
        Tier::Scalar => {}
    }
    tiers
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
/// by `+0.0`. Under AVX2 — and AVX-512, which has no wider form of this
/// kernel — a 64-column slice of the output row is held in eight ymm
/// accumulators across all `k` rows; elsewhere the same body runs 32
/// columns wide.
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
    match detect() {
        // SAFETY: both vector tiers verified AVX2 at runtime, which is all
        // the wrapper requires: its body is safe code.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Tier::Avx512 | Tier::Avx2 => unsafe { x86::max_rows_avx2(src, cols, rows, first, k, out) },
        _ => max_rows_tiled::<32>(src, cols, rows, first, k, out),
    }
}

/// [`max_rows`] at a full tile of `W` columns: per group, full tiles, then
/// the column tail through the same tile 8 wide and 1 wide.
#[inline(always)]
fn max_rows_tiled<const W: usize>(
    src: &[f32],
    cols: usize,
    rows: Option<&[usize]>,
    first: usize,
    k: usize,
    out: &mut [f32],
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
        let c = max_tiles::<W>(src, &start, k, 0, out_row);
        let c = max_tiles::<8>(src, &start, k, c, out_row);
        max_tiles::<1>(src, &start, k, c, out_row);
    }
}

/// The max-reduce tile: from column `c` on, every `W`-column slice of
/// `out_row` that fits is seeded from the group's first row, folded over
/// the other `k − 1` rows in locals and stored once. Returns the first
/// column left over. The select is spelled out because `max()` is a
/// different function (it drops a first-row `NaN` and may swap zeros); the
/// compiler vectorises it at the enclosing function's width.
#[inline(always)]
fn max_tiles<const W: usize>(
    src: &[f32],
    start: &impl Fn(usize) -> usize,
    k: usize,
    mut c: usize,
    out_row: &mut [f32],
) -> usize {
    while c + W <= out_row.len() {
        let mut acc = [0.0f32; W];
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
    use super::Epilogue;
    use super::GramBound;
    use std::arch::x86_64::{
        __m256, __m512, _mm256_add_ps, _mm256_cmp_ps, _mm256_fmadd_ps, _mm256_loadu_ps,
        _mm256_max_ps, _mm256_movemask_ps, _mm256_mul_ps, _mm256_permute2f128_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_shuffle_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm256_unpackhi_ps,
        _mm256_unpacklo_ps, _mm512_add_epi32, _mm512_add_ps, _mm512_cmp_ps_mask,
        _mm512_cmplt_epi32_mask, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_mask_add_epi32,
        _mm512_mask_max_ps, _mm512_maskz_compress_epi32, _mm512_max_ps, _mm512_reduce_max_ps,
        _mm512_set1_epi32, _mm512_set1_ps, _mm512_setr_epi32, _mm512_setzero_ps,
        _mm512_setzero_si512, _mm512_storeu_epi32, _mm512_storeu_ps, _CMP_LT_OQ, _CMP_NGT_UQ,
    };

    /// One vector register of `f32` lanes: the operations the matmul tile
    /// is written in. Every method is a single instruction of the
    /// implementing width and is only sound inside a function compiled for
    /// that width's extension.
    trait Lanes: Copy {
        /// Lanes per vector.
        const W: usize;
        unsafe fn zero() -> Self;
        unsafe fn splat(v: f32) -> Self;
        unsafe fn load(p: *const f32) -> Self;
        unsafe fn store(self, p: *mut f32);
        unsafe fn add(self, o: Self) -> Self;
        /// `self · a + b` per lane, rounded once (`vfmadd`).
        unsafe fn fma(self, a: Self, b: Self) -> Self;
        /// `self > o ? self : o` per lane (`maxps`), so `max(acc, zero)`
        /// maps `−0.0` and `NaN` to `+0.0`.
        unsafe fn max(self, o: Self) -> Self;
    }

    /// Generates a [`Lanes`] impl from one width's intrinsics.
    macro_rules! lanes {
        ($t:ident($v:ty), $w:expr, $zero:ident, $splat:ident, $load:ident, $store:ident,
         $add:ident, $fma:ident, $max:ident) => {
            #[derive(Clone, Copy)]
            struct $t($v);

            impl Lanes for $t {
                const W: usize = $w;
                #[inline(always)]
                unsafe fn zero() -> Self {
                    // SAFETY: the caller runs on a CPU with this extension.
                    $t(unsafe { $zero() })
                }
                #[inline(always)]
                unsafe fn splat(v: f32) -> Self {
                    // SAFETY: as for `zero`.
                    $t(unsafe { $splat(v) })
                }
                #[inline(always)]
                unsafe fn load(p: *const f32) -> Self {
                    // SAFETY: as for `zero`; the caller keeps `p..p + W`
                    // in bounds.
                    $t(unsafe { $load(p) })
                }
                #[inline(always)]
                unsafe fn store(self, p: *mut f32) {
                    // SAFETY: as for `load`.
                    unsafe { $store(p, self.0) }
                }
                #[inline(always)]
                unsafe fn add(self, o: Self) -> Self {
                    // SAFETY: as for `zero`.
                    $t(unsafe { $add(self.0, o.0) })
                }
                #[inline(always)]
                unsafe fn fma(self, a: Self, b: Self) -> Self {
                    // SAFETY: as for `zero`.
                    $t(unsafe { $fma(self.0, a.0, b.0) })
                }
                #[inline(always)]
                unsafe fn max(self, o: Self) -> Self {
                    // SAFETY: as for `zero`.
                    $t(unsafe { $max(self.0, o.0) })
                }
            }
        };
    }

    lanes!(
        Ymm(__m256),
        8,
        _mm256_setzero_ps,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_add_ps,
        _mm256_fmadd_ps,
        _mm256_max_ps
    );
    lanes!(
        Zmm(__m512),
        16,
        _mm512_setzero_ps,
        _mm512_set1_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_add_ps,
        _mm512_fmadd_ps,
        _mm512_max_ps
    );

    /// The matmul tile: from column `j` on, every `V · L::W`-column slice
    /// of the `R` output rows that fits is held in `R × V` accumulators for
    /// the whole `p` walk — each `B` row segment loaded once for all `R`
    /// rows, one fused multiply-add per element and step — then finished by
    /// the epilogue and stored once. With `accumulate` the
    /// accumulators are loaded from `out` instead of zeroed. Returns the
    /// first column left over.
    ///
    /// # Safety
    ///
    /// The caller must be compiled for `L`'s extension and `fma`, and must
    /// have checked the bounds [`super::mm4`] asserts.
    #[inline(always)]
    unsafe fn mm_cols<L: Lanes, const R: usize, const V: usize>(
        a: &[&[f32]; R],
        b: &[f32],
        n: usize,
        out: &mut [&mut [f32]; R],
        mut j: usize,
        accumulate: bool,
        epilogue: Option<Epilogue<'_>>,
    ) -> usize {
        let k = a[0].len();
        while j + V * L::W <= n {
            // SAFETY: j + V·W <= n, every out row and the bias are n long
            // and b.len() >= k·n bound every access.
            unsafe {
                let mut acc = [[L::zero(); V]; R];
                if accumulate {
                    for (acc_r, out_r) in acc.iter_mut().zip(out.iter()) {
                        for (v, s) in acc_r.iter_mut().enumerate() {
                            *s = L::load(out_r.as_ptr().add(j + v * L::W));
                        }
                    }
                }
                for p in 0..k {
                    let bp = b.as_ptr().add(p * n + j);
                    let mut vb = [L::zero(); V];
                    for (v, x) in vb.iter_mut().enumerate() {
                        *x = L::load(bp.add(v * L::W));
                    }
                    for (acc_r, a_r) in acc.iter_mut().zip(a) {
                        let va = L::splat(*a_r.get_unchecked(p));
                        for (s, &x) in acc_r.iter_mut().zip(&vb) {
                            *s = va.fma(x, *s);
                        }
                    }
                }
                if let Some(e) = epilogue {
                    for v in 0..V {
                        let bias = L::load(e.bias.as_ptr().add(j + v * L::W));
                        for acc_r in &mut acc {
                            acc_r[v] = acc_r[v].add(bias);
                            if e.relu {
                                acc_r[v] = acc_r[v].max(L::zero());
                            }
                        }
                    }
                }
                for (acc_r, out_r) in acc.iter().zip(out.iter_mut()) {
                    for (v, s) in acc_r.iter().enumerate() {
                        s.store(out_r.as_mut_ptr().add(j + v * L::W));
                    }
                }
            }
            j += V * L::W;
        }
        j
    }

    /// [`super::mm4`] / [`super::mm1`] compiled for AVX-512: 32-column
    /// tiles in zmm registers, then 16, then one ymm, then single columns.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F and FMA support at runtime,
    /// and the bounds checked by [`super::mm4`] must hold.
    #[target_feature(enable = "avx512f,fma")]
    pub(super) unsafe fn mm_avx512<const R: usize>(
        a: [&[f32]; R],
        b: &[f32],
        n: usize,
        mut out: [&mut [f32]; R],
        accumulate: bool,
        epilogue: Option<Epilogue<'_>>,
    ) {
        // SAFETY: compiled for AVX-512F, which implies AVX2, and FMA; the
        // caller checked the bounds.
        let j = unsafe {
            let j = mm_cols::<Zmm, R, 2>(&a, b, n, &mut out, 0, accumulate, epilogue);
            let j = mm_cols::<Zmm, R, 1>(&a, b, n, &mut out, j, accumulate, epilogue);
            mm_cols::<Ymm, R, 1>(&a, b, n, &mut out, j, accumulate, epilogue)
        };
        if j < n {
            super::mm_tail(a, b, n, out, j, accumulate, epilogue);
        }
    }

    /// [`super::mm4`] / [`super::mm1`] compiled for AVX2: 16-column tiles
    /// in ymm registers, then 8, then single columns.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 and FMA support at runtime, and
    /// the bounds checked by [`super::mm4`] must hold.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn mm_avx2<const R: usize>(
        a: [&[f32]; R],
        b: &[f32],
        n: usize,
        mut out: [&mut [f32]; R],
        accumulate: bool,
        epilogue: Option<Epilogue<'_>>,
    ) {
        // SAFETY: compiled for AVX2 and FMA; the caller checked the bounds.
        let j = unsafe {
            let j = mm_cols::<Ymm, R, 2>(&a, b, n, &mut out, 0, accumulate, epilogue);
            mm_cols::<Ymm, R, 1>(&a, b, n, &mut out, j, accumulate, epilogue)
        };
        if j < n {
            super::mm_tail(a, b, n, out, j, accumulate, epilogue);
        }
    }

    /// [`super::gram_bounds`] compiled for AVX-512: the safe generic body,
    /// 16 lanes per instruction.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F support at runtime.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gram_bounds_avx512(
        bound: GramBound<'_>,
        lower: &mut [f32],
        upper: &mut [f32],
        minima: &mut [f32],
    ) {
        super::gram_bounds_body(bound, lower, upper, minima);
    }

    /// [`super::gram_bounds`] compiled for AVX2: the safe generic body, 8
    /// lanes per instruction.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gram_bounds_avx2(
        bound: GramBound<'_>,
        lower: &mut [f32],
        upper: &mut [f32],
        minima: &mut [f32],
    ) {
        super::gram_bounds_body(bound, lower, upper, minima);
    }

    /// [`super::kth_smallest`] compiled for AVX-512, over whole 16-value
    /// blocks: 16 candidates in one zmm, each value of the slice broadcast
    /// against them with one `vcmpps` to a mask and one masked add to their
    /// counts, then a masked running maximum over the candidates with fewer
    /// than `k` below and a horizontal maximum at the end. Other lengths run
    /// the generic body at this width.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F support at runtime.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn kth_smallest_avx512(values: &[f32], k: usize) -> f32 {
        if !values.len().is_multiple_of(16) {
            return super::kth_smallest_body(values, k);
        }
        // SAFETY: compiled for AVX-512F; every load reads a whole 16-value
        // chunk of `values`.
        unsafe {
            let (one, limit) = (_mm512_set1_epi32(1), _mm512_set1_epi32(k as i32));
            let mut kth = _mm512_set1_ps(f32::NEG_INFINITY);
            for chunk in values.chunks_exact(16) {
                let candidates = _mm512_loadu_ps(chunk.as_ptr());
                let mut below = _mm512_setzero_si512();
                for &w in values {
                    let less = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(_mm512_set1_ps(w), candidates);
                    below = _mm512_mask_add_epi32(below, less, below, one);
                }
                let rank_ok = _mm512_cmplt_epi32_mask(below, limit);
                kth = _mm512_mask_max_ps(kth, rank_ok, kth, candidates);
            }
            _mm512_reduce_max_ps(kth)
        }
    }

    /// [`super::kth_smallest`] compiled for AVX2: the safe counting body,
    /// 8 lanes per compare.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn kth_smallest_avx2(values: &[f32], k: usize) -> f32 {
        super::kth_smallest_body(values, k)
    }

    /// [`super::select_below`] compiled for AVX-512, 16 elements per step:
    /// `vcmpps` to a mask of the elements not above `tau` (unordered
    /// compares true, so a `NaN` is kept), and `vpcompressd` packing their
    /// indices to the front of a vector that is stored whole at the current
    /// count. The tail runs the scalar loop.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F support at runtime, and the
    /// bounds [`super::select_below`] asserts must hold.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn select_below_avx512(values: &[f32], tau: f32, out: &mut [u32]) -> usize {
        let (mut n, mut i) = (0, 0);
        // SAFETY: compiled for AVX-512F. Every load reads `i..i + 16` of
        // `values` with `i + 16 ≤ values.len()`; every store writes
        // `n..n + 16` of `out` with `n ≤ i` (a step keeps at most its own
        // elements), so `n + 16 ≤ values.len() ≤ out.len()`.
        unsafe {
            let limit = _mm512_set1_ps(tau);
            let mut index = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
            let step = _mm512_set1_epi32(16);
            while i + 16 <= values.len() {
                let v = _mm512_loadu_ps(values.as_ptr().add(i));
                // Compressed and stored whether or not any lane is kept:
                // a branch on the mask mispredicts at every other survivor.
                let keep = _mm512_cmp_ps_mask::<_CMP_NGT_UQ>(v, limit);
                let packed = _mm512_maskz_compress_epi32(keep, index);
                _mm512_storeu_epi32(out.as_mut_ptr().add(n).cast(), packed);
                n += keep.count_ones() as usize;
                index = _mm512_add_epi32(index, step);
                i += 16;
            }
        }
        super::select_below_from(values, tau, i, out, n)
    }

    /// [`super::select_below`] compiled for AVX2, 8 elements per step: an
    /// unordered not-greater compare, and the set bits of its `vmovmskps`
    /// mask appended in ascending order. The tail runs the scalar loop.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime, and the
    /// bounds [`super::select_below`] asserts must hold.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn select_below_avx2(values: &[f32], tau: f32, out: &mut [u32]) -> usize {
        let (mut n, mut i) = (0, 0);
        // SAFETY: compiled for AVX2. Every load reads `i..i + 8` of
        // `values` with `i + 8 ≤ values.len()`; the stores are checked
        // slice writes.
        unsafe {
            let limit = _mm256_set1_ps(tau);
            while i + 8 <= values.len() {
                let v = _mm256_loadu_ps(values.as_ptr().add(i));
                let mut keep = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NGT_UQ>(v, limit)) as u32;
                while keep != 0 {
                    out[n] = (i + keep.trailing_zeros() as usize) as u32;
                    n += 1;
                    keep &= keep - 1;
                }
                i += 8;
            }
        }
        super::select_below_from(values, tau, i, out, n)
    }

    /// [`super::sqdist8`] compiled for AVX2: per eight steps, one 8-wide
    /// load from each row, an in-register 8 × 8 transpose
    /// (`vunpck{l,h}ps`, `vshufps`, `vperm2f128`) that puts step `d` of row
    /// `j` in lane `j` of vector `d`, then the eight steps of the chains in
    /// order: a broadcast of `query[d]`, a `sub`, a `mul`, an `add`. The
    /// steps past the last whole eight continue the chains in scalar code.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime, and every row
    /// must be at least as long as the query.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sqdist8_avx2(
        query: &[f32],
        rows: [&[f32]; super::SQDIST_ROWS],
    ) -> [f32; super::SQDIST_ROWS] {
        let mut d = 0;
        let mut out = [0.0f32; super::SQDIST_ROWS];
        // SAFETY: compiled for AVX2; every load reads `d..d + 8` of a row
        // at least `query.len() ≥ d + 8` long; the store fills `out`.
        unsafe {
            let mut acc = _mm256_set1_ps(-0.0);
            while d + 8 <= query.len() {
                let [r0, r1, r2, r3, r4, r5, r6, r7] =
                    rows.map(|r| _mm256_loadu_ps(r.as_ptr().add(d)));
                // Pairs, then quads, then halves across the two lanes.
                let (a0, a1) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
                let (a2, a3) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
                let (a4, a5) = (_mm256_unpacklo_ps(r4, r5), _mm256_unpackhi_ps(r4, r5));
                let (a6, a7) = (_mm256_unpacklo_ps(r6, r7), _mm256_unpackhi_ps(r6, r7));
                let b0 = _mm256_shuffle_ps::<0x44>(a0, a2);
                let b1 = _mm256_shuffle_ps::<0xEE>(a0, a2);
                let b2 = _mm256_shuffle_ps::<0x44>(a1, a3);
                let b3 = _mm256_shuffle_ps::<0xEE>(a1, a3);
                let b4 = _mm256_shuffle_ps::<0x44>(a4, a6);
                let b5 = _mm256_shuffle_ps::<0xEE>(a4, a6);
                let b6 = _mm256_shuffle_ps::<0x44>(a5, a7);
                let b7 = _mm256_shuffle_ps::<0xEE>(a5, a7);
                let steps = [
                    _mm256_permute2f128_ps::<0x20>(b0, b4),
                    _mm256_permute2f128_ps::<0x20>(b1, b5),
                    _mm256_permute2f128_ps::<0x20>(b2, b6),
                    _mm256_permute2f128_ps::<0x20>(b3, b7),
                    _mm256_permute2f128_ps::<0x31>(b0, b4),
                    _mm256_permute2f128_ps::<0x31>(b1, b5),
                    _mm256_permute2f128_ps::<0x31>(b2, b6),
                    _mm256_permute2f128_ps::<0x31>(b3, b7),
                ];
                for (step, &x) in steps.into_iter().zip(&query[d..d + 8]) {
                    let e = _mm256_sub_ps(_mm256_set1_ps(x), step);
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(e, e));
                }
                d += 8;
            }
            _mm256_storeu_ps(out.as_mut_ptr(), acc);
        }
        super::sqdist8_from(query, rows, d, out)
    }

    /// [`super::max_rows`] at 64 columns per tile, compiled for AVX2: eight
    /// ymm accumulators per group and column slice, one compare-and-select
    /// per source row. As with [`gram_bounds_avx2`], the body is the safe
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
        super::max_rows_tiled::<64>(src, cols, rows, first, k, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ops, Matrix};

    fn sample(n: usize, seed: u32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 8) as f32 / 1e6).sin()
            })
            .collect()
    }

    fn mm_reference(a: &[f32], b: &[f32], k: usize, n: usize) -> Vec<f32> {
        // The naive per-element chain: ascending p, one fused multiply-add.
        (0..n)
            .map(|j| {
                let mut s = 0.0f32;
                for p in 0..k {
                    s = a[p].mul_add(b[p * n + j], s);
                }
                s
            })
            .collect()
    }

    /// Bits, with every `NaN` one value: payloads are not part of the
    /// contract, `NaN`-ness is.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() }).collect()
    }

    type Mm4 = fn([&[f32]; 4], &[f32], usize, [&mut [f32]; 4], bool, Option<Epilogue<'_>>);
    type Mm1 = fn([&[f32]; 1], &[f32], usize, [&mut [f32]; 1], bool, Option<Epilogue<'_>>);
    type MaxRows = fn(&[f32], usize, Option<&[usize]>, usize, usize, &mut [f32]);

    /// One kernel tier, called directly rather than through the dispatch —
    /// on an AVX-512 host the dispatch never reaches the AVX2 tier.
    struct TierFns {
        name: &'static str,
        mm4: Mm4,
        mm1: Mm1,
        max_rows: MaxRows,
    }

    /// The vector tiers this CPU and build can run; each one it cannot is
    /// reported as skipped, so a green run says what it exercised.
    fn vector_tiers() -> Vec<TierFns> {
        #[allow(unused_mut)]
        let mut tiers = Vec::new();
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            // SAFETY (every closure): the tier's extension is verified
            // just before it is listed, and the tests pass whole shapes.
            let fma = std::arch::is_x86_feature_detected!("fma");
            if fma
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx2")
            {
                tiers.push(TierFns {
                    name: "avx512f",
                    mm4: |a, b, n, o, acc, e| unsafe { x86::mm_avx512(a, b, n, o, acc, e) },
                    mm1: |a, b, n, o, acc, e| unsafe { x86::mm_avx512(a, b, n, o, acc, e) },
                    // This tier's max-reduce is the AVX2 kernel.
                    max_rows: |s, c, r, f, k, o| unsafe { x86::max_rows_avx2(s, c, r, f, k, o) },
                });
            } else {
                eprintln!("simd tests: skipped the avx512f tier (needs avx512f and fma)");
            }
            if fma && std::arch::is_x86_feature_detected!("avx2") {
                tiers.push(TierFns {
                    name: "avx2",
                    mm4: |a, b, n, o, acc, e| unsafe { x86::mm_avx2(a, b, n, o, acc, e) },
                    mm1: |a, b, n, o, acc, e| unsafe { x86::mm_avx2(a, b, n, o, acc, e) },
                    max_rows: |s, c, r, f, k, o| unsafe { x86::max_rows_avx2(s, c, r, f, k, o) },
                });
            } else {
                eprintln!("simd tests: skipped the avx2 tier (needs avx2 and fma)");
            }
        }
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        eprintln!("simd tests: skipped the avx512f and avx2 tiers (no x86 simd in this build)");
        tiers
    }

    /// The entry points, through the dispatch, as one more tier.
    fn dispatched() -> TierFns {
        TierFns {
            name: "dispatched",
            mm4,
            mm1: |a, b, n, [o], acc, e| mm1(a[0], b, n, o, acc, e),
            max_rows,
        }
    }

    /// Column counts that end in every tail: whole 32-column tiles, then
    /// 16, 8 and single columns, alone and combined.
    const TAIL_COLS: [usize; 12] = [1, 7, 8, 15, 16, 24, 31, 32, 33, 56, 64, 107];

    #[test]
    fn tier_names_the_dispatch() {
        let name = tier();
        eprintln!("simd tests: this CPU dispatches to the {name} tier");
        assert!(["avx512f", "avx2", "scalar"].contains(&name));
        assert_eq!(tile_cols(), if name == "avx512f" { 32 } else { 16 });
        if !cfg!(all(feature = "simd", target_arch = "x86_64")) {
            assert_eq!(name, "scalar");
        }
    }

    #[test]
    fn mm1_matches_reference_bitwise() {
        for (k, n) in [(0, 5), (1, 1), (3, 8), (7, 16), (13, 17), (64, 40), (128, 33)] {
            let a = sample(k, 1);
            let b = sample(k * n, 2);
            let mut out = vec![f32::NAN; n];
            mm1(&a, &b, n, &mut out, false, None);
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
                mm4([&rows[0], &rows[1], &rows[2], &rows[3]], &b, n, [o0, o1, o2, o3], false, None);
            }
            for (r, o) in out.iter().enumerate() {
                let mut want = vec![0.0f32; n];
                mm1(&rows[r], &b, n, &mut want, false, None);
                assert_eq!(o, &want, "k = {k}, n = {n}, row {r}");
            }
        }
    }

    /// Runs `f` over four `n`-wide rows as the `[&mut [f32]; 4]` a tile
    /// takes.
    fn with_quad(rows: &mut [Vec<f32>], f: impl FnOnce([&mut [f32]; 4])) {
        let [o0, o1, o2, o3] = rows else { panic!("four rows") };
        f([o0, o1, o2, o3]);
    }

    /// Runs `check(tier, n, k, a, b)` for every vector tier and the
    /// dispatched path, on every column tail and a few depths.
    fn for_each_tile_case(check: impl Fn(&TierFns, usize, usize, [&[f32]; 4], &[f32])) {
        let mut tiers = vector_tiers();
        tiers.push(dispatched());
        for tier in &tiers {
            for n in TAIL_COLS {
                for k in [0, 1, 17, 64] {
                    let rows: Vec<Vec<f32>> = (0..4).map(|r| sample(k, 40 + r)).collect();
                    let a = [&rows[0][..], &rows[1], &rows[2], &rows[3]];
                    check(tier, n, k, a, &sample(k * n, 41));
                }
            }
        }
    }

    #[test]
    fn vector_and_scalar_micro_kernels_agree_bitwise() {
        // The contract the whole crate rests on: each vector tier — called
        // directly, and through the dispatch — equals the scalar
        // micro-kernels bit for bit, on every column tail.
        for_each_tile_case(|tier, n, k, a, b| {
            let (mut got, mut want) = (vec![vec![f32::NAN; n]; 4], vec![vec![0.0; n]; 4]);
            with_quad(&mut got, |o| (tier.mm4)(a, b, n, o, false, None));
            with_quad(&mut want, |o| mm_scalar(a, b, n, o, false, None));
            let at = format!("{} n = {n}, k = {k}", tier.name);
            assert_eq!(bits(&got.concat()), bits(&want.concat()), "mm4 {at}");
            let mut single = vec![f32::NAN; n];
            (tier.mm1)([a[1]], b, n, [&mut single], false, None);
            assert_eq!(bits(&single), bits(&want[1]), "mm1 {at}");
        });
    }

    #[test]
    fn every_tier_fuses() {
        // `1·(−1) + x·x` with `x = 1 + 2⁻¹²`: `x²` is `1 + 2⁻¹¹ + 2⁻²⁴`,
        // half an ulp past `1 + 2⁻¹¹`, so a step that rounds the product
        // first (mul then add) ends at `2⁻¹¹` and only a fused one keeps
        // the `2⁻²⁴`.
        let x = 1.0 + 2f32.powi(-12);
        let want = 2f32.powi(-11) + 2f32.powi(-24);
        assert_ne!(want, 2f32.powi(-11));
        let mut tiers = vector_tiers();
        tiers.push(dispatched());
        tiers.push(TierFns {
            name: "scalar",
            mm4: |a, b, n, o, acc, e| mm_scalar(a, b, n, o, acc, e),
            mm1: |a, b, n, o, acc, e| mm_scalar(a, b, n, o, acc, e),
            max_rows: max_rows_tiled::<32>,
        });
        let a = [1.0, x];
        for tier in &tiers {
            for n in TAIL_COLS {
                let b: Vec<f32> = [-1.0, x].iter().flat_map(|&v| vec![v; n]).collect();
                let mut got = vec![vec![f32::NAN; n]; 4];
                with_quad(&mut got, |o| (tier.mm4)([&a; 4], &b, n, o, false, None));
                let mut single = vec![f32::NAN; n];
                (tier.mm1)([&a], &b, n, [&mut single], false, None);
                for v in got.concat().into_iter().chain(single) {
                    assert_eq!(v.to_bits(), want.to_bits(), "{} n = {n}", tier.name);
                }
            }
        }
    }

    #[test]
    fn accumulate_forms_agree_with_the_scalar_tile_bitwise() {
        // A k-block after the first starts from the partial sums in `out`:
        // every tier must continue them exactly as the scalar tile does,
        // and a walk split in two is the unsplit chain.
        for_each_tile_case(|tier, n, k, a, b| {
            let partial: Vec<Vec<f32>> = (0..4).map(|r| sample(n, 50 + r)).collect();
            let (mut got, mut want) = (partial.clone(), partial.clone());
            with_quad(&mut got, |o| (tier.mm4)(a, b, n, o, true, None));
            with_quad(&mut want, |o| mm_scalar(a, b, n, o, true, None));
            let at = format!("{} n = {n}, k = {k}", tier.name);
            assert_eq!(bits(&got.concat()), bits(&want.concat()), "mm4 {at}");
            let mut single = partial[1].clone();
            (tier.mm1)([a[1]], b, n, [&mut single], true, None);
            assert_eq!(bits(&single), bits(&want[1]), "mm1 {at}");

            // The first `split` steps stored, the rest continued from `out`.
            let split = k / 2;
            let mut got = vec![vec![f32::NAN; n]; 4];
            for (range, accumulate) in [(0..split, false), (split..k, true)] {
                let part = a.map(|r| &r[range.clone()]);
                let bp = &b[range.start * n..];
                with_quad(&mut got, |o| (tier.mm4)(part, bp, n, o, accumulate, None));
            }
            for (r, o) in got.iter().enumerate() {
                assert_eq!(bits(o), bits(&mm_reference(a[r], b, k, n)), "split {at}");
            }
        });
    }

    #[test]
    fn a_split_walk_continues_the_unsplit_chain_bitwise() {
        // Storing the partial sums after `split` steps and reloading them
        // for the rest is the unsplit chain: exact in `f32`.
        for (k, split, n) in [(1, 0, 3), (9, 4, 8), (40, 39, 17), (96, 32, 31), (130, 64, 48)] {
            let rows: Vec<Vec<f32>> = (0..4).map(|r| sample(k, 60 + r)).collect();
            let b = sample(k * n, 61);
            let mut out = vec![vec![f32::NAN; n]; 4];
            for (range, accumulate) in [(0..split, false), (split..k, true)] {
                let [a0, a1, a2, a3] = [0, 1, 2, 3].map(|r| &rows[r][range.clone()]);
                let bp = &b[range.start * n..];
                with_quad(&mut out, |o| mm4([a0, a1, a2, a3], bp, n, o, accumulate, None));
            }
            let mut single = vec![f32::NAN; n];
            mm1(&rows[0][..split], &b, n, &mut single, false, None);
            mm1(&rows[0][split..], &b[split * n..], n, &mut single, true, None);
            for (r, o) in out.iter().enumerate() {
                assert_eq!(o, &mm_reference(&rows[r], &b, k, n), "mm4 k = {k}, n = {n}, row {r}");
            }
            assert_eq!(single, out[0], "mm1 k = {k}, n = {n}");
        }
    }

    #[test]
    fn the_fused_epilogue_is_the_unfused_bias_and_relu_passes() {
        // `acc + bias`, then `max(acc, 0)`, in registers, must carry the
        // bits of `add_bias_row_into` and `relu_into` over the stored
        // product — `−0.0`, `NaN` and `±∞` in the sum and in the bias
        // alike, every pairing of them, on every column tail and tier.
        let specials =
            [-0.0, 0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.5, -2.5, f32::MIN_POSITIVE];
        let s = specials.len();
        let mut forms: Vec<(&str, Mm4, Mm1)> = vec![(
            "scalar",
            |a, b, n, o, acc, e| mm_scalar(a, b, n, o, acc, e),
            |a, b, n, o, acc, e| mm_scalar(a, b, n, o, acc, e),
        )];
        forms.extend(vector_tiers().into_iter().map(|t| (t.name, t.mm4, t.mm1)));
        forms.push((
            "dispatched",
            |a, b, n, o, acc, e| mm4(a, b, n, o, acc, e),
            |a, b, n, o, acc, e| {
                let [o] = o;
                mm1(a[0], b, n, o, acc, e)
            },
        ));
        for (name, tile4, tile1) in forms {
            for n in TAIL_COLS.into_iter().chain([s * s, s * s + 11]) {
                let bias: Vec<f32> = (0..n).map(|j| specials[(j / s) % s]).collect();
                let bias_row = Matrix::from_vec(1, n, bias.clone());
                // k = 0 from partial sums that are the specials themselves;
                // k = 3 with infinities in `B`, whose sums are ±∞ and NaN.
                for k in [0, 3] {
                    let rows: Vec<Vec<f32>> = (0..4).map(|r| sample(k, 70 + r)).collect();
                    let a = [&rows[0][..], &rows[1], &rows[2], &rows[3]];
                    let mut b = sample(k * n, 71);
                    for (i, v) in b.iter_mut().enumerate().step_by(5) {
                        *v = specials[i % s];
                    }
                    let partial: Vec<Vec<f32>> =
                        (0..4).map(|r| (0..n).map(|j| specials[(j + r) % s]).collect()).collect();
                    for relu in [false, true] {
                        let epilogue = Some(Epilogue { bias: &bias, relu });
                        let mut got = partial.clone();
                        with_quad(&mut got, |o| tile4(a, &b, n, o, k == 0, epilogue));
                        let mut single = partial[2].clone();
                        tile1([a[2]], &b, n, [&mut single], k == 0, epilogue);
                        // The unfused passes over the scalar product.
                        let mut sums = partial.clone();
                        with_quad(&mut sums, |o| mm_scalar(a, &b, n, o, k == 0, None));
                        let product = Matrix::from_vec(4, n, sums.concat());
                        let mut want = Matrix::zeros(0, 0);
                        ops::add_bias_row_into(&product, &bias_row, &mut want);
                        if relu {
                            let biased = want.clone();
                            ops::relu_into(&biased, &mut want);
                        }
                        let at = format!("{name} n = {n}, k = {k}, relu {relu}");
                        assert_eq!(bits(&got.concat()), bits(want.as_slice()), "mm4 {at}");
                        assert_eq!(bits(&single), bits(want.row(2)), "mm1 {at}");
                        if relu {
                            // No NaN survives, so every bit is pinned.
                            assert!(
                                got.concat().iter().all(|v| !v.is_nan() && v.to_bits() >> 31 == 0),
                                "{at}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn max_rows_forms_agree_with_a_per_element_fold_bitwise() {
        // 77 columns: a 64-wide tile (or two 32-wide), one 8-wide and five
        // single columns. Both row sources, starting mid-table at position 3.
        let (n_rows, cols, k, first, n_groups) = (23usize, 77usize, 5usize, 3usize, 4usize);
        let mut src = sample(n_rows * cols, 7);
        let specials = [f32::NAN, -0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0, -0.0];
        for (i, v) in specials.into_iter().enumerate() {
            src[(i * 3 % n_rows) * cols + i * 11 % cols] = v;
        }
        src[3 * cols..4 * cols].fill(f32::NAN); // a group's first row, under either source
        let table: Vec<usize> = (0..first + n_groups * k).map(|i| (i * 7 + 3) % n_rows).collect();
        let exact = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let tiers = vector_tiers();
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
            let mut forms: Vec<(&str, MaxRows)> = vec![
                ("dispatched", max_rows),
                ("32 wide", max_rows_tiled::<32>),
                ("64 wide", max_rows_tiled::<64>),
            ];
            forms.extend(tiers.iter().map(|t| (t.name, t.max_rows)));
            for (name, form) in forms {
                let mut got = vec![f32::NAN; want.len()];
                form(&src, cols, rows, first, k, &mut got);
                assert_eq!(exact(&got), exact(&want), "{name}");
            }
        }
        max_rows(&src, cols, None, 0, k, &mut []);
    }

    #[test]
    #[should_panic(expected = "max_rows row 2 out of bounds for 2 rows")]
    fn max_rows_rejects_a_row_past_the_source() {
        max_rows(&[0.0; 6], 3, Some(&[1, 2]), 0, 2, &mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "mm epilogue bias length mismatch")]
    fn a_short_bias_is_rejected() {
        mm1(
            &[1.0],
            &[1.0, 2.0],
            2,
            &mut [0.0; 2],
            false,
            Some(Epilogue { bias: &[1.0], relu: true }),
        );
    }
}
