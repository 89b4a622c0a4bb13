//! The `f64` instantiation of the generic kernel tier, pinned bit for bit
//! against a sequential oracle.
//!
//! The oracle states the per-element contract of the retired f64-only
//! kernel set directly — one sequential chain per output element,
//! ascending-`p` accumulation from `+0.0`, first-wins max scans — minus its
//! sparse zero-skip (the tier adds `±0.0` products instead, which the
//! injected signed zeros below exercise). The tier tiles, blocks and chunks
//! across threads; none of that may change a single bit.

use mesorasi_tensor::{group, ops, Matrix64};
use proptest::prelude::*;

mod oracle {
    use mesorasi_tensor::Matrix64;

    /// An `m × n` matrix of `k`-step dot-product chains: element `(i, j)`
    /// starts at `+0.0` and adds `term(i, j, p)` for `p` ascending.
    fn chains(m: usize, n: usize, k: usize, term: impl Fn(usize, usize, usize) -> f64) -> Matrix64 {
        Matrix64::from_fn(m, n, |i, j| (0..k).fold(0.0, |acc, p| acc + term(i, j, p)))
    }

    pub fn matmul(a: &Matrix64, b: &Matrix64) -> Matrix64 {
        chains(a.rows(), b.cols(), a.cols(), |i, j, p| a[(i, p)] * b[(p, j)])
    }

    pub fn matmul_at_b(a: &Matrix64, b: &Matrix64) -> Matrix64 {
        chains(a.cols(), b.cols(), a.rows(), |i, j, p| a[(p, i)] * b[(p, j)])
    }

    pub fn matmul_a_bt(a: &Matrix64, b: &Matrix64) -> Matrix64 {
        chains(a.rows(), b.rows(), a.cols(), |i, j, p| a[(i, p)] * b[(j, p)])
    }

    pub fn gather_rows(src: &Matrix64, indices: &[usize]) -> Matrix64 {
        Matrix64::from_fn(indices.len(), src.cols(), |r, c| src[(indices[r], c)])
    }

    pub fn subtract_centroid_per_group(
        grouped: &Matrix64,
        centroid_rows: &Matrix64,
        k: usize,
    ) -> Matrix64 {
        Matrix64::from_fn(grouped.rows(), grouped.cols(), |r, c| {
            grouped[(r, c)] - centroid_rows[(r / k, c)]
        })
    }

    /// First-wins max scan over each `k`-entry group of `groups`.
    pub fn gather_max(src: &Matrix64, groups: &[usize], k: usize) -> Matrix64 {
        Matrix64::from_fn(groups.len() / k, src.cols(), |g, c| {
            let entry = &groups[g * k..(g + 1) * k];
            entry[1..].iter().fold(src[(entry[0], c)], |best, &i| {
                if src[(i, c)] > best {
                    src[(i, c)]
                } else {
                    best
                }
            })
        })
    }

    pub fn weighted_gather(
        src: &Matrix64,
        indices: &[usize],
        weights: &[f64],
        k: usize,
    ) -> Matrix64 {
        chains(indices.len() / k, src.cols(), k, |g, c, j| {
            weights[g * k + j] * src[(indices[g * k + j], c)]
        })
    }
}

/// Deterministic pseudo-random matrix; with `zero_every > 0`, every
/// `zero_every + 1`-th element is an exact zero of alternating sign.
fn noisy(rows: usize, cols: usize, seed: u64, zero_every: usize) -> Matrix64 {
    Matrix64::from_fn(rows, cols, |r, c| {
        let i = r * cols + c;
        if zero_every > 0 && i.is_multiple_of(zero_every + 1) {
            return if i.is_multiple_of(2) { 0.0 } else { -0.0 };
        }
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
        ((h >> 11) as f64 / 1e12).sin() * 3.0
    })
}

fn bits(m: &Matrix64) -> ((usize, usize), Vec<u64>) {
    (m.shape(), m.as_slice().iter().map(|v| v.to_bits()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn f64_matmul_family_matches_the_sequential_oracle_bitwise(
        m in 0usize..11, k in 0usize..25, n in 0usize..35, seed in 0u64..1000, zero_every in 0usize..4,
        packed in 0usize..8
    ) {
        // m % 4 row tails, n % 16 / n % 8 column tails, k == 0 and n == 0
        // empties, signed zeros in the coefficient operand. One case in
        // eight is a product `matmul_into` packs in f64 — at least 32 rows,
        // a `B` past 32 KB, `k` past one 256-deep panel — which the
        // transpose variants reach through their transposed operand.
        let (m, k, n) = if packed == 0 { (36, 300, 20) } else { (m, k, n) };
        let a = noisy(m, k, seed, zero_every);
        let b = noisy(k, n, seed + 1, 0);
        prop_assert_eq!(bits(&ops::matmul(&a, &b)), bits(&oracle::matmul(&a, &b)));

        let at = noisy(k, m, seed + 2, zero_every);
        prop_assert_eq!(bits(&ops::matmul_at_b(&at, &b)), bits(&oracle::matmul_at_b(&at, &b)));

        let bt = noisy(n, k, seed + 3, zero_every);
        prop_assert_eq!(bits(&ops::matmul_a_bt(&a, &bt)), bits(&oracle::matmul_a_bt(&a, &bt)));
    }

    #[test]
    fn f64_group_kernels_match_the_sequential_oracle_bitwise(
        rows in 1usize..20, cols in 0usize..19, k in 1usize..6, n_groups in 0usize..9,
        seed in 0u64..1000, zero_every in 0usize..4
    ) {
        let src = noisy(rows, cols, seed, zero_every);
        let groups: Vec<usize> =
            (0..n_groups * k).map(|i| (i * 31 + i / k + seed as usize) % rows).collect();

        let gathered = group::gather_rows(&src, &groups);
        prop_assert_eq!(bits(&gathered), bits(&oracle::gather_rows(&src, &groups)));

        let mut fused = Matrix64::zeros(0, 0);
        group::gather_max_into(&src, &groups, k, &mut fused);
        prop_assert_eq!(bits(&fused), bits(&oracle::gather_max(&src, &groups, k)));

        // Consecutive-row groups are the gathered matrix's own rows 0..k, k..2k, …
        let consecutive: Vec<usize> = (0..gathered.rows()).collect();
        let mut reduced = Matrix64::zeros(0, 0);
        group::group_max_into(&gathered, k, &mut reduced);
        prop_assert_eq!(bits(&reduced), bits(&oracle::gather_max(&gathered, &consecutive, k)));

        let centroids = group::gather_rows(&src, &groups[..n_groups]);
        prop_assert_eq!(
            bits(&group::subtract_centroid_per_group(&gathered, &centroids, k)),
            bits(&oracle::subtract_centroid_per_group(&gathered, &centroids, k))
        );

        let weights: Vec<f32> =
            (0..groups.len()).map(|i| ((i as f32 + seed as f32) * 0.61).cos()).collect();
        let wide: Vec<f64> = weights.iter().map(|&w| f64::from(w)).collect();
        prop_assert_eq!(
            bits(&group::weighted_gather(&src, &groups, &weights, k)),
            bits(&oracle::weighted_gather(&src, &groups, &wide, k))
        );
    }
}
