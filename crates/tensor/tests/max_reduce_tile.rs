//! The engine's max-reduce against the tape's: `group::gather_max_into`
//! and `group::group_max_into` run one register tile
//! (`simd::max_rows`), `group::gather_max_reduce` and
//! `group::group_max_reduce` keep the one-element-at-a-time loop that also
//! tracks the argmax. Their values must agree bit for bit at every width
//! that crosses a tile boundary, at both element types, for ties, signed
//! zeros, infinities and `NaN`s wherever in a group they sit.

use mesorasi_tensor::{group, Element, Mat, Matrix, Matrix64};
use proptest::prelude::*;

// Around the 8-, 16-, 32- and 64-column tiles and past two of the widest.
const COLS: [usize; 11] = [1, 7, 15, 16, 17, 63, 64, 65, 128, 130, 200];
const KS: [usize; 4] = [1, 2, 5, 32];
const GROUPS: [usize; 3] = [0, 1, 9];
const SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

fn mix(i: usize, seed: u64) -> u64 {
    ((i as u64).wrapping_add(seed)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17
}

/// A table on a grid of nine values, so most comparisons in a group are
/// ties; every `special_every`-th element is a signed zero, an infinity or
/// a `NaN`, and row 0 is `NaN` throughout.
fn table(rows: usize, cols: usize, seed: u64, special_every: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = mix(r * cols + c, seed) as usize;
        if r == 0 {
            f32::NAN
        } else if h.is_multiple_of(special_every) {
            SPECIALS[(h / special_every) % SPECIALS.len()]
        } else {
            (h % 9) as f32 * 0.5 - 2.0
        }
    })
}

/// `n_groups × k` indices into `rows` table rows, repeated and out of
/// order, never row 0 — except where `nan_slots` puts that all-`NaN` row:
/// `1` in the first slot of every other entry, `2` in its last slot, `3`
/// in all of its slots.
fn entries(rows: usize, n_groups: usize, k: usize, seed: u64, nan_slots: usize) -> Vec<usize> {
    let mut groups: Vec<usize> =
        (0..n_groups * k).map(|i| 1 + mix(i, seed ^ 0xA5) as usize % (rows - 1)).collect();
    for entry in groups.chunks_mut(k).step_by(2) {
        match nan_slots {
            1 => entry[0] = 0,
            2 => entry[k - 1] = 0,
            3 => entry.fill(0),
            _ => {}
        }
    }
    groups
}

/// Shape and bit patterns, through the exact widening to `f64` — so an
/// `f64` result compares directly against the `f32` oracle's: widening
/// preserves order, signed zeros and `NaN`s, hence the winners.
fn bits<T: Element>(m: &Mat<T>) -> ((usize, usize), Vec<u64>) {
    (m.shape(), m.as_slice().iter().map(|v| v.to_f64().to_bits()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn into_forms_match_the_argmax_twins_bitwise(
        rows in 2usize..40, seed in 0u64..1 << 40, special_every in 2usize..40, nan_slots in 0usize..4
    ) {
        for cols in COLS {
            let src = table(rows, cols, seed, special_every);
            let src64 = Matrix64::cast_from(&src);
            for (k, n_groups) in KS.into_iter().flat_map(|k| GROUPS.map(|g| (k, g))) {
                let groups = entries(rows, n_groups, k, seed, nan_slots);
                // Outputs start from a wrong shape full of a value no max
                // yields.
                let (want, _) = group::gather_max_reduce(&src, &groups, k);
                let mut got = Matrix::full(3, 5, 77.0);
                group::gather_max_into(&src, &groups, k, &mut got);
                prop_assert_eq!(bits(&got), bits(&want), "gather f32 {}x{} k {}", n_groups, cols, k);
                let mut got64 = Matrix64::full(3, 5, 77.0);
                group::gather_max_into(&src64, &groups, k, &mut got64);
                prop_assert_eq!(bits(&got64), bits(&want), "gather f64 {}x{} k {}", n_groups, cols, k);

                let gathered = group::gather_rows(&src, &groups);
                let (want, _) = group::group_max_reduce(&gathered, k);
                group::group_max_into(&gathered, k, &mut got);
                prop_assert_eq!(bits(&got), bits(&want), "group f32 {}x{} k {}", n_groups, cols, k);
                group::group_max_into(&Matrix64::cast_from(&gathered), k, &mut got64);
                prop_assert_eq!(bits(&got64), bits(&want), "group f64 {}x{} k {}", n_groups, cols, k);
            }
        }
    }
}
