//! The feature scan's kernels at every tier the CPU has — scalar, AVX2
//! and AVX-512, each called through `simd::test_tiers` and the `*_on`
//! twins of the entry points — must agree with each other and with a plain
//! reference: `gram_bounds` and `sqdist8` bit for bit, `kth_smallest` on
//! the value, `select_below` on the list. Lengths end in
//! every tail of the 16- and 8-lane loops, and the inputs carry `NaN`,
//! `±∞`, signed zeros and ties.

use mesorasi_tensor::simd::{self, GramBound, TestTier};

const ROWS: [usize; 9] = [0, 1, 7, 8, 15, 16, 17, 64, 1000];
const SPECIALS: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];

/// `n` values on a grid of quarters in `[-2, 2]` (so many tie), every
/// `every`-th a special.
fn values(n: usize, seed: u64, every: usize) -> Vec<f32> {
    let grid = |i: usize| {
        let h = (i as u64).wrapping_add(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        ((h as f32 / (1u64 << 23) as f32 - 1.0) * 8.0).round() / 4.0
    };
    let special = |i: usize| every > 0 && i % every == every - 1;
    (0..n)
        .map(|i| if special(i) { SPECIALS[(i / every) % SPECIALS.len()] } else { grid(i) })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() }).collect()
}

/// Every tier this CPU runs, by name; the entry points dispatch to the
/// first vector one, or to the scalar tier.
fn tiers() -> Vec<(&'static str, TestTier)> {
    let tiers = simd::test_tiers();
    let names: Vec<&str> = tiers.iter().map(|t| t.0).collect();
    eprintln!("gram_select: tiers {names:?}; the dispatch runs {}", simd::tier());
    tiers
}

#[test]
fn gram_bounds_agree_across_tiers_bitwise() {
    let tiers = tiers();
    for rows in ROWS {
        for every in [0, 7] {
            let dots = values(rows, 1, every);
            let norms: Vec<f32> = values(rows, 2, every).iter().map(|v| v.abs()).collect();
            let scales: Vec<f32> = values(rows, 3, every).iter().map(|v| v.abs() * 1e-3).collect();
            let bound = GramBound {
                dots: &dots,
                norms: &norms,
                scales: &scales,
                query_norm: 1.5,
                query_scale: 2e-3,
            };
            for width in [5, 16, 48, 64] {
                let mut want = None;
                for &(name, tier) in &tiers {
                    let (mut lower, mut upper) = (vec![f32::NAN; rows], vec![f32::NAN; rows]);
                    let mut minima = vec![f32::NAN; width];
                    simd::gram_bounds_on(tier, bound, &mut lower, &mut upper, &mut minima);
                    let got = (bits(&lower), bits(&upper), bits(&minima));
                    let at = format!("{name} rows {rows} width {width} specials {every}");
                    // The minima are the upper bounds' class minima, NaN
                    // never winning and empty classes +inf.
                    for (c, &m) in minima.iter().enumerate() {
                        let class = upper.iter().skip(c).step_by(width).filter(|u| !u.is_nan());
                        let least = class.fold(f32::INFINITY, |a, &u| if u < a { u } else { a });
                        assert_eq!(m.to_bits(), least.to_bits(), "{at} lane {c}");
                    }
                    match &want {
                        None => want = Some(got),
                        Some(want) => assert_eq!(&got, want, "{at}"),
                    }
                }
            }
        }
    }
}

#[test]
fn kth_smallest_agrees_across_tiers_and_with_a_sort() {
    let tiers = tiers();
    for n in [1, 5, 16, 32, 48, 64, 100] {
        for seed in 0..4 {
            // The minima a scan takes τ̂ from hold no NaN; ±∞ and signed
            // zeros they may.
            let mut v: Vec<f32> =
                values(n, 10 + seed, 6).into_iter().filter(|x| !x.is_nan()).collect();
            if v.is_empty() {
                v.push(0.5);
            }
            let mut sorted = v.clone();
            sorted.sort_by(f32::total_cmp);
            for k in 1..=v.len() {
                for &(name, tier) in &tiers {
                    // Equal as values: of equal zeros either sign may win.
                    let got = simd::kth_smallest_on(tier, &v, k);
                    assert!(got == sorted[k - 1], "{name} n {n} k {k}: {got} vs {}", sorted[k - 1]);
                }
            }
        }
    }
}

#[test]
fn select_below_agrees_across_tiers_and_with_a_filter() {
    let tiers = tiers();
    for rows in ROWS {
        for every in [0, 5] {
            let v = values(rows, 20, every);
            for tau in [f32::NEG_INFINITY, -0.5, 0.0, -0.0, 0.25, f32::INFINITY] {
                let kept = |&i: &u32| v[i as usize] <= tau || v[i as usize].is_nan();
                let want: Vec<u32> = (0..rows as u32).filter(kept).collect();
                for &(name, tier) in &tiers {
                    let mut out = vec![u32::MAX; rows];
                    let n = simd::select_below_on(tier, &v, tau, &mut out);
                    assert_eq!(&out[..n], &want[..], "{name} rows {rows} tau {tau}");
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "select_below out is shorter than the values")]
fn select_below_rejects_a_short_output() {
    simd::select_below(&[0.0; 17], 1.0, &mut [0; 16]);
}

#[test]
fn sqdist8_agrees_across_tiers_and_with_the_per_pair_sum_bitwise() {
    // What `mesorasi_knn::feature::distance_squared` computes, and what the
    // scan's tables are pinned to: every tier must give its bits, `NaN`s
    // and infinities included, at every step tail of the 8-wide transpose.
    fn per_pair(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }
    let tiers = tiers();
    for dim in [0, 1, 7, 8, 9, 64, 130] {
        for every in [0, 11] {
            let rows: Vec<Vec<f32>> = (0..8).map(|j| values(dim + 3, 40 + j, every)).collect();
            let query = values(dim, 50, every);
            let row_refs: [&[f32]; simd::SQDIST_ROWS] = std::array::from_fn(|j| &rows[j][..]);
            let want: Vec<f32> = rows.iter().map(|r| per_pair(&query, &r[..dim])).collect();
            for &(name, tier) in &tiers {
                let got = simd::sqdist8_on(tier, &query, row_refs);
                assert_eq!(bits(&got), bits(&want), "{name} dim {dim} specials {every}");
            }
        }
    }
}

#[test]
#[should_panic]
fn sqdist8_rejects_a_row_shorter_than_the_query() {
    let (long, short) = ([0.0f32; 4], [0.0f32; 3]);
    let mut rows = [&long[..]; simd::SQDIST_ROWS];
    rows[5] = &short;
    simd::sqdist8(&[1.0; 4], rows);
}
