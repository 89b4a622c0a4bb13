//! The sealed [`Element`] trait: the two float types the tensor stack is
//! generic over.

use crate::simd;
use std::fmt::Display;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Sub, SubAssign};

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// An element type of [`crate::Mat`]: `f32` (the native tier) or `f64`
/// (the precision-reference tier). Sealed — the kernels' bit-identity
/// contract is argued per implementor, so no third type can join from
/// outside.
///
/// Beyond plain float arithmetic the trait carries only three micro-kernel
/// hooks — the four-row and single-row matmul tiles ([`Element::mm4`],
/// [`Element::mm1`]) and the grouped max ([`Element::max_rows`]): every
/// kernel in [`crate::ops`] and [`crate::group`] is written once over
/// `T: Element`, and the hooks pick the register-tile body —
/// AVX2-dispatching for `f32`, the generic scalar tile for `f64`.
pub trait Element:
    sealed::Sealed
    + Copy
    + PartialOrd
    + Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
{
    /// `0.0`.
    const ZERO: Self;
    /// `1.0`.
    const ONE: Self;
    /// `-∞` — the identity of a running max.
    const NEG_INFINITY: Self;

    /// Rounds `v` to this type (IEEE round-to-nearest; the identity for
    /// `f64`). Every `f32` survives `from_f64(f64::from(x))` unchanged.
    fn from_f64(v: f64) -> Self;
    /// Widens to `f64` (exact for both implementors).
    fn to_f64(self) -> f64;
    /// The type's own `max` (NaN-ignoring, like `f32::max`).
    fn max(self, other: Self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// `e^self`.
    fn exp(self) -> Self;

    /// Four-row matmul micro-kernel; see [`simd::mm4`] for the contract
    /// (`accumulate` continues the partial sums already in `out`). The
    /// defaults are the generic scalar register tiles; `f32` overrides
    /// every hook with the bounds-checked AVX2-dispatching [`simd`] entry
    /// points.
    #[inline]
    fn mm4(a: [&[Self]; 4], b: &[Self], n: usize, out: [&mut [Self]; 4], accumulate: bool) {
        simd::mm4_scalar(a, b, n, out, accumulate);
    }
    /// Single-row matmul micro-kernel, the row tail of [`Element::mm4`];
    /// see [`simd::mm1`].
    #[inline]
    fn mm1(a: &[Self], b: &[Self], n: usize, out: &mut [Self], accumulate: bool) {
        simd::mm1_scalar(a, b, n, out, accumulate);
    }
    /// Grouped column-wise max, the kernel behind
    /// [`crate::group::gather_max_into`] and [`crate::group::group_max_into`];
    /// see [`simd::max_rows`] for the contract. The default is the generic
    /// body at eight baseline-width registers of `f64`.
    #[inline]
    fn max_rows(
        src: &[Self],
        cols: usize,
        rows: Option<&[usize]>,
        first: usize,
        k: usize,
        out: &mut [Self],
    ) {
        simd::max_rows_tiled::<Self, 16>(src, cols, rows, first, k, out);
    }
}

/// The float arithmetic both implementors take from their inherent methods.
macro_rules! float_arith {
    ($t:ty) => {
        const ZERO: Self = 0.0;
        const ONE: Self = 1.0;
        const NEG_INFINITY: Self = <$t>::NEG_INFINITY;

        #[inline]
        fn from_f64(v: f64) -> Self {
            v as $t
        }
        #[inline]
        fn to_f64(self) -> f64 {
            f64::from(self)
        }
        #[inline]
        fn max(self, other: Self) -> Self {
            <$t>::max(self, other)
        }
        #[inline]
        fn sqrt(self) -> Self {
            <$t>::sqrt(self)
        }
        #[inline]
        fn exp(self) -> Self {
            <$t>::exp(self)
        }
    };
}

impl Element for f32 {
    float_arith!(f32);

    #[inline]
    fn mm4(a: [&[f32]; 4], b: &[f32], n: usize, out: [&mut [f32]; 4], accumulate: bool) {
        simd::mm4(a, b, n, out, accumulate);
    }
    #[inline]
    fn mm1(a: &[f32], b: &[f32], n: usize, out: &mut [f32], accumulate: bool) {
        simd::mm1(a, b, n, out, accumulate);
    }
    #[inline]
    fn max_rows(
        src: &[f32],
        cols: usize,
        rows: Option<&[usize]>,
        first: usize,
        k: usize,
        out: &mut [f32],
    ) {
        simd::max_rows(src, cols, rows, first, k, out);
    }
}

impl Element for f64 {
    float_arith!(f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_round_trips_through_f64_exactly() {
        for v in [0.0f32, -0.0, 1.0, -3.75, 1e-30, f32::MAX, f32::MIN_POSITIVE, 0.1] {
            assert_eq!(f32::from_f64(v.to_f64()).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn f64_routed_constants_equal_the_f32_literals() {
        // The generic kernels spell their epsilons as `T::from_f64(lit)`;
        // for f32 that must be the very constant the f32-only code used.
        assert_eq!(f32::from_f64(1e-5).to_bits(), 1e-5f32.to_bits());
        assert_eq!(f32::from_f64(1e-12).to_bits(), 1e-12f32.to_bits());
    }
}
