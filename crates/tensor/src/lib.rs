//! Dense row-major matrices and the kernels point-cloud networks need.
//!
//! The paper's feature computation is a shared MLP over batched rows —
//! matrix-matrix products (Fig. 3) — plus a handful of irregular operators
//! that regular DNN stacks lack: row gather by neighbor index, grouped max
//! reduction, and centroid subtraction. The Rust ecosystem has no DNN stack
//! we are allowed to depend on here ("thin DNN ecosystem; point-cloud ops
//! hand-rolled"), so this crate implements exactly the kernel set the seven
//! evaluated networks require, with nothing speculative:
//!
//! * [`Mat`] — the storage type, generic over a sealed [`Element`]
//!   (`f32`, `f64`); [`Matrix`] = `Mat<f32>` is what the workspace speaks,
//! * [`ops`] — matmul (and its two transpose variants, the same product
//!   on a transposed copy), bias broadcast,
//!   elementwise arithmetic, ReLU and its gradient mask, column statistics,
//! * [`group`] — gather / grouped-reduce / scatter kernels used by
//!   aggregation in both the original and the delayed formulation.
//!
//! # Example
//!
//! ```
//! use mesorasi_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = mesorasi_tensor::ops::matmul(&a, &b);
//! assert_eq!(c, a);
//! ```
//!
//! # One kernel tier, two dtypes
//!
//! Every forward kernel is written once over `T: Element`. Every matmul,
//! the transpose variants included, runs through one driver,
//! [`ops::matmul_into`]: register-tiled micro-kernels, data-parallel over
//! fixed output-row chunks, loops blocked for cache by operand shape (row
//! block · packed `B` panel · `k`-block);
//! [`Element`] carries only the micro-kernel hooks, so `f32` monomorphises
//! onto [`simd`]'s AVX2 inner loops (runtime-detected; the `simd` cargo
//! feature, on by default, gates them) and `f64` onto the same register
//! tiles in scalar form. The pre-tier `f32` loops survive as
//! [`ops::naive`], the semantics reference.
//!
//! **The per-dtype bit-identity contract:** within one element type,
//! every output element accumulates in ascending-`p` order with one `mul`
//! and one `add` per step and max scans are first-wins, so results are
//! identical bit for bit across tiling, cache blocking, vector width, and
//! thread count.
//! Across element types only closeness holds — an `f64` value differs
//! from its `f32` counterpart by rounding, never by reassociation.

// The `simd` module is the workspace's single unsafe island; everything
// else in this crate (and every other crate) refuses unsafe code.
#![deny(unsafe_code)]

pub mod element;
pub mod group;
pub mod matrix;
pub mod ops;
pub mod simd;

pub use element::Element;
pub use matrix::{Mat, Matrix, Matrix64};

/// Element precision of a planned execution.
///
/// The workspace's native storage is `f32` ([`Matrix`]); `F64` makes the
/// planned engine replay each forward through the same generic kernels on
/// [`Matrix64`] values. Bit-identity guarantees (tape vs. planned,
/// thread-count invariance) hold *within* a dtype — that is the per-dtype
/// contract; across dtypes only closeness holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dtype {
    /// Native single precision — the fast tier, and the default.
    #[default]
    F32,
    /// Double precision: the deterministic reference the f32 tier's
    /// end-task accuracy is judged against.
    F64,
}

impl std::fmt::Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dtype::F32 => write!(f, "f32"),
            Dtype::F64 => write!(f, "f64"),
        }
    }
}

/// Error of [`Dtype`]'s `FromStr`: the value was neither `f32` nor `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseDtypeError;

impl std::fmt::Display for ParseDtypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "accepted values are f32|f64")
    }
}

impl std::error::Error for ParseDtypeError {}

impl std::str::FromStr for Dtype {
    type Err = ParseDtypeError;

    /// Parses `f32` / `f64`, trimmed and case-insensitive — the one parser
    /// behind `MESORASI_DTYPE`.
    fn from_str(raw: &str) -> Result<Dtype, ParseDtypeError> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "f32" => Ok(Dtype::F32),
            "f64" => Ok(Dtype::F64),
            _ => Err(ParseDtypeError),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Dtype, ParseDtypeError};

    #[test]
    fn dtype_parses_trimmed_and_case_insensitive_and_round_trips_display() {
        assert_eq!("f32".parse(), Ok(Dtype::F32));
        assert_eq!(" F64\n".parse(), Ok(Dtype::F64));
        for d in [Dtype::F32, Dtype::F64] {
            assert_eq!(d.to_string().parse(), Ok(d));
        }
        assert_eq!("f16".parse::<Dtype>(), Err(ParseDtypeError));
        assert_eq!("".parse::<Dtype>(), Err(ParseDtypeError));
        assert_eq!(ParseDtypeError.to_string(), "accepted values are f32|f64");
    }
}
