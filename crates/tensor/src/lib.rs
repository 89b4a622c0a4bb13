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
//! * [`Matrix`] — the storage type, a dense row-major `f32` matrix,
//! * [`ops`] — matmul (and its two transpose variants, the same product
//!   on a transposed copy), the fused linear layer (matmul, bias and ReLU
//!   written once), bias broadcast,
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
//! # One kernel tier
//!
//! Every matmul, the transpose variants included, runs through one driver,
//! [`ops::matmul_into`]: register-tiled micro-kernels, data-parallel over
//! fixed output-row chunks, loops blocked for cache by operand shape (row
//! block · packed `B` panel · `k`-block). The micro-kernels are [`simd`]'s,
//! in the widest tier the CPU has — AVX-512F, then AVX2 (runtime-detected;
//! the `simd` cargo feature, on by default, gates them) — and the same
//! register tiles in scalar form elsewhere; [`simd::tier`] names the one
//! that runs. The pre-tier loops survive as [`ops::naive`], the semantics
//! reference.
//!
//! **The bit-identity contract:** every output element accumulates in
//! ascending-`p` order from `+0.0` with one fused multiply-add per step
//! (correctly rounded, so every width gives the same bits) and max scans
//! are first-wins, so results are identical bit for bit across tiling,
//! cache blocking, vector width, and thread count.

// The `simd` module is the workspace's single unsafe island; everything
// else in this crate (and every other crate) refuses unsafe code.
#![deny(unsafe_code)]

pub mod group;
pub mod matrix;
pub mod ops;
pub mod simd;

pub use matrix::Matrix;
