//! Point-cloud data structures and synthetic dataset generators.
//!
//! This crate is the lowest-level substrate of the Mesorasi reproduction. It
//! provides:
//!
//! * [`Point3`] / [`Aabb`] — basic 3-D geometry,
//! * [`PointCloud`] — an unordered set of points with optional per-point
//!   features and labels,
//! * [`morton`] — Z-order (Morton) spatial sorting, which point-cloud
//!   pipelines use so that spatially-close points receive close indices
//!   (this matters for the bank-conflict behaviour of the Aggregation Unit
//!   simulated in `mesorasi-sim`),
//! * [`sampling`] — random and farthest-point sampling (the paper replaces
//!   FPS with random sampling for speed; we provide both),
//! * [`transform`] — augmentation used during training,
//! * [`shapes`], [`parts`], [`lidar`] — parametric synthetic datasets that
//!   stand in for ModelNet40 (classification), ShapeNet (part segmentation)
//!   and KITTI (detection). See `DESIGN.md` §1 for why the substitution
//!   preserves the behaviour the paper measures.
//!
//! # Example
//!
//! ```
//! use mesorasi_pointcloud::{shapes, sampling};
//!
//! let cloud = shapes::sample_shape(shapes::ShapeClass::Torus, 1024, 7);
//! assert_eq!(cloud.len(), 1024);
//! let idx = sampling::farthest_point_indices(&cloud, 128, 7);
//! assert_eq!(idx.len(), 128);
//! ```

#![forbid(unsafe_code)]

pub mod aabb;
pub mod cloud;
pub mod io;
pub mod lidar;
pub mod morton;
pub mod parts;
pub mod point;
pub mod sampling;
pub mod shapes;
pub mod transform;

pub use aabb::Aabb;
pub use cloud::PointCloud;
pub use point::Point3;

/// Deterministic RNG used throughout the workspace so experiments are
/// reproducible run-to-run.
///
/// # Example
///
/// ```
/// use rand::Rng;
/// let mut rng = mesorasi_pointcloud::seeded_rng(42);
/// let a: f32 = rng.gen();
/// let b: f32 = mesorasi_pointcloud::seeded_rng(42).gen();
/// assert_eq!(a, b);
/// ```
pub fn seeded_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}
