//! Mesorasi — algorithm-architecture co-design for point cloud analytics.
//!
//! A from-scratch reproduction of *"Mesorasi: Architecture Support for
//! Point Cloud Analytics via Delayed-Aggregation"* (MICRO 2020): the
//! delayed-aggregation algorithm, the seven evaluated networks, a
//! trainable autograd substrate, analytical hardware models, and a
//! production-shaped inference surface.
//!
//! # Inference in three lines
//!
//! The front door is [`Session`]: an owned, `Send + Sync`,
//! lifetime-free handle over one frozen network that serves
//! [`Session::infer`], [`Session::infer_batch`] (data-parallel over a
//! per-worker engine pool), and [`Session::frames`], returning
//! domain-typed results ([`Logits`], [`PerPointLabels`], [`Boxes3D`])
//! that are bit-identical to the autograd tape at every thread count.
//!
//! ```
//! use mesorasi::prelude::*;
//!
//! let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
//!     .classes(10)
//!     .strategy(Strategy::Delayed)
//!     .build();
//! let cloud = sample_shape(ShapeClass::Chair, session.network().input_points(), 1);
//! let class = session.infer(&cloud).into_classification().predicted();
//! assert!(class < 10);
//! ```
//!
//! # Workspace map
//!
//! Each `mesorasi_*` crate is re-exported under a short name; see the
//! README for the full table.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

// `bench` is a real (not dev) dependency so examples and downstream code
// reach the training loops and experiment drivers through one namespace;
// the whole workspace is offline path deps, so the extra compile surface
// only matters to out-of-tree consumers, who can depend on subcrates.
pub use mesorasi_bench as bench;
pub use mesorasi_core as core;
pub use mesorasi_knn as knn;
pub use mesorasi_networks as networks;
pub use mesorasi_nn as nn;
pub use mesorasi_par as par;
pub use mesorasi_pointcloud as pointcloud;
pub use mesorasi_serve as serve;
pub use mesorasi_sim as sim;
pub use mesorasi_tensor as tensor;

// The curated top level: the session-first inference API and the handful
// of types almost every caller touches.
pub use mesorasi_core::Strategy;
pub use mesorasi_networks::{
    Boxes3D, Domain, FrameStream, Inference, Logits, NetworkKind, PerPointLabels,
    PointCloudNetwork, Session, SessionBuilder,
};
pub use mesorasi_pointcloud::{seeded_rng, PointCloud};

/// One-stop imports for the common inference and training workflow.
///
/// ```
/// use mesorasi::prelude::*;
/// ```
pub mod prelude {
    pub use crate::{
        seeded_rng, Boxes3D, Domain, FrameStream, Inference, Logits, NetworkKind, PerPointLabels,
        PointCloud, PointCloudNetwork, Session, SessionBuilder, Strategy,
    };
    pub use mesorasi_nn::Graph;
    pub use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
    pub use mesorasi_pointcloud::Point3;
}
