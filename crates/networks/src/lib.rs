//! The seven point-cloud networks the paper evaluates (Table I), plus the
//! CNN baselines of Fig. 7.
//!
//! | network | domain | module style | here |
//! |---|---|---|---|
//! | PointNet++ (c) | classification | offset (ball query) | [`pointnetpp`] |
//! | PointNet++ (s) | segmentation | offset + feature propagation | [`pointnetpp`] |
//! | DGCNN (c) | classification | edge (dynamic feature-space graph) | [`dgcnn`] |
//! | DGCNN (s) | segmentation | edge, deeper | [`dgcnn`] |
//! | LDGCNN | classification | edge with hierarchical skip links | [`ldgcnn`] |
//! | DensePoint | classification | offset, dense connectivity, 1-layer MLPs | [`densepoint`] |
//! | F-PointNet | detection | frustum pipeline (seg + T-Net + box) | [`fpointnet`] |
//!
//! Every network implements [`PointCloudNetwork`]: a functional forward
//! pass (trainable through `mesorasi-nn`) that simultaneously records the
//! [`NetworkTrace`] the hardware simulator replays. Paper-scale and small
//! (trainable in seconds) configurations are provided for each.

#![forbid(unsafe_code)]

pub mod cnn;
pub mod datasets;
pub mod densepoint;
pub mod dgcnn;
pub mod fpointnet;
pub mod ldgcnn;
pub mod pointnetpp;
pub mod registry;
pub mod session;

use mesorasi_core::{NetworkTrace, Strategy};
use mesorasi_nn::{Graph, Param, VarId};
use mesorasi_pointcloud::PointCloud;

pub use registry::{Domain, NetworkKind};
pub use session::{
    Boxes3D, FrameStream, Inference, Logits, PerPointLabels, Session, SessionBuilder,
};

// Unused; kept only so `benchmark/src/replay.rs` compiles until it drops the import.
#[doc(hidden)]
pub const DEFAULT_TILE_BUDGET: usize = 256;

/// Result of a network forward pass: task output plus the recorded
/// workload.
#[derive(Debug)]
pub struct NetForward {
    /// Task logits: `1 × classes` for classification, `N × parts` for
    /// segmentation, `1 × 7` box parameters for detection.
    pub logits: VarId,
    /// The recorded workload trace.
    pub trace: NetworkTrace,
}

/// Common interface over the seven evaluated networks.
///
/// `Send + Sync` are supertraits so an owned network can move into a
/// [`Session`] and be shared across threads (forward passes take `&self`;
/// all implementations are plain data).
pub trait PointCloudNetwork: Send + Sync {
    /// Display name matching the paper's tables (e.g. "PointNet++ (c)").
    fn name(&self) -> &str;

    /// Expected input point count.
    fn input_points(&self) -> usize;

    /// The task this instance solves, which decides the [`Inference`]
    /// variant a [`Session`] returns for it.
    fn domain(&self) -> Domain;

    /// Runs the network on `cloud` under `strategy`, recording the trace.
    ///
    /// `seed` controls centroid sampling so strategies can be compared on
    /// identical neighbor structures.
    fn forward(
        &self,
        g: &mut Graph,
        cloud: &PointCloud,
        strategy: Strategy,
        seed: u64,
    ) -> NetForward;

    /// The output vars a [`Session`] keeps from one forward pass, in the
    /// domain's canonical order. The default keeps the task logits;
    /// detection pipelines override this to expose the box head as well
    /// (`[seg_logits, box_params]`).
    fn session_outputs(
        &self,
        g: &mut Graph,
        cloud: &PointCloud,
        strategy: Strategy,
        seed: u64,
    ) -> Vec<VarId> {
        vec![self.forward(g, cloud, strategy, seed).logits]
    }

    /// An owned copy of this network behind the trait object — how a
    /// [`SessionBuilder`] takes a snapshot of weights it only borrows.
    fn boxed_clone(&self) -> Box<dyn PointCloudNetwork>;

    /// All trainable parameters, for optimizer steps.
    fn params_mut(&mut self) -> Vec<&mut Param>;
}
