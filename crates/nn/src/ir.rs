//! The shared operator IR.
//!
//! A forward pass is a straight-line, single-assignment sequence of [`Op`]s
//! over [`VarId`] values. Two engines consume the same IR:
//!
//! * the [`crate::Graph`] tape records it define-by-run and keeps enough
//!   per-node metadata (argmax winners, detached statistics, cached
//!   probabilities) to differentiate it in reverse — the training engine;
//! * the [`crate::plan`] module compiles a recorded sequence into an
//!   immutable `Plan` with a liveness-assigned buffer arena and replays it
//!   grad-free — the inference engine, which refuses live losses.
//!
//! Everything an op needs to *recompute its value* lives in the `Op` itself
//! (operand ids plus structural constants); everything only the backward
//! pass needs lives in the tape, not here. That split is what makes the
//! sequence replayable on fresh data.

use mesorasi_tensor::Matrix;

/// Handle to a value in an op sequence (its position in the sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The node index this id refers to.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds an id from a node index (for engines that iterate a
    /// recorded sequence positionally).
    #[inline]
    pub fn from_index(i: usize) -> VarId {
        VarId(i)
    }
}

/// One operation of the shared IR.
///
/// Index lists stored inline (`Gather::indices`, `GatherMax::groups`,
/// `WeightedGather`) are the values observed at record time; a plan may
/// override them per sample through its dynamic bindings when they derive
/// from a neighbor search.
#[derive(Debug, Clone)]
pub enum Op {
    /// Leaf: external input or constant. No gradient flows out.
    Input,
    /// Leaf: trainable parameter, identified by its stable param id.
    Param {
        /// The [`crate::Param`] id this node mirrors.
        pid: u64,
    },
    /// `a · b`.
    MatMul {
        /// Left operand.
        a: VarId,
        /// Right operand.
        b: VarId,
    },
    /// `x + bias` with `bias` broadcast across rows.
    AddBias {
        /// The batched input.
        x: VarId,
        /// The `1 × cols` bias row.
        bias: VarId,
    },
    /// `a + b` elementwise.
    Add {
        /// Left operand.
        a: VarId,
        /// Right operand.
        b: VarId,
    },
    /// `a - b` elementwise.
    Sub {
        /// Left operand.
        a: VarId,
        /// Right operand.
        b: VarId,
    },
    /// `max(x, 0)` elementwise.
    Relu {
        /// The input.
        x: VarId,
    },
    /// `a ⊙ b` elementwise, both operands on the graph.
    Hadamard {
        /// Left operand.
        a: VarId,
        /// Right operand.
        b: VarId,
    },
    /// `x ⊙ mask` with a constant mask (dropout, detached scaling). The
    /// mask is a true constant of the computation, so it is part of the IR.
    MulConst {
        /// The input.
        x: VarId,
        /// The constant mask, same shape as `x`.
        mask: Matrix,
    },
    /// `x * s`.
    Scale {
        /// The input.
        x: VarId,
        /// The scalar factor.
        s: f32,
    },
    /// Row gather: `out[i] = x[indices[i]]`.
    Gather {
        /// The source rows.
        x: VarId,
        /// One source row index per output row (repeats allowed).
        indices: Vec<usize>,
    },
    /// `grouped[i] -= centroids[i / k]` (aggregation normalization).
    SubCentroid {
        /// The gathered `(n·k) × m` neighbor rows.
        grouped: VarId,
        /// The `n × m` centroid rows.
        centroids: VarId,
        /// Rows per group.
        k: usize,
    },
    /// Column-wise max over groups of `k` consecutive rows.
    GroupMax {
        /// The grouped input.
        x: VarId,
        /// Rows per group.
        k: usize,
    },
    /// Fused gather + grouped max over NIT entries (delayed aggregation).
    GatherMax {
        /// The Point Feature Table rows.
        x: VarId,
        /// Flattened `n × k` row-index groups into `x`.
        groups: Vec<usize>,
        /// Neighbors per group.
        k: usize,
    },
    /// `out[g] = Σ_j w[g·k+j] · x[idx[g·k+j]]` (3-NN feature interpolation).
    WeightedGather {
        /// The source feature rows.
        x: VarId,
        /// Flattened `n × k` source row indices.
        indices: Vec<usize>,
        /// One (detached) weight per index.
        weights: Vec<f32>,
        /// Stencil size.
        k: usize,
    },
    /// Column concatenation `[a | b]`.
    HStack {
        /// Left block.
        a: VarId,
        /// Right block.
        b: VarId,
    },
    /// Per-column standardization with statistics recomputed from the
    /// input (and detached from the gradient).
    Standardize {
        /// The input.
        x: VarId,
    },
    /// Mean squared error against a target; value is `1×1`.
    Mse {
        /// Predictions.
        pred: VarId,
        /// Targets, same shape.
        target: VarId,
    },
    /// Mean softmax cross-entropy; value is `1×1`.
    SoftmaxCrossEntropy {
        /// The `n × classes` logits.
        logits: VarId,
        /// One label per logits row.
        labels: Vec<u32>,
    },
}

impl Op {
    /// Visits every operand (upstream value) of this op, in a fixed order.
    pub fn for_each_operand(&self, mut f: impl FnMut(VarId)) {
        match self {
            Op::Input | Op::Param { .. } => {}
            Op::Relu { x }
            | Op::MulConst { x, .. }
            | Op::Scale { x, .. }
            | Op::Gather { x, .. }
            | Op::GroupMax { x, .. }
            | Op::GatherMax { x, .. }
            | Op::WeightedGather { x, .. }
            | Op::Standardize { x } => f(*x),
            Op::MatMul { a, b }
            | Op::Add { a, b }
            | Op::Sub { a, b }
            | Op::Hadamard { a, b }
            | Op::HStack { a, b } => {
                f(*a);
                f(*b);
            }
            Op::AddBias { x, bias } => {
                f(*x);
                f(*bias);
            }
            Op::SubCentroid { grouped, centroids, .. } => {
                f(*grouped);
                f(*centroids);
            }
            Op::Mse { pred, target } => {
                f(*pred);
                f(*target);
            }
            Op::SoftmaxCrossEntropy { logits, .. } => f(*logits),
        }
    }

    /// True for leaves (inputs and parameters).
    pub fn is_leaf(&self) -> bool {
        matches!(self, Op::Input | Op::Param { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_visit_order_is_stable() {
        let op = Op::SubCentroid { grouped: VarId(3), centroids: VarId(1), k: 4 };
        let mut seen = Vec::new();
        op.for_each_operand(|v| seen.push(v.index()));
        assert_eq!(seen, vec![3, 1]);
        assert!(!op.is_leaf());
        assert!(Op::Input.is_leaf());
    }
}
