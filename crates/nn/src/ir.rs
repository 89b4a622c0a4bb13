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
/// `WeightedGather`) are the values observed at record time; a plan drops
/// the ones that derive from a neighbor search and reads them per sample
/// from its dynamic bindings instead.
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

    /// The `(rows, cols)` this op produces from operands of the shapes
    /// `shape` reports: the one shape rule per op that shape-only recording
    /// trusts in place of the arithmetic. Each rule panics on the operand
    /// mismatches the eager kernel panics on, with the kernel's message, so
    /// skipping the arithmetic never turns a panic into an answer. `None`
    /// for the leaves, whose shape is their value's.
    pub fn out_shape(&self, shape: impl Fn(VarId) -> (usize, usize)) -> Option<(usize, usize)> {
        let same = |a: &VarId, b: &VarId, what: &str| {
            let (sa, sb) = (shape(*a), shape(*b));
            assert_eq!(sa, sb, "{what} shape mismatch");
            sa
        };
        let out_of_bounds =
            |indices: &[usize], rows: usize| indices.iter().copied().find(|&i| i >= rows);
        Some(match self {
            Op::Input | Op::Param { .. } => return None,
            Op::MatMul { a, b } => {
                let (sa, sb) = (shape(*a), shape(*b));
                assert_eq!(sa.1, sb.0, "matmul shape mismatch: {sa:?} × {sb:?}");
                (sa.0, sb.1)
            }
            Op::AddBias { x, bias } => {
                let (sx, sb) = (shape(*x), shape(*bias));
                assert_eq!(sb.0, 1, "bias must be a row vector");
                assert_eq!(sb.1, sx.1, "bias width must match");
                sx
            }
            Op::Add { a, b } => same(a, b, "add"),
            Op::Sub { a, b } => same(a, b, "sub"),
            Op::Hadamard { a, b } => same(a, b, "hadamard"),
            Op::Relu { x } | Op::Scale { x, .. } => shape(*x),
            Op::Gather { x, indices } => {
                let (rows, cols) = shape(*x);
                if let Some(i) = out_of_bounds(indices, rows) {
                    panic!("gather index {i} out of bounds for {rows} rows");
                }
                (indices.len(), cols)
            }
            Op::SubCentroid { grouped, centroids, k } => {
                let (sg, sc) = (shape(*grouped), shape(*centroids));
                assert!(*k > 0, "group size must be positive");
                assert_eq!(sg.0 % k, 0, "grouped rows must be a multiple of k");
                assert_eq!(sg.0 / k, sc.0, "one centroid per group");
                assert_eq!(sg.1, sc.1, "widths must match");
                sg
            }
            Op::GroupMax { x, k } => {
                let (rows, cols) = shape(*x);
                assert!(*k > 0, "group size must be positive");
                assert_eq!(rows % k, 0, "rows must be a multiple of k");
                (rows / k, cols)
            }
            Op::GatherMax { x, groups, k } => {
                let (rows, cols) = shape(*x);
                assert!(*k > 0, "group size must be positive");
                assert_eq!(groups.len() % k, 0, "groups must be a multiple of k");
                if let Some(i) = out_of_bounds(groups, rows) {
                    panic!("group index {i} out of bounds");
                }
                (groups.len() / k, cols)
            }
            Op::WeightedGather { x, indices, weights, k } => {
                let (rows, cols) = shape(*x);
                assert_eq!(indices.len(), weights.len(), "one weight per index");
                assert!(*k > 0 && indices.len().is_multiple_of(*k), "indices must be n × k");
                if let Some(i) = out_of_bounds(indices, rows) {
                    panic!("weighted-gather index {i} out of bounds for {rows} rows");
                }
                (indices.len() / k, cols)
            }
            Op::HStack { a, b } => {
                let (sa, sb) = (shape(*a), shape(*b));
                assert_eq!(sa.0, sb.0, "hstack requires equal row counts");
                (sa.0, sa.1 + sb.1)
            }
            Op::Standardize { x } => {
                let sx = shape(*x);
                assert!(sx.0 > 0, "column stats of empty matrix");
                sx
            }
            Op::Mse { pred, target } => {
                same(pred, target, "sub");
                (1, 1)
            }
            Op::SoftmaxCrossEntropy { logits, labels } => {
                let (rows, cols) = shape(*logits);
                assert_eq!(labels.len(), rows, "one label per row");
                if let Some(label) = labels.iter().find(|&&l| l as usize >= cols) {
                    panic!("label {label} out of range");
                }
                (1, 1)
            }
        })
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
    }
}
