//! The autograd tape.
//!
//! A [`Graph`] records a forward computation as a sequence of nodes
//! (define-by-run); [`Graph::backward`] then walks the tape in reverse,
//! accumulating gradients. The op set is exactly what the seven evaluated
//! point-cloud networks need — including the irregular gather / grouped-max
//! operators that make both aggregation orders (original and delayed,
//! paper Equ. 1 vs Equ. 2) expressible and trainable.
//!
//! A graph built with [`Graph::shapes_only`] records the same op sequence
//! without computing it: each op pushes its [`Op`] and the shape
//! [`Op::out_shape`] gives it, and only parameters keep their values. That
//! is all an inference plan needs from a recording (structure, shapes and
//! a weight snapshot), so compiling one costs no tape arithmetic and no
//! tape memory.

use crate::Param;
use mesorasi_tensor::{group, ops, Matrix};
use std::collections::HashMap;

pub use crate::ir::{Op, VarId};

/// Backward-only caches a node keeps next to its [`Op`] — metadata the
/// shared IR deliberately excludes because replaying the op on fresh data
/// recomputes it (argmax winners, detached statistics, probabilities).
#[derive(Debug)]
enum Aux {
    /// Nothing cached.
    None,
    /// Winning source row per output element of a max reduction.
    Arg(Vec<usize>),
    /// Detached `1 × cols` inverse standard deviations of a standardize.
    InvStd(Matrix),
    /// Cached softmax probabilities for the closed-form `(p − onehot)/n`.
    Probs(Matrix),
}

struct Node {
    op: Op,
    shape: (usize, usize),
    /// Empty in a shape-only graph, parameters excepted.
    value: Matrix,
    aux: Aux,
}

/// A define-by-run autograd tape. Build one per forward pass.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    grads: Vec<Option<Matrix>>,
    param_vars: HashMap<u64, VarId>,
    shapes_only: bool,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty graph that records ops and shapes but computes
    /// nothing (see the module docs). Parameters keep their values; reading
    /// any other value panics, and so does [`Graph::backward`].
    pub fn shapes_only() -> Self {
        Graph { shapes_only: true, ..Graph::default() }
    }

    /// True for a graph built with [`Graph::shapes_only`]. Recording code
    /// whose only product is an operand of the recorded shape (a neighbor
    /// search, an interpolation stencil) checks this to skip the work.
    pub fn is_shapes_only(&self) -> bool {
        self.shapes_only
    }

    /// Runs an op's eager arithmetic `f`, unless this graph records shapes
    /// only.
    fn eager<T>(&self, f: impl FnOnce(&Graph) -> T) -> Option<T> {
        (!self.shapes_only).then(|| f(self))
    }

    fn push(&mut self, op: Op, value: Option<Matrix>) -> VarId {
        self.push_aux(op, value, Aux::None)
    }

    /// Appends an op node. Its shape is [`Op::out_shape`]'s; an eager value
    /// is checked against that rule in debug builds, so every tape test
    /// also tests the rules a shape-only recording trusts.
    fn push_aux(&mut self, op: Op, value: Option<Matrix>, aux: Aux) -> VarId {
        let shape = match &value {
            Some(value) => {
                debug_assert!(value.is_finite(), "non-finite value produced by {op:?}");
                debug_assert_eq!(
                    op.out_shape(|v| self.shape(v)),
                    Some(value.shape()),
                    "shape rule of {op:?}"
                );
                value.shape()
            }
            None => op.out_shape(|v| self.shape(v)).expect("a leaf records its value"),
        };
        self.push_node(Node { op, shape, value: value.unwrap_or_default(), aux })
    }

    fn push_node(&mut self, node: Node) -> VarId {
        self.nodes.push(node);
        self.grads.push(None);
        VarId::from_index(self.nodes.len() - 1)
    }

    /// The forward value of `v`.
    ///
    /// # Panics
    ///
    /// Panics in a shape-only graph unless `v` is a parameter.
    pub fn value(&self, v: VarId) -> &Matrix {
        self.value_at(v.index())
    }

    /// The `(rows, cols)` of `v`, in either recording mode.
    pub fn shape(&self, v: VarId) -> (usize, usize) {
        self.nodes[v.index()].shape
    }

    /// The recorded op of node `i` — the IR view the plan compiler walks.
    pub fn op_at(&self, i: usize) -> &Op {
        &self.nodes[i].op
    }

    /// The recorded shape of node `i` (shape source for the plan compiler).
    pub fn shape_at(&self, i: usize) -> (usize, usize) {
        self.nodes[i].shape
    }

    /// The recorded value of node `i` (the plan compiler's parameter
    /// snapshot).
    ///
    /// # Panics
    ///
    /// As [`Graph::value`].
    pub fn value_at(&self, i: usize) -> &Matrix {
        let node = &self.nodes[i];
        assert!(
            !self.shapes_only || matches!(node.op, Op::Param { .. }),
            "node {i} has no value: the graph records shapes only"
        );
        &node.value
    }

    /// The accumulated gradient of `v`, if any flowed during `backward`.
    pub fn grad(&self, v: VarId) -> Option<&Matrix> {
        self.grads[v.index()].as_ref()
    }

    /// The gradient of a parameter registered this pass, by param id.
    pub fn param_grad(&self, pid: u64) -> Option<&Matrix> {
        self.param_vars.get(&pid).and_then(|&v| self.grad(v))
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no ops were recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ---- leaves ---------------------------------------------------------

    /// Registers a constant/input value (no gradient).
    pub fn input(&mut self, value: Matrix) -> VarId {
        let shape = value.shape();
        let value = if self.shapes_only { Matrix::default() } else { value };
        self.push_node(Node { op: Op::Input, shape, value, aux: Aux::None })
    }

    /// Registers a parameter's current value. Repeated registration of the
    /// same parameter in one pass returns the same node, so weight sharing
    /// (the paper's shared MLPs) accumulates gradients correctly.
    pub fn param(&mut self, p: &Param) -> VarId {
        if let Some(&v) = self.param_vars.get(&p.id()) {
            return v;
        }
        let (op, shape, value) = (Op::Param { pid: p.id() }, p.value.shape(), p.value.clone());
        let v = self.push_node(Node { op, shape, value, aux: Aux::None });
        self.param_vars.insert(p.id(), v);
        v
    }

    // ---- dense ops ------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.eager(|g| ops::matmul(g.value(a), g.value(b)));
        self.push(Op::MatMul { a, b }, value)
    }

    /// Adds a `1 × cols` bias row to every row.
    pub fn add_bias(&mut self, x: VarId, bias: VarId) -> VarId {
        let value = self.eager(|g| ops::add_bias_row(g.value(x), g.value(bias)));
        self.push(Op::AddBias { x, bias }, value)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.eager(|g| ops::add(g.value(a), g.value(b)));
        self.push(Op::Add { a, b }, value)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.eager(|g| ops::sub(g.value(a), g.value(b)));
        self.push(Op::Sub { a, b }, value)
    }

    /// ReLU.
    pub fn relu(&mut self, x: VarId) -> VarId {
        let value = self.eager(|g| ops::relu(g.value(x)));
        self.push(Op::Relu { x }, value)
    }

    /// Scalar scaling.
    pub fn scale(&mut self, x: VarId, s: f32) -> VarId {
        let value = self.eager(|g| ops::scale(g.value(x), s));
        self.push(Op::Scale { x, s }, value)
    }

    /// Elementwise product of two tape values (both receive gradients via
    /// the product rule: `dy/da = b`, `dy/db = a`).
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn hadamard(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.eager(|g| ops::hadamard(g.value(a), g.value(b)));
        self.push(Op::Hadamard { a, b }, value)
    }

    /// Column concatenation.
    pub fn hstack(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.eager(|g| g.value(a).hstack(g.value(b)));
        self.push(Op::HStack { a, b }, value)
    }

    // ---- irregular (point-cloud) ops -------------------------------------

    /// Row gather by explicit indices (repeats allowed).
    pub fn gather(&mut self, x: VarId, indices: Vec<usize>) -> VarId {
        let value = self.eager(|g| group::gather_rows(g.value(x), &indices));
        self.push(Op::Gather { x, indices }, value)
    }

    /// Subtracts the centroid row from each of its `k` grouped rows —
    /// the original formulation's aggregation (`p_k − p_i`).
    pub fn sub_centroid(&mut self, grouped: VarId, centroids: VarId, k: usize) -> VarId {
        let value = self
            .eager(|g| group::subtract_centroid_per_group(g.value(grouped), g.value(centroids), k));
        self.push(Op::SubCentroid { grouped, centroids, k }, value)
    }

    /// Column-wise max over groups of `k` consecutive rows.
    pub fn group_max(&mut self, x: VarId, k: usize) -> VarId {
        let (value, arg) = self.eager(|g| group::group_max_reduce(g.value(x), k)).unzip();
        self.push_aux(Op::GroupMax { x, k }, value, arg.map_or(Aux::None, Aux::Arg))
    }

    /// Fused gather-and-max over NIT groups (`groups` is a flattened
    /// `n × k` index list into the rows of `x`) — the delayed-aggregation
    /// reduction that never materializes the gathered matrix.
    pub fn gather_max(&mut self, x: VarId, groups: &[usize], k: usize) -> VarId {
        let (value, arg) = self.eager(|g| group::gather_max_reduce(g.value(x), groups, k)).unzip();
        let op = Op::GatherMax { x, groups: groups.to_vec(), k };
        self.push_aux(op, value, arg.map_or(Aux::None, Aux::Arg))
    }

    /// Global column-wise max over all rows (PointNet's symmetric pooling).
    pub fn global_max(&mut self, x: VarId) -> VarId {
        let rows = self.shape(x).0;
        self.group_max(x, rows)
    }

    /// Weighted row interpolation: `out[g] = Σ_j weights[g·k+j] ·
    /// x[indices[g·k+j]]` — PointNet++'s 3-NN feature propagation
    /// (`three_interpolate`, which the paper's baseline moves to the GPU).
    /// Weights are treated as constants (computed from detached distances).
    ///
    /// # Panics
    ///
    /// Panics when `indices.len() != weights.len()` or not a multiple of `k`.
    pub fn weighted_gather(
        &mut self,
        x: VarId,
        indices: Vec<usize>,
        weights: Vec<f32>,
        k: usize,
    ) -> VarId {
        let value = self.eager(|g| group::weighted_gather(g.value(x), &indices, &weights, k));
        self.push(Op::WeightedGather { x, indices, weights, k }, value)
    }

    /// Per-column standardization `(x − mean) · inv_std` with statistics
    /// *detached* from the graph — the simplified batch normalization used
    /// by the trainable networks (a trainable scale/shift follows in
    /// [`crate::layers::FeatureNorm`]). Treating the statistics as constants
    /// keeps the operator linear in `x`, which is also what makes it
    /// compatible with delayed-aggregation's distributivity argument.
    pub fn standardize(&mut self, x: VarId) -> VarId {
        let (value, inv_std) = self
            .eager(|g| {
                let (cols, mut stats, mut value) = (g.shape(x).1, Vec::new(), Matrix::default());
                ops::standardize_into(g.value(x), &mut stats, &mut value);
                (value, Matrix::from_vec(1, cols, stats[cols..].to_vec()))
            })
            .unzip();
        self.push_aux(Op::Standardize { x }, value, inv_std.map_or(Aux::None, Aux::InvStd))
    }

    // ---- losses ----------------------------------------------------------

    /// Mean squared error `mean((pred − target)²)`; the result is `1×1`.
    pub fn mse(&mut self, pred: VarId, target: VarId) -> VarId {
        let value = self.eager(|g| {
            let d = ops::sub(g.value(pred), g.value(target));
            let n = d.len() as f32;
            let loss = d.as_slice().iter().map(|v| v * v).sum::<f32>() / n;
            Matrix::from_vec(1, 1, vec![loss])
        });
        self.push(Op::Mse { pred, target }, value)
    }

    /// Mean softmax cross-entropy between `logits` rows and integer
    /// `labels`; the result is `1×1`.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != logits.rows()` or a label is out of range.
    pub fn softmax_cross_entropy(&mut self, logits: VarId, labels: Vec<u32>) -> VarId {
        let (value, probs) = self
            .eager(|g| {
                let l = g.value(logits);
                assert_eq!(labels.len(), l.rows(), "one label per row");
                let probs = ops::softmax_rows(l);
                let mut loss = 0.0f64;
                for (r, &label) in labels.iter().enumerate() {
                    assert!((label as usize) < l.cols(), "label {label} out of range");
                    loss -= f64::from(probs[(r, label as usize)].max(1e-12)).ln();
                }
                let loss = (loss / labels.len() as f64) as f32;
                (Matrix::from_vec(1, 1, vec![loss]), probs)
            })
            .unzip();
        let op = Op::SoftmaxCrossEntropy { logits, labels };
        self.push_aux(op, value, probs.map_or(Aux::None, Aux::Probs))
    }

    // ---- backward --------------------------------------------------------

    /// Runs reverse-mode differentiation from `root` (normally a `1×1`
    /// loss). Gradients accumulate across fan-out, so weight sharing and
    /// skip connections are handled.
    pub fn backward(&mut self, root: VarId) {
        let seed = Matrix::full(self.value(root).rows(), self.value(root).cols(), 1.0);
        self.grads[root.index()] = Some(seed);
        for i in (0..self.nodes.len()).rev() {
            let Some(grad) = self.grads[i].take() else {
                continue;
            };
            self.propagate(i, &grad);
            self.grads[i] = Some(grad);
        }
    }

    fn accumulate(&mut self, v: VarId, g: Matrix) {
        match &mut self.grads[v.index()] {
            Some(acc) => {
                debug_assert_eq!(acc.shape(), g.shape());
                for (a, &x) in acc.as_mut_slice().iter_mut().zip(g.as_slice()) {
                    *a += x;
                }
            }
            slot @ None => *slot = Some(g),
        }
    }

    fn propagate(&mut self, i: usize, grad: &Matrix) {
        // Split borrows: read values immutably via raw clones where needed.
        match &self.nodes[i].op {
            Op::Input | Op::Param { .. } => {}
            Op::MatMul { a, b } => {
                let (a, b) = (*a, *b);
                let ga = ops::matmul_a_bt(grad, self.value(b));
                let gb = ops::matmul_at_b(self.value(a), grad);
                self.accumulate(a, ga);
                self.accumulate(b, gb);
            }
            Op::AddBias { x, bias } => {
                let (x, bias) = (*x, *bias);
                let gb = ops::sum_rows(grad);
                self.accumulate(x, grad.clone());
                self.accumulate(bias, gb);
            }
            Op::Add { a, b } => {
                let (a, b) = (*a, *b);
                self.accumulate(a, grad.clone());
                self.accumulate(b, grad.clone());
            }
            Op::Sub { a, b } => {
                let (a, b) = (*a, *b);
                self.accumulate(a, grad.clone());
                self.accumulate(b, ops::scale(grad, -1.0));
            }
            Op::Relu { x } => {
                let x = *x;
                let mask = ops::relu_mask(self.value(x));
                self.accumulate(x, ops::hadamard(grad, &mask));
            }
            Op::Hadamard { a, b } => {
                let (a, b) = (*a, *b);
                let ga = ops::hadamard(grad, self.value(b));
                let gb = ops::hadamard(grad, self.value(a));
                self.accumulate(a, ga);
                self.accumulate(b, gb);
            }
            Op::Scale { x, s } => {
                let (x, s) = (*x, *s);
                self.accumulate(x, ops::scale(grad, s));
            }
            Op::Gather { x, indices } => {
                let x = *x;
                let indices = indices.clone();
                let mut acc = Matrix::zeros(self.value(x).rows(), self.value(x).cols());
                group::scatter_add_rows(&mut acc, &indices, grad);
                self.accumulate(x, acc);
            }
            Op::SubCentroid { grouped, centroids, k } => {
                let (grouped, centroids, k) = (*grouped, *centroids, *k);
                // d/d(grouped) = grad; d/d(centroids)[g] = -Σ_k grad rows.
                let mut gc = Matrix::zeros(self.value(centroids).rows(), grad.cols());
                for g in 0..gc.rows() {
                    for r in g * k..(g + 1) * k {
                        for (o, &v) in gc.row_mut(g).iter_mut().zip(grad.row(r)) {
                            *o -= v;
                        }
                    }
                }
                self.accumulate(grouped, grad.clone());
                self.accumulate(centroids, gc);
            }
            Op::GroupMax { x, .. } | Op::GatherMax { x, .. } => {
                let x = *x;
                let Aux::Arg(arg) = &self.nodes[i].aux else {
                    unreachable!("max reductions always cache their argmax")
                };
                let arg = arg.clone();
                let mut acc = Matrix::zeros(self.value(x).rows(), self.value(x).cols());
                group::max_reduce_backward(&mut acc, &arg, grad);
                self.accumulate(x, acc);
            }
            Op::WeightedGather { x, indices, weights, k } => {
                let x = *x;
                let (indices, weights, k) = (indices.clone(), weights.clone(), *k);
                let mut acc = Matrix::zeros(self.value(x).rows(), self.value(x).cols());
                for g in 0..grad.rows() {
                    for j in 0..k {
                        let w = weights[g * k + j];
                        let row = indices[g * k + j];
                        for (c, &gv) in grad.row(g).iter().enumerate() {
                            acc[(row, c)] += w * gv;
                        }
                    }
                }
                self.accumulate(x, acc);
            }
            Op::HStack { a, b } => {
                let (a, b) = (*a, *b);
                let ca = self.value(a).cols();
                let mut ga = Matrix::zeros(grad.rows(), ca);
                let mut gb = Matrix::zeros(grad.rows(), grad.cols() - ca);
                for r in 0..grad.rows() {
                    ga.row_mut(r).copy_from_slice(&grad.row(r)[..ca]);
                    gb.row_mut(r).copy_from_slice(&grad.row(r)[ca..]);
                }
                self.accumulate(a, ga);
                self.accumulate(b, gb);
            }
            Op::Standardize { x } => {
                let x = *x;
                let Aux::InvStd(inv_std) = &self.nodes[i].aux else {
                    unreachable!("standardize always caches inv_std")
                };
                // Statistics are detached: dL/dx = grad · inv_std (per column).
                let mut g = grad.clone();
                for r in 0..g.rows() {
                    for c in 0..g.cols() {
                        g[(r, c)] *= inv_std[(0, c)];
                    }
                }
                self.accumulate(x, g);
            }
            Op::Mse { pred, target } => {
                let (pred, target) = (*pred, *target);
                let d = ops::sub(self.value(pred), self.value(target));
                let n = d.len() as f32;
                let s = 2.0 * grad[(0, 0)] / n;
                let g = ops::scale(&d, s);
                self.accumulate(pred, g.clone());
                self.accumulate(target, ops::scale(&g, -1.0));
            }
            Op::SoftmaxCrossEntropy { logits, labels } => {
                let logits = *logits;
                let Aux::Probs(probs) = &self.nodes[i].aux else {
                    unreachable!("cross-entropy always caches probs")
                };
                let mut g = probs.clone();
                let n = labels.len() as f32;
                let labels = labels.clone();
                for (r, &label) in labels.iter().enumerate() {
                    g[(r, label as usize)] -= 1.0;
                }
                let g = ops::scale(&g, grad[(0, 0)] / n);
                self.accumulate(logits, g);
            }
        }
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph({} nodes, {} params)", self.nodes.len(), self.param_vars.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically checks d(loss)/d(x[r][c]) for every element of `x` against
    /// the autograd result. `build` must construct loss from the given input
    /// node on a fresh graph.
    fn check_input_gradient(x0: Matrix, build: impl Fn(&mut Graph, VarId) -> VarId) {
        let mut g = Graph::new();
        let x = g.input(x0.clone());
        let loss = build(&mut g, x);
        assert_eq!(g.value(loss).shape(), (1, 1), "loss must be scalar");
        g.backward(loss);
        let analytic = g.grad(x).expect("gradient must flow to input").clone();

        let eps = 1e-3f32;
        for r in 0..x0.rows() {
            for c in 0..x0.cols() {
                let mut xp = x0.clone();
                xp[(r, c)] += eps;
                let mut gp = Graph::new();
                let xv = gp.input(xp);
                let lp = build(&mut gp, xv);
                let fp = gp.value(lp)[(0, 0)];

                let mut xm = x0.clone();
                xm[(r, c)] -= eps;
                let mut gm = Graph::new();
                let xv = gm.input(xm);
                let lm = build(&mut gm, xv);
                let fm = gm.value(lm)[(0, 0)];

                let numeric = (fp - fm) / (2.0 * eps);
                let got = analytic[(r, c)];
                assert!(
                    (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "grad mismatch at ({r},{c}): analytic {got}, numeric {numeric}"
                );
            }
        }
    }

    /// One forward touching every op of the IR, recorded on `g`; returns
    /// the parameter's node.
    fn every_op(g: &mut Graph, p: &Param) -> VarId {
        let x = g.input(Matrix::from_fn(6, 3, |r, c| (r * 3 + c) as f32 * 0.1 - 0.4));
        let w = g.param(p);
        let bias = g.input(Matrix::from_fn(1, 4, |_, c| c as f32 * 0.05));
        let y = g.matmul(x, w);
        let y = g.add_bias(y, bias);
        let y = g.relu(y);
        let z = g.scale(y, 0.5);
        let z = g.add(y, z);
        let z = g.sub(z, y);
        let z = g.hadamard(z, y);
        let z = g.hstack(z, x);
        let grouped = g.gather(z, vec![0, 2, 4, 1, 3, 5]);
        let centroids = g.gather(z, vec![0, 1, 2]);
        let offsets = g.sub_centroid(grouped, centroids, 2);
        let reduced = g.group_max(offsets, 2);
        let fused = g.gather_max(z, &[0, 1, 2, 3, 4, 5], 3);
        let _ = g.global_max(fused);
        let lifted = g.weighted_gather(z, vec![0, 1, 2, 3, 4, 5], vec![0.2; 6], 3);
        let normed = g.standardize(reduced);
        let target = g.input(Matrix::zeros(2, 7));
        let _ = g.mse(lifted, target);
        let _ = g.softmax_cross_entropy(normed, vec![0, 6, 3]);
        w
    }

    #[test]
    fn shape_rules_match_the_eager_values_of_every_op() {
        let p = Param::new(Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.1));
        let (mut eager, mut shapes) = (Graph::new(), Graph::shapes_only());
        every_op(&mut eager, &p);
        let w = every_op(&mut shapes, &p);
        assert_eq!(eager.len(), shapes.len());
        for i in 0..eager.len() {
            let op = eager.op_at(i);
            assert_eq!(shapes.shape_at(i), eager.value_at(i).shape(), "node {i}: {op:?}");
            assert_eq!(eager.shape_at(i), eager.value_at(i).shape(), "node {i}: {op:?}");
        }
        let kinds: std::collections::HashSet<_> =
            (0..eager.len()).map(|i| std::mem::discriminant(eager.op_at(i))).collect();
        assert_eq!(kinds.len(), 18, "every op variant is recorded");
        assert_eq!(shapes.value(w), &p.value, "parameters keep their values");
    }

    #[test]
    #[should_panic(expected = "has no value: the graph records shapes only")]
    fn a_shape_only_graph_keeps_no_op_values() {
        let mut g = Graph::shapes_only();
        let x = g.input(Matrix::zeros(2, 3));
        let y = g.relu(x);
        let _ = g.value(y);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn a_shape_only_graph_panics_where_the_tape_does() {
        let mut g = Graph::shapes_only();
        let a = g.input(Matrix::zeros(2, 3));
        let _ = g.matmul(a, a);
    }

    #[test]
    #[should_panic(expected = "gather index 4 out of bounds for 4 rows")]
    fn a_shape_only_gather_checks_its_indices() {
        let mut g = Graph::shapes_only();
        let x = g.input(Matrix::zeros(4, 2));
        let _ = g.gather(x, vec![0, 4]);
    }

    #[test]
    fn matmul_gradient_matches_numeric() {
        let w = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.25], &[-0.75, 1.5]]);
        check_input_gradient(Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.3 - 0.4), |g, x| {
            let wv = g.input(w.clone());
            let y = g.matmul(x, wv);
            let t = g.input(Matrix::zeros(2, 2));
            g.mse(y, t)
        });
    }

    #[test]
    fn relu_bias_chain_gradient() {
        let bias = Matrix::from_rows(&[&[0.1, -0.2]]);
        check_input_gradient(Matrix::from_fn(3, 2, |r, c| r as f32 - c as f32 + 0.35), |g, x| {
            let b = g.input(bias.clone());
            let y = g.add_bias(x, b);
            let y = g.relu(y);
            let t = g.input(Matrix::full(3, 2, 0.5));
            g.mse(y, t)
        });
    }

    #[test]
    fn gather_and_group_max_gradient() {
        // gather rows then grouped max: gradient reaches only winning rows.
        check_input_gradient(Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32 * 0.21), |g, x| {
            let gathered = g.gather(x, vec![0, 3, 1, 2, 2, 0]);
            let reduced = g.group_max(gathered, 3);
            let t = g.input(Matrix::zeros(2, 2));
            g.mse(reduced, t)
        });
    }

    #[test]
    fn gather_max_fused_matches_unfused_gradients() {
        let x0 = Matrix::from_fn(5, 3, |r, c| ((r * 13 + c * 7) % 9) as f32 * 0.17 - 0.5);
        let groups = vec![0usize, 2, 4, 1, 3, 3];
        // Unfused: gather then group_max.
        let mut g1 = Graph::new();
        let x1 = g1.input(x0.clone());
        let gathered = g1.gather(x1, groups.clone());
        let red1 = g1.group_max(gathered, 3);
        let t1 = g1.input(Matrix::zeros(2, 3));
        let l1 = g1.mse(red1, t1);
        g1.backward(l1);
        // Fused.
        let mut g2 = Graph::new();
        let x2 = g2.input(x0.clone());
        let red2 = g2.gather_max(x2, &groups, 3);
        let t2 = g2.input(Matrix::zeros(2, 3));
        let l2 = g2.mse(red2, t2);
        g2.backward(l2);

        assert_eq!(g1.value(red1), g2.value(red2));
        assert_eq!(g1.grad(x1), g2.grad(x2));
    }

    #[test]
    fn sub_centroid_gradient() {
        let centroid_src = Matrix::from_rows(&[&[0.3, -0.6]]);
        check_input_gradient(Matrix::from_fn(4, 2, |r, c| (r + c) as f32 * 0.4 - 0.7), |g, x| {
            let c = g.input(centroid_src.clone());
            // 2 groups of k=2, one shared centroid row gathered twice
            let cents = g.gather(c, vec![0, 0]);
            let y = g.sub_centroid(x, cents, 2);
            let t = g.input(Matrix::full(4, 2, 0.1));
            g.mse(y, t)
        });
    }

    #[test]
    fn weighted_gather_gradient() {
        check_input_gradient(Matrix::from_fn(4, 2, |r, c| (r * 3 + c) as f32 * 0.11), |g, x| {
            let y =
                g.weighted_gather(x, vec![0, 1, 2, 1, 2, 3], vec![0.2, 0.3, 0.5, 0.6, 0.1, 0.3], 3);
            let t = g.input(Matrix::zeros(2, 2));
            g.mse(y, t)
        });
    }

    #[test]
    fn hstack_gradient_splits() {
        let right = Matrix::from_rows(&[&[1.0], &[2.0]]);
        check_input_gradient(Matrix::from_fn(2, 2, |r, c| (r + 2 * c) as f32 * 0.5), |g, x| {
            let b = g.input(right.clone());
            let y = g.hstack(x, b);
            let t = g.input(Matrix::zeros(2, 3));
            g.mse(y, t)
        });
    }

    #[test]
    fn cross_entropy_gradient_is_probs_minus_onehot() {
        let mut g = Graph::new();
        let logits = g.input(Matrix::from_rows(&[&[2.0, 0.0, -1.0], &[0.0, 0.0, 0.0]]));
        let loss = g.softmax_cross_entropy(logits, vec![0, 2]);
        g.backward(loss);
        let grad = g.grad(logits).unwrap();
        let probs = ops::softmax_rows(g.value(logits));
        let n = 2.0;
        for r in 0..2 {
            for c in 0..3 {
                let onehot = if (r == 0 && c == 0) || (r == 1 && c == 2) { 1.0 } else { 0.0 };
                let want = (probs[(r, c)] - onehot) / n;
                assert!((grad[(r, c)] - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn shared_parameter_accumulates_gradient() {
        // Using the same Param twice must route both gradient contributions
        // to one node — the shared-MLP situation.
        let p = Param::new(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let mut g = Graph::new();
        let w1 = g.param(&p);
        let w2 = g.param(&p);
        assert_eq!(w1, w2, "same param registers one node");
        let x = g.input(Matrix::from_rows(&[&[1.0, 2.0]]));
        let y1 = g.matmul(x, w1);
        let y2 = g.matmul(x, w2);
        let y = g.add(y1, y2);
        let t = g.input(Matrix::zeros(1, 2));
        let loss = g.mse(y, t);
        g.backward(loss);
        let grad_shared = g.param_grad(p.id()).unwrap().clone();

        // Reference: single use scaled by 2 gives the same gradient.
        let mut g2 = Graph::new();
        let w = g2.param(&p);
        let x = g2.input(Matrix::from_rows(&[&[1.0, 2.0]]));
        let y = g2.matmul(x, w);
        let y = g2.scale(y, 2.0);
        let t = g2.input(Matrix::zeros(1, 2));
        let loss = g2.mse(y, t);
        g2.backward(loss);
        let grad_scaled = g2.param_grad(p.id()).unwrap();
        let diff = ops::sub(&grad_shared, grad_scaled).max_abs();
        assert!(diff < 1e-5, "shared-use gradient must equal scaled single use");
    }

    #[test]
    fn standardize_produces_zero_mean_unit_var() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(64, 3, |r, c| (r * (c + 1)) as f32));
        let y = g.standardize(x);
        let (mean, var) = ops::column_stats(g.value(y));
        for c in 0..3 {
            assert!(mean[(0, c)].abs() < 1e-4);
            assert!((var[(0, c)] - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn standardize_gradient_is_scaled_passthrough() {
        // Stats are detached by design, so the gradient is exactly
        // grad_out · inv_std per column (not the full batch-norm Jacobian).
        let x0 = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let (_, var) = ops::column_stats(&x0);
        let mut g = Graph::new();
        let x = g.input(x0);
        let y = g.standardize(x);
        let t = g.input(Matrix::zeros(4, 2));
        let loss = g.mse(y, t);
        g.backward(loss);
        let gy = g.grad(y).unwrap().clone();
        let gx = g.grad(x).unwrap().clone();
        for r in 0..4 {
            for c in 0..2 {
                let inv_std = 1.0 / (var[(0, c)] + 1e-5).sqrt();
                assert!((gx[(r, c)] - gy[(r, c)] * inv_std).abs() < 1e-6);
            }
        }
    }
}
