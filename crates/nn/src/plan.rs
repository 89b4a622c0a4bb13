//! Plan-and-execute inference: compile a recorded op sequence into an
//! immutable [`Plan`] whose constants and intermediates live in a reusable
//! [`Arena`].
//!
//! The autograd tape re-allocates every intermediate on every forward pass
//! — the right trade for training (values must outlive the pass for the
//! backward walk), pure waste for inference. A `Plan` is built *once* per
//! (network, strategy, input shape) from a recorded [`Graph`]:
//!
//! 1. dead code is eliminated (ops the requested outputs never read, e.g.
//!    the detection heads when only segmentation logits are wanted);
//! 2. a liveness analysis finds each value's last use;
//! 3. every live value is assigned a slot in the arena, slots being reused
//!    as soon as their previous occupant dies — two simultaneously-live
//!    values never alias, and an op's output never aliases its inputs.
//!
//! Steady-state execution then performs **zero heap allocation**: every op
//! writes into its preassigned slot through the `_into` kernels of
//! `mesorasi-tensor`, which are the same kernels the tape calls, so planned
//! `f32` values are bit-identical to tape values at every thread count.
//!
//! The executor is generic over the arena's [`Element`] type: the plan —
//! schedule, slot assignment, per-sample [`Bindings`] — is one structure,
//! and an [`Arena<f64>`](Arena) replays it through the same kernels in
//! double precision. Per-sample `f32` data crosses into `T` at
//! [`Op::Input`] nodes and stencil weights; everything downstream
//! accumulates in `T`.
//!
//! Per-sample variability (input matrices, neighbor-search index lists,
//! interpolation stencils) enters through [`Bindings`], produced by the
//! engine layer in `mesorasi-core` — this module knows nothing about point
//! clouds, only that some index operands are dynamic.

use crate::graph::Graph;
use crate::ir::{Op, VarId};
use mesorasi_tensor::{group, ops, Element, Mat, Matrix};
use std::collections::HashMap;

/// Marks ops of a recorded graph whose index operands are per-sample
/// values (derived from neighbor searches) rather than network structure.
/// Produced by the recording layer, consumed by [`Plan::from_graph`].
#[derive(Debug, Default, Clone)]
pub struct DynMarks {
    /// Node index → index-binding id ([`Op::Gather`] indices or
    /// [`Op::GatherMax`] groups).
    pub indices: HashMap<usize, usize>,
    /// Node index → stencil-binding id ([`Op::WeightedGather`] indices and
    /// weights).
    pub stencils: HashMap<usize, usize>,
    /// Total number of index bindings allocated by the recorder.
    pub n_index: usize,
    /// Total number of stencil bindings allocated by the recorder.
    pub n_stencil: usize,
}

/// Per-sample dynamic values for one plan execution. Reused across samples
/// (the vectors keep their capacity), and cacheable per sample so repeated
/// inference on the same input re-derives nothing.
#[derive(Debug, Default, Clone)]
pub struct Bindings {
    /// One matrix per live [`Op::Input`] node, in plan input order.
    pub inputs: Vec<Matrix>,
    /// Index vectors, addressed by index-binding id.
    pub indices: Vec<Vec<usize>>,
    /// `(indices, weights)` stencils, addressed by stencil-binding id.
    pub stencils: Vec<(Vec<usize>, Vec<f32>)>,
}

impl Bindings {
    /// Empty bindings sized for `plan`.
    pub fn for_plan(plan: &Plan) -> Bindings {
        Bindings {
            inputs: vec![Matrix::zeros(0, 0); plan.n_inputs],
            indices: vec![Vec::new(); plan.n_index_bindings],
            stencils: vec![(Vec::new(), Vec::new()); plan.n_stencil_bindings],
        }
    }
}

/// Where a node's value lives during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// An arena slot (per-sample data, recomputed every run).
    Slot(usize),
    /// A plan constant (parameter snapshot, copied once at compile time).
    Const(usize),
    /// Eliminated: the requested outputs never read this value.
    Dead,
}

/// Per-node compile results.
#[derive(Debug, Clone)]
struct NodePlan {
    loc: Loc,
    rows: usize,
    cols: usize,
    /// For live `Input` nodes: position in [`Bindings::inputs`].
    input_idx: Option<usize>,
    /// Dynamic index binding, if the recorder marked one.
    index_bid: Option<usize>,
    /// Dynamic stencil binding, if the recorder marked one.
    stencil_bid: Option<usize>,
}

/// Usage statistics of a plan + arena pair, for the bench report.
#[derive(Debug, Clone, Copy)]
pub struct ArenaStats {
    /// Number of physical buffers backing all intermediates.
    pub slots: usize,
    /// Number of live values that were assigned to those buffers.
    pub values: usize,
    /// Total bytes the arena holds (sum of slot capacities).
    pub peak_bytes: usize,
    /// `values / slots` — how many intermediates share one buffer on
    /// average (1.0 means no reuse).
    pub reuse_ratio: f64,
    /// Times a slot had to grow beyond its planned capacity during
    /// execution — 0 in steady state.
    pub grow_events: usize,
}

/// The execution state for one plan in element type `T`: the plan's
/// constants in `T` (so the plan itself stays element-type-free), one
/// reusable buffer per slot, and a scratch vector for statistics.
/// [`Plan::from_graph`] returns the native `f32` arena; [`Arena::cast`]
/// derives one in another element type. After the first execution it
/// stops allocating.
#[derive(Debug)]
pub struct Arena<T: Element> {
    /// Parameter snapshots, addressed by `Loc::Const`.
    params: Vec<Mat<T>>,
    /// Live [`Op::MulConst`] node index → mask.
    masks: HashMap<usize, Mat<T>>,
    slots: Vec<Mat<T>>,
    scratch: Vec<T>,
    grow_events: usize,
}

impl<T: Element> Arena<T> {
    /// Times any slot grew beyond its planned capacity (0 in steady state).
    pub fn grow_events(&self) -> usize {
        self.grow_events
    }

    /// Total bytes currently reserved for intermediates (slots + scratch).
    pub fn peak_bytes(&self) -> usize {
        let elems: usize =
            self.slots.iter().map(Mat::capacity).sum::<usize>() + self.scratch.capacity();
        elems * std::mem::size_of::<T>()
    }

    /// Bytes held by this arena's copy of the plan's constants.
    pub fn const_bytes(&self) -> usize {
        self.params.iter().chain(self.masks.values()).map(Mat::size_bytes).sum()
    }

    /// A fresh arena for the same plan in element type `U`: constants
    /// converted once (exact when widening), empty slots at this arena's
    /// capacities.
    pub fn cast<U: Element>(&self) -> Arena<U> {
        Arena {
            params: self.params.iter().map(Mat::cast_from).collect(),
            masks: self.masks.iter().map(|(&i, m)| (i, Mat::cast_from(m))).collect(),
            slots: self.slots.iter().map(|s| Mat::with_capacity(s.capacity())).collect(),
            scratch: Vec::new(),
            grow_events: 0,
        }
    }
}

/// An immutable, liveness-planned execution schedule for one recorded
/// forward pass. See the module docs for the lifecycle.
#[derive(Debug)]
pub struct Plan {
    ops: Vec<Op>,
    nodes: Vec<NodePlan>,
    /// Planned element capacity per slot.
    slot_elems: Vec<usize>,
    outputs: Vec<usize>,
    n_inputs: usize,
    n_index_bindings: usize,
    n_stencil_bindings: usize,
    /// Live values assigned to slots (numerator of the reuse ratio).
    slot_values: usize,
}

impl Plan {
    /// Compiles the recorded graph into a plan producing `outputs`, plus
    /// the native arena holding the graph's parameter values. `marks` names
    /// the ops whose index operands are per-sample dynamic.
    ///
    /// # Panics
    ///
    /// Panics when `outputs` is empty or references a node the graph does
    /// not have.
    pub fn from_graph(g: &Graph, outputs: &[VarId], marks: &DynMarks) -> (Plan, Arena<f32>) {
        let n = g.len();
        assert!(!outputs.is_empty(), "a plan needs at least one output");
        for o in outputs {
            assert!(o.index() < n, "output {} out of range ({n} nodes)", o.index());
        }

        // Dead-code elimination: walk backwards from the outputs.
        let mut live = vec![false; n];
        for o in outputs {
            live[o.index()] = true;
        }
        for i in (0..n).rev() {
            if live[i] {
                g.op_at(i).for_each_operand(|v| live[v.index()] = true);
            }
        }

        // Liveness: last op index that reads each value.
        let mut last_use = vec![0usize; n];
        for (i, lu) in last_use.iter_mut().enumerate() {
            *lu = i;
        }
        for (i, &is_live) in live.iter().enumerate() {
            if is_live {
                g.op_at(i).for_each_operand(|v| last_use[v.index()] = i);
            }
        }
        for o in outputs {
            last_use[o.index()] = usize::MAX;
        }

        // Slot assignment: a free-list scan over the SSA sequence. Operand
        // slots are released only *after* the defining op claimed its own
        // slot, so an op never writes over a value it is still reading.
        let mut params: Vec<Matrix> = Vec::new();
        let mut slot_elems: Vec<usize> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut nodes: Vec<NodePlan> = Vec::with_capacity(n);
        let mut n_inputs = 0usize;
        let mut slot_values = 0usize;
        for (i, &is_live) in live.iter().enumerate() {
            let op = g.op_at(i);
            let (rows, cols) = g.value_at(i).shape();
            let mut input_idx = None;
            let loc = if !is_live {
                Loc::Dead
            } else if let Op::Param { .. } = op {
                params.push(g.value_at(i).clone());
                Loc::Const(params.len() - 1)
            } else {
                if matches!(op, Op::Input) {
                    input_idx = Some(n_inputs);
                    n_inputs += 1;
                }
                let elems = rows * cols;
                let slot = match free.pop() {
                    Some(s) => {
                        slot_elems[s] = slot_elems[s].max(elems);
                        s
                    }
                    None => {
                        slot_elems.push(elems);
                        slot_elems.len() - 1
                    }
                };
                slot_values += 1;
                Loc::Slot(slot)
            };
            nodes.push(NodePlan {
                loc,
                rows,
                cols,
                input_idx,
                index_bid: marks.indices.get(&i).copied(),
                stencil_bid: marks.stencils.get(&i).copied(),
            });
            if is_live {
                op.for_each_operand(|v| {
                    let vi = v.index();
                    if last_use[vi] == i {
                        if let Loc::Slot(s) = nodes[vi].loc {
                            // A value may be read several times by one op
                            // (e.g. `hadamard(x, x)`): free its slot once.
                            if !free.contains(&s) {
                                free.push(s);
                            }
                        }
                    }
                });
            }
        }

        // Dead nodes are never executed or operand-walked, so a cheap
        // placeholder replaces them — an eliminated branch's index vectors
        // would otherwise be retained for the plan's whole lifetime. Masks
        // move to the arena's constants (one copy per element type).
        let mut masks = HashMap::new();
        let ops = live
            .iter()
            .enumerate()
            .map(|(i, &is_live)| match g.op_at(i) {
                _ if !is_live => Op::Input,
                Op::MulConst { x, mask } => {
                    masks.insert(i, mask.clone());
                    Op::MulConst { x: *x, mask: Matrix::default() }
                }
                op => op.clone(),
            })
            .collect();
        let arena = Arena {
            params,
            masks,
            slots: slot_elems.iter().map(|&e| Matrix::with_capacity(e)).collect(),
            scratch: Vec::new(),
            grow_events: 0,
        };
        let plan = Plan {
            ops,
            nodes,
            slot_elems,
            outputs: outputs.iter().map(|o| o.index()).collect(),
            n_inputs,
            n_index_bindings: marks.n_index,
            n_stencil_bindings: marks.n_stencil,
            slot_values,
        };
        (plan, arena)
    }

    /// Number of nodes (live and dead) in the plan.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for a plan with no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of live input nodes (the length [`Bindings::inputs`] must
    /// have).
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Position of node `i` in [`Bindings::inputs`], when it is a live
    /// input.
    pub fn input_position(&self, i: usize) -> Option<usize> {
        self.nodes[i].input_idx
    }

    /// True when node `i` survived dead-code elimination.
    pub fn is_live(&self, i: usize) -> bool {
        !matches!(self.nodes[i].loc, Loc::Dead)
    }

    /// The recorded shape of node `i`.
    pub fn shape(&self, i: usize) -> (usize, usize) {
        (self.nodes[i].rows, self.nodes[i].cols)
    }

    /// Usage statistics for the bench report.
    pub fn stats<T: Element>(&self, arena: &Arena<T>) -> ArenaStats {
        ArenaStats {
            slots: self.slot_elems.len(),
            values: self.slot_values,
            peak_bytes: arena.peak_bytes(),
            reuse_ratio: if self.slot_elems.is_empty() {
                1.0
            } else {
                self.slot_values as f64 / self.slot_elems.len() as f64
            },
            grow_events: arena.grow_events,
        }
    }

    /// The value of `v` after execution reached past its definition.
    ///
    /// # Panics
    ///
    /// Panics when `v` was eliminated as dead code.
    pub fn value<'a, T: Element>(&self, arena: &'a Arena<T>, v: VarId) -> &'a Mat<T> {
        match self.nodes[v.index()].loc {
            Loc::Slot(s) => &arena.slots[s],
            Loc::Const(c) => &arena.params[c],
            Loc::Dead => panic!("node {} was eliminated as dead code", v.index()),
        }
    }

    /// The `idx`-th requested output.
    pub fn output<'a, T: Element>(&self, arena: &'a Arena<T>, idx: usize) -> &'a Mat<T> {
        self.value(arena, VarId::from_index(self.outputs[idx]))
    }

    /// Number of requested outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Executes the whole plan against `arena` with `bindings`, in the
    /// arena's element type. The same per-sample `bindings` serve every
    /// element type.
    pub fn run<T: Element>(&self, arena: &mut Arena<T>, bindings: &Bindings) {
        self.run_range(arena, bindings, 0, self.ops.len());
    }

    /// Executes nodes `lo..hi` — the engine layer interleaves these ranges
    /// with its dynamic (search) steps.
    ///
    /// # Panics
    ///
    /// Panics when bindings disagree with the recorded shapes.
    pub fn run_range<T: Element>(
        &self,
        arena: &mut Arena<T>,
        bindings: &Bindings,
        lo: usize,
        hi: usize,
    ) {
        for i in lo..hi {
            self.exec_node(i, arena, bindings);
        }
    }

    fn exec_node<T: Element>(&self, i: usize, arena: &mut Arena<T>, bind: &Bindings) {
        let node = &self.nodes[i];
        let out_slot = match node.loc {
            Loc::Slot(s) => s,
            // Params were materialized at compile time; dead code never runs.
            Loc::Const(_) | Loc::Dead => return,
        };
        let mut out = std::mem::take(&mut arena.slots[out_slot]);
        let cap_before = out.capacity();
        match &self.ops[i] {
            Op::Param { .. } => unreachable!("params are consts"),
            Op::Input => {
                let src = &bind.inputs[node.input_idx.expect("live inputs are indexed")];
                assert_eq!(
                    src.shape(),
                    (node.rows, node.cols),
                    "input {i} shape changed since the plan was recorded"
                );
                out.copy_cast_from(src);
            }
            Op::MatMul { a, b } => {
                ops::matmul_into(self.value(arena, *a), self.value(arena, *b), &mut out);
            }
            Op::AddBias { x, bias } => {
                ops::add_bias_row_into(self.value(arena, *x), self.value(arena, *bias), &mut out);
            }
            Op::Add { a, b } => {
                ops::add_into(self.value(arena, *a), self.value(arena, *b), &mut out);
            }
            Op::Sub { a, b } => {
                ops::sub_into(self.value(arena, *a), self.value(arena, *b), &mut out);
            }
            Op::Relu { x } => ops::relu_into(self.value(arena, *x), &mut out),
            Op::Hadamard { a, b } => {
                ops::hadamard_into(self.value(arena, *a), self.value(arena, *b), &mut out);
            }
            Op::MulConst { x, .. } => {
                ops::hadamard_into(self.value(arena, *x), &arena.masks[&i], &mut out);
            }
            Op::Scale { x, s } => {
                ops::scale_into(self.value(arena, *x), T::from_f64(f64::from(*s)), &mut out);
            }
            Op::Gather { x, indices } => {
                let idx = node.index_bid.map_or(&indices[..], |bid| &bind.indices[bid]);
                assert_eq!(idx.len(), indices.len(), "dynamic gather length changed");
                group::gather_rows_into(self.value(arena, *x), idx, &mut out);
            }
            Op::SubCentroid { grouped, centroids, k } => {
                group::subtract_centroid_per_group_into(
                    self.value(arena, *grouped),
                    self.value(arena, *centroids),
                    *k,
                    &mut out,
                );
            }
            Op::GroupMax { x, k } => group::group_max_into(self.value(arena, *x), *k, &mut out),
            Op::GatherMax { x, groups, k } => {
                let idx = node.index_bid.map_or(&groups[..], |bid| &bind.indices[bid]);
                assert_eq!(idx.len(), groups.len(), "dynamic group length changed");
                group::gather_max_into(self.value(arena, *x), idx, *k, &mut out);
            }
            Op::WeightedGather { x, indices, weights, k } => {
                let (idx, w) = match node.stencil_bid {
                    Some(bid) => {
                        let (i, w) = &bind.stencils[bid];
                        (&i[..], &w[..])
                    }
                    None => (&indices[..], &weights[..]),
                };
                assert_eq!(idx.len(), indices.len(), "dynamic stencil length changed");
                group::weighted_gather_into(self.value(arena, *x), idx, w, *k, &mut out);
            }
            Op::HStack { a, b } => {
                self.value(arena, *a).hstack_into(self.value(arena, *b), &mut out);
            }
            Op::Standardize { x } => {
                let mut scratch = std::mem::take(&mut arena.scratch);
                ops::standardize_into(self.value(arena, *x), &mut scratch, &mut out);
                arena.scratch = scratch;
            }
            // Losses are replayed for completeness (a plan may be asked for
            // a recorded loss); in `f32` the arithmetic mirrors the tape's
            // exactly.
            Op::Mse { pred, target } => {
                let (p, t) = (self.value(arena, *pred), self.value(arena, *target));
                assert_eq!(p.shape(), t.shape(), "mse shape mismatch");
                let n = T::from_f64(p.len() as f64);
                let loss = p
                    .as_slice()
                    .iter()
                    .zip(t.as_slice())
                    .map(|(&a, &b)| (a - b) * (a - b))
                    .sum::<T>()
                    / n;
                out.reset_shape(1, 1);
                out[(0, 0)] = loss;
            }
            Op::SoftmaxCrossEntropy { logits, labels } => {
                let l = self.value(arena, *logits);
                assert_eq!(labels.len(), l.rows(), "one label per row");
                let mut loss = 0.0f64;
                for (r, &label) in labels.iter().enumerate() {
                    let row = l.row(r);
                    let max = row.iter().copied().fold(T::NEG_INFINITY, T::max);
                    // Same exp/accumulate order as `ops::softmax_rows`, so
                    // the probability of the labelled class is bit-identical.
                    let mut sum = T::ZERO;
                    let mut p_label = T::ZERO;
                    for (c, &v) in row.iter().enumerate() {
                        let e = (v - max).exp();
                        sum += e;
                        if c == label as usize {
                            p_label = e;
                        }
                    }
                    loss -= (p_label / sum).max(T::from_f64(1e-12)).to_f64().ln();
                }
                out.reset_shape(1, 1);
                out[(0, 0)] = T::from_f64(loss / labels.len() as f64);
            }
        }
        debug_assert_eq!(
            out.shape(),
            (node.rows, node.cols),
            "node {i} produced a shape differing from the recording"
        );
        if out.capacity() > cap_before {
            arena.grow_events += 1;
        }
        arena.slots[out_slot] = out;
    }

    /// Verifies the slot assignment against the liveness intervals: no two
    /// values whose live ranges overlap may share a slot, and no op's
    /// output slot may equal one of its input slots. Used by tests; cheap
    /// enough to run on any plan.
    pub fn check_no_aliasing(&self) {
        let n = self.ops.len();
        let mut last_use = vec![0usize; n];
        for (i, lu) in last_use.iter_mut().enumerate() {
            *lu = i;
        }
        for (i, op) in self.ops.iter().enumerate() {
            if self.is_live(i) {
                op.for_each_operand(|v| last_use[v.index()] = i);
            }
        }
        for &o in &self.outputs {
            last_use[o] = usize::MAX;
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let Loc::Slot(si) = node.loc else { continue };
            // Output/input aliasing within one op.
            self.ops[i].for_each_operand(|v| {
                if let Loc::Slot(sv) = self.nodes[v.index()].loc {
                    assert_ne!(si, sv, "op {i} writes slot {si} while reading it");
                }
            });
            // Pairwise interval overlap on the same slot.
            for j in i + 1..n {
                let Loc::Slot(sj) = self.nodes[j].loc else { continue };
                if si == sj {
                    assert!(
                        last_use[i] <= j,
                        "values {i} (live to {}) and {j} share slot {si} while both live",
                        last_use[i]
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{NormMode, SharedMlp};

    /// Records a small MLP forward over `x` and returns (graph, out).
    fn record_mlp(x: &Matrix) -> (Graph, VarId, SharedMlp) {
        let mut rng = mesorasi_pointcloud::seeded_rng(7);
        let mlp = SharedMlp::new(&[4, 8, 3], NormMode::Feature, true, &mut rng);
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let y = mlp.forward(&mut g, xv);
        (g, y, mlp)
    }

    fn input_bindings(plan: &Plan, x: &Matrix) -> Bindings {
        let mut b = Bindings::for_plan(plan);
        b.inputs[0] = x.clone();
        b
    }

    #[test]
    fn replay_matches_tape_bitwise() {
        let x = Matrix::from_fn(10, 4, |r, c| ((r * 5 + c) as f32 * 0.37).sin());
        let (g, y, _mlp) = record_mlp(&x);
        let (plan, mut arena) = Plan::from_graph(&g, &[y], &DynMarks::default());
        plan.check_no_aliasing();
        let b = input_bindings(&plan, &x);
        plan.run(&mut arena, &b);
        assert_eq!(plan.output(&arena, 0), g.value(y), "planned values must be bit-identical");
    }

    #[test]
    fn replay_on_fresh_data_matches_fresh_tape() {
        let x0 = Matrix::from_fn(10, 4, |r, c| ((r + c) as f32 * 0.21).cos());
        let (g, y, mlp) = record_mlp(&x0);
        let (plan, mut arena) = Plan::from_graph(&g, &[y], &DynMarks::default());

        // A different sample through the same plan must equal a fresh tape.
        let x1 = Matrix::from_fn(10, 4, |r, c| ((r * 3 + c) as f32 * 0.11).sin());
        let b = input_bindings(&plan, &x1);
        plan.run(&mut arena, &b);
        let mut g2 = Graph::new();
        let xv = g2.input(x1.clone());
        let y2 = mlp.forward(&mut g2, xv);
        assert_eq!(plan.output(&arena, 0), g2.value(y2));
    }

    #[test]
    fn steady_state_never_grows_slots() {
        let x = Matrix::from_fn(16, 4, |r, c| (r as f32 - c as f32) * 0.09);
        let (g, y, _mlp) = record_mlp(&x);
        let (plan, mut arena) = Plan::from_graph(&g, &[y], &DynMarks::default());
        let b = input_bindings(&plan, &x);
        for _ in 0..3 {
            plan.run(&mut arena, &b);
        }
        assert_eq!(arena.grow_events(), 0, "planned capacities must cover execution");
        let stats = plan.stats(&arena);
        assert!(stats.reuse_ratio > 1.0, "a deep chain must reuse slots, got {stats:?}");
        assert!(stats.peak_bytes > 0);
    }

    #[test]
    fn dead_code_is_eliminated_and_skipped() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(4, 4, |r, c| (r + c) as f32));
        let used = g.relu(x);
        let dead = g.scale(x, 2.0);
        let dead2 = g.relu(dead);
        let (plan, mut arena) = Plan::from_graph(&g, &[used], &DynMarks::default());
        assert!(plan.is_live(used.index()));
        assert!(!plan.is_live(dead.index()) && !plan.is_live(dead2.index()));
        let b = input_bindings(&plan, g.value(x));
        plan.run(&mut arena, &b);
        assert_eq!(plan.output(&arena, 0), g.value(used));
    }

    #[test]
    fn dynamic_index_binding_overrides_recorded_indices() {
        let src = Matrix::from_fn(6, 3, |r, c| (r * 3 + c) as f32);
        let mut g = Graph::new();
        let x = g.input(src.clone());
        let gathered = g.gather(x, vec![0, 1, 2]);
        let marks = DynMarks {
            indices: HashMap::from([(gathered.index(), 0)]),
            stencils: HashMap::new(),
            n_index: 1,
            n_stencil: 0,
        };
        let (plan, mut arena) = Plan::from_graph(&g, &[gathered], &marks);
        let mut b = input_bindings(&plan, &src);
        b.indices[0] = vec![5, 4, 3];
        plan.run(&mut arena, &b);
        let want = group::gather_rows(&src, &[5, 4, 3]);
        assert_eq!(plan.output(&arena, 0), &want);
        // The same bindings drive an f64 replay.
        let mut wide = arena.cast::<f64>();
        plan.run(&mut wide, &b);
        assert_eq!(plan.output(&wide, 0), &Mat::cast_from(&want));
    }

    /// Records one dynamic op over a 6 × 3 input — index binding 0, or
    /// stencil binding 0 — and replays it with the bindings `edit` leaves.
    fn replay_dynamic(
        stencil: bool,
        record: impl FnOnce(&mut Graph, VarId) -> VarId,
        edit: impl FnOnce(&mut Bindings),
    ) {
        let src = Matrix::from_fn(6, 3, |r, c| (r * 3 + c) as f32);
        let mut g = Graph::new();
        let x = g.input(src.clone());
        let y = record(&mut g, x);
        let bound = HashMap::from([(y.index(), 0)]);
        let marks = DynMarks {
            indices: if stencil { HashMap::new() } else { bound.clone() },
            stencils: if stencil { bound } else { HashMap::new() },
            n_index: usize::from(!stencil),
            n_stencil: usize::from(stencil),
        };
        let (plan, mut arena) = Plan::from_graph(&g, &[y], &marks);
        let mut b = input_bindings(&plan, &src);
        edit(&mut b);
        plan.run(&mut arena, &b);
    }

    // A binding of the wrong length would replay into a wrong-shaped value
    // that nothing downstream rejects in release: these three are hard
    // asserts, not debug ones.
    #[test]
    #[should_panic(expected = "dynamic gather length changed")]
    fn short_gather_binding_is_rejected() {
        replay_dynamic(false, |g, x| g.gather(x, vec![0, 1, 2]), |b| b.indices[0] = vec![5, 4]);
    }

    #[test]
    #[should_panic(expected = "dynamic group length changed")]
    fn long_gather_max_binding_is_rejected() {
        replay_dynamic(
            false,
            |g, x| g.gather_max(x, &[0, 1, 2, 3], 2),
            |b| b.indices[0] = vec![5, 4, 3, 2, 1, 0],
        );
    }

    #[test]
    #[should_panic(expected = "dynamic stencil length changed")]
    fn short_stencil_binding_is_rejected() {
        replay_dynamic(
            true,
            |g, x| g.weighted_gather(x, vec![0, 1, 2, 3], vec![0.25; 4], 2),
            |b| b.stencils[0] = (vec![1, 2], vec![0.5; 2]),
        );
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn shape_drift_is_rejected() {
        let x = Matrix::from_fn(10, 4, |r, c| (r + c) as f32);
        let (g, y, _mlp) = record_mlp(&x);
        let (plan, mut arena) = Plan::from_graph(&g, &[y], &DynMarks::default());
        let b = input_bindings(&plan, &Matrix::zeros(11, 4));
        plan.run(&mut arena, &b);
    }

    #[test]
    fn f64_replay_tracks_f32_closely_and_never_grows_warm() {
        let x = Matrix::from_fn(10, 4, |r, c| ((r * 5 + c) as f32 * 0.37).sin());
        let (g, y, _mlp) = record_mlp(&x);
        let (plan, mut arena) = Plan::from_graph(&g, &[y], &DynMarks::default());
        let b = input_bindings(&plan, &x);
        plan.run(&mut arena, &b);

        let mut wide = arena.cast::<f64>();
        for _ in 0..3 {
            plan.run(&mut wide, &b);
        }
        assert_eq!(wide.grow_events(), 0, "cast capacities must cover execution");
        assert_eq!(wide.peak_bytes(), 2 * arena.peak_bytes());
        assert_eq!(wide.const_bytes(), 2 * arena.const_bytes());

        let f32_out = plan.output(&arena, 0);
        let f64_out = plan.output(&wide, 0);
        assert_eq!(f32_out.shape(), f64_out.shape());
        for (a, &b) in f32_out.as_slice().iter().zip(f64_out.as_slice()) {
            assert!((f64::from(*a) - b).abs() < 1e-4, "f32 {a} drifted from f64 {b}");
        }
    }

    #[test]
    fn f64_replay_is_deterministic() {
        let x = Matrix::from_fn(12, 4, |r, c| ((r * 7 + c) as f32 * 0.19).cos());
        let (g, y, _mlp) = record_mlp(&x);
        let (plan, arena) = Plan::from_graph(&g, &[y], &DynMarks::default());
        let b = input_bindings(&plan, &x);
        let mut a1 = arena.cast::<f64>();
        let mut a2 = arena.cast::<f64>();
        plan.run(&mut a1, &b);
        plan.run(&mut a2, &b);
        assert_eq!(plan.output(&a1, 0), plan.output(&a2, 0));
    }

    #[test]
    fn constant_masks_and_scales_replay_in_both_element_types() {
        let x = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 - 2.5);
        let mask = Matrix::from_fn(3, 2, |r, c| if (r + c) % 2 == 0 { 0.0 } else { 2.0 });
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let masked = g.mul_const(xv, mask);
        let y = g.scale(masked, 0.3);
        let (plan, mut arena) = Plan::from_graph(&g, &[y], &DynMarks::default());
        let b = input_bindings(&plan, &x);
        plan.run(&mut arena, &b);
        assert_eq!(plan.output(&arena, 0), g.value(y));

        let mut wide = arena.cast::<f64>();
        plan.run(&mut wide, &b);
        let want = Mat::<f64>::from_fn(3, 2, |r, c| {
            f64::from(x[(r, c)]) * if (r + c) % 2 == 0 { 0.0 } else { 2.0 } * f64::from(0.3f32)
        });
        assert_eq!(plan.output(&wide, 0), &want);
    }

    #[test]
    fn losses_replay_identically() {
        let x = Matrix::from_fn(5, 4, |r, c| ((r * 7 + c) as f32 * 0.3).sin());
        let mut rng = mesorasi_pointcloud::seeded_rng(3);
        let mlp = SharedMlp::new(&[4, 6, 3], NormMode::None, false, &mut rng);
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let logits = mlp.forward(&mut g, xv);
        let loss = g.softmax_cross_entropy(logits, vec![0, 2, 1, 1, 0]);
        let (plan, mut arena) = Plan::from_graph(&g, &[loss], &DynMarks::default());
        let b = input_bindings(&plan, &x);
        plan.run(&mut arena, &b);
        assert_eq!(plan.output(&arena, 0), g.value(loss));
    }
}
