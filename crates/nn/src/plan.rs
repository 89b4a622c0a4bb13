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
//! 2. every `MatMul → AddBias → Relu?` chain whose intermediates have one
//!    reader each and are not requested outputs becomes one fused step,
//!    [`ops::linear_into`], run at the chain's last node: the product is
//!    written once, with its bias (and ReLU) applied in registers, instead
//!    of once per op. The chain's other nodes are *absorbed* — no slot, no
//!    execution, [`Plan::is_live`] false;
//! 3. a liveness analysis finds each value's last use;
//! 4. every live value is assigned a slot in the arena, slots being reused
//!    as soon as their previous occupant dies — two simultaneously-live
//!    values never alias, and an op's output never aliases its inputs.
//!
//! Steady-state execution then performs **zero heap allocation**: every op
//! writes into its preassigned slot through the `_into` kernels of
//! `mesorasi-tensor`, which carry the arithmetic of the kernels the tape
//! calls — the fused step included, whose epilogue is the unfused bias and
//! ReLU passes per element — so planned values are bit-identical to tape
//! values at every thread count. The tape itself stays unfused: it is the
//! oracle.
//!
//! Per-sample variability (input matrices, neighbor-search index lists,
//! interpolation stencils) enters through [`Bindings`], produced by the
//! engine layer in `mesorasi-core` — this module knows nothing about point
//! clouds, only that some index operands are dynamic.

use crate::graph::Graph;
use crate::ir::{Op, VarId};
use mesorasi_tensor::{group, ops, Matrix};
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
    /// Absorbed into the fused linear step of a later node: never
    /// materialised.
    Absorbed,
}

/// One step of a plan: a recorded op, or a fused linear layer.
#[derive(Debug, Clone)]
enum Step {
    /// A recorded op, run as the tape runs it.
    Op(Op),
    /// `relu?(x · w + bias)` through one [`ops::linear_into`] call: a
    /// recorded `MatMul → AddBias → Relu?` chain, run at its last node.
    Linear { x: VarId, w: VarId, bias: VarId, relu: bool },
}

impl Step {
    fn for_each_operand(&self, mut f: impl FnMut(VarId)) {
        match self {
            Step::Op(op) => op.for_each_operand(f),
            Step::Linear { x, w, bias, .. } => {
                f(*x);
                f(*w);
                f(*bias);
            }
        }
    }
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
    /// Linear layers that run as one fused step (see the module docs).
    pub fused: usize,
}

/// The execution state for one plan: the plan's constants, one reusable
/// buffer per slot, and a scratch vector for statistics. After the first
/// execution it stops allocating.
#[derive(Debug)]
pub struct Arena {
    /// Parameter snapshots, addressed by `Loc::Const`.
    params: Vec<Matrix>,
    /// Live [`Op::MulConst`] node index → mask.
    masks: HashMap<usize, Matrix>,
    slots: Vec<Matrix>,
    scratch: Vec<f32>,
    grow_events: usize,
}

impl Arena {
    /// Times any slot grew beyond its planned capacity (0 in steady state).
    pub fn grow_events(&self) -> usize {
        self.grow_events
    }

    /// Total bytes currently reserved for intermediates (slots + scratch).
    pub fn peak_bytes(&self) -> usize {
        let elems: usize =
            self.slots.iter().map(Matrix::capacity).sum::<usize>() + self.scratch.capacity();
        elems * std::mem::size_of::<f32>()
    }
}

/// An immutable, liveness-planned execution schedule for one recorded
/// forward pass. See the module docs for the lifecycle.
#[derive(Debug)]
pub struct Plan {
    steps: Vec<Step>,
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
    /// the arena holding the graph's parameter values. `marks` names
    /// the ops whose index operands are per-sample dynamic.
    ///
    /// # Panics
    ///
    /// Panics when `outputs` is empty or references a node the graph does
    /// not have, or when a loss is live: plans are inference-only, and
    /// training runs its losses on the tape.
    pub fn from_graph(g: &Graph, outputs: &[VarId], marks: &DynMarks) -> (Plan, Arena) {
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
                let op = g.op_at(i);
                assert!(
                    !matches!(op, Op::Mse { .. } | Op::SoftmaxCrossEntropy { .. }),
                    "node {i} is a loss: plans are inference-only, run losses on the tape"
                );
                op.for_each_operand(|v| live[v.index()] = true);
            }
        }

        let (fused_at, absorbed) = fuse_linear_chains(g, &live, outputs);

        // The steps to run. Dead and absorbed nodes are never executed or
        // operand-walked, so a cheap placeholder replaces them — an
        // eliminated branch's index vectors would otherwise be retained
        // for the plan's whole lifetime. Masks move to the arena's
        // constants.
        let mut masks = HashMap::new();
        let steps: Vec<Step> = (0..n)
            .map(|i| match (g.op_at(i), fused_at.get(&i)) {
                _ if !live[i] || absorbed[i] => Step::Op(Op::Input),
                (_, Some(step)) => step.clone(),
                (Op::MulConst { x, mask }, None) => {
                    masks.insert(i, mask.clone());
                    Step::Op(Op::MulConst { x: *x, mask: Matrix::default() })
                }
                (op, None) => Step::Op(op.clone()),
            })
            .collect();
        let runs = |i: usize| live[i] && !absorbed[i];

        // Liveness: last step index that reads each value.
        let mut last_use: Vec<usize> = (0..n).collect();
        for (i, step) in steps.iter().enumerate() {
            if runs(i) {
                step.for_each_operand(|v| last_use[v.index()] = i);
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
        for (i, step) in steps.iter().enumerate() {
            let (rows, cols) = g.value_at(i).shape();
            let mut input_idx = None;
            let loc = if !live[i] {
                Loc::Dead
            } else if absorbed[i] {
                Loc::Absorbed
            } else if let Step::Op(Op::Param { .. }) = step {
                params.push(g.value_at(i).clone());
                Loc::Const(params.len() - 1)
            } else {
                if matches!(step, Step::Op(Op::Input)) {
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
            if runs(i) {
                step.for_each_operand(|v| {
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

        let arena = Arena {
            params,
            masks,
            slots: slot_elems.iter().map(|&e| Matrix::with_capacity(e)).collect(),
            scratch: Vec::new(),
            grow_events: 0,
        };
        let plan = Plan {
            steps,
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
        self.steps.len()
    }

    /// True for a plan with no ops.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
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

    /// True when node `i`'s value exists during execution: it survived
    /// dead-code elimination and was not absorbed into a fused step.
    pub fn is_live(&self, i: usize) -> bool {
        !matches!(self.nodes[i].loc, Loc::Dead | Loc::Absorbed)
    }

    /// The recorded shape of node `i`.
    pub fn shape(&self, i: usize) -> (usize, usize) {
        (self.nodes[i].rows, self.nodes[i].cols)
    }

    /// Usage statistics for the bench report.
    pub fn stats(&self, arena: &Arena) -> ArenaStats {
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
            fused: self.steps.iter().filter(|s| matches!(s, Step::Linear { .. })).count(),
        }
    }

    /// The value of `v` after execution reached past its definition.
    ///
    /// # Panics
    ///
    /// Panics when `v` was eliminated as dead code or absorbed into a
    /// fused step.
    pub fn value<'a>(&self, arena: &'a Arena, v: VarId) -> &'a Matrix {
        match self.nodes[v.index()].loc {
            Loc::Slot(s) => &arena.slots[s],
            Loc::Const(c) => &arena.params[c],
            Loc::Dead => panic!("node {} was eliminated as dead code", v.index()),
            Loc::Absorbed => panic!("node {} was absorbed into a fused step", v.index()),
        }
    }

    /// The `idx`-th requested output.
    pub fn output<'a>(&self, arena: &'a Arena, idx: usize) -> &'a Matrix {
        self.value(arena, VarId::from_index(self.outputs[idx]))
    }

    /// Number of requested outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Executes the whole plan against `arena` with `bindings`.
    pub fn run(&self, arena: &mut Arena, bindings: &Bindings) {
        self.run_range(arena, bindings, 0, self.steps.len());
    }

    /// Executes nodes `lo..hi` — the engine layer interleaves these ranges
    /// with its dynamic (search) steps.
    ///
    /// # Panics
    ///
    /// Panics when bindings disagree with the recorded shapes.
    pub fn run_range(&self, arena: &mut Arena, bindings: &Bindings, lo: usize, hi: usize) {
        for i in lo..hi {
            self.exec_node(i, arena, bindings);
        }
    }

    fn exec_node(&self, i: usize, arena: &mut Arena, bind: &Bindings) {
        let node = &self.nodes[i];
        let out_slot = match node.loc {
            Loc::Slot(s) => s,
            // Params were materialized at compile time; dead code never
            // runs, and an absorbed node runs inside its chain's last one.
            Loc::Const(_) | Loc::Dead | Loc::Absorbed => return,
        };
        let mut out = std::mem::take(&mut arena.slots[out_slot]);
        let cap_before = out.capacity();
        match &self.steps[i] {
            Step::Linear { x, w, bias, relu } => {
                let (x, w, bias) =
                    (self.value(arena, *x), self.value(arena, *w), self.value(arena, *bias));
                ops::linear_into(x, w, bias, *relu, &mut out);
            }
            Step::Op(Op::Param { .. } | Op::Mse { .. } | Op::SoftmaxCrossEntropy { .. }) => {
                unreachable!("params are consts, and from_graph refuses live losses")
            }
            Step::Op(Op::Input) => {
                let src = &bind.inputs[node.input_idx.expect("live inputs are indexed")];
                assert_eq!(
                    src.shape(),
                    (node.rows, node.cols),
                    "input {i} shape changed since the plan was recorded"
                );
                out.copy_from(src);
            }
            Step::Op(Op::MatMul { a, b }) => {
                ops::matmul_into(self.value(arena, *a), self.value(arena, *b), &mut out);
            }
            Step::Op(Op::AddBias { x, bias }) => {
                ops::add_bias_row_into(self.value(arena, *x), self.value(arena, *bias), &mut out);
            }
            Step::Op(Op::Add { a, b }) => {
                ops::add_into(self.value(arena, *a), self.value(arena, *b), &mut out);
            }
            Step::Op(Op::Sub { a, b }) => {
                ops::sub_into(self.value(arena, *a), self.value(arena, *b), &mut out);
            }
            Step::Op(Op::Relu { x }) => ops::relu_into(self.value(arena, *x), &mut out),
            Step::Op(Op::Hadamard { a, b }) => {
                ops::hadamard_into(self.value(arena, *a), self.value(arena, *b), &mut out);
            }
            Step::Op(Op::MulConst { x, .. }) => {
                ops::hadamard_into(self.value(arena, *x), &arena.masks[&i], &mut out);
            }
            Step::Op(Op::Scale { x, s }) => {
                ops::scale_into(self.value(arena, *x), *s, &mut out);
            }
            Step::Op(Op::Gather { x, indices }) => {
                let idx = node.index_bid.map_or(&indices[..], |bid| &bind.indices[bid]);
                assert_eq!(idx.len(), indices.len(), "dynamic gather length changed");
                group::gather_rows_into(self.value(arena, *x), idx, &mut out);
            }
            Step::Op(Op::SubCentroid { grouped, centroids, k }) => {
                group::subtract_centroid_per_group_into(
                    self.value(arena, *grouped),
                    self.value(arena, *centroids),
                    *k,
                    &mut out,
                );
            }
            Step::Op(Op::GroupMax { x, k }) => {
                group::group_max_into(self.value(arena, *x), *k, &mut out)
            }
            Step::Op(Op::GatherMax { x, groups, k }) => {
                let idx = node.index_bid.map_or(&groups[..], |bid| &bind.indices[bid]);
                assert_eq!(idx.len(), groups.len(), "dynamic group length changed");
                group::gather_max_into(self.value(arena, *x), idx, *k, &mut out);
            }
            Step::Op(Op::WeightedGather { x, indices, weights, k }) => {
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
            Step::Op(Op::HStack { a, b }) => {
                self.value(arena, *a).hstack_into(self.value(arena, *b), &mut out);
            }
            Step::Op(Op::Standardize { x }) => {
                let mut scratch = std::mem::take(&mut arena.scratch);
                ops::standardize_into(self.value(arena, *x), &mut scratch, &mut out);
                arena.scratch = scratch;
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
        let n = self.steps.len();
        let mut last_use: Vec<usize> = (0..n).collect();
        for (i, step) in self.steps.iter().enumerate() {
            if self.is_live(i) {
                step.for_each_operand(|v| last_use[v.index()] = i);
            }
        }
        for &o in &self.outputs {
            last_use[o] = usize::MAX;
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let Loc::Slot(si) = node.loc else { continue };
            // Output/input aliasing within one op.
            self.steps[i].for_each_operand(|v| {
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

/// Finds the `MatMul → AddBias → Relu?` chains among the live nodes that
/// can run as one [`Step::Linear`]: every intermediate (the product, and
/// the biased sum when a ReLU follows) has exactly one reader and is not a
/// requested output, so nothing but the chain ever sees it. Returns the
/// fused step per chain end and the absorbed nodes.
fn fuse_linear_chains(
    g: &Graph,
    live: &[bool],
    outputs: &[VarId],
) -> (HashMap<usize, Step>, Vec<bool>) {
    let n = live.len();
    let mut readers = vec![0usize; n];
    let mut reader = vec![0usize; n];
    for i in (0..n).filter(|&i| live[i]) {
        g.op_at(i).for_each_operand(|v| {
            readers[v.index()] += 1;
            reader[v.index()] = i;
        });
    }
    for o in outputs {
        readers[o.index()] = usize::MAX;
    }
    // The one node reading `v`, when `v` is an intermediate only it sees.
    let sole_reader = |v: usize| (readers[v] == 1).then_some(reader[v]);

    let mut fused_at = HashMap::new();
    let mut absorbed = vec![false; n];
    for j in (0..n).filter(|&j| live[j]) {
        let Op::AddBias { x: product, bias } = g.op_at(j) else { continue };
        let Op::MatMul { a, b } = g.op_at(product.index()) else { continue };
        if sole_reader(product.index()) != Some(j) {
            continue;
        }
        let relu = sole_reader(j).filter(|&l| matches!(g.op_at(l), Op::Relu { .. }));
        absorbed[product.index()] = true;
        if relu.is_some() {
            absorbed[j] = true;
        }
        let step = Step::Linear { x: *a, w: *b, bias: *bias, relu: relu.is_some() };
        fused_at.insert(relu.unwrap_or(j), step);
    }
    (fused_at, absorbed)
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

    /// The fused steps of `plan`: `(chain end, relu)` in node order.
    fn fused_steps(plan: &Plan) -> Vec<(usize, bool)> {
        let steps = plan.steps.iter().enumerate();
        steps
            .filter_map(|(i, s)| match s {
                Step::Linear { relu, .. } if plan.is_live(i) => Some((i, *relu)),
                _ => None,
            })
            .collect()
    }

    /// Plans `outputs` of `g`, checks the slot assignment, replays the
    /// recording sample and asserts every output equals the tape's bits.
    fn plan_and_replay(g: &Graph, x: VarId, outputs: &[VarId]) -> Plan {
        let (plan, mut arena) = Plan::from_graph(g, outputs, &DynMarks::default());
        plan.check_no_aliasing();
        plan.run(&mut arena, &input_bindings(&plan, g.value(x)));
        for (i, o) in outputs.iter().enumerate() {
            assert_eq!(plan.output(&arena, i), g.value(*o), "output {i} differs from the tape");
        }
        plan
    }

    #[test]
    fn a_linear_chain_compiles_to_one_step_with_fewer_slots() {
        // Three Linear → ReLU layers: each MatMul → AddBias → Relu chain is
        // one fused step at the Relu node, and neither intermediate holds a
        // slot: the input plus three layer outputs, 4 slot values instead
        // of 10.
        let x = Matrix::from_fn(37, 4, |r, c| ((r * 5 + c) as f32 * 0.37).sin());
        let mut rng = mesorasi_pointcloud::seeded_rng(5);
        let mlp = SharedMlp::new(&[4, 8, 40, 3], NormMode::None, true, &mut rng);
        let mut g = Graph::new();
        let xv = g.input(x);
        let y = mlp.forward(&mut g, xv);
        let plan = plan_and_replay(&g, xv, &[y]);
        let fused = fused_steps(&plan);
        assert_eq!(fused.len(), 3, "{fused:?}");
        assert!(fused.iter().all(|&(_, relu)| relu));
        assert_eq!(fused.last().map(|f| f.0), Some(y.index()), "the chain's last node runs it");
        let absorbed = (0..plan.len()).filter(|&i| {
            matches!(g.op_at(i), Op::MatMul { .. } | Op::AddBias { .. }) && !plan.is_live(i)
        });
        assert_eq!(absorbed.count(), 6, "every product and biased sum is absorbed");
        let (_, arena) = Plan::from_graph(&g, &[y], &DynMarks::default());
        let stats = plan.stats(&arena);
        assert_eq!((stats.values, stats.fused), (4, 3), "the input and three layer outputs");
    }

    #[test]
    fn a_head_without_relu_fuses_the_bias_alone() {
        // `relu_last: false`: the last layer is MatMul → AddBias, fused
        // with `relu = false`; the hidden one keeps its ReLU.
        let x = Matrix::from_fn(9, 4, |r, c| ((r + 3 * c) as f32 * 0.21).cos());
        let mut rng = mesorasi_pointcloud::seeded_rng(6);
        let mlp = SharedMlp::new(&[4, 6, 3], NormMode::None, false, &mut rng);
        let mut g = Graph::new();
        let xv = g.input(x);
        let y = mlp.forward(&mut g, xv);
        let plan = plan_and_replay(&g, xv, &[y]);
        let fused = fused_steps(&plan);
        assert_eq!(fused.len(), 2, "{fused:?}");
        assert!(fused[0].1 && !fused[1].1, "{fused:?}");
        assert_eq!(fused[1].0, y.index());
    }

    #[test]
    fn a_normalised_layer_fuses_only_its_bias() {
        // Linear → FeatureNorm → ReLU: the ReLU reads the norm, not the
        // biased sum, so the chain ends at the AddBias.
        let x = Matrix::from_fn(12, 4, |r, c| ((r * 7 + c) as f32 * 0.13).sin());
        let (g, y, _mlp) = record_mlp(&x);
        let xv = VarId::from_index(0);
        let plan = plan_and_replay(&g, xv, &[y]);
        let fused = fused_steps(&plan);
        assert_eq!(fused.len(), 2, "{fused:?}");
        assert!(fused.iter().all(|&(i, relu)| !relu && matches!(g.op_at(i), Op::AddBias { .. })));
    }

    /// `x · w + bias` then ReLU over a 6 × 4 input, recorded by hand:
    /// returns the graph and the input, product, biased and ReLU nodes.
    fn record_chain() -> (Graph, [VarId; 4]) {
        let mut rng = mesorasi_pointcloud::seeded_rng(8);
        let layer = crate::layers::Linear::new(4, 5, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(6, 4, |r, c| (r as f32 - 2.0 * c as f32) * 0.3));
        let w = g.param(&layer.weight);
        let b = g.param(&layer.bias);
        let product = g.matmul(x, w);
        let biased = g.add_bias(product, b);
        let activated = g.relu(biased);
        (g, [x, product, biased, activated])
    }

    #[test]
    fn a_product_with_a_second_reader_is_not_absorbed() {
        let (mut g, [x, product, _, activated]) = record_chain();
        let other = g.scale(product, 2.0);
        let plan = plan_and_replay(&g, x, &[activated, other]);
        assert!(fused_steps(&plan).is_empty());
        assert!(plan.is_live(product.index()));
    }

    #[test]
    fn a_requested_intermediate_is_not_absorbed() {
        // A requested biased sum ends the chain there (the ReLU stays a
        // plain op reading it); a requested product stops fusion outright.
        let (g, [x, product, biased, activated]) = record_chain();
        let plan = plan_and_replay(&g, x, &[activated, biased]);
        assert_eq!(fused_steps(&plan), vec![(biased.index(), false)]);
        assert!(plan.is_live(biased.index()) && !plan.is_live(product.index()));
        let plan = plan_and_replay(&g, x, &[activated, product]);
        assert!(fused_steps(&plan).is_empty());
    }

    #[test]
    fn a_gathered_product_is_not_fused() {
        // Ltd-Delayed's first layer: `forward_linear_only`, a gather, then
        // `forward_bias_only` — the bias reads the gather, not the product.
        let mut rng = mesorasi_pointcloud::seeded_rng(9);
        let mlp = SharedMlp::new(&[4, 6], NormMode::None, true, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(5, 4, |r, c| (r * 4 + c) as f32 * 0.1 - 1.0));
        let product = mlp.first_layer().forward_linear_only(&mut g, x);
        let gathered = g.gather(product, vec![4, 0, 0, 2, 3, 1]);
        let y = mlp.forward_after_first_linear(&mut g, gathered);
        let plan = plan_and_replay(&g, x, &[y]);
        assert!(fused_steps(&plan).is_empty());
        assert!(plan.is_live(product.index()));
    }

    #[test]
    #[should_panic(expected = "absorbed into a fused step")]
    fn reading_an_absorbed_value_panics() {
        let (g, [x, product, _, activated]) = record_chain();
        let (plan, mut arena) = Plan::from_graph(&g, &[activated], &DynMarks::default());
        plan.run(&mut arena, &input_bindings(&plan, g.value(x)));
        let _ = plan.value(&arena, product);
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
    fn constant_masks_and_scales_replay() {
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
    }

    #[test]
    #[should_panic(expected = "plans are inference-only")]
    fn plans_refuse_a_live_loss() {
        let (mut g, logits, _mlp) = record_mlp(&Matrix::from_fn(5, 4, |r, c| (r + c) as f32));
        let loss = g.softmax_cross_entropy(logits, vec![0, 2, 1, 1, 0]);
        let _ = Plan::from_graph(&g, &[loss], &DynMarks::default());
    }
}
