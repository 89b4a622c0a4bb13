//! The plan-and-execute inference engine.
//!
//! `mesorasi_nn::plan` can replay a recorded op sequence against a
//! liveness-planned arena, but knows nothing about point clouds. This
//! module supplies the missing half: *where the dynamic operands come
//! from*. A forward pass has exactly three kinds of per-sample values the
//! IR cannot carry —
//!
//! 1. **input states**: the xyz feature matrix of the sample cloud (and,
//!    for F-PointNet, the masked/recentered crop derived from it),
//! 2. **neighbor structure**: centroid selections and neighbor-search
//!    results (the NIT), which the executors consume as gather/reduce
//!    index lists,
//! 3. **interpolation stencils**: the 3-NN inverse-distance weights of
//!    feature propagation.
//!
//! While a [`PlanEngine`] records a network's forward once, a thread-local
//! recorder (armed only during recording) captures a list of [`DynStep`]s
//! describing how each of those values derives from the sample. Executing
//! a *new* sample interleaves plan ranges with the dynamic steps — the
//! feature-space searches of DGCNN read intermediate features straight out
//! of the arena — and the derived [`Bindings`] are cached per sample (the
//! NIT cache), so repeated inference on a seen sample runs pure planned
//! tensor code with **zero per-sample allocation**.
//!
//! The searches, centroid sampling, and stencil computation are the very
//! functions the tape-based runner calls, so planned execution is
//! bit-identical to [`crate::runner::run_module`]-based forwards at every
//! thread count. The engine assumes frozen parameters: plans snapshot
//! weights at compile time, and cached NITs for feature-space searches are
//! only valid while the weights that produced those features stay put.

use crate::config::EngineConfig;
use crate::module::NeighborMode;
use crate::runner::{search_nit_into, search_stencils_into, select_centroids_into};
use crate::sample_cache::{SampleCache, SampleCacheStats};
use mesorasi_knn::stats::SearchCounters;
use mesorasi_knn::{NeighborIndexTable, SearchContext};
use mesorasi_nn::ir::VarId;
use mesorasi_nn::plan::{Arena, ArenaStats, Bindings, DynMarks, Plan};
use mesorasi_nn::Graph;
use mesorasi_pointcloud::PointCloud;
use mesorasi_tensor::{Dtype, Matrix};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// The allocation-free state derivation: reads the sample cloud, writes
/// the derived positions into the engine's persistent state buffer.
pub type DeriveIntoFn = Arc<dyn Fn(&PointCloud, &mut PointCloud) + Send + Sync>;

/// How a registered input state's positions derive from the sample cloud.
#[derive(Clone)]
pub enum StateSource {
    /// The sample cloud itself (the root state of every network).
    Sample,
    /// A pure function of the sample cloud (e.g. F-PointNet's
    /// mask-and-recenter crop), written into the engine's persistent state
    /// buffer so warm frames derive without allocating. Must be
    /// deterministic.
    DerivedInto(DeriveIntoFn),
}

impl std::fmt::Debug for StateSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateSource::Sample => write!(f, "Sample"),
            StateSource::DerivedInto(_) => write!(f, "DerivedInto(..)"),
        }
    }
}

/// One per-sample derivation the engine replays between plan ranges.
/// `at` is the tape position the step must complete before.
#[derive(Debug)]
pub enum DynStep {
    /// Derive a position state and write its xyz rows into the plan input.
    Input {
        /// Tape position of the `Input` node.
        at: usize,
        /// The state id being derived.
        state: usize,
        /// The `Input` node whose value is the state's xyz rows.
        input_node: usize,
        /// How the positions derive from the sample.
        source: StateSource,
    },
    /// Select centroids and run the module's neighbor search, filling the
    /// index bindings the executors consume.
    Search {
        /// Tape position before the module's first op.
        at: usize,
        /// Input state id.
        state_in: usize,
        /// Output state id (`None` for searches whose output state is
        /// never position-referenced downstream).
        state_out: Option<usize>,
        /// The search mode (kNN / ball / feature-space).
        neighbor: NeighborMode,
        /// Centroid count.
        n_out: usize,
        /// Neighbors per centroid.
        k: usize,
        /// Centroid-sampling seed recorded from the tape forward.
        seed: u64,
        /// For feature-space search: the tape node holding the features.
        feature_node: Option<usize>,
        /// Binding for the flattened neighbor lists.
        neighbors_bid: Option<usize>,
        /// Binding for the centroid index list.
        centroids_bid: Option<usize>,
        /// Binding for centroids repeated `k` times each (edge modules).
        repeated_bid: Option<usize>,
    },
    /// Compute the 3-NN inverse-distance stencil from `coarse` onto `fine`.
    Stencil {
        /// Tape position of the weighted-gather node.
        at: usize,
        /// Coarse (source) state id.
        coarse: usize,
        /// Fine (target) state id.
        fine: usize,
        /// Stencil binding filled by this step.
        bid: usize,
    },
}

impl DynStep {
    fn at(&self) -> usize {
        match self {
            DynStep::Input { at, .. }
            | DynStep::Search { at, .. }
            | DynStep::Stencil { at, .. } => *at,
        }
    }
}

/// Which index vector of a module's NIT an executor op consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IndexRole {
    /// `nit.neighbors_flat()`.
    Neighbors,
    /// `nit.centroids()`.
    Centroids,
    /// Each centroid repeated `k` times (edge-module row expansion).
    Repeated,
}

/// A position state registered during recording. `positions` is `None` for
/// states whose positions cannot be re-derived (group-all outputs) — legal
/// as long as no later step needs them.
struct StateRec {
    positions: Option<PointCloud>,
}

struct OpenSearch {
    at: usize,
    state_in: usize,
    neighbor: NeighborMode,
    n_out: usize,
    k: usize,
    seed: u64,
    feature_node: Option<usize>,
    neighbors_bid: Option<usize>,
    centroids_bid: Option<usize>,
    repeated_bid: Option<usize>,
}

/// Everything the thread-local recorder accumulates during one recording
/// forward pass.
#[derive(Default)]
pub(crate) struct Recording {
    steps: Vec<DynStep>,
    marks: DynMarks,
    states: Vec<StateRec>,
    state_by_var: HashMap<usize, usize>,
    open: Option<OpenSearch>,
    error: Option<String>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recording>> = const { RefCell::new(None) };
}

/// Recorder hooks the runner and executors call. Every function is a no-op
/// when no recording is active on this thread, so the training path pays
/// one thread-local read per call site.
pub(crate) mod rec {
    use super::*;

    fn with(f: impl FnOnce(&mut Recording)) {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                f(rec);
            }
        });
    }

    /// Registers an input state created by `ModuleState::from_cloud[_derived_into]`.
    pub(crate) fn input_state(input_var: VarId, cloud: &PointCloud, source: Option<StateSource>) {
        with(|rec| {
            let source = match source {
                Some(s) => s,
                None if rec.states.is_empty() => StateSource::Sample,
                None => {
                    rec.error = Some(
                        "a mid-network input state has no derivation; create it with \
                         ModuleState::from_cloud_derived_into so the plan can replay it"
                            .into(),
                    );
                    return;
                }
            };
            let state = rec.states.len();
            rec.states.push(StateRec { positions: Some(cloud.clone()) });
            rec.state_by_var.insert(input_var.index(), state);
            rec.steps.push(DynStep::Input {
                at: input_var.index(),
                state,
                input_node: input_var.index(),
                source,
            });
        });
    }

    /// Opens a module search: executors will attach index roles to it.
    pub(crate) fn begin_search(
        at: usize,
        state_features: VarId,
        neighbor: NeighborMode,
        n_out: usize,
        k: usize,
        seed: u64,
    ) {
        with(|rec| {
            debug_assert!(rec.open.is_none(), "module recordings never nest");
            let Some(&state_in) = rec.state_by_var.get(&state_features.index()) else {
                rec.error = Some(format!(
                    "module input features (node {}) belong to no registered state",
                    state_features.index()
                ));
                return;
            };
            if rec.states[state_in].positions.is_none() {
                rec.error =
                    Some("a searching module consumes a group-all output's positions".into());
                return;
            }
            let feature_node =
                matches!(neighbor, NeighborMode::FeatureKnn).then_some(state_features.index());
            rec.open = Some(OpenSearch {
                at,
                state_in,
                neighbor,
                n_out,
                k,
                seed,
                feature_node,
                neighbors_bid: None,
                centroids_bid: None,
                repeated_bid: None,
            });
        });
    }

    /// Marks `var`'s index operand as derived from the open search's NIT.
    pub(crate) fn bind_index(var: VarId, role: IndexRole) {
        with(|rec| {
            let n_index = &mut rec.marks.n_index;
            let Some(open) = rec.open.as_mut() else {
                return; // executors may run outside run_module in tests
            };
            let slot = match role {
                IndexRole::Neighbors => &mut open.neighbors_bid,
                IndexRole::Centroids => &mut open.centroids_bid,
                IndexRole::Repeated => &mut open.repeated_bid,
            };
            let bid = *slot.get_or_insert_with(|| {
                let bid = *n_index;
                *n_index += 1;
                bid
            });
            rec.marks.indices.insert(var.index(), bid);
        });
    }

    /// Closes the open search, registering the module's output state.
    pub(crate) fn end_search(out_features: VarId, out_positions: &PointCloud) {
        with(|rec| {
            let Some(open) = rec.open.take() else { return };
            let state_out = rec.states.len();
            rec.states.push(StateRec { positions: Some(out_positions.clone()) });
            rec.state_by_var.insert(out_features.index(), state_out);
            rec.steps.push(DynStep::Search {
                at: open.at,
                state_in: open.state_in,
                state_out: Some(state_out),
                neighbor: open.neighbor,
                n_out: open.n_out,
                k: open.k,
                seed: open.seed,
                feature_node: open.feature_node,
                neighbors_bid: open.neighbors_bid,
                centroids_bid: open.centroids_bid,
                repeated_bid: open.repeated_bid,
            });
        });
    }

    /// Aliases `new_features` onto the state `base_features` belongs to —
    /// the skip-link/dense-concat pattern where new features sit on
    /// existing positions.
    pub(crate) fn alias_state(base_features: VarId, new_features: VarId) {
        with(|rec| {
            let Some(&state) = rec.state_by_var.get(&base_features.index()) else {
                rec.error = Some(format!(
                    "cannot alias features (node {}) onto unregistered state (node {})",
                    new_features.index(),
                    base_features.index()
                ));
                return;
            };
            rec.state_by_var.insert(new_features.index(), state);
        });
    }

    /// Registers a group-all module's output state: downstream feature
    /// propagation may look it up by features var (the broadcast path),
    /// but its positions are not re-derivable per sample.
    pub(crate) fn global_state(out_features: VarId) {
        with(|rec| {
            let state = rec.states.len();
            rec.states.push(StateRec { positions: None });
            rec.state_by_var.insert(out_features.index(), state);
        });
    }

    /// Records a feature-propagation step. `stencil_var` is the
    /// weighted-gather node when the 3-NN path ran (`None` for the
    /// broadcast path, whose gather indices are structural).
    pub(crate) fn feature_propagation(
        coarse_features: VarId,
        fine_positions: &PointCloud,
        stencil_var: Option<VarId>,
        out_features: VarId,
    ) {
        with(|rec| {
            // Resolve the fine level by position equality with a known
            // state — the runner API passes positions, not states.
            let fine = rec
                .states
                .iter()
                .position(|s| s.positions.as_ref().is_some_and(|p| p.content_eq(fine_positions)));
            let Some(fine) = fine else {
                rec.error =
                    Some("feature propagation targets positions of no registered state".into());
                return;
            };
            if let Some(var) = stencil_var {
                let Some(&coarse) = rec.state_by_var.get(&coarse_features.index()) else {
                    rec.error = Some("feature propagation coarse state is unregistered".into());
                    return;
                };
                if rec.states[coarse].positions.is_none() {
                    rec.error =
                        Some("feature propagation interpolates from a group-all output".into());
                    return;
                }
                let bid = rec.marks.n_stencil;
                rec.marks.n_stencil += 1;
                rec.marks.stencils.insert(var.index(), bid);
                rec.steps.push(DynStep::Stencil { at: var.index(), coarse, fine, bid });
            }
            // The output state sits on the fine level's positions, so it
            // *aliases* the fine state — replay derives `fine` anyway, and
            // no separate derivation step exists for the FP output.
            rec.state_by_var.insert(out_features.index(), fine);
        });
    }
}

struct Compiled {
    n_points: usize,
    plan: Plan,
    steps: Vec<DynStep>,
    /// Steps that survived plan dead-code elimination.
    step_live: Vec<bool>,
    arena: Arena<f32>,
    /// NIT cache: hash-keyed, true-LRU bindings per seen sample.
    samples: SampleCache,
    /// The search arena: planner + per-space reusable index storage, keyed
    /// by module-state id so streaming frames rebuild indices in place.
    search: SearchContext,
    /// Reusable NIT buffer the searches write into before binding fill.
    nit: NeighborIndexTable,
    /// Reusable centroid-selection buffers.
    centroids: Vec<usize>,
    shuffle: Vec<usize>,
    /// Reusable per-state position clouds (`state_set[i]` marks the ones
    /// derived during the current pass).
    state_bufs: Vec<PointCloud>,
    state_set: Vec<bool>,
    /// Persistent bindings of the streaming (cache-bypass) path.
    stream_bindings: Option<Bindings>,
    /// The f64 shadow-execution state, built lazily on the first
    /// [`Dtype::F64`] run against this plan.
    shadow: Option<ShadowExec>,
}

/// Lazy per-plan state of the f64 execution mode: the `f64` instantiation
/// of the plan's arena (widened constants included) and the rounded-to-f32
/// output views callers borrow.
struct ShadowExec {
    arena: Arena<f64>,
    /// One f32 matrix per plan output, refreshed (rounded once per
    /// element) after every shadow replay.
    outs: Vec<Matrix>,
}

/// Replays the complete plan in f64 against the bindings the f32 pass
/// derived, then rounds every output to f32 once. Neighbor structure is
/// **dtype-invariant by construction**: every dynamic step (centroid
/// selection, neighbor search — including DGCNN's feature-space kNN —
/// and stencil derivation) reads the f32 arena, so an f64 run gathers
/// exactly the rows an f32 run gathers and only the dense arithmetic
/// changes precision.
fn run_shadow(
    plan: &Plan,
    native: &Arena<f32>,
    shadow: &mut Option<ShadowExec>,
    bindings: &Bindings,
) {
    let ex = shadow.get_or_insert_with(|| ShadowExec {
        arena: native.cast(),
        outs: vec![Matrix::zeros(0, 0); plan.output_count()],
    });
    plan.run(&mut ex.arena, bindings);
    for (i, o) in ex.outs.iter_mut().enumerate() {
        o.copy_cast_from(plan.output(&ex.arena, i));
    }
}

impl ShadowExec {
    /// Heap bytes the f64 mode adds on top of the native arena.
    fn bytes(&self) -> usize {
        self.arena.peak_bytes()
            + self.arena.const_bytes()
            + self.outs.iter().map(|o| o.capacity() * std::mem::size_of::<f32>()).sum::<usize>()
    }
}

impl Compiled {
    /// Heap bytes retained by the search arena: cached indices, NIT and
    /// centroid buffers, the per-state position clouds, and the clouds the
    /// sample cache keeps for collision checks.
    fn search_bytes(&self) -> usize {
        self.search.storage_bytes()
            + self.nit.storage_bytes()
            + self.samples.cloud_bytes()
            + (self.centroids.capacity() + self.shuffle.capacity()) * std::mem::size_of::<usize>()
            + self.state_bufs.iter().map(PointCloud::storage_bytes).sum::<usize>()
    }
}

/// Borrow of a finished execution's outputs.
pub struct PlannedOutputs<'a> {
    plan: &'a Plan,
    arena: &'a Arena<f32>,
    outputs: usize,
    /// When the engine ran in [`Dtype::F64`] mode: the rounded shadow
    /// outputs, overriding the f32 arena values.
    shadow_outs: Option<&'a [Matrix]>,
}

impl<'a> PlannedOutputs<'a> {
    /// The `i`-th output requested by the recording closure. The borrow
    /// carries the engine's lifetime, so several outputs can be held at
    /// once. In [`Dtype::F64`] mode this is the shadow execution's value,
    /// rounded to f32 once at the boundary.
    pub fn get(&self, i: usize) -> &'a Matrix {
        match self.shadow_outs {
            Some(outs) => &outs[i],
            None => self.plan.output(self.arena, i),
        }
    }

    /// Number of outputs.
    pub fn len(&self) -> usize {
        self.outputs
    }

    /// True when the recording produced no outputs (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.outputs == 0
    }

    /// Arena statistics of the executed plan.
    pub fn stats(&self) -> ArenaStats {
        self.plan.stats(self.arena)
    }
}

/// Usage statistics of one compiled plan: the tensor arena plus the search
/// arena that backs neighbor-search replay.
#[derive(Debug, Clone, Copy)]
pub struct EngineStats {
    /// Tensor-arena statistics (slots, bytes, reuse, growth).
    pub arena: ArenaStats,
    /// Heap bytes retained by the search arena: cached indices,
    /// verification clouds, NIT/centroid buffers, per-state positions.
    pub search_bytes: usize,
    /// Search-traffic counters of this plan's context.
    pub search: SearchCounters,
    /// NIT sample-cache traffic (hits / misses / LRU evictions).
    pub cache: SampleCacheStats,
    /// Heap bytes retained by the process-wide per-worker search scratch
    /// pools — candidate buffers and the feature scan's distance rows (the
    /// parallel half of the memory-ceiling contract; shared across
    /// engines, bounded by worker count).
    pub parallel_scratch_bytes: usize,
}

/// A plan-and-execute inference session.
///
/// One engine serves one frozen `(network, strategy, seed)` combination —
/// the recording closure the caller passes must be a pure function of
/// `(Graph, PointCloud)`. Plans are compiled per input shape on first
/// sight; per-sample neighbor structure is cached so the steady state
/// (repeated samples) allocates nothing. For frame sequences that never
/// repeat, [`PlanEngine::run_streamed`] bypasses the cache and reuses a
/// persistent search arena instead.
pub struct PlanEngine {
    compiled: Vec<Compiled>,
    config: EngineConfig,
}

impl Default for PlanEngine {
    fn default() -> PlanEngine {
        PlanEngine::new()
    }
}

impl PlanEngine {
    /// An engine with no compiled plans yet, on the built-in default
    /// configuration (the environment is not consulted — pass
    /// [`EngineConfig::from_env`] to [`PlanEngine::with_config`] for that).
    pub fn new() -> PlanEngine {
        PlanEngine::with_config(EngineConfig::default())
    }

    /// An engine with no compiled plans yet, configured by `config` for
    /// its whole lifetime.
    ///
    /// Batch searches split across the worker pool wherever
    /// `mesorasi_par::chunk_len`'s cost model says the work pays for it,
    /// each worker drawing pooled scratch; outputs are bit-identical at
    /// every thread count.
    ///
    /// [`Dtype::F32`] is pure native execution. In [`Dtype::F64`] mode the
    /// engine still runs the f32 plan — the dynamic derivation steps
    /// (searches, stencils) read intermediate features from the f32 arena,
    /// which keeps neighbor structure dtype-invariant — and then replays
    /// the complete plan through the same kernels against an `f64` arena,
    /// so [`PlannedOutputs::get`] returns f64-accumulated values rounded
    /// once to f32. The f64 state is built lazily per compiled plan on the
    /// first run.
    pub fn with_config(config: EngineConfig) -> PlanEngine {
        PlanEngine { compiled: Vec::new(), config }
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// NIT sample-cache traffic summed over every compiled plan.
    pub fn sample_cache_stats(&self) -> SampleCacheStats {
        let mut total = SampleCacheStats::default();
        for c in &self.compiled {
            total.add(&c.samples.stats());
        }
        total
    }

    /// Runs one planned forward. `record` must build the network's forward
    /// on the given graph and return the output vars to keep — it is only
    /// invoked when `cloud`'s shape has no compiled plan yet.
    ///
    /// # Panics
    ///
    /// Panics when the recorded forward contains per-sample values the
    /// recorder cannot derive (see [`crate::runner::ModuleState::from_cloud_derived_into`]),
    /// or when a replay disagrees with the recorded shapes.
    pub fn run<'a>(
        &'a mut self,
        cloud: &PointCloud,
        record: &dyn Fn(&mut Graph, &PointCloud) -> Vec<VarId>,
    ) -> PlannedOutputs<'a> {
        let dtype = self.config.dtype;
        let ci = self.ensure_compiled(cloud, record);
        let c = &mut self.compiled[ci];

        let hash = cloud.content_hash();
        // Split the borrows: the cache hands out `&Bindings` while the plan
        // runs against the arena.
        let Compiled { samples, plan, arena, shadow, .. } = c;
        match samples.get(hash, cloud) {
            Some(bindings) => {
                // Steady state: pure planned tensor execution, no searches,
                // no allocation (the LRU relink is pointer surgery).
                plan.run(arena, bindings);
                if dtype == Dtype::F64 {
                    run_shadow(plan, arena, shadow, bindings);
                }
            }
            None => {
                let mut bindings = Bindings::for_plan(&c.plan);
                derive_and_run(c, cloud, &mut bindings);
                if dtype == Dtype::F64 {
                    run_shadow(&c.plan, &c.arena, &mut c.shadow, &bindings);
                }
                // True LRU: at capacity exactly one (least recently used)
                // entry is evicted — never a wholesale clear, so hot
                // samples survive unbounded fresh traffic.
                c.samples.insert(hash, cloud, bindings);
            }
        }
        self.outputs_of(ci)
    }

    /// Runs one planned forward in streaming (frame-sequence) mode: the
    /// per-sample NIT cache is bypassed — frames of a stream rarely repeat,
    /// so caching them would only burn memory — and every per-frame
    /// derivation (input matrices, centroid selections, neighbor searches,
    /// stencils) writes into this engine's persistent buffers. Search
    /// indices warm-start from the previous frame: same-shaped frames
    /// rebuild index *contents* while reusing capacity, so a warm stream
    /// performs zero heap allocations per frame, searches included.
    /// Outputs are bit-identical to [`PlanEngine::run`] on the same cloud.
    ///
    /// # Panics
    ///
    /// As [`PlanEngine::run`].
    pub fn run_streamed<'a>(
        &'a mut self,
        cloud: &PointCloud,
        record: &dyn Fn(&mut Graph, &PointCloud) -> Vec<VarId>,
    ) -> PlannedOutputs<'a> {
        let dtype = self.config.dtype;
        let ci = self.ensure_compiled(cloud, record);
        let c = &mut self.compiled[ci];
        let mut bindings = match c.stream_bindings.take() {
            Some(b) => b,
            None => Bindings::for_plan(&c.plan),
        };
        derive_and_run(c, cloud, &mut bindings);
        if dtype == Dtype::F64 {
            run_shadow(&c.plan, &c.arena, &mut c.shadow, &bindings);
        }
        c.stream_bindings = Some(bindings);
        self.outputs_of(ci)
    }

    /// The output borrow of a finished execution, honoring the dtype mode.
    fn outputs_of(&self, ci: usize) -> PlannedOutputs<'_> {
        let c = &self.compiled[ci];
        PlannedOutputs {
            plan: &c.plan,
            arena: &c.arena,
            outputs: c.plan.output_count(),
            shadow_outs: match self.config.dtype {
                Dtype::F64 => c.shadow.as_ref().map(|s| s.outs.as_slice()),
                Dtype::F32 => None,
            },
        }
    }

    /// Statistics of the plan compiled for `n_points`, if any: tensor-arena
    /// usage plus search-arena bytes and traffic counters. Once the plan
    /// has run in [`Dtype::F64`] mode, the arena totals include the f64
    /// state (its arena, widened constants and rounded outputs) — the
    /// heap ceiling is whatever the engine actually retains.
    pub fn stats(&self, n_points: usize) -> Option<EngineStats> {
        self.compiled.iter().find(|c| c.n_points == n_points).map(|c| EngineStats {
            arena: {
                let mut arena = c.plan.stats(&c.arena);
                if let Some(shadow) = &c.shadow {
                    arena.peak_bytes += shadow.bytes();
                    arena.grow_events += shadow.arena.grow_events();
                }
                arena
            },
            search_bytes: c.search_bytes(),
            search: c.search.counters(),
            cache: c.samples.stats(),
            parallel_scratch_bytes: mesorasi_knn::parallel_scratch_bytes(),
        })
    }

    /// Search-traffic counters summed over every compiled plan.
    pub fn search_counters(&self) -> SearchCounters {
        let mut total = SearchCounters::default();
        for c in &self.compiled {
            total.add(&c.search.counters());
        }
        total
    }

    /// Number of distinct input shapes compiled so far.
    pub fn compiled_plans(&self) -> usize {
        self.compiled.len()
    }

    fn ensure_compiled(
        &mut self,
        cloud: &PointCloud,
        record: &dyn Fn(&mut Graph, &PointCloud) -> Vec<VarId>,
    ) -> usize {
        if let Some(i) = self.compiled.iter().position(|c| c.n_points == cloud.len()) {
            return i;
        }

        // Arm the recorder for this thread; disarm even on unwind.
        struct Disarm;
        impl Drop for Disarm {
            fn drop(&mut self) {
                RECORDER.with(|r| *r.borrow_mut() = None);
            }
        }
        RECORDER.with(|r| *r.borrow_mut() = Some(Recording::default()));
        let _disarm = Disarm;
        let mut g = Graph::new();
        let outputs = record(&mut g, cloud);
        let recording = RECORDER.with(|r| r.borrow_mut().take()).expect("recording armed above");
        assert!(!outputs.is_empty(), "the recording closure must return outputs");
        if let Some(err) = recording.error {
            panic!("this forward pass cannot be planned: {err}");
        }
        assert!(recording.open.is_none(), "recording ended inside a module");

        let (plan, arena) = Plan::from_graph(&g, &outputs, &recording.marks);
        plan.check_no_aliasing();
        let step_live = compute_step_live(&plan, &recording);
        let n_states = recording.states.len();
        self.compiled.push(Compiled {
            n_points: cloud.len(),
            plan,
            steps: recording.steps,
            step_live,
            arena,
            samples: SampleCache::new(self.config.sample_cache_cap),
            search: SearchContext::with_planner(self.config.search),
            nit: NeighborIndexTable::default(),
            centroids: Vec::new(),
            shuffle: Vec::new(),
            state_bufs: vec![PointCloud::new(); n_states],
            state_set: vec![false; n_states],
            stream_bindings: None,
            shadow: None,
        });
        self.compiled.len() - 1
    }
}

/// A step is live when a surviving plan node consumes one of its bindings,
/// or a later live step needs a state it derives. Dead steps (e.g. the
/// box-branch searches of F-PointNet when only segmentation logits were
/// requested) are skipped wholesale at execution time.
fn compute_step_live(plan: &Plan, recording: &Recording) -> Vec<bool> {
    // Binding liveness from the marked consumer nodes.
    let mut index_live = vec![false; recording.marks.n_index];
    for (&node, &bid) in &recording.marks.indices {
        index_live[bid] = index_live[bid] || plan.is_live(node);
    }
    let mut stencil_live = vec![false; recording.marks.n_stencil];
    for (&node, &bid) in &recording.marks.stencils {
        stencil_live[bid] = stencil_live[bid] || plan.is_live(node);
    }

    let mut needed_state = vec![false; recording.states.len()];
    let mut live = vec![false; recording.steps.len()];
    for (si, step) in recording.steps.iter().enumerate().rev() {
        match step {
            DynStep::Stencil { coarse, fine, bid, .. } => {
                if stencil_live[*bid] {
                    live[si] = true;
                    needed_state[*coarse] = true;
                    needed_state[*fine] = true;
                }
            }
            DynStep::Search {
                state_in,
                state_out,
                neighbors_bid,
                centroids_bid,
                repeated_bid,
                feature_node,
                ..
            } => {
                let binds_live = [neighbors_bid, centroids_bid, repeated_bid]
                    .into_iter()
                    .flatten()
                    .any(|&b| index_live[b]);
                let out_needed = state_out.is_some_and(|s| needed_state[s]);
                if binds_live || out_needed {
                    live[si] = true;
                    needed_state[*state_in] = true;
                    if let Some(fnode) = feature_node {
                        assert!(
                            plan.is_live(*fnode),
                            "a live feature-space search reads an eliminated feature node"
                        );
                    }
                }
            }
            DynStep::Input { state, input_node, .. } => {
                if needed_state[*state] || plan.input_position(*input_node).is_some() {
                    live[si] = true;
                }
            }
        }
    }
    live
}

/// Cache miss or streamed frame: interleave plan ranges with the live
/// dynamic steps, filling `b`, and finish the run. All per-sample
/// derivation writes into the compiled plan's persistent buffers — state
/// positions, centroid selections, the NIT, and the search indices all
/// reuse capacity, so a same-shaped frame derives without allocating.
fn derive_and_run(c: &mut Compiled, cloud: &PointCloud, b: &mut Bindings) {
    let Compiled {
        plan,
        arena,
        steps,
        step_live,
        search,
        nit,
        centroids,
        shuffle,
        state_bufs,
        state_set,
        ..
    } = c;
    state_set.iter_mut().for_each(|s| *s = false);
    let mut cursor = 0usize;
    for (si, step) in steps.iter().enumerate() {
        if !step_live[si] {
            continue;
        }
        let at = step.at();
        if at > cursor {
            plan.run_range(arena, b, cursor, at);
            cursor = at;
        }
        match step {
            DynStep::Input { state, input_node, source, .. } => {
                match source {
                    StateSource::Sample => state_bufs[*state].copy_from(cloud),
                    StateSource::DerivedInto(f) => f(cloud, &mut state_bufs[*state]),
                }
                state_set[*state] = true;
                if let Some(ip) = plan.input_position(*input_node) {
                    write_xyz_rows(&state_bufs[*state], &mut b.inputs[ip]);
                }
            }
            DynStep::Search {
                state_in,
                state_out,
                neighbor,
                n_out,
                k,
                seed,
                feature_node,
                neighbors_bid,
                centroids_bid,
                repeated_bid,
                ..
            } => {
                assert!(state_set[*state_in], "live steps derive their inputs first");
                let positions = &state_bufs[*state_in];
                select_centroids_into(positions, *n_out, *seed, shuffle, centroids);
                let features = feature_node.map(|f| plan.value(arena, VarId::from_index(f)));
                // Spaces are keyed by state id: stable across frames, so a
                // stream rebuilds each space's index in place, and shared
                // within a frame by every module searching the same state.
                search_nit_into(
                    search,
                    *state_in as u64,
                    positions,
                    features,
                    *neighbor,
                    centroids,
                    *k,
                    nit,
                );
                if let Some(bid) = neighbors_bid {
                    b.indices[*bid].clear();
                    b.indices[*bid].extend_from_slice(nit.neighbors_flat());
                }
                if let Some(bid) = centroids_bid {
                    b.indices[*bid].clear();
                    b.indices[*bid].extend_from_slice(nit.centroids());
                }
                if let Some(bid) = repeated_bid {
                    let out = &mut b.indices[*bid];
                    out.clear();
                    for &cen in nit.centroids() {
                        out.extend(std::iter::repeat_n(cen, *k));
                    }
                }
                if let Some(so) = state_out {
                    let (src, dst) = two_bufs(state_bufs, *state_in, *so);
                    src.select_into(centroids, dst);
                    state_set[*so] = true;
                }
            }
            DynStep::Stencil { coarse, fine, bid, .. } => {
                assert!(
                    state_set[*coarse] && state_set[*fine],
                    "stencil endpoints derive before the stencil"
                );
                // Keyed like the searches: a coarse level a set-abstraction
                // module already indexed this frame serves the stencil.
                let (idx, w) = &mut b.stencils[*bid];
                let (coarse_pts, fine_pts) = (&state_bufs[*coarse], &state_bufs[*fine]);
                search_stencils_into(search, *coarse as u64, coarse_pts, fine_pts, idx, w);
            }
        }
    }
    plan.run_range(arena, b, cursor, plan.len());
}

/// Writes `positions`' xyz rows into `m` (reshaped to `n × 3`), reusing
/// its backing allocation — the streaming path's replacement for
/// `Matrix::from_vec(cloud.to_xyz_rows())`.
fn write_xyz_rows(positions: &PointCloud, m: &mut Matrix) {
    m.reset_shape(positions.len(), 3);
    for (out, p) in m.as_mut_slice().chunks_exact_mut(3).zip(positions.points()) {
        out[0] = p.x;
        out[1] = p.y;
        out[2] = p.z;
    }
}

/// Disjoint `(source, destination)` borrows of two state buffers — a
/// module's output state is always distinct from its input state.
fn two_bufs(bufs: &mut [PointCloud], src: usize, dst: usize) -> (&PointCloud, &mut PointCloud) {
    assert_ne!(src, dst, "a module's output state is distinct from its input");
    if src < dst {
        let (lo, hi) = bufs.split_at_mut(dst);
        (&lo[src], &mut hi[0])
    } else {
        let (lo, hi) = bufs.split_at_mut(src);
        (&hi[0], &mut lo[dst])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Module, ModuleConfig, NeighborMode};
    use crate::runner::{self, ModuleState};
    use crate::Strategy;
    use mesorasi_nn::layers::{NormMode, SharedMlp};
    use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};

    fn offset_module(neighbor: NeighborMode) -> Module {
        let mut rng = mesorasi_pointcloud::seeded_rng(11);
        Module::new(
            ModuleConfig::offset("sa", 24, 6, neighbor, vec![3, 16, 12]),
            NormMode::Feature,
            &mut rng,
        )
    }

    fn edge_module() -> Module {
        let mut rng = mesorasi_pointcloud::seeded_rng(12);
        Module::new(ModuleConfig::edge("ec", 96, 5, vec![3, 10, 8]), NormMode::None, &mut rng)
    }

    fn tape_module_forward(module: &Module, cloud: &PointCloud, strategy: Strategy) -> Matrix {
        let mut g = Graph::new();
        let state = ModuleState::from_cloud(&mut g, cloud);
        let out = runner::run_module(&mut g, module, &state, strategy, 5);
        g.value(out.state.features).clone()
    }

    #[test]
    fn planned_module_matches_tape_on_fresh_clouds() {
        for strategy in Strategy::ALL {
            for module in [
                offset_module(NeighborMode::CoordKnn),
                offset_module(NeighborMode::CoordBall { radius: 0.4 }),
                edge_module(),
            ] {
                let mut engine = PlanEngine::new();
                let record = |g: &mut Graph, cloud: &PointCloud| {
                    let state = ModuleState::from_cloud(g, cloud);
                    let out = runner::run_module(g, &module, &state, strategy, 5);
                    vec![out.state.features]
                };
                // Record on cloud 1, then execute fresh clouds 2 and 3:
                // the per-sample searches must be re-derived, bit-exactly.
                for cloud_seed in [1, 2, 3] {
                    let cloud = sample_shape(ShapeClass::Cup, 96, cloud_seed);
                    let expected = tape_module_forward(&module, &cloud, strategy);
                    let out = engine.run(&cloud, &record);
                    assert_eq!(
                        out.get(0),
                        &expected,
                        "{strategy} {} cloud {cloud_seed}: planned != tape",
                        module.config.name
                    );
                }
                assert_eq!(engine.compiled_plans(), 1, "one shape, one plan");
            }
        }
    }

    #[test]
    fn repeated_samples_hit_the_nit_cache_without_growth() {
        let module = offset_module(NeighborMode::CoordKnn);
        let mut engine = PlanEngine::new();
        let record = |g: &mut Graph, cloud: &PointCloud| {
            let state = ModuleState::from_cloud(g, cloud);
            let out = runner::run_module(g, &module, &state, Strategy::Delayed, 5);
            vec![out.state.features]
        };
        let cloud = sample_shape(ShapeClass::Bottle, 80, 4);
        let first = engine.run(&cloud, &record).get(0).clone();
        for _ in 0..3 {
            let again = engine.run(&cloud, &record);
            assert_eq!(again.get(0), &first, "steady-state replay must be stable");
            assert_eq!(again.stats().grow_events, 0, "steady state must not grow slots");
        }
    }

    #[test]
    fn feature_propagation_replays_with_fresh_stencils() {
        let module = offset_module(NeighborMode::CoordKnn);
        let mut rng = mesorasi_pointcloud::seeded_rng(13);
        let fp_mlp = SharedMlp::new(&[12 + 3, 8], NormMode::None, true, &mut rng);
        let record = |g: &mut Graph, cloud: &PointCloud| {
            let state = ModuleState::from_cloud(g, cloud);
            let coarse = runner::run_module(g, &module, &state, Strategy::Delayed, 5).state;
            let (up, _) = runner::run_feature_propagation(
                g,
                &fp_mlp,
                &coarse,
                &state.positions,
                Some(state.features),
                "fp",
            );
            vec![up.features]
        };
        let mut engine = PlanEngine::new();
        for cloud_seed in [7, 8] {
            let cloud = sample_shape(ShapeClass::Lamp, 64, cloud_seed);
            let mut g = Graph::new();
            let expected = record(&mut g, &cloud)[0];
            let expected = g.value(expected).clone();
            let out = engine.run(&cloud, &record);
            assert_eq!(out.get(0), &expected, "cloud {cloud_seed}");
        }
    }

    #[test]
    fn derived_input_states_replay_per_sample() {
        // A mid-network state derived from the sample (F-PointNet's
        // mask/recenter pattern): the plan must re-derive it per sample.
        let module = offset_module(NeighborMode::CoordKnn);
        let derive: DeriveIntoFn = Arc::new(|cloud, out| {
            let half: Vec<usize> = (0..cloud.len() / 2).collect();
            cloud.select_into(&half, out);
        });
        let record = move |g: &mut Graph, cloud: &PointCloud| {
            let mut cropped = PointCloud::new();
            derive(cloud, &mut cropped);
            let state = ModuleState::from_cloud_derived_into(g, &cropped, derive.clone());
            let out = runner::run_module(g, &module, &state, Strategy::Original, 5);
            vec![out.state.features]
        };
        let mut engine = PlanEngine::new();
        for cloud_seed in [20, 21] {
            let cloud = sample_shape(ShapeClass::Chair, 96, cloud_seed);
            let mut g = Graph::new();
            let expected = record(&mut g, &cloud)[0];
            let expected = g.value(expected).clone();
            let out = engine.run(&cloud, &record);
            assert_eq!(out.get(0), &expected, "cloud {cloud_seed}");
        }
    }

    #[test]
    fn streamed_frames_match_cached_runs_bit_exactly() {
        // The streaming path bypasses the NIT cache and reuses the search
        // arena across frames — outputs must not change by a single bit,
        // including for ball and feature-space searches, at any thread
        // count the cost model chunks the searches for.
        for module in [
            offset_module(NeighborMode::CoordKnn),
            offset_module(NeighborMode::CoordBall { radius: 0.4 }),
            edge_module(),
        ] {
            let record = |g: &mut Graph, cloud: &PointCloud| {
                let state = ModuleState::from_cloud(g, cloud);
                let out = runner::run_module(g, &module, &state, Strategy::Delayed, 5);
                vec![out.state.features]
            };
            let mut cached = PlanEngine::new();
            let mut streamed = PlanEngine::new();
            for frame_seed in [1, 2, 3, 4] {
                let cloud = sample_shape(ShapeClass::Cup, 96, frame_seed);
                let want = cached.run(&cloud, &record).get(0).clone();
                for threads in [1, 4] {
                    let got = mesorasi_par::with_threads(threads, || {
                        streamed.run_streamed(&cloud, &record).get(0).clone()
                    });
                    assert_eq!(
                        got, want,
                        "{} frame {frame_seed} threads {threads}: streamed != cached",
                        module.config.name
                    );
                }
            }
        }
    }

    #[test]
    fn streamed_engine_reports_search_arena_stats() {
        let module = offset_module(NeighborMode::CoordKnn);
        let record = |g: &mut Graph, cloud: &PointCloud| {
            let state = ModuleState::from_cloud(g, cloud);
            let out = runner::run_module(g, &module, &state, Strategy::Delayed, 5);
            vec![out.state.features]
        };
        let mut engine = PlanEngine::new();
        for frame_seed in [10, 11] {
            let cloud = sample_shape(ShapeClass::Bottle, 80, frame_seed);
            let _ = engine.run_streamed(&cloud, &record);
        }
        let stats = engine.stats(80).expect("plan compiled");
        assert!(stats.search_bytes > 0, "search arena must retain storage");
        assert!(stats.search.query_calls >= 2, "one search per frame");
        assert!(stats.search.distance_evals > 0);
        assert_eq!(stats.arena.grow_events, 0);
        let totals = engine.search_counters();
        assert_eq!(totals, stats.search, "one plan ⇒ totals equal per-plan counters");
    }

    #[test]
    fn mixed_traffic_has_no_full_clear_cache_cliff() {
        // The serving workload that exposed the old bug: a hot sample
        // interleaved with unbounded fresh traffic. The wholesale-clear
        // cache dropped the hot entry every time a fresh burst crossed the
        // cap; true LRU must keep the hot sample's hit rate at 100% across
        // more distinct samples than the cache holds.
        let module = offset_module(NeighborMode::CoordKnn);
        let record = |g: &mut Graph, cloud: &PointCloud| {
            let state = ModuleState::from_cloud(g, cloud);
            let out = runner::run_module(g, &module, &state, Strategy::Delayed, 5);
            vec![out.state.features]
        };
        let mut engine = PlanEngine::with_config(EngineConfig {
            sample_cache_cap: 8,
            ..EngineConfig::default()
        });
        let hot = sample_shape(ShapeClass::Chair, 64, 1000);
        let want = engine.run(&hot, &record).get(0).clone();
        let fresh_count = 32; // 4× the cap: would trigger 4 wholesale clears
        for seed in 0..fresh_count {
            let fresh = sample_shape(ShapeClass::Cup, 64, seed);
            let _ = engine.run(&fresh, &record);
            let again = engine.run(&hot, &record);
            assert_eq!(again.get(0), &want, "hot sample replay after fresh #{seed}");
        }
        let cache = engine.sample_cache_stats();
        // Every hot re-run hits; only the fresh samples miss.
        assert_eq!(cache.hits, fresh_count, "hot sample never evicted");
        assert_eq!(cache.misses, 1 + fresh_count);
        assert!(cache.hit_rate() > 0.45, "hit rate floor, got {}", cache.hit_rate());
        assert_eq!(cache.entries, 8, "cache stays full, never cleared");
        // 1 hot + 32 fresh inserts into 8 slots: the first 8 fill, the
        // remaining 25 each evict exactly one entry.
        assert_eq!(cache.evictions, fresh_count - 7, "one eviction per overflow");
    }

    #[test]
    fn eviction_preserves_bit_identical_outputs() {
        // Evict a sample by flooding the cache, then re-run it: the
        // re-derivation must reproduce the original output bit-for-bit.
        let module = offset_module(NeighborMode::CoordKnn);
        let record = |g: &mut Graph, cloud: &PointCloud| {
            let state = ModuleState::from_cloud(g, cloud);
            let out = runner::run_module(g, &module, &state, Strategy::Delayed, 5);
            vec![out.state.features]
        };
        let mut engine = PlanEngine::with_config(EngineConfig {
            sample_cache_cap: 2,
            ..EngineConfig::default()
        });
        let victim = sample_shape(ShapeClass::Lamp, 64, 7);
        let want = engine.run(&victim, &record).get(0).clone();
        for seed in 0..4 {
            let _ = engine.run(&sample_shape(ShapeClass::Table, 64, seed), &record);
        }
        let evictions_before = engine.sample_cache_stats().evictions;
        assert!(evictions_before >= 3, "victim must have been evicted");
        let misses_before = engine.sample_cache_stats().misses;
        let again = engine.run(&victim, &record).get(0).clone();
        assert_eq!(again, want, "re-derived output differs from the cached one");
        assert_eq!(
            engine.sample_cache_stats().misses,
            misses_before + 1,
            "the re-run was a miss (the victim really was evicted)"
        );
    }

    #[test]
    fn cache_stats_surface_in_engine_stats() {
        let module = offset_module(NeighborMode::CoordKnn);
        let record = |g: &mut Graph, cloud: &PointCloud| {
            let state = ModuleState::from_cloud(g, cloud);
            let out = runner::run_module(g, &module, &state, Strategy::Delayed, 5);
            vec![out.state.features]
        };
        let mut engine = PlanEngine::new();
        let cloud = sample_shape(ShapeClass::Bottle, 80, 4);
        let _ = engine.run(&cloud, &record);
        let _ = engine.run(&cloud, &record);
        let stats = engine.stats(80).expect("plan compiled");
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.cache.entries, 1);
        assert_eq!(stats.cache.capacity, crate::DEFAULT_SAMPLE_CACHE_CAP);
        assert_eq!(stats.cache.evictions, 0);
    }

    #[test]
    fn f64_mode_tracks_f32_and_keeps_neighbor_structure() {
        let module = offset_module(NeighborMode::CoordKnn);
        let record = |g: &mut Graph, cloud: &PointCloud| {
            let state = ModuleState::from_cloud(g, cloud);
            let out = runner::run_module(g, &module, &state, Strategy::Delayed, 5);
            vec![out.state.features]
        };
        let cloud = sample_shape(ShapeClass::Cup, 96, 7);

        let mut f32_engine = PlanEngine::new();
        let f32_out = f32_engine.run(&cloud, &record).get(0).clone();

        let mut engine =
            PlanEngine::with_config(EngineConfig { dtype: Dtype::F64, ..EngineConfig::default() });
        assert_eq!(engine.config().dtype, Dtype::F64);
        // Cover both the cache-miss (derive) and cache-hit paths.
        let first = engine.run(&cloud, &record).get(0).clone();
        let second = engine.run(&cloud, &record).get(0).clone();
        assert_eq!(first, second, "f64 replay must be deterministic");
        assert_eq!(first.shape(), f32_out.shape());
        for r in 0..first.rows() {
            for (a, b) in first.row(r).iter().zip(f32_out.row(r)) {
                assert!(
                    (a - b).abs() <= 1e-3 * (1.0 + b.abs()),
                    "f64 value {a} drifted from f32 value {b}"
                );
            }
        }
        // Streamed execution honors the dtype too.
        let streamed = engine.run_streamed(&cloud, &record).get(0).clone();
        assert_eq!(streamed, first, "streamed f64 must match cached f64");
    }

    #[test]
    fn derive_into_states_replay_without_cloning() {
        // The derived-input pattern on the streamed path: the derivation
        // writes into the engine's state buffer and must replay per sample
        // bit-identically to an allocating derivation on the tape.
        let module = offset_module(NeighborMode::CoordKnn);
        let derive = |cloud: &PointCloud| {
            let half: Vec<usize> = (0..cloud.len() / 2).collect();
            cloud.select(&half)
        };
        let derive_into: DeriveIntoFn = Arc::new(move |cloud, out| {
            let half: Vec<usize> = (0..cloud.len() / 2).collect();
            cloud.select_into(&half, out);
        });
        let record = move |g: &mut Graph, cloud: &PointCloud| {
            let cropped = derive(cloud);
            let state = ModuleState::from_cloud_derived_into(g, &cropped, derive_into.clone());
            let out = runner::run_module(g, &module, &state, Strategy::Original, 5);
            vec![out.state.features]
        };
        let mut engine = PlanEngine::new();
        for cloud_seed in [30, 31] {
            let cloud = sample_shape(ShapeClass::Chair, 96, cloud_seed);
            let mut g = Graph::new();
            let expected = record(&mut g, &cloud)[0];
            let expected = g.value(expected).clone();
            let got = engine.run_streamed(&cloud, &record);
            assert_eq!(got.get(0), &expected, "cloud {cloud_seed}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot be planned")]
    fn underivable_mid_network_input_is_rejected() {
        let record = |g: &mut Graph, cloud: &PointCloud| {
            let _root = ModuleState::from_cloud(g, cloud);
            // A second from_cloud with no derivation: not replayable.
            let other = sample_shape(ShapeClass::Table, 16, 99);
            let state = ModuleState::from_cloud(g, &other);
            vec![state.features]
        };
        let mut engine = PlanEngine::new();
        let cloud = sample_shape(ShapeClass::Chair, 32, 1);
        let _ = engine.run(&cloud, &record);
    }
}
