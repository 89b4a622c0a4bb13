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
//! 2. **neighbor lists**: the neighbor-search results (the NIT), which the
//!    executors consume as gather/reduce index lists,
//! 3. **interpolation stencils**: the 3-NN inverse-distance weights of
//!    feature propagation.
//!
//! Centroid selections are not among them: random sampling reads only a
//! state's point count and the seed, so the recording's centroid lists are
//! plan constants — the centroid gathers replay as structural ops, and
//! each search step keeps its list to query with and to select the output
//! positions by.
//!
//! A [`PlanEngine`] compiles a shape by recording the network's forward
//! once on a shape-only [`Graph`] ([`Graph::shapes_only`]): every op pushes
//! its op and output shape and computes nothing, parameters keep the values
//! the plan snapshots, and the neighbor searches and interpolation stencils
//! emit placeholders of the recorded shape without searching (the plan binds
//! them per sample anyway). Compiling therefore costs no tape arithmetic and
//! keeps no tape: its peak memory is the plan it produces. Meanwhile a
//! thread-local recorder (armed only during recording) captures a list of
//! [`DynStep`]s describing how each per-sample value derives from the
//! sample. Executing a *new* sample interleaves plan ranges with the
//! dynamic steps — the feature-space searches of DGCNN read intermediate
//! features straight out of the arena — writing the derived [`Bindings`]
//! into the engine's one set of frame bindings. A streamed frame stops
//! there; a cache miss then copies them into the sample cache (the NIT
//! cache), so repeated inference on a seen sample runs pure planned tensor
//! code with **zero per-sample allocation**.
//!
//! The searches and stencil computation are the very functions the
//! tape-based runner calls, so planned execution is bit-identical to
//! [`crate::runner::run_module`]-based forwards at every thread count. The
//! engine assumes frozen parameters: plans snapshot weights at compile
//! time, and cached NITs for feature-space searches are only valid while
//! the weights that produced those features stay put.

use crate::module::NeighborMode;
use crate::runner::{search_nit_into, search_stencils_into};
use crate::sample_cache::{SampleCache, SampleCacheStats};
use mesorasi_knn::stats::SearchCounters;
use mesorasi_knn::{NeighborIndexTable, SearchContext};
use mesorasi_nn::ir::VarId;
use mesorasi_nn::plan::{Arena, ArenaStats, Bindings, DynMarks, Plan};
use mesorasi_nn::Graph;
use mesorasi_pointcloud::PointCloud;
use mesorasi_tensor::Matrix;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A recording closure: builds one cloud's forward, returns the outputs.
pub type RecordFn<'r> = dyn Fn(&mut Graph, &PointCloud) -> Vec<VarId> + 'r;

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

/// One per-sample derivation the engine replays between plan ranges.
/// `at` is the tape position the step must complete before.
pub enum DynStep {
    /// Derive a position state and write its xyz rows into the plan input.
    Input {
        /// The state id being derived.
        state: usize,
        /// The `Input` node whose value is the state's xyz rows; its tape
        /// position is the step's `at`.
        input_node: usize,
        /// How the positions derive from the sample.
        source: StateSource,
    },
    /// Run the module's neighbor search from the recorded centroids,
    /// filling the neighbor binding the executors consume.
    Search {
        /// Tape position before the module's first op.
        at: usize,
        /// Input state id.
        state_in: usize,
        /// Output state id: the centroids' positions.
        state_out: usize,
        /// The search mode (kNN / ball / feature-space).
        neighbor: NeighborMode,
        /// The recording's centroid rows of the input state: the same for
        /// every sample of the plan's shape.
        centroids: Vec<usize>,
        /// Neighbors per centroid.
        k: usize,
        /// For feature-space search: the tape node holding the features.
        feature_node: Option<usize>,
        /// Binding for the flattened neighbor lists.
        neighbors_bid: Option<usize>,
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
            DynStep::Input { input_node: at, .. }
            | DynStep::Search { at, .. }
            | DynStep::Stencil { at, .. } => *at,
        }
    }
}

/// Everything the thread-local recorder accumulates during one recording
/// forward pass.
#[derive(Default)]
pub(crate) struct Recording {
    steps: Vec<DynStep>,
    marks: DynMarks,
    /// One flag per registered position state: whether replay can
    /// re-derive its positions. Group-all outputs cannot, which is legal
    /// as long as no later step needs them.
    derivable: Vec<bool>,
    state_by_var: HashMap<usize, usize>,
    /// Position in `steps` of the module search between `begin_search` and
    /// `end_search`.
    open: Option<usize>,
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
    pub(crate) fn input_state(input_var: VarId, source: Option<StateSource>) {
        with(|rec| {
            let source = match source {
                Some(s) => s,
                None if rec.derivable.is_empty() => StateSource::Sample,
                None => {
                    rec.error = Some(
                        "a mid-network input state has no derivation; create it with \
                         ModuleState::from_cloud_derived_into so the plan can replay it"
                            .into(),
                    );
                    return;
                }
            };
            let state = rec.derivable.len();
            rec.derivable.push(true);
            rec.state_by_var.insert(input_var.index(), state);
            rec.steps.push(DynStep::Input { state, input_node: input_var.index(), source });
        });
    }

    /// Opens a module search: pushes its step, to which executors attach
    /// the neighbor binding and `end_search` the output state. Nothing else
    /// records in between, so steps stay in tape order.
    pub(crate) fn begin_search(
        at: usize,
        state_features: VarId,
        neighbor: NeighborMode,
        centroids: &[usize],
        k: usize,
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
            if !rec.derivable[state_in] {
                rec.error =
                    Some("a searching module consumes a group-all output's positions".into());
                return;
            }
            let feature_node =
                matches!(neighbor, NeighborMode::FeatureKnn).then_some(state_features.index());
            rec.open = Some(rec.steps.len());
            rec.steps.push(DynStep::Search {
                at,
                state_in,
                state_out: usize::MAX, // set by `end_search`
                neighbor,
                centroids: centroids.to_vec(),
                k,
                feature_node,
                neighbors_bid: None,
            });
        });
    }

    /// Marks `var`'s index operand as the open search's neighbor lists.
    pub(crate) fn bind_neighbors(var: VarId) {
        with(|rec| {
            let n_index = &mut rec.marks.n_index;
            let Some(open) = rec.open else {
                return; // executors may run outside run_module in tests
            };
            let DynStep::Search { neighbors_bid, .. } = &mut rec.steps[open] else {
                unreachable!("`open` names a search step");
            };
            let bid = *neighbors_bid.get_or_insert_with(|| {
                let bid = *n_index;
                *n_index += 1;
                bid
            });
            rec.marks.indices.insert(var.index(), bid);
        });
    }

    /// Closes the open search, registering the module's output state.
    pub(crate) fn end_search(out_features: VarId) {
        with(|rec| {
            let Some(open) = rec.open.take() else { return };
            let state = rec.derivable.len();
            rec.derivable.push(true);
            rec.state_by_var.insert(out_features.index(), state);
            let DynStep::Search { state_out, .. } = &mut rec.steps[open] else {
                unreachable!("`open` names a search step");
            };
            *state_out = state;
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
            let state = rec.derivable.len();
            rec.derivable.push(false);
            rec.state_by_var.insert(out_features.index(), state);
        });
    }

    /// Records a feature-propagation step. `stencil_var` is the
    /// weighted-gather node when the 3-NN path ran (`None` for the
    /// broadcast path, whose gather indices are structural).
    pub(crate) fn feature_propagation(
        coarse_features: VarId,
        fine_features: VarId,
        stencil_var: Option<VarId>,
        out_features: VarId,
    ) {
        with(|rec| {
            let Some(&fine) = rec.state_by_var.get(&fine_features.index()) else {
                rec.error = Some("feature propagation's fine state is unregistered".into());
                return;
            };
            if let Some(var) = stencil_var {
                let Some(&coarse) = rec.state_by_var.get(&coarse_features.index()) else {
                    rec.error = Some("feature propagation coarse state is unregistered".into());
                    return;
                };
                if !rec.derivable[coarse] {
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

/// A compiled plan and its live dynamic steps: immutable, so engines share it.
struct Compiled {
    n_points: usize,
    plan: Plan,
    /// The steps that survived plan dead-code elimination, in tape order.
    steps: Vec<DynStep>,
    /// Position states the recording registered.
    n_states: usize,
}

impl Compiled {
    /// Heap bytes retained: the plan and the search steps' centroid lists.
    fn storage_bytes(&self) -> usize {
        let centroids = |s: &DynStep| match s {
            DynStep::Search { centroids, .. } => centroids.capacity(),
            _ => 0,
        };
        self.plan.storage_bytes()
            + self.steps.iter().map(centroids).sum::<usize>() * std::mem::size_of::<usize>()
    }
}

/// Records `record`'s forward on `cloud`'s shape, computing nothing, and
/// compiles it.
fn compile(cloud: &PointCloud, record: &RecordFn) -> Compiled {
    // Arm the recorder for this thread; disarm even on unwind.
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            RECORDER.with(|r| *r.borrow_mut() = None);
        }
    }
    RECORDER.with(|r| *r.borrow_mut() = Some(Recording::default()));
    let _disarm = Disarm;
    let mut g = Graph::shapes_only();
    let outputs = record(&mut g, cloud);
    let recording = RECORDER.with(|r| r.borrow_mut().take()).expect("recording armed above");
    assert!(!outputs.is_empty(), "the recording closure must return outputs");
    if let Some(err) = recording.error {
        panic!("this forward pass cannot be planned: {err}");
    }
    assert!(recording.open.is_none(), "recording ended inside a module");

    let plan = Plan::from_graph(&g, &outputs, &recording.marks);
    plan.check_no_aliasing();
    let live = compute_step_live(&plan, &recording);
    let n_states = recording.derivable.len();
    let steps = recording.steps.into_iter().zip(live).filter_map(|(s, l)| l.then_some(s)).collect();
    Compiled { n_points: cloud.len(), plan, steps, n_states }
}

/// Every update leaves the vector valid, and recording runs unlocked: recover a poisoned lock.
fn lock(store: &Mutex<Vec<Arc<Compiled>>>) -> MutexGuard<'_, Vec<Arc<Compiled>>> {
    store.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The plan for `n_points`, moved to the back: the most recently run.
fn touch(plans: &mut [Arc<Compiled>], n_points: usize) -> Option<Arc<Compiled>> {
    let i = plans.iter().position(|c| c.n_points == n_points)?;
    plans[i..].rotate_left(1);
    plans.last().cloned()
}

/// What a frame derives into, shared by every compiled shape: a frame
/// rewrites all of it, so one copy per engine serves every plan.
#[derive(Default)]
struct Derived {
    /// The search arena: per-space reusable index storage, keyed by
    /// module-state id so streaming frames rebuild indices in place.
    search: SearchContext,
    /// Reusable NIT buffer the searches write into before binding fill.
    nit: NeighborIndexTable,
    /// Reusable per-state position clouds, as many as the largest state
    /// count run (`state_set[i]` marks the ones derived during the
    /// current pass).
    state_bufs: Vec<PointCloud>,
    state_set: Vec<bool>,
    /// The frame's bindings (input rows, neighbor lists, stencils), fitted
    /// to the running plan: what a streamed frame runs on and a cache miss
    /// copies into the sample cache.
    bindings: Bindings,
}

impl Derived {
    /// Heap bytes retained: cached indices, the NIT, the per-state
    /// position clouds and the frame bindings.
    fn storage_bytes(&self) -> usize {
        self.search.storage_bytes()
            + self.nit.storage_bytes()
            + self.state_bufs.iter().map(PointCloud::storage_bytes).sum::<usize>()
            + self.bindings.storage_bytes()
    }
}

/// Borrow of a finished execution's outputs.
pub struct PlannedOutputs<'a> {
    plan: &'a Plan,
    arena: &'a Arena,
}

impl<'a> PlannedOutputs<'a> {
    /// The `i`-th output requested by the recording closure. The borrow
    /// carries the engine's lifetime, so several outputs can be held at
    /// once.
    pub fn get(&self, i: usize) -> &'a Matrix {
        self.plan.output(self.arena, i)
    }

    /// Number of outputs.
    pub fn len(&self) -> usize {
        self.plan.output_count()
    }

    /// True when the recording produced no outputs (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Usage statistics of an engine: its arena as one compiled plan uses it,
/// the plans it shares, and its derivation state and sample cache.
#[derive(Debug, Clone, Copy)]
pub struct EngineStats {
    /// Tensor-arena statistics (slots, bytes, reuse, growth) of the plan
    /// asked for, in the engine's one arena.
    pub arena: ArenaStats,
    /// Heap bytes retained by the compiled plans the engine shares (weights,
    /// structural index lists and the search steps' centroid lists),
    /// counted once: the same on every sharing engine.
    pub plan_bytes: usize,
    /// Heap bytes retained by the engine's derivation state: cached
    /// indices and their verification clouds, the NIT buffer, per-state
    /// positions and the one set of frame bindings.
    pub search_bytes: usize,
    /// Heap bytes retained by the sample cache: cached clouds plus the
    /// capacity of their bindings.
    pub cache_bytes: usize,
    /// Search-traffic counters of the engine's context.
    pub search: SearchCounters,
    /// NIT sample-cache traffic (hits / misses / LRU evictions).
    pub cache: SampleCacheStats,
    /// Heap bytes retained by the process-wide per-worker search scratch
    /// pools — candidate buffers and the feature scan's Gram tiles (the
    /// parallel half of the memory-ceiling contract; shared across
    /// engines, bounded by worker count).
    pub parallel_scratch_bytes: usize,
}

impl EngineStats {
    /// Accumulates another engine's statistics of the same plan (sessions
    /// sum their workers): arena bytes and growth, derivation-state and
    /// cache bytes and both traffic counters add up; the plan's slot
    /// layout, the shared plans and the process-wide scratch pools count
    /// once.
    pub fn add(&mut self, other: &EngineStats) {
        self.arena.peak_bytes += other.arena.peak_bytes;
        self.arena.grow_events += other.arena.grow_events;
        self.search_bytes += other.search_bytes;
        self.cache_bytes += other.cache_bytes;
        self.search.add(&other.search);
        self.cache.add(&other.cache);
    }
}

/// A plan-and-execute inference session.
///
/// One engine serves one frozen `(network, strategy, seed)` combination —
/// the recording closure the caller passes must be a pure function of
/// `(Graph, PointCloud)`. Plans are compiled per input shape on first
/// sight into a store of at most [`MAX_PLANS`], which engines built with
/// [`PlanEngine::sharing_plans`] share, weights included. Each engine keeps
/// one arena, fitted to the plan it runs, and one copy of everything a
/// frame derives into (search arena, NIT, position buffers, frame
/// bindings) and of the sample cache. A cache miss derives into the frame
/// bindings and caches a copy, so the steady state (repeated samples)
/// allocates nothing. For frame sequences that never repeat,
/// [`PlanEngine::run_streamed`] bypasses the cache and runs on the frame
/// bindings alone.
#[derive(Default)]
pub struct PlanEngine {
    /// The session's compiled plans, at most [`MAX_PLANS`], least recently run first.
    plans: Arc<Mutex<Vec<Arc<Compiled>>>>,
    /// The plan last run: the one `arena` is fitted to and outputs borrow.
    running: Option<Arc<Compiled>>,
    arena: Arena,
    derived: Derived,
    /// NIT cache: content-keyed, true-LRU bindings per seen sample. A
    /// sample's content fixes its shape, and recording is pure, so cached
    /// bindings stay valid for a plan recompiled after eviction.
    samples: SampleCache,
}

/// Compiled plans a store keeps (one store per session, or lone engine).
/// Each holds a weight snapshot, so a store that kept one per point count
/// ever seen would grow with every count a client sends; a new shape beyond
/// them evicts the least recently run plan, which recompiles bit-identically.
pub const MAX_PLANS: usize = 4;

impl PlanEngine {
    /// An engine with no compiled plans yet.
    ///
    /// Nothing about an engine is configurable, and none of it changes
    /// results: its store keeps at most [`MAX_PLANS`] compiled plans, one
    /// sample cache holds the bindings of up to [`crate::SAMPLE_CACHE_CAP`]
    /// samples of any shape, every coordinate search runs on the octree,
    /// and batch searches split across the worker pool wherever
    /// `mesorasi_par::chunk_len`'s cost model says the work pays for it;
    /// outputs are bit-identical at every thread count.
    pub fn new() -> PlanEngine {
        PlanEngine::default()
    }

    /// A fresh engine sharing `first`'s compiled plans (and their eviction);
    /// its arena, derivation state and sample cache are its own.
    pub fn sharing_plans(first: &PlanEngine) -> PlanEngine {
        PlanEngine { plans: Arc::clone(&first.plans), ..PlanEngine::default() }
    }

    /// NIT sample-cache traffic since the engine was built.
    pub fn sample_cache_stats(&self) -> SampleCacheStats {
        self.samples.stats()
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
    pub fn run(&mut self, cloud: &PointCloud, record: &RecordFn) -> PlannedOutputs<'_> {
        self.enter(cloud, record);
        let c = self.running.as_deref().expect("entered above");
        let hash = cloud.content_hash();
        match self.samples.get(hash, cloud) {
            Some(bindings) => {
                // Steady state: pure planned tensor execution, no searches,
                // no allocation (a hit only restamps its slot).
                c.plan.run(&mut self.arena, bindings);
            }
            None => {
                derive_and_run(c, &mut self.arena, &mut self.derived, cloud);
                // True LRU: at capacity exactly one (least recently used)
                // entry is evicted — never a wholesale clear, so hot
                // samples survive unbounded fresh traffic.
                self.samples.insert(hash, cloud, &self.derived.bindings);
            }
        }
        PlannedOutputs { plan: &c.plan, arena: &self.arena }
    }

    /// Runs one planned forward in streaming (frame-sequence) mode: the
    /// per-sample NIT cache is bypassed — frames of a stream rarely repeat,
    /// so caching them would only burn memory — and every per-frame
    /// derivation (input matrices, neighbor searches, stencils) writes into
    /// this engine's persistent buffers, shared by every compiled shape:
    /// a cache miss minus the copy into the cache.
    /// Search indices warm-start from the previous frame: frames rebuild
    /// index *contents* while reusing capacity, so once each shape a stream
    /// sends has run, it performs zero heap allocations per frame, searches
    /// included.
    /// Outputs are bit-identical to [`PlanEngine::run`] on the same cloud.
    ///
    /// # Panics
    ///
    /// As [`PlanEngine::run`].
    pub fn run_streamed(&mut self, cloud: &PointCloud, record: &RecordFn) -> PlannedOutputs<'_> {
        self.enter(cloud, record);
        let c = self.running.as_deref().expect("entered above");
        derive_and_run(c, &mut self.arena, &mut self.derived, cloud);
        PlannedOutputs { plan: &c.plan, arena: &self.arena }
    }

    /// Statistics of the engine when its store holds a plan for `n_points`:
    /// that plan's use of the arena, plus the engine-wide bytes and counters.
    pub fn stats(&self, n_points: usize) -> Option<EngineStats> {
        let plans = lock(&self.plans);
        let c = plans.iter().find(|c| c.n_points == n_points)?;
        Some(EngineStats {
            arena: c.plan.stats(&self.arena),
            plan_bytes: plans.iter().map(|c| c.storage_bytes()).sum(),
            search_bytes: self.derived.storage_bytes(),
            cache_bytes: self.samples.storage_bytes(),
            search: self.search_counters(),
            cache: self.samples.stats(),
            parallel_scratch_bytes: mesorasi_knn::parallel_scratch_bytes(),
        })
    }

    /// Search-traffic counters since the engine was built.
    pub fn search_counters(&self) -> SearchCounters {
        self.derived.search.counters()
    }

    /// Number of compiled plans the engine's store holds: the distinct
    /// input shapes its engines ran most recently, at most [`MAX_PLANS`].
    pub fn compiled_plans(&self) -> usize {
        lock(&self.plans).len()
    }

    /// Makes the plan for `cloud`'s shape the running one, compiling it
    /// outside the store's lock unless the store holds it or another engine
    /// inserts it first, and fits the arena, position buffers and frame
    /// bindings to it.
    fn enter(&mut self, cloud: &PointCloud, record: &RecordFn) {
        let found = touch(&mut lock(&self.plans), cloud.len()); // unlocks before compiling
        let c = found.unwrap_or_else(|| {
            let compiled = compile(cloud, record);
            let mut plans = lock(&self.plans);
            touch(&mut plans, cloud.len()).unwrap_or_else(|| {
                if plans.len() == MAX_PLANS {
                    plans.remove(0);
                }
                plans.push(Arc::new(compiled));
                Arc::clone(&plans[plans.len() - 1])
            })
        });
        self.arena.fit(&c.plan);
        let d = &mut self.derived;
        if c.n_states > d.state_bufs.len() {
            d.state_bufs.resize_with(c.n_states, PointCloud::new);
            d.state_set.resize(c.n_states, false);
        }
        d.bindings.fit(&c.plan);
        self.running = Some(c);
    }
}

/// A step is live when a surviving plan node consumes one of its bindings,
/// or a later live step needs a state it derives. Dead steps (e.g. the
/// box-branch searches of F-PointNet when only segmentation logits were
/// requested) are dropped at compile time.
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

    let mut needed_state = vec![false; recording.derivable.len()];
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
            DynStep::Search { state_in, state_out, neighbors_bid, feature_node, .. } => {
                let binds_live = neighbors_bid.is_some_and(|b| index_live[b]);
                if binds_live || needed_state[*state_out] {
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
/// dynamic steps, filling the frame bindings, and finish the run. All
/// per-sample derivation writes into the engine's persistent buffers —
/// state positions, the NIT, the search indices and the bindings all reuse
/// capacity, so a frame of a shape seen before derives without allocating.
fn derive_and_run(c: &Compiled, arena: &mut Arena, d: &mut Derived, cloud: &PointCloud) {
    let Compiled { plan, steps, n_states, .. } = c;
    let Derived { search, nit, state_bufs, state_set, bindings: b } = d;
    state_set[..*n_states].fill(false);
    let mut cursor = 0usize;
    for step in steps {
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
                centroids,
                k,
                feature_node,
                neighbors_bid,
                ..
            } => {
                assert!(state_set[*state_in], "live steps derive their inputs first");
                let positions = &state_bufs[*state_in];
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
                let (src, dst) = two_bufs(state_bufs, *state_in, *state_out);
                src.select_into(centroids, dst);
                state_set[*state_out] = true;
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
    use crate::sample_cache::SAMPLE_CACHE_CAP;
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

    /// The recording closure of `module`'s forward under `Strategy::Delayed`.
    fn delayed_forward(module: &Module) -> impl Fn(&mut Graph, &PointCloud) -> Vec<VarId> + '_ {
        move |g, cloud| {
            let state = ModuleState::from_cloud(g, cloud);
            vec![runner::run_module(g, module, &state, Strategy::Delayed, 5).state.features]
        }
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
        let record = delayed_forward(&module);
        let cloud = sample_shape(ShapeClass::Bottle, 80, 4);
        let first = engine.run(&cloud, &record).get(0).clone();
        for _ in 0..3 {
            assert_eq!(engine.run(&cloud, &record).get(0), &first, "steady-state replay drifted");
            let grown = engine.stats(80).expect("compiled").arena.grow_events;
            assert_eq!(grown, 0, "steady state must not grow slots");
        }
    }

    #[test]
    fn engines_sharing_plans_compile_each_shape_once() {
        let module = offset_module(NeighborMode::CoordKnn);
        let recordings = std::cell::Cell::new(0);
        let record = |g: &mut Graph, cloud: &PointCloud| {
            recordings.set(recordings.get() + 1);
            delayed_forward(&module)(g, cloud)
        };
        let mut first = PlanEngine::new();
        let mut second = PlanEngine::sharing_plans(&first);
        for cloud_seed in [1, 2] {
            let cloud = sample_shape(ShapeClass::Cup, 96, cloud_seed);
            let want = tape_module_forward(&module, &cloud, Strategy::Delayed);
            assert_eq!(first.run(&cloud, &record).get(0), &want, "cloud {cloud_seed}");
            assert_eq!(second.run_streamed(&cloud, &record).get(0), &want, "cloud {cloud_seed}");
        }
        assert_eq!(recordings.get(), 1, "the second engine recompiled a shared shape");
        assert_eq!((first.compiled_plans(), second.compiled_plans()), (1, 1));
        let (a, b) = (first.stats(96).expect("shared"), second.stats(96).expect("shared"));
        assert_eq!(a.plan_bytes, b.plan_bytes, "one plan, counted once by both");
        let _ = second.run(&sample_shape(ShapeClass::Cup, 64, 3), &record);
        assert_eq!(first.compiled_plans(), 2, "a shape one engine compiles serves the other");
        assert!(first.stats(96).expect("shared").plan_bytes > a.plan_bytes);
    }

    #[test]
    fn feature_propagation_replays_with_fresh_stencils() {
        let module = offset_module(NeighborMode::CoordKnn);
        let mut rng = mesorasi_pointcloud::seeded_rng(13);
        let fp_mlp = SharedMlp::new(&[12 + 3, 8], NormMode::None, true, &mut rng);
        let record = |g: &mut Graph, cloud: &PointCloud| {
            let state = ModuleState::from_cloud(g, cloud);
            let coarse = runner::run_module(g, &module, &state, Strategy::Delayed, 5).state;
            let (up, _) = runner::run_feature_propagation(g, &fp_mlp, &coarse, &state, "fp");
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
            let record = delayed_forward(&module);
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
        let record = delayed_forward(&module);
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
        assert_eq!(totals, stats.search, "stats carry the engine-wide counters");
    }

    #[test]
    fn mixed_traffic_has_no_full_clear_cache_cliff() {
        // A hot sample interleaved with unbounded fresh traffic, as serving
        // sees it. A cache cleared wholesale at capacity would drop the hot
        // entry each time fresh traffic fills it; true LRU must keep the
        // hot sample's hit rate at 100% across more distinct samples than
        // the cache holds.
        let module = offset_module(NeighborMode::CoordKnn);
        let record = delayed_forward(&module);
        let mut engine = PlanEngine::new();
        let hot = sample_shape(ShapeClass::Chair, 64, 1000);
        let want = engine.run(&hot, &record).get(0).clone();
        let fresh_count = SAMPLE_CACHE_CAP as u64 + 8;
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
        assert_eq!(cache.entries, SAMPLE_CACHE_CAP, "cache stays full, never cleared");
        // 1 hot + `cap + 8` fresh inserts into `cap` slots: the first `cap`
        // fill, the remaining 9 each evict exactly one entry.
        let overflow = 1 + fresh_count - SAMPLE_CACHE_CAP as u64;
        assert_eq!(cache.evictions, overflow, "one eviction per overflow");
    }

    #[test]
    fn eviction_preserves_bit_identical_outputs() {
        // Evict a sample by flooding the cache, then re-run it: the
        // re-derivation must reproduce the original output bit-for-bit.
        let module = offset_module(NeighborMode::CoordKnn);
        let record = delayed_forward(&module);
        let mut engine = PlanEngine::new();
        let victim = sample_shape(ShapeClass::Lamp, 64, 7);
        let want = engine.run(&victim, &record).get(0).clone();
        let flood = SAMPLE_CACHE_CAP as u64 + 8;
        for seed in 0..flood {
            let _ = engine.run(&sample_shape(ShapeClass::Table, 64, seed), &record);
        }
        let evictions_before = engine.sample_cache_stats().evictions;
        // 1 victim + `cap + 8` flood inserts: 9 evictions, the victim (least
        // recently used) first.
        assert_eq!(evictions_before, 1 + flood - SAMPLE_CACHE_CAP as u64);
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
    fn the_cache_keeps_a_copy_not_the_frame_bindings() {
        // A miss derives into the frame bindings and caches a copy: a
        // streamed frame in between rewrites the frame bindings and must
        // leave the cached sample's answer as it was.
        let module = offset_module(NeighborMode::CoordKnn);
        let record = delayed_forward(&module);
        let mut engine = PlanEngine::new();
        let (a, b) = (sample_shape(ShapeClass::Cup, 96, 70), sample_shape(ShapeClass::Cup, 96, 71));
        let want = tape_module_forward(&module, &a, Strategy::Delayed);
        let _ = engine.run(&a, &record);
        let _ = engine.run_streamed(&b, &record);
        assert_eq!(engine.run(&a, &record).get(0), &want, "the hit read B's neighbor lists");
        let cache = engine.sample_cache_stats();
        assert_eq!((cache.hits, cache.misses), (1, 1));
    }

    #[test]
    fn cache_stats_surface_in_engine_stats() {
        let module = offset_module(NeighborMode::CoordKnn);
        let record = delayed_forward(&module);
        let mut engine = PlanEngine::new();
        let cloud = sample_shape(ShapeClass::Bottle, 80, 4);
        let _ = engine.run(&cloud, &record);
        let _ = engine.run(&cloud, &record);
        let stats = engine.stats(80).expect("plan compiled");
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.cache.entries, 1);
        assert_eq!(stats.cache.capacity, SAMPLE_CACHE_CAP);
        assert_eq!(stats.cache.evictions, 0);
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
    fn an_engine_keeps_at_most_max_plans_shapes() {
        let module = offset_module(NeighborMode::CoordKnn);
        let record = delayed_forward(&module);
        let mut engine = PlanEngine::new();
        let clouds: Vec<PointCloud> =
            (0..MAX_PLANS + 2).map(|i| sample_shape(ShapeClass::Cup, 64 + 8 * i, 3)).collect();
        let first = engine.run(&clouds[0], &record).get(0).clone();
        for cloud in &clouds[1..] {
            let _ = engine.run(cloud, &record);
        }
        assert_eq!(engine.compiled_plans(), MAX_PLANS, "older shapes are evicted");
        assert!(engine.stats(clouds[0].len()).is_none(), "the first shape ran least recently");
        // The evicted shape recompiles and answers bit for bit as before.
        assert_eq!(engine.run(&clouds[0], &record).get(0), &first);
        assert_eq!(engine.compiled_plans(), MAX_PLANS);
        // The evicted shape's sample was still cached, so its re-run is a
        // hit: one search and one cache miss per other run.
        let runs = MAX_PLANS as u64 + 3;
        assert_eq!(engine.search_counters().query_calls, runs - 1);
        let cache = engine.sample_cache_stats();
        assert_eq!((cache.misses, cache.hits), (runs - 1, 1));
    }

    #[test]
    fn cache_bytes_count_clouds_and_bindings_and_move_only_on_a_miss() {
        let module = offset_module(NeighborMode::CoordKnn);
        let record = delayed_forward(&module);
        let mut engine = PlanEngine::new();
        let clouds: Vec<PointCloud> =
            (0..3).map(|s| sample_shape(ShapeClass::Cup, 80, 40 + s)).collect();
        let mut bytes = 0;
        for cloud in &clouds {
            let _ = engine.run(cloud, &record);
            let now = engine.stats(80).expect("compiled").cache_bytes;
            assert!(now > bytes, "a miss caches a cloud and its bindings");
            bytes = now;
        }
        // Beside its cloud, each entry holds at least the module's
        // 24 × 6 neighbor indices.
        let clouds_bytes: usize = clouds.iter().map(|c| c.clone().storage_bytes()).sum();
        let neighbors = 24 * 6 * std::mem::size_of::<usize>();
        assert!(bytes >= clouds_bytes + 3 * neighbors, "{bytes} bytes leave out the bindings");
        let _ = engine.run(&clouds[1], &record);
        let _ = engine.run_streamed(&sample_shape(ShapeClass::Cup, 80, 50), &record);
        let stats = engine.stats(80).expect("compiled");
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache_bytes, bytes, "a hit or a streamed frame changed the cache");
    }

    #[test]
    fn dead_steps_are_skipped_and_outputs_stay_bit_identical() {
        // Only the first module's output is returned: the second offset
        // module and the feature-space edge module on its output feed a
        // dropped branch, so the plan eliminates their nodes and replay
        // must skip their searches (the edge search would otherwise read
        // an eliminated feature node).
        let kept = offset_module(NeighborMode::CoordKnn);
        let dropped = offset_module(NeighborMode::CoordBall { radius: 0.4 });
        let mut rng = mesorasi_pointcloud::seeded_rng(14);
        let edge =
            Module::new(ModuleConfig::edge("ec", 24, 5, vec![12, 10, 8]), NormMode::None, &mut rng);
        let record = |g: &mut Graph, cloud: &PointCloud| {
            let state = ModuleState::from_cloud(g, cloud);
            let out = runner::run_module(g, &kept, &state, Strategy::Delayed, 5);
            let branch = runner::run_module(g, &dropped, &state, Strategy::Delayed, 6);
            let _ = runner::run_module(g, &edge, &branch.state, Strategy::Delayed, 7);
            vec![out.state.features]
        };
        let mut engine = PlanEngine::new();
        let _ = engine.run(&sample_shape(ShapeClass::Cup, 96, 60), &record);
        for cloud_seed in [61, 62] {
            let cloud = sample_shape(ShapeClass::Cup, 96, cloud_seed);
            let mut g = Graph::new();
            let expected = record(&mut g, &cloud)[0];
            let expected = g.value(expected).clone();
            let before = engine.search_counters().query_calls;
            assert_eq!(engine.run(&cloud, &record).get(0), &expected, "run, cloud {cloud_seed}");
            let got = engine.run_streamed(&cloud, &record);
            assert_eq!(got.get(0), &expected, "run_streamed, cloud {cloud_seed}");
            let calls = engine.search_counters().query_calls - before;
            assert_eq!(calls, 2, "one search per run, cloud {cloud_seed}");
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
