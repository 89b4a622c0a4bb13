//! Session-first inference: one owned, thread-safe entry point for all
//! seven networks.
//!
//! A [`Session`] owns a frozen [`PointCloudNetwork`] plus a pool of
//! per-worker [`PlanEngine`]s, so it is `Send + Sync` and lifetime-free:
//! wrap it in an `Arc` and call [`Session::infer`] from as many threads as
//! you like. Every forward runs on the plan-and-execute engine — the first
//! forward per (worker, input shape) records the network once on the
//! autograd tape and compiles a liveness-planned arena; every later
//! forward replays the plan, re-deriving only per-sample neighbor
//! structure. Outputs are bit-identical to [`PointCloudNetwork::forward`]
//! at every thread count.
//!
//! Results are domain-typed: [`Logits`] for classification,
//! [`PerPointLabels`] for segmentation, [`Boxes3D`] for detection —
//! no raw matrices, no F-PointNet special case at the call site.
//!
//! ```
//! use mesorasi_networks::session::SessionBuilder;
//! use mesorasi_networks::NetworkKind;
//! use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
//!
//! let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
//!     .classes(10)
//!     .build();
//! let cloud = sample_shape(ShapeClass::Chair, session.network().input_points(), 1);
//! let logits = session.infer(&cloud).into_classification();
//! assert_eq!(logits.matrix().shape(), (1, 10));
//! assert!(logits.predicted() < 10);
//! ```
//!
//! Use the tape ([`PointCloudNetwork::forward`]) when you need gradients
//! or one-off forwards; use a session for eval loops and serving, where
//! the tape's per-op allocation and autograd bookkeeping are pure
//! overhead. A session assumes frozen parameters: plans snapshot weights
//! at build time (the builder clones networks it only borrows), so
//! optimizer steps on the original network never invalidate a session.

use crate::registry::{Domain, NetworkKind};
use crate::PointCloudNetwork;
use mesorasi_core::engine::{EngineStats, PlanEngine};
use mesorasi_core::{EngineConfig, SampleCacheStats, Strategy};
use mesorasi_knn::stats::SearchCounters;
use mesorasi_knn::{SearchBackend, SearchPlanner};
use mesorasi_nn::loss;
use mesorasi_nn::{Graph, VarId};
use mesorasi_par as par;
use mesorasi_pointcloud::{Point3, PointCloud};
use mesorasi_tensor::{Dtype, Matrix};
use std::borrow::Borrow;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Classification output: one row of class scores.
#[derive(Debug, Clone, PartialEq)]
pub struct Logits {
    scores: Matrix,
}

impl Logits {
    /// Wraps a raw `1 × classes` score matrix — for callers (e.g. network
    /// clients) that rebuild an [`Inference`] from transported matrices.
    pub fn new(scores: Matrix) -> Logits {
        Logits { scores }
    }

    /// The raw `1 × classes` score matrix (pre-softmax).
    pub fn matrix(&self) -> &Matrix {
        &self.scores
    }

    /// The scores as a slice, one entry per class.
    pub fn scores(&self) -> &[f32] {
        self.scores.as_slice()
    }

    /// The argmax class (ties break to the lowest index, matching the
    /// training metrics).
    pub fn predicted(&self) -> u32 {
        loss::predictions(&self.scores)[0]
    }

    /// Consumes the result, yielding the raw matrix.
    pub fn into_matrix(self) -> Matrix {
        self.scores
    }
}

/// Segmentation output: per-point part scores.
#[derive(Debug, Clone, PartialEq)]
pub struct PerPointLabels {
    logits: Matrix,
}

impl PerPointLabels {
    /// Wraps a raw `N × parts` per-point score matrix — for callers that
    /// rebuild an [`Inference`] from transported matrices.
    pub fn new(logits: Matrix) -> PerPointLabels {
        PerPointLabels { logits }
    }

    /// The raw `N × parts` per-point score matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.logits
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.logits.rows()
    }

    /// True when the cloud had no points.
    pub fn is_empty(&self) -> bool {
        self.logits.rows() == 0
    }

    /// Per-point argmax labels, in input point order.
    pub fn labels(&self) -> Vec<u32> {
        loss::predictions(&self.logits)
    }

    /// Consumes the result, yielding the raw matrix.
    pub fn into_matrix(self) -> Matrix {
        self.logits
    }
}

/// Detection output: the frustum pipeline's per-point mask logits plus the
/// regressed box parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Boxes3D {
    seg_logits: Matrix,
    params: Matrix,
}

impl Boxes3D {
    /// Wraps raw mask logits (`N × 2`) and box regression (`1 × 7`)
    /// matrices — for callers that rebuild an [`Inference`] from
    /// transported matrices.
    pub fn new(seg_logits: Matrix, params: Matrix) -> Boxes3D {
        Boxes3D { seg_logits, params }
    }

    /// Per-point object/background logits, `N × 2`.
    pub fn seg_logits(&self) -> &Matrix {
        &self.seg_logits
    }

    /// Per-point mask labels (1 = object), the argmax of
    /// [`Boxes3D::seg_logits`].
    pub fn mask_labels(&self) -> Vec<u32> {
        loss::predictions(&self.seg_logits)
    }

    /// Raw box regression `1 × 7`: center residual (3), size residual (3),
    /// heading (1) — relative to the mask-coordinate frame.
    pub fn params(&self) -> &Matrix {
        &self.params
    }

    /// The bird's-eye-view box `(cx, cy, w, h)` implied by the regression,
    /// anchored at `anchor` (the mask-crop centroid the residuals are
    /// relative to). Sizes are clamped positive.
    pub fn bev_box(&self, anchor: Point3) -> (f32, f32, f32, f32) {
        let p = &self.params;
        (anchor.x + p[(0, 0)], anchor.y + p[(0, 1)], p[(0, 3)].abs(), p[(0, 4)].abs())
    }
}

/// A domain-typed inference result — what [`Session::infer`] returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Inference {
    /// Object classification scores.
    Classification(Logits),
    /// Per-point part segmentation scores.
    Segmentation(PerPointLabels),
    /// Detection: mask logits + regressed box.
    Detection(Boxes3D),
}

impl Inference {
    /// The domain this result belongs to.
    pub fn domain(&self) -> Domain {
        match self {
            Inference::Classification(_) => Domain::Classification,
            Inference::Segmentation(_) => Domain::Segmentation,
            Inference::Detection(_) => Domain::Detection,
        }
    }

    /// The primary output matrix regardless of domain: class scores,
    /// per-point scores, or mask logits.
    pub fn logits(&self) -> &Matrix {
        match self {
            Inference::Classification(l) => l.matrix(),
            Inference::Segmentation(s) => s.matrix(),
            Inference::Detection(d) => d.seg_logits(),
        }
    }

    /// Classification result, if this is one.
    pub fn as_classification(&self) -> Option<&Logits> {
        match self {
            Inference::Classification(l) => Some(l),
            _ => None,
        }
    }

    /// Segmentation result, if this is one.
    pub fn as_segmentation(&self) -> Option<&PerPointLabels> {
        match self {
            Inference::Segmentation(s) => Some(s),
            _ => None,
        }
    }

    /// Detection result, if this is one.
    pub fn as_detection(&self) -> Option<&Boxes3D> {
        match self {
            Inference::Detection(d) => Some(d),
            _ => None,
        }
    }

    /// Unwraps a classification result.
    ///
    /// # Panics
    ///
    /// Panics when the session's network solves a different task.
    pub fn into_classification(self) -> Logits {
        match self {
            Inference::Classification(l) => l,
            other => panic!("expected a classification result, got {:?}", other.domain()),
        }
    }

    /// Unwraps a segmentation result.
    ///
    /// # Panics
    ///
    /// Panics when the session's network solves a different task.
    pub fn into_segmentation(self) -> PerPointLabels {
        match self {
            Inference::Segmentation(s) => s,
            other => panic!("expected a segmentation result, got {:?}", other.domain()),
        }
    }

    /// Unwraps a detection result.
    ///
    /// # Panics
    ///
    /// Panics when the session's network solves a different task.
    pub fn into_detection(self) -> Boxes3D {
        match self {
            Inference::Detection(d) => d,
            other => panic!("expected a detection result, got {:?}", other.domain()),
        }
    }
}

/// How the builder obtains the network it will own.
enum NetSource {
    Kind(NetworkKind),
    Owned(Box<dyn PointCloudNetwork>),
}

/// Configures and builds a [`Session`].
///
/// Defaults: [`Strategy::Delayed`], sampling seed 7, small-scale instances
/// with 10 classes when building from a [`NetworkKind`], weight-init seed
/// 0, and one engine per host thread. The engine knobs start from
/// [`EngineConfig::from_env`], read when the builder is created; the
/// `search_backend` / `sample_cache_cap` / `dtype` setters overwrite what
/// the environment said.
pub struct SessionBuilder {
    source: NetSource,
    strategy: Strategy,
    seed: u64,
    workers: Option<usize>,
    classes: usize,
    paper_scale: bool,
    init_seed: u64,
    config: EngineConfig,
}

impl SessionBuilder {
    fn new(source: NetSource) -> Self {
        SessionBuilder {
            source,
            strategy: Strategy::Delayed,
            seed: 7,
            workers: None,
            classes: 10,
            paper_scale: false,
            init_seed: 0,
            config: EngineConfig::from_env(),
        }
    }

    /// A session over a freshly built instance of one of the seven
    /// benchmark networks (small scale unless
    /// [`SessionBuilder::paper_scale`] is set).
    pub fn from_kind(kind: NetworkKind) -> Self {
        SessionBuilder::new(NetSource::Kind(kind))
    }

    /// A session that takes ownership of `net`.
    pub fn from_network(net: impl PointCloudNetwork + 'static) -> Self {
        SessionBuilder::new(NetSource::Owned(Box::new(net)))
    }

    /// A session that takes ownership of an already-boxed network (what
    /// [`NetworkKind::build_small`] / [`NetworkKind::build_paper`] return).
    pub fn from_boxed(net: Box<dyn PointCloudNetwork>) -> Self {
        SessionBuilder::new(NetSource::Owned(net))
    }

    /// A session over a weight snapshot of `net` (via
    /// [`PointCloudNetwork::boxed_clone`]) — for callers that keep training
    /// the original network afterwards.
    pub fn from_network_ref(net: &dyn PointCloudNetwork) -> Self {
        SessionBuilder::new(NetSource::Owned(net.boxed_clone()))
    }

    /// Execution strategy (default [`Strategy::Delayed`]).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Centroid-sampling seed (default 7), kept fixed so strategies can be
    /// compared on identical neighbor structures.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Engine-pool size (default: the host thread budget at build time).
    /// Each worker owns its own plans, arena, and NIT cache; concurrent
    /// [`Session::infer`] calls beyond this count share engines.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Label-space size for [`SessionBuilder::from_kind`] small-scale
    /// builds (default 10; ignored for owned networks and paper scale).
    pub fn classes(mut self, classes: usize) -> Self {
        self.classes = classes;
        self
    }

    /// Build the paper-scale instance instead of the small one (only
    /// meaningful with [`SessionBuilder::from_kind`]).
    pub fn paper_scale(mut self) -> Self {
        self.paper_scale = true;
        self
    }

    /// Weight-initialization seed for [`SessionBuilder::from_kind`] builds
    /// (default 0).
    pub fn init_seed(mut self, seed: u64) -> Self {
        self.init_seed = seed;
        self
    }

    /// Forces every worker's coordinate searches onto one backend — the
    /// exhaustive scan or the octree — instead of the cost-model choice (the
    /// programmatic form of `MESORASI_SEARCH`). Both are exact, so this
    /// changes where search time goes, never the inference results — useful
    /// for benchmarking and for pinning behaviour in latency-sensitive
    /// deployments.
    pub fn search_backend(mut self, backend: SearchBackend) -> Self {
        self.config.search = SearchPlanner::forced(backend);
        self
    }

    /// Per-worker, per-plan NIT sample-cache capacity (default
    /// [`mesorasi_core::DEFAULT_SAMPLE_CACHE_CAP`]; 0 disables caching).
    /// Eviction is true LRU — hot samples survive unbounded fresh traffic —
    /// so servers sizing for memory can shrink this without re-introducing
    /// a periodic cold-cache latency cliff.
    pub fn sample_cache_cap(mut self, cap: usize) -> Self {
        self.config.sample_cache_cap = cap;
        self
    }

    /// Execution dtype for every worker engine. The default (also when
    /// `MESORASI_DTYPE` is unset) is [`Dtype::F32`] — the native fast
    /// tier. [`Dtype::F64`] selects shadow-precision execution: the f32
    /// plan still runs and derives all neighbor structure (searches are
    /// dtype-invariant), then a sequential f64 replay produces the
    /// outputs, rounded to f32 once. Bit-identity contracts (tape vs.
    /// planned, thread invariance) hold *within* each dtype; use f64 runs
    /// to measure what f32 execution costs in end-task accuracy.
    pub fn dtype(mut self, dtype: Dtype) -> Self {
        self.config.dtype = dtype;
        self
    }

    /// Builds the session. Plan compilation is lazy: each worker engine
    /// records the network on first contact with a given input shape.
    pub fn build(self) -> Session {
        let net = match self.source {
            NetSource::Owned(net) => net,
            NetSource::Kind(kind) => {
                let mut rng = mesorasi_pointcloud::seeded_rng(self.init_seed);
                if self.paper_scale {
                    kind.build_paper(&mut rng)
                } else {
                    kind.build_small(self.classes, &mut rng)
                }
            }
        };
        let workers = self.workers.unwrap_or_else(par::current_threads).max(1);
        let domain = net.domain();
        Session {
            net,
            strategy: self.strategy,
            seed: self.seed,
            domain,
            config: self.config,
            engines: (0..workers)
                .map(|_| Worker {
                    engine: Mutex::new(PlanEngine::with_config(self.config)),
                    holder: AtomicU64::new(0),
                })
                .collect(),
            next: AtomicUsize::new(0),
        }
    }
}

/// The fallible checkout paths' error: every worker engine is already
/// checked out **by the calling thread** (via live [`FrameStream`]s), so
/// blocking would self-deadlock — `std::sync::Mutex` is not re-entrant.
///
/// Returned by [`Session::try_infer`] / [`Session::try_frames`]; the
/// infallible paths panic with the same message instead of hanging. Server
/// handler code should use the `try_` variants and surface this as a typed
/// "unavailable" response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckoutError {
    workers: usize,
}

impl CheckoutError {
    /// Pool size at the time of the failed checkout.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl std::fmt::Display for CheckoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "all {} worker engine(s) are already checked out by this thread \
             (live FrameStream handles?); blocking would self-deadlock — drop \
             a handle or grow the pool via SessionBuilder::workers",
            self.workers
        )
    }
}

impl std::error::Error for CheckoutError {}

/// One pool slot: the engine plus the token of the thread currently
/// holding it (0 = unheld). The holder tag is what lets checkout detect
/// same-thread re-entrancy instead of deadlocking.
struct Worker {
    engine: Mutex<PlanEngine>,
    holder: AtomicU64,
}

/// A process-unique, never-zero token for the calling thread.
fn thread_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: Cell<u64> = const { Cell::new(0) };
    }
    TOKEN.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

/// A checked-out engine: the mutex guard plus the holder tag that marks it
/// as owned by this thread for the lifetime of the guard.
struct EngineGuard<'s> {
    guard: MutexGuard<'s, PlanEngine>,
    holder: &'s AtomicU64,
}

impl<'s> EngineGuard<'s> {
    fn new(worker: &'s Worker, guard: MutexGuard<'s, PlanEngine>, token: u64) -> EngineGuard<'s> {
        worker.holder.store(token, Ordering::Release);
        EngineGuard { guard, holder: &worker.holder }
    }
}

impl Drop for EngineGuard<'_> {
    fn drop(&mut self) {
        self.holder.store(0, Ordering::Release);
    }
}

impl std::ops::Deref for EngineGuard<'_> {
    type Target = PlanEngine;

    fn deref(&self) -> &PlanEngine {
        &self.guard
    }
}

impl std::ops::DerefMut for EngineGuard<'_> {
    fn deref_mut(&mut self) -> &mut PlanEngine {
        &mut self.guard
    }
}

/// An owned, thread-safe inference session over one frozen
/// `(network, strategy, seed)` combination.
///
/// See the [module docs](self) for the lifecycle; build one with
/// [`SessionBuilder`]. All inference methods take `&self`, so an
/// `Arc<Session>` can serve concurrent callers; results are deterministic
/// and bit-identical to the tape regardless of thread count, engine
/// checkout order, or batch chunking.
pub struct Session {
    net: Box<dyn PointCloudNetwork>,
    strategy: Strategy,
    seed: u64,
    domain: Domain,
    config: EngineConfig,
    engines: Vec<Worker>,
    next: AtomicUsize,
}

impl Session {
    /// The owned network.
    pub fn network(&self) -> &dyn PointCloudNetwork {
        self.net.as_ref()
    }

    /// Consumes the session, returning the network (e.g. to resume
    /// training after an evaluation pass).
    pub fn into_network(self) -> Box<dyn PointCloudNetwork> {
        self.net
    }

    /// The execution strategy every forward runs under.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The centroid-sampling seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The execution dtype every worker engine runs at.
    pub fn dtype(&self) -> Dtype {
        self.config.dtype
    }

    /// The task domain, deciding which [`Inference`] variant is returned.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Engine-pool size.
    pub fn workers(&self) -> usize {
        self.engines.len()
    }

    /// Runs one planned forward on `cloud` and returns the domain-typed
    /// result.
    ///
    /// # Panics
    ///
    /// Panics when the network's forward cannot be planned (see
    /// [`PlanEngine::run`]) — never the case for the seven built-in
    /// networks.
    pub fn infer(&self, cloud: &PointCloud) -> Inference {
        let mut engine = self.checkout_engine();
        self.run_on(&mut engine, cloud)
    }

    /// Like [`Session::infer`], but returns a typed [`CheckoutError`]
    /// instead of panicking when every worker engine is already held by
    /// the calling thread (live [`FrameStream`]s) — the variant server
    /// handlers should use, so a would-be deadlock becomes a reportable
    /// "unavailable" condition.
    pub fn try_infer(&self, cloud: &PointCloud) -> Result<Inference, CheckoutError> {
        let mut engine = self.try_checkout_engine()?;
        Ok(self.run_on(&mut engine, cloud))
    }

    /// Runs a batch data-parallel over the worker pool: the batch is split
    /// into per-worker chunks, each chunk replays against its own engine's
    /// arena (amortizing plan compilation and the NIT cache across the
    /// chunk), and results come back in input order. Accepts owned clouds
    /// or references (`&[PointCloud]`, `&[&PointCloud]`).
    pub fn infer_batch<C>(&self, clouds: &[C]) -> Vec<Inference>
    where
        C: Borrow<PointCloud> + Sync,
    {
        if clouds.is_empty() {
            return Vec::new();
        }
        let workers = self.engines.len().min(par::current_threads()).min(clouds.len()).max(1);
        let chunk = clouds.len().div_ceil(workers);
        let n_chunks = clouds.len().div_ceil(chunk);
        let mut results: Vec<Vec<Inference>> = (0..n_chunks).map(|_| Vec::new()).collect();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = results
            .iter_mut()
            .zip(clouds.chunks(chunk))
            .map(|(out, part)| {
                Box::new(move || {
                    let mut engine = self.checkout_engine();
                    out.extend(part.iter().map(|cloud| self.run_on(&mut engine, cloud.borrow())));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        par::par_run_tasks(tasks);
        results.into_iter().flatten().collect()
    }

    /// Lazily infers a stream of clouds, yielding one result per input in
    /// order. Each item runs like [`Session::infer`]; for throughput,
    /// collect chunks and call [`Session::infer_batch`] instead — and for
    /// *frame sequences* (consecutive captures of a scene, where inputs
    /// rarely repeat), use [`Session::infer_frames`] / [`Session::frames`],
    /// which reuse search state across frames instead of caching samples.
    pub fn infer_stream<'s, I>(&'s self, clouds: I) -> impl Iterator<Item = Inference> + 's
    where
        I: IntoIterator + 's,
        I::Item: Borrow<PointCloud>,
    {
        clouds.into_iter().map(move |cloud| self.infer(cloud.borrow()))
    }

    /// Checks out one worker engine for a frame sequence. All frames run
    /// on that engine's streaming path: the per-sample NIT cache is
    /// bypassed (frames rarely repeat) and neighbor-search indices
    /// warm-start from the previous frame — capacity reused, contents
    /// rebuilt — so a warm same-shaped stream performs zero heap
    /// allocations per frame in search and tensor execution alike.
    /// Results are bit-identical to [`Session::infer`] on the same cloud.
    ///
    /// The handle holds the engine until dropped; other workers keep
    /// serving [`Session::infer`] / [`Session::infer_batch`] concurrently.
    ///
    /// **Drop the handle before calling the session from the same thread
    /// again.** While a `FrameStream` is live, methods that visit *every*
    /// worker ([`Session::warm`], [`Session::arena_stats`],
    /// [`Session::search_counters`], [`Session::cache_stats`]) — and, on a
    /// session whose other workers are all busy, [`Session::infer`] itself
    /// — would block on the held engine; from the holding thread that is a
    /// self-deadlock, since `std::sync::Mutex` is not re-entrant. The
    /// session detects this and **panics with a clear message instead of
    /// hanging**; use [`Session::try_infer`] / [`Session::try_frames`] to
    /// get a typed [`CheckoutError`] instead.
    pub fn frames(&self) -> FrameStream<'_> {
        FrameStream { session: self, engine: self.checkout_engine() }
    }

    /// Like [`Session::frames`], but returns a typed [`CheckoutError`]
    /// instead of panicking when every worker engine is already held by
    /// the calling thread.
    pub fn try_frames(&self) -> Result<FrameStream<'_>, CheckoutError> {
        Ok(FrameStream { session: self, engine: self.try_checkout_engine()? })
    }

    /// Convenience over [`Session::frames`]: lazily infers a frame
    /// sequence on one engine, yielding results in order.
    ///
    /// The engine is checked out **eagerly** and held until the returned
    /// iterator is dropped — the same-thread re-entrancy caveat on
    /// [`Session::frames`] applies for as long as the iterator lives.
    pub fn infer_frames<'s, I>(&'s self, clouds: I) -> impl Iterator<Item = Inference> + 's
    where
        I: IntoIterator + 's,
        I::Item: Borrow<PointCloud>,
    {
        let mut frames = self.frames();
        clouds.into_iter().map(move |cloud| frames.infer(cloud.borrow()))
    }

    /// Pre-warms every worker engine on `cloud`: compiles the plan for its
    /// shape, fills the per-sample NIT cache, **and** primes the search
    /// state — per-space indices and the streaming buffers — so later
    /// [`Session::infer`] / [`Session::infer_batch`] / [`Session::frames`]
    /// traffic on same-shaped inputs starts from the fully warm steady
    /// state no matter which engine serves it. Call before
    /// timing-sensitive traffic; purely an optimization.
    pub fn warm(&self, cloud: &PointCloud) {
        for i in 0..self.engines.len() {
            let mut engine = self.lock_pool_engine(i);
            let _ = self.run_on(&mut engine, cloud);
            let _ = self.exec(&mut engine, cloud, true);
        }
    }

    /// Statistics of the plan compiled for `n_points` inputs, from the
    /// first worker that has compiled that shape: tensor-arena usage plus
    /// search-arena bytes, traffic counters, and NIT-cache traffic.
    pub fn arena_stats(&self, n_points: usize) -> Option<EngineStats> {
        (0..self.engines.len()).find_map(|i| self.lock_pool_engine(i).stats(n_points))
    }

    /// Search-traffic counters summed across the worker pool — what the
    /// bench harness reads to report distance evaluations and the index
    /// build/query time split of real inference traffic.
    pub fn search_counters(&self) -> SearchCounters {
        let mut total = SearchCounters::default();
        for i in 0..self.engines.len() {
            total.add(&self.lock_pool_engine(i).search_counters());
        }
        total
    }

    /// NIT sample-cache traffic (hits / misses / LRU evictions) summed
    /// across the worker pool — what a server reports per connection to
    /// show whether traffic is being served from the warm steady state.
    pub fn cache_stats(&self) -> SampleCacheStats {
        let mut total = SampleCacheStats::default();
        for i in 0..self.engines.len() {
            total.add(&self.lock_pool_engine(i).sample_cache_stats());
        }
        total
    }

    /// Total plans compiled across the worker pool (one per worker per
    /// distinct input shape it has seen).
    pub fn compiled_plans(&self) -> usize {
        (0..self.engines.len()).map(|i| self.lock_pool_engine(i).compiled_plans()).sum()
    }

    /// Blocking lock of one pool engine for the whole-pool visitors —
    /// panics (rather than self-deadlocking) when the calling thread
    /// already holds that engine through a live [`FrameStream`].
    fn lock_pool_engine(&self, i: usize) -> MutexGuard<'_, PlanEngine> {
        let w = &self.engines[i];
        assert!(
            w.holder.load(Ordering::Acquire) != thread_token(),
            "worker engine #{i} is already checked out by this thread (a live \
             FrameStream?); locking it again would self-deadlock — drop the \
             handle before calling whole-pool session methods"
        );
        lock_unpoisoned(&w.engine)
    }

    /// Picks an engine: any free worker first, else round-robin blocking —
    /// callers beyond the pool size queue on an engine rather than failing.
    /// Skips engines the calling thread already holds; errs when that is
    /// all of them (same-thread re-entrancy, which would self-deadlock).
    fn try_checkout_engine(&self) -> Result<EngineGuard<'_>, CheckoutError> {
        let token = thread_token();
        for w in &self.engines {
            // A poisoned engine is free, not busy (see [`lock_unpoisoned`]).
            match w.engine.try_lock() {
                Ok(guard) => return Ok(EngineGuard::new(w, guard, token)),
                Err(std::sync::TryLockError::Poisoned(p)) => {
                    return Ok(EngineGuard::new(w, p.into_inner(), token))
                }
                Err(std::sync::TryLockError::WouldBlock) => {}
            }
        }
        // All busy: block on a round-robin engine — but never on one this
        // thread itself holds. The round-robin counter visits every slot
        // once across `n` probes, so a skippable engine costs one probe.
        let n = self.engines.len();
        for _ in 0..n {
            let i = self.next.fetch_add(1, Ordering::Relaxed) % n;
            let w = &self.engines[i];
            if w.holder.load(Ordering::Acquire) == token {
                continue;
            }
            return Ok(EngineGuard::new(w, lock_unpoisoned(&w.engine), token));
        }
        Err(CheckoutError { workers: n })
    }

    /// Infallible checkout: panics with the [`CheckoutError`] message on
    /// same-thread re-entrancy instead of deadlocking.
    fn checkout_engine(&self) -> EngineGuard<'_> {
        self.try_checkout_engine().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs one forward on `engine` — the plan-and-cache path when
    /// `streamed` is false, the cache-bypassing streaming path otherwise.
    fn exec<'e>(
        &self,
        engine: &'e mut PlanEngine,
        cloud: &PointCloud,
        streamed: bool,
    ) -> mesorasi_core::engine::PlannedOutputs<'e> {
        let net = self.net.as_ref();
        let (strategy, seed) = (self.strategy, self.seed);
        let record = move |g: &mut Graph, c: &PointCloud| -> Vec<VarId> {
            net.session_outputs(g, c, strategy, seed)
        };
        if streamed {
            engine.run_streamed(cloud, &record)
        } else {
            engine.run(cloud, &record)
        }
    }

    fn package(&self, out: mesorasi_core::engine::PlannedOutputs<'_>) -> Inference {
        match self.domain {
            Domain::Classification => {
                Inference::Classification(Logits { scores: out.get(0).clone() })
            }
            Domain::Segmentation => {
                Inference::Segmentation(PerPointLabels { logits: out.get(0).clone() })
            }
            Domain::Detection => {
                assert!(
                    out.len() >= 2,
                    "a detection network's session_outputs must yield [seg_logits, box_params]"
                );
                Inference::Detection(Boxes3D {
                    seg_logits: out.get(0).clone(),
                    params: out.get(1).clone(),
                })
            }
        }
    }

    /// Like [`Session::package`] but recycling `dst`'s buffers: when the
    /// variant already matches the session's domain, output matrices are
    /// copied in place (zero allocation once capacities are warm).
    fn package_into(&self, out: mesorasi_core::engine::PlannedOutputs<'_>, dst: &mut Inference) {
        match (self.domain, &mut *dst) {
            (Domain::Classification, Inference::Classification(l)) => {
                l.scores.copy_from(out.get(0));
            }
            (Domain::Segmentation, Inference::Segmentation(s)) => {
                s.logits.copy_from(out.get(0));
            }
            (Domain::Detection, Inference::Detection(d)) => {
                assert!(
                    out.len() >= 2,
                    "a detection network's session_outputs must yield [seg_logits, box_params]"
                );
                d.seg_logits.copy_from(out.get(0));
                d.params.copy_from(out.get(1));
            }
            (_, other) => *other = self.package(out),
        }
    }

    fn run_on(&self, engine: &mut PlanEngine, cloud: &PointCloud) -> Inference {
        let out = self.exec(engine, cloud, false);
        self.package(out)
    }
}

/// A frame-sequence handle over one checked-out worker engine; see
/// [`Session::frames`] (including its same-thread re-entrancy caveat).
/// Frames run in call order on the engine's streaming path, warm-starting
/// search indices from the previous frame.
pub struct FrameStream<'s> {
    session: &'s Session,
    engine: EngineGuard<'s>,
}

impl FrameStream<'_> {
    /// Infers the next frame. Bit-identical to [`Session::infer`] on the
    /// same cloud.
    pub fn infer(&mut self, cloud: &PointCloud) -> Inference {
        let out = self.session.exec(&mut self.engine, cloud, true);
        self.session.package(out)
    }

    /// Infers the next frame into `out`, recycling its buffers — the
    /// fully allocation-free serving path: once the stream is warm (same
    /// frame shape, matching `out` variant), a call performs **zero** heap
    /// allocations end to end, neighbor search included.
    pub fn infer_into(&mut self, cloud: &PointCloud, out: &mut Inference) {
        let planned = self.session.exec(&mut self.engine, cloud, true);
        self.session.package_into(planned, out);
    }
}

impl std::fmt::Debug for FrameStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameStream").field("session", &self.session).finish()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("network", &self.net.name())
            .field("strategy", &self.strategy)
            .field("seed", &self.seed)
            .field("domain", &self.domain)
            .field("workers", &self.engines.len())
            .finish()
    }
}

/// A poisoned engine only means another thread panicked mid-forward; the
/// arena is overwritten from scratch on the next run, so recovery is safe.
fn lock_unpoisoned<'m>(m: &'m Mutex<PlanEngine>) -> MutexGuard<'m, PlanEngine> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpointnet::FPointNet;
    use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
    use std::sync::Arc;

    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<Inference>();
    };

    #[test]
    fn session_infer_matches_tape_for_classification_and_segmentation() {
        let mut rng = mesorasi_pointcloud::seeded_rng(3);
        for kind in [NetworkKind::PointNetPPClassification, NetworkKind::DgcnnSegmentation] {
            let net = kind.build_small(6, &mut rng);
            let session = SessionBuilder::from_network_ref(net.as_ref())
                .strategy(Strategy::Delayed)
                .seed(9)
                // Bit-identity to the tape is a per-dtype (f32) contract.
                .dtype(Dtype::F32)
                .build();
            for cloud_seed in [1, 2] {
                let cloud = sample_shape(ShapeClass::Guitar, net.input_points(), cloud_seed);
                let mut g = Graph::new();
                let expected = net.forward(&mut g, &cloud, Strategy::Delayed, 9);
                let out = session.infer(&cloud);
                assert_eq!(out.domain(), kind.domain());
                assert_eq!(
                    out.logits(),
                    g.value(expected.logits),
                    "{} cloud {cloud_seed}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn detection_sessions_expose_boxes() {
        let mut rng = mesorasi_pointcloud::seeded_rng(4);
        let net = FPointNet::small(&mut rng);
        let frustums = crate::datasets::frustums(2, 128, 5);
        let session = SessionBuilder::from_network_ref(&net)
            .strategy(Strategy::Original)
            .seed(11)
            .dtype(Dtype::F32)
            .build();
        for ex in frustums.iter().take(3) {
            let mut g = Graph::new();
            let det = net.forward_detection(&mut g, &ex.cloud, Strategy::Original, 11);
            let boxes = session.infer(&ex.cloud).into_detection();
            assert_eq!(boxes.seg_logits(), g.value(det.seg_logits));
            assert_eq!(boxes.params(), g.value(det.box_params));
            assert_eq!(boxes.mask_labels().len(), ex.cloud.len());
        }
    }

    #[test]
    fn infer_batch_and_stream_match_single_infer_in_order() {
        let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(4)
            .workers(2)
            .build();
        let n = session.network().input_points();
        let clouds: Vec<PointCloud> = (0..5).map(|s| sample_shape(ShapeClass::Car, n, s)).collect();
        let singles: Vec<Inference> = clouds.iter().map(|c| session.infer(c)).collect();
        assert_eq!(session.infer_batch(&clouds), singles);
        let refs: Vec<&PointCloud> = clouds.iter().collect();
        assert_eq!(session.infer_batch(&refs), singles);
        let streamed: Vec<Inference> = session.infer_stream(clouds.iter()).collect();
        assert_eq!(streamed, singles);
    }

    #[test]
    fn frame_stream_matches_single_infer_per_frame() {
        // Streaming bypasses the NIT cache and reuses search indices
        // across frames; results must stay bit-identical to infer().
        for kind in [NetworkKind::PointNetPPClassification, NetworkKind::DgcnnClassification] {
            let session = SessionBuilder::from_kind(kind).classes(4).workers(1).build();
            let n = session.network().input_points();
            let clouds: Vec<PointCloud> =
                (0..4).map(|s| sample_shape(ShapeClass::Airplane, n, s)).collect();
            let singles: Vec<Inference> = clouds.iter().map(|c| session.infer(c)).collect();
            let framed: Vec<Inference> = session.infer_frames(clouds.iter()).collect();
            assert_eq!(framed, singles, "{}", kind.name());
        }
    }

    #[test]
    fn frame_infer_into_recycles_the_result() {
        let session =
            SessionBuilder::from_kind(NetworkKind::PointNetPPClassification).classes(5).build();
        let n = session.network().input_points();
        let clouds: Vec<PointCloud> =
            (0..3).map(|s| sample_shape(ShapeClass::Car, n, s + 10)).collect();
        let expected: Vec<Inference> = clouds.iter().map(|c| session.infer(c)).collect();
        let mut frames = session.frames();
        let mut out = frames.infer(&clouds[0]);
        for (cloud, want) in clouds.iter().zip(&expected) {
            frames.infer_into(cloud, &mut out);
            assert_eq!(&out, want);
        }
    }

    #[test]
    fn forced_search_backends_do_not_change_results() {
        let mut rng = mesorasi_pointcloud::seeded_rng(8);
        let net = crate::pointnetpp::PointNetPP::classification_small(4, &mut rng);
        let cloud = sample_shape(ShapeClass::Guitar, net.input_points(), 3);
        let reference = SessionBuilder::from_network_ref(&net).build().infer(&cloud);
        for backend in SearchBackend::ALL {
            let session = SessionBuilder::from_network_ref(&net).search_backend(backend).build();
            assert_eq!(session.infer(&cloud), reference, "forced {backend:?} drifted");
        }
    }

    #[test]
    fn warm_primes_search_state_and_stats_report_it() {
        let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(3)
            .workers(2)
            // Forced octree so index builds are observable even at the
            // small scale where the cost model prefers brute force.
            .search_backend(SearchBackend::Octree)
            .build();
        let n = session.network().input_points();
        let cloud = sample_shape(ShapeClass::Chair, n, 2);
        session.warm(&cloud);
        let stats = session.arena_stats(n).expect("warmed shape is compiled");
        assert!(stats.search_bytes > 0, "warming must build search state");
        assert!(stats.arena.peak_bytes > 0);
        let counters = session.search_counters();
        assert!(counters.query_calls > 0);
        assert!(counters.index_builds > 0, "warming builds indices");
        assert!(counters.distance_evals > 0);
    }

    #[test]
    fn shared_session_is_deterministic_across_threads() {
        let session = Arc::new(
            SessionBuilder::from_kind(NetworkKind::DgcnnClassification)
                .classes(4)
                .workers(2)
                .build(),
        );
        let n = session.network().input_points();
        let clouds: Vec<PointCloud> =
            (0..4).map(|s| sample_shape(ShapeClass::Lamp, n, s)).collect();
        let reference: Vec<Inference> = clouds.iter().map(|c| session.infer(c)).collect();
        let results: Vec<Vec<Inference>> = std::thread::scope(|scope| {
            (0..2)
                .map(|_| {
                    let session = Arc::clone(&session);
                    let clouds = &clouds;
                    scope.spawn(move || clouds.iter().map(|c| session.infer(c)).collect())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("inference worker"))
                .collect()
        });
        for (t, got) in results.iter().enumerate() {
            assert_eq!(got, &reference, "thread {t} drifted");
        }
    }

    /// Delegates to a real network but panics on the first forward —
    /// poisoning the engine mutex mid-recording, exactly the failure the
    /// checkout paths must recover from.
    struct FlakyOnce {
        inner: crate::pointnetpp::PointNetPP,
        tripped: std::sync::atomic::AtomicBool,
    }

    impl PointCloudNetwork for FlakyOnce {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn input_points(&self) -> usize {
            self.inner.input_points()
        }

        fn domain(&self) -> Domain {
            self.inner.domain()
        }

        fn forward(
            &self,
            g: &mut Graph,
            cloud: &PointCloud,
            strategy: Strategy,
            seed: u64,
        ) -> crate::NetForward {
            if !self.tripped.swap(true, std::sync::atomic::Ordering::SeqCst) {
                panic!("injected first-forward failure");
            }
            self.inner.forward(g, cloud, strategy, seed)
        }

        fn boxed_clone(&self) -> Box<dyn PointCloudNetwork> {
            Box::new(FlakyOnce {
                inner: self.inner.clone(),
                tripped: std::sync::atomic::AtomicBool::new(true),
            })
        }

        fn params_mut(&mut self) -> Vec<&mut mesorasi_nn::Param> {
            self.inner.params_mut()
        }
    }

    #[test]
    fn a_panicked_forward_does_not_wedge_the_session() {
        let mut rng = mesorasi_pointcloud::seeded_rng(30);
        let inner = crate::pointnetpp::PointNetPP::classification_small(3, &mut rng);
        let reference = inner.clone();
        let flaky = FlakyOnce { inner, tripped: std::sync::atomic::AtomicBool::new(false) };
        let session =
            SessionBuilder::from_network(flaky).seed(5).workers(2).dtype(Dtype::F32).build();
        let cloud = sample_shape(ShapeClass::Chair, reference.input_points(), 8);

        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = session.infer(&cloud);
        }));
        assert!(first.is_err(), "the injected failure must surface");

        // The panicked call poisoned its engine's mutex mid-recording; the
        // session must treat that engine as free and recover on retry.
        let mut g = Graph::new();
        let want = reference.forward(&mut g, &cloud, Strategy::Delayed, 5);
        let got = session.infer(&cloud).into_classification();
        assert_eq!(got.matrix(), g.value(want.logits));
    }

    #[test]
    fn reentrant_checkout_is_a_typed_error_not_a_deadlock() {
        // With a single worker held by a live FrameStream on this thread,
        // the old code deadlocked; now the try_ paths return a typed
        // error and the infallible paths panic with the same message.
        let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(3)
            .workers(1)
            .build();
        let n = session.network().input_points();
        let cloud = sample_shape(ShapeClass::Chair, n, 1);
        let mut frames = session.try_frames().expect("free pool checks out");
        let _ = frames.infer(&cloud);

        let err = session.try_infer(&cloud).expect_err("all engines self-held");
        assert_eq!(err.workers(), 1);
        assert!(err.to_string().contains("self-deadlock"), "unhelpful message: {err}");
        assert!(session.try_frames().is_err());

        // Dropping the stream frees the engine for the same thread again.
        drop(frames);
        let _ = session.try_infer(&cloud).expect("freed engine checks out");
    }

    #[test]
    fn whole_pool_visitors_panic_loudly_when_self_held() {
        let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(3)
            .workers(1)
            .build();
        let _frames = session.frames();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = session.search_counters();
        }))
        .expect_err("must not silently deadlock");
        let msg = err.downcast_ref::<String>().expect("panic carries a message");
        assert!(msg.contains("self-deadlock"), "unhelpful message: {msg}");
    }

    #[test]
    fn a_held_frame_stream_does_not_block_other_workers() {
        let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(3)
            .workers(2)
            .build();
        let n = session.network().input_points();
        let cloud = sample_shape(ShapeClass::Chair, n, 1);
        let mut frames = session.frames();
        let want = frames.infer(&cloud);
        // The second worker serves the same thread while the first is held.
        let got = session.try_infer(&cloud).expect("second worker is free");
        assert_eq!(got, want);
    }

    #[test]
    fn sample_cache_cap_knob_reaches_the_engines() {
        let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(3)
            .workers(1)
            .sample_cache_cap(2)
            .build();
        let n = session.network().input_points();
        let clouds: Vec<PointCloud> = (0..4).map(|s| sample_shape(ShapeClass::Car, n, s)).collect();
        for c in &clouds {
            let _ = session.infer(c);
        }
        let stats = session.cache_stats();
        assert_eq!(stats.capacity, 2);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.evictions, 2, "LRU evicts one at a time past the cap");
        let per_shape = session.arena_stats(n).expect("shape compiled");
        assert_eq!(per_shape.cache.capacity, 2);
    }

    #[test]
    fn into_network_returns_the_owned_network() {
        let session = SessionBuilder::from_kind(NetworkKind::Ldgcnn).classes(3).build();
        let net = session.into_network();
        assert_eq!(net.name(), "LDGCNN");
        assert_eq!(net.domain(), Domain::Classification);
    }

    #[test]
    #[should_panic(expected = "expected a detection result")]
    fn wrong_domain_unwrap_panics_clearly() {
        let session = SessionBuilder::from_kind(NetworkKind::DensePoint).classes(3).build();
        let cloud = sample_shape(ShapeClass::Chair, session.network().input_points(), 1);
        let _ = session.infer(&cloud).into_detection();
    }
}
