//! Session-first inference: one owned, thread-safe entry point for all
//! seven networks.
//!
//! A [`Session`] owns a frozen [`PointCloudNetwork`] plus a pool of
//! per-worker [`PlanEngine`]s, so it is `Send + Sync` and lifetime-free:
//! wrap it in an `Arc` and call [`Session::infer`] from as many threads as
//! you like. Every forward runs on the plan-and-execute engine — the first
//! forward per input shape records the network's op sequence and shapes
//! once, with no tape arithmetic, and compiles a liveness-planned plan,
//! weights included, that every worker shares; every forward replays it in
//! its worker's own arena, re-deriving only per-sample neighbor structure.
//! Outputs are bit-identical to [`PointCloudNetwork::forward`] at every
//! thread count.
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
use mesorasi_core::engine::{EngineStats, PlanEngine, PlannedOutputs};
use mesorasi_core::{SampleCacheStats, Strategy};
use mesorasi_knn::stats::SearchCounters;
use mesorasi_nn::loss;
use mesorasi_nn::{Graph, VarId};
use mesorasi_par as par;
use mesorasi_pointcloud::{Point3, PointCloud};
use mesorasi_tensor::Matrix;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

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
/// with 10 classes and weights initialized from seed 0 when building from a
/// [`NetworkKind`], and one engine per host thread. Engines have no settings of their
/// own: they share the compiled plans, and each caches up to
/// [`mesorasi_core::SAMPLE_CACHE_CAP`] samples, of every shape it serves.
pub struct SessionBuilder {
    source: NetSource,
    strategy: Strategy,
    seed: u64,
    workers: Option<usize>,
    classes: usize,
    paper_scale: bool,
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
    /// Workers share the compiled plans; each owns its arena, search
    /// state and NIT cache; concurrent
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

    /// Builds the session. Plan compilation is lazy: the first worker to
    /// meet an input shape records the network for the whole pool.
    pub fn build(self) -> Session {
        let net = match self.source {
            NetSource::Owned(net) => net,
            NetSource::Kind(kind) => {
                let mut rng = mesorasi_pointcloud::seeded_rng(0);
                if self.paper_scale {
                    kind.build_paper(&mut rng)
                } else {
                    kind.build_small(self.classes, &mut rng)
                }
            }
        };
        let workers = self.workers.unwrap_or_else(par::current_threads).max(1);
        let domain = net.domain();
        let store = PlanEngine::new(); // holds the plans every worker shares
        Session {
            net,
            strategy: self.strategy,
            seed: self.seed,
            domain,
            engines: (0..workers).map(|_| Mutex::new(PlanEngine::sharing_plans(&store))).collect(),
            next: AtomicUsize::new(0),
        }
    }
}

/// An owned, thread-safe inference session over one frozen
/// `(network, strategy, seed)` combination.
///
/// It holds one compiled plan (and weight snapshot) per input shape for
/// all workers. See the [module docs](self) for the lifecycle; build one with
/// [`SessionBuilder`]. All inference methods take `&self`, so an
/// `Arc<Session>` can serve concurrent callers; results are deterministic
/// and bit-identical to the tape regardless of thread count, engine
/// checkout order, or batch chunking.
pub struct Session {
    net: Box<dyn PointCloudNetwork>,
    strategy: Strategy,
    seed: u64,
    domain: Domain,
    engines: Vec<Mutex<PlanEngine>>,
    next: AtomicUsize,
}

impl Session {
    /// The owned network.
    pub fn network(&self) -> &dyn PointCloudNetwork {
        self.net.as_ref()
    }

    /// The execution strategy every forward runs under.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The centroid-sampling seed.
    pub fn seed(&self) -> u64 {
        self.seed
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

    /// Opens a frame sequence on one worker engine, picked round-robin.
    /// All frames run on that engine's streaming path: the per-sample NIT
    /// cache is bypassed (frames rarely repeat) and neighbor-search indices
    /// warm-start from the previous frame — capacity reused, contents
    /// rebuilt — so a warm same-shaped stream performs zero heap
    /// allocations per frame in search and tensor execution alike.
    /// Results are bit-identical to [`Session::infer`] on the same cloud.
    ///
    /// The handle locks its engine for one frame at a time, inside
    /// [`FrameStream::infer`] / [`FrameStream::infer_into`], and holds no
    /// lock between frames: every session method stays callable while a
    /// stream is live, from any thread, the stream's own included.
    pub fn frames(&self) -> FrameStream<'_> {
        let worker = self.next.fetch_add(1, Ordering::Relaxed) % self.engines.len();
        FrameStream { session: self, worker }
    }

    /// Pre-warms every worker engine on `cloud`: compiles the plan for its
    /// shape once for the pool, then runs one cached forward per worker.
    /// A cache miss derives into the same frame bindings a streamed frame
    /// runs on, so that one forward fits each arena, fills each NIT cache
    /// **and** primes the search state — per-space indices and the frame
    /// bindings — and later [`Session::infer`] / [`Session::infer_batch`] /
    /// [`Session::frames`] traffic on same-shaped inputs starts from the
    /// fully warm steady state no matter which engine serves it. Call
    /// before timing-sensitive traffic; purely an optimization.
    ///
    /// The compile records shapes only, so it runs no forward of its own
    /// and keeps no tape: a warm costs one planned forward per worker plus
    /// the plan, and its memory peak is what the session then retains.
    pub fn warm(&self, cloud: &PointCloud) {
        for engine in &self.engines {
            let _ = self.run_on(&mut lock_unpoisoned(engine), cloud);
        }
    }

    /// Statistics of the worker pool when the session holds a plan for
    /// `n_points` inputs: every worker's arena, derivation-state and cache
    /// bytes, search traffic and NIT-cache traffic summed (see
    /// [`EngineStats::add`]), with the plan's layout, the session's plans
    /// and the scratch pool counted once.
    pub fn arena_stats(&self, n_points: usize) -> Option<EngineStats> {
        let mut workers = self.engines.iter().map(|e| lock_unpoisoned(e).stats(n_points));
        let mut total = workers.next()??;
        for stats in workers {
            total.add(&stats?);
        }
        Some(total)
    }

    /// Search-traffic counters summed across the worker pool — what the
    /// bench harness reads to report distance evaluations and the index
    /// build/query time split of real inference traffic.
    pub fn search_counters(&self) -> SearchCounters {
        let mut total = SearchCounters::default();
        for engine in &self.engines {
            total.add(&lock_unpoisoned(engine).search_counters());
        }
        total
    }

    /// NIT sample-cache traffic (hits / misses / LRU evictions) summed
    /// across the worker pool — what a server reports per connection to
    /// show whether traffic is being served from the warm steady state.
    pub fn cache_stats(&self) -> SampleCacheStats {
        let mut total = SampleCacheStats::default();
        for engine in &self.engines {
            total.add(&lock_unpoisoned(engine).sample_cache_stats());
        }
        total
    }

    /// Compiled plans the session holds, whatever its worker count: the
    /// distinct input shapes run most recently, at most
    /// [`mesorasi_core::engine::MAX_PLANS`].
    pub fn compiled_plans(&self) -> usize {
        lock_unpoisoned(&self.engines[0]).compiled_plans()
    }

    /// Picks an engine: any free worker first, else round-robin blocking —
    /// callers beyond the pool size queue on an engine rather than failing.
    fn checkout_engine(&self) -> MutexGuard<'_, PlanEngine> {
        for engine in &self.engines {
            // A poisoned engine is free, not busy (see [`lock_unpoisoned`]).
            match engine.try_lock() {
                Ok(guard) => return guard,
                Err(TryLockError::Poisoned(p)) => return p.into_inner(),
                Err(TryLockError::WouldBlock) => {}
            }
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.engines.len();
        lock_unpoisoned(&self.engines[i])
    }

    /// Runs one forward on `engine` — the plan-and-cache path when
    /// `streamed` is false, the cache-bypassing streaming path otherwise.
    fn exec<'e>(
        &self,
        engine: &'e mut PlanEngine,
        cloud: &PointCloud,
        streamed: bool,
    ) -> PlannedOutputs<'e> {
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

    fn package(&self, out: PlannedOutputs<'_>) -> Inference {
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
    fn package_into(&self, out: PlannedOutputs<'_>, dst: &mut Inference) {
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

/// A frame-sequence handle over one worker engine; see
/// [`Session::frames`]. Frames run in call order on the engine's streaming
/// path, warm-starting search indices from the previous frame; each call
/// locks the engine for that one frame only.
#[derive(Debug)]
pub struct FrameStream<'s> {
    session: &'s Session,
    worker: usize,
}

impl FrameStream<'_> {
    /// Infers the next frame. Bit-identical to [`Session::infer`] on the
    /// same cloud.
    pub fn infer(&mut self, cloud: &PointCloud) -> Inference {
        let mut engine = lock_unpoisoned(&self.session.engines[self.worker]);
        let out = self.session.exec(&mut engine, cloud, true);
        self.session.package(out)
    }

    /// Infers the next frame into `out`, recycling its buffers — the
    /// fully allocation-free serving path: once the stream is warm (same
    /// frame shape, matching `out` variant), a call performs **zero** heap
    /// allocations end to end, neighbor search included.
    pub fn infer_into(&mut self, cloud: &PointCloud, out: &mut Inference) {
        let mut engine = lock_unpoisoned(&self.session.engines[self.worker]);
        let planned = self.session.exec(&mut engine, cloud, true);
        self.session.package_into(planned, out);
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
        let session =
            SessionBuilder::from_network_ref(&net).strategy(Strategy::Original).seed(11).build();
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
        let mut frames = session.frames();
        let streamed: Vec<Inference> = clouds.iter().map(|c| frames.infer(c)).collect();
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
            let mut frames = session.frames();
            let framed: Vec<Inference> = clouds.iter().map(|c| frames.infer(c)).collect();
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
    fn warm_runs_one_cached_forward_per_worker() {
        let one = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(3)
            .workers(1)
            .build();
        let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(3)
            .workers(2)
            .build();
        let cloud = sample_shape(ShapeClass::Chair, session.network().input_points(), 2);
        let _ = one.infer(&cloud);
        session.warm(&cloud);
        let per_forward = one.search_counters().query_calls;
        assert!(per_forward > 0);
        assert_eq!(session.search_counters().query_calls, 2 * per_forward);
        let cache = session.cache_stats();
        assert_eq!((cache.misses, cache.entries), (2, 2), "one cached miss per worker");
    }

    #[test]
    fn warm_primes_search_state_and_stats_report_it() {
        let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(3)
            .workers(2)
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
        let session = SessionBuilder::from_network(flaky).seed(5).workers(2).build();
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
    fn a_live_frame_stream_leaves_the_session_callable_on_its_own_thread() {
        // One worker, and the stream's thread calls `infer` between its
        // frames: the stream holds no lock between frames, so the call takes
        // the one engine and returns the stream's result bit for bit.
        let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(3)
            .workers(1)
            .build();
        let n = session.network().input_points();
        let (a, b) = (sample_shape(ShapeClass::Chair, n, 1), sample_shape(ShapeClass::Car, n, 2));
        let mut frames = session.frames();
        let first = frames.infer(&a);
        assert_eq!(session.infer(&a), first);
        assert_eq!(frames.infer(&a), first);
        assert_eq!(frames.infer(&b), session.infer(&b));
    }

    #[test]
    fn whole_pool_visitors_complete_on_a_live_frame_streams_thread() {
        // One worker, and the stream's thread visits every engine between
        // its frames: each visitor locks the one engine, returns, and leaves
        // the stream's next frame unchanged.
        let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(3)
            .workers(1)
            .build();
        let n = session.network().input_points();
        let (a, b) = (sample_shape(ShapeClass::Chair, n, 1), sample_shape(ShapeClass::Car, n, 2));
        let mut frames = session.frames();
        let first = frames.infer(&a);
        session.warm(&b);
        assert!(session.search_counters().query_calls > 0);
        assert!(session.cache_stats().entries > 0);
        assert!(session.arena_stats(n).is_some());
        assert_eq!(session.compiled_plans(), 1);
        assert_eq!(frames.infer(&a), first);
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
        assert_eq!(session.infer(&cloud), want);
    }

    #[test]
    fn warm_compiles_once_for_the_pool_and_plan_bytes_count_the_weights() {
        let mut rng = mesorasi_pointcloud::seeded_rng(5);
        let mut net = NetworkKind::PointNetPPClassification.build_small(3, &mut rng);
        let weights: usize = net.params_mut().iter().map(|p| p.value.len()).sum();
        let session = SessionBuilder::from_network_ref(net.as_ref()).workers(2).build();
        let n = net.input_points();
        session.warm(&sample_shape(ShapeClass::Chair, n, 2));
        assert_eq!(session.compiled_plans(), 1, "two workers, one shape, one plan");
        let plan_bytes = |worker: usize| {
            let engine = lock_unpoisoned(&session.engines[worker]);
            engine.stats(n).expect("shared plan").plan_bytes
        };
        let warm = plan_bytes(0);
        assert!(warm >= 4 * weights, "{warm} plan bytes leave out {weights} weights");
        assert_eq!(plan_bytes(1), warm, "every worker sees the one shared plan");
        let mut frames = session.frames();
        for seed in 3..6 {
            let cloud = sample_shape(ShapeClass::Car, n, seed);
            let _ = (session.infer(&cloud), frames.infer(&cloud));
        }
        assert_eq!((plan_bytes(0), plan_bytes(1)), (warm, warm), "warm frames moved plan bytes");
    }

    #[test]
    fn arena_stats_sum_the_workers() {
        let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(3)
            .workers(2)
            .build();
        let n = session.network().input_points();
        let own = |worker: usize, seed: u64| {
            let mut engine = lock_unpoisoned(&session.engines[worker]);
            let _ = session.run_on(&mut engine, &sample_shape(ShapeClass::Chair, n, seed));
            engine.stats(n).expect("compiled")
        };
        let (first, second) = (own(0, 1), own(1, 2));
        assert!(first.cache_bytes > 0 && second.cache_bytes > 0, "each worker caches a sample");
        let total = session.arena_stats(n).expect("compiled");
        assert_eq!(total.cache_bytes, first.cache_bytes + second.cache_bytes);
        assert_eq!(total.search_bytes, first.search_bytes + second.search_bytes);
        assert_eq!(total.arena.peak_bytes, first.arena.peak_bytes + second.arena.peak_bytes);
        assert_eq!(total.plan_bytes, first.plan_bytes, "the shared plan counts once");
        assert_eq!(total.search, session.search_counters());
        assert_eq!(total.cache, session.cache_stats());
    }

    #[test]
    fn simultaneous_first_clouds_of_a_new_shape_leave_one_plan() {
        let mut rng = mesorasi_pointcloud::seeded_rng(6);
        let net = NetworkKind::PointNetPPClassification.build_small(3, &mut rng);
        let session = SessionBuilder::from_network_ref(net.as_ref()).workers(2).build();
        let n = net.input_points() + 16;
        let clouds: Vec<PointCloud> =
            (0..2).map(|s| sample_shape(ShapeClass::Lamp, n, s)).collect();
        let start = std::sync::Barrier::new(2);
        let got: Vec<Inference> = std::thread::scope(|scope| {
            let handles: Vec<_> = clouds
                .iter()
                .map(|cloud| {
                    let (session, start) = (&session, &start);
                    scope.spawn(move || {
                        start.wait();
                        session.infer(cloud)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("inference thread")).collect()
        });
        for (cloud, got) in clouds.iter().zip(&got) {
            let mut g = Graph::new();
            let want = net.forward(&mut g, cloud, Strategy::Delayed, 7);
            assert_eq!(got.logits(), g.value(want.logits), "a racing first cloud drifted");
        }
        assert_eq!(session.compiled_plans(), 1, "the losing compile must not be kept");
    }

    #[test]
    fn rotating_past_max_plans_across_workers_evicts_and_recompiles_the_same_bits() {
        use mesorasi_core::engine::MAX_PLANS;
        let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(3)
            .workers(2)
            .build();
        let n = session.network().input_points();
        let clouds: Vec<PointCloud> =
            (0..=MAX_PLANS).map(|i| sample_shape(ShapeClass::Cup, n + 8 * i, 3)).collect();
        let mut streams = [session.frames(), session.frames()];
        let first: Vec<Inference> =
            clouds.iter().enumerate().map(|(i, c)| streams[i % 2].infer(c)).collect();
        assert_eq!(session.compiled_plans(), MAX_PLANS, "the oldest shape is evicted");
        // The evicted shape recompiles on the worker that did not run it.
        assert_eq!(streams[1].infer(&clouds[0]), first[0], "a recompiled plan moved bits");
        assert_eq!(session.infer(&clouds[0]), first[0]);
        assert_eq!(session.compiled_plans(), MAX_PLANS);
    }

    #[test]
    #[should_panic(expected = "expected a detection result")]
    fn wrong_domain_unwrap_panics_clearly() {
        let session = SessionBuilder::from_kind(NetworkKind::DensePoint).classes(3).build();
        let cloud = sample_shape(ShapeClass::Chair, session.network().input_points(), 1);
        let _ = session.infer(&cloud).into_detection();
    }
}
