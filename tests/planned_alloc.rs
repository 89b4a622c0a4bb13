//! Steady-state allocation audit for the inference engine.
//!
//! The whole point of the liveness-planned arena is that once a (plan,
//! sample) pair is warm, a forward pass allocates **nothing**: every
//! intermediate writes into its preassigned slot and the cached bindings
//! are read in place. This binary installs a counting global allocator and
//! asserts exactly that. Two things keep a count exact:
//!
//! * libtest runs the `#[test]`s of one file on concurrent threads, so
//!   every audit holds the file-level [`SERIAL`] lock for its whole body,
//!   or one audit's warm-up would land in another's armed window — and the
//!   allocator counts only the audit's own thread (marked [`AUDITED`]) and
//!   the pool workers, because the harness itself spawns, captures and
//!   reports on other threads whenever it likes;
//! * chunks of a parallel region are claimed by whichever participant gets
//!   there first, so warm-up frames do not by themselves make every pool
//!   worker touch its `ScratchPool` slot: audits above one thread warm up
//!   through [`warm_on_every_pool_thread`], which runs the frames once on
//!   each participant, that participant claiming every search chunk.
//!
//! Thirteen audits, one per test (the twelfth at two scales); the first
//! eight in increasing strictness:
//!
//! 1. the cache-hit audit on [`PlanEngine::run`] — searches are cached,
//!    pure planned tensor execution; a hit on each of several cached
//!    samples, so the cache's lookup scan is audited too;
//! 2. the streaming audit on [`PlanEngine::run_streamed`], where the NIT
//!    cache is bypassed, so **index rebuilds and neighbor queries run on
//!    every frame** (centroid lists are plan constants) — the search arena
//!    must make them allocation-free too;
//! 3. the session-level audit: a warm [`mesorasi::Session`] frame stream
//!    served through `infer_into` (outputs recycled) performs zero heap
//!    allocations end to end;
//! 4. the multi-worker audit: with the pool at 2 threads, where the cost
//!    model splits the frame's searches into parallel chunks, a warm
//!    streamed frame still makes zero heap allocations — job dispatch
//!    reuses retired headers and every worker draws search scratch from
//!    its `ScratchPool` slot;
//! 5. the heap-ceiling audit: once warm, `EngineStats` byte totals
//!    (tensor arena + search arena + parallel scratch pool) are frozen —
//!    further frames neither grow a slot nor retain new storage;
//! 6. the feature-space audit: audits 1–5 run PointNet++, which only ever
//!    searches coordinates. A warm streamed DGCNN frame — every search a
//!    feature-space scan over its row panel — makes zero heap allocations
//!    at 1 and 2 threads under a frozen ceiling that counts the panel and
//!    each worker's distance rows;
//! 7. the packed-matmul audit: the small networks of audits 1–6 have no
//!    weight matrix deep enough for `ops::matmul_into`'s packed order, the
//!    paper-scale ones do. A warm packed product makes zero heap
//!    allocations at 1 and 2 threads — its panel buffer is on the stack of
//!    whichever thread runs the row chunk, so there is no retained storage
//!    for `EngineStats` to count;
//! 8. the segmentation audit: audits 1–7 run no feature propagation. A
//!    warm streamed PointNet++ (s) frame point-queries two coarse levels
//!    for its interpolation stencils on the octree and makes zero heap
//!    allocations at 1 and 2 threads, stencil indices and weights
//!    included;
//! 9. the decode audit, on the serving side: a frame's header is only a
//!    claim, so decoding a short INFER or RESULT frame whose header claims
//!    a huge body requests no heap block larger than the payload it was
//!    handed — the allocator records the largest request it sees;
//! 10. the shape-switch audit: an engine's derivation state (search arena,
//!     NIT, position buffers, frame bindings) is one copy shared by every
//!     compiled shape, so PointNet++ (s) frames of two point counts
//!     alternating through one engine make zero heap allocations once each
//!     shape is warm, and the engine's byte totals stay frozen;
//! 11. the shared-plan audit: a session's workers share one compiled plan
//!     per shape, so frames alternating between two `frames()` handles,
//!     one on each worker, make zero heap allocations once each worker is
//!     warm — the plan lookup is one lock and one `Arc` clone — and the
//!     pool's byte totals (`Session::arena_stats` sums the workers) stay
//!     frozen;
//! 12. the compile-memory audit: a plan is recorded from shapes, with no
//!     tape values, so the heap's peak growth during a cold engine's first
//!     [`PlanEngine::run`], compile included, stays within what the engine
//!     then retains (plan, arena, derivation state, sample cache) plus
//!     [`COLD_RUN_SLACK`]. The allocator tracks live bytes and their peak
//!     for this. The paper-scale case records PointNet++ (s) on 32,768
//!     points (release only);
//! 13. the `warm` audit: [`mesorasi::Session::warm`] runs one cached
//!     forward per worker, and a cache miss derives into the same frame
//!     bindings and search state a streamed frame runs on, so the first
//!     streamed frame after `warm` makes zero heap allocations.

use mesorasi::core::engine::PlanEngine;
use mesorasi::nn::VarId;
use mesorasi::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

/// Serialises the audits (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

/// An audit in progress: holds [`SERIAL`] while its thread is [`AUDITED`].
struct Audit {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for Audit {
    /// Unmarks the thread before the lock goes (fields drop after this):
    /// what libtest does on it once the test function has returned —
    /// collecting output, reporting — may overlap the next audit's window.
    fn drop(&mut self) {
        AUDITED.with(|a| a.set(false));
    }
}

/// Takes [`SERIAL`] and marks the calling thread [`AUDITED`]; a failed audit
/// must not poison the rest into failing.
fn serial() -> Audit {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    AUDITED.with(|a| a.set(true));
    Audit { _serial }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Largest single block requested while armed, in bytes.
static LARGEST: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed while armed, and the highest value it
/// reached: the heap growth of the armed window and its peak.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Whether this thread is running an audit. Const and without a
    /// destructor, so reading it inside the allocator neither allocates nor
    /// fails during thread teardown.
    static AUDITED: Cell<bool> = const { Cell::new(false) };
}

/// Whether an audit is armed and owns this thread: its own, or a pool
/// worker (which only ever runs the armed audit's jobs).
fn counted() -> bool {
    ARMED.load(Ordering::Relaxed) && (AUDITED.with(Cell::get) || mesorasi_par::worker_slot() > 0)
}

/// Counts one allocator call of `size` bytes that grows the live heap by
/// `grown` bytes, if [`counted`].
fn count(size: usize, grown: i64) {
    if counted() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(size as u64, Ordering::Relaxed);
        track(grown);
    }
}

/// Moves the live-byte count by `delta`, raising its peak.
fn track(delta: i64) {
    let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// Streams `frames` through `engine` once on every participant of a
/// `threads`-wide parallel region — the caller and each of the
/// `threads - 1` pool workers: compiles the plan, sizes the frame
/// bindings, and grows each participant's search scratch to this frame
/// population's high-water mark, so whichever of them claims a query chunk
/// later finds its slot warm. There are as many one-item chunks as
/// participants and nobody passes the barrier alone, so each participant
/// claims exactly one. A participant runs nested parallel calls inline, so
/// it re-raises its thread count to `threads`: the cost model then splits
/// the frames' searches as it does in the audit, and, with every other
/// participant parked on the engine lock, the one holding it claims every
/// chunk from *its own* `ScratchPool` slots. The region's own dispatch
/// also spawns the workers and leaves the pool retired job headers. No
/// audit asks for more than two threads, so the pool never has a worker
/// this did not reach.
fn warm_on_every_pool_thread(
    threads: usize,
    engine: &mut PlanEngine,
    frames: &[PointCloud],
    record: &(dyn Fn(&mut Graph, &PointCloud) -> Vec<VarId> + Sync),
) {
    let engine = Mutex::new(engine);
    let barrier = Barrier::new(threads);
    let mut one_each = vec![0u8; threads];
    mesorasi_par::with_threads(threads, || {
        mesorasi_par::par_chunks_mut(&mut one_each, 1, |_, _| {
            barrier.wait();
            let mut engine = engine.lock().unwrap_or_else(PoisonError::into_inner);
            mesorasi_par::with_threads(threads, || {
                for frame in frames {
                    let _ = engine.run_streamed(frame, record);
                }
            });
        })
    });
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; only adds counting.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            track(-(layout.size() as i64));
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn warm_planned_forward_allocates_nothing() {
    let _serial = serial();
    // Sequential execution: the pool's job-dispatch machinery is the one
    // part of the stack allowed to allocate, and it is bypassed at 1
    // thread. The per-sample zero-allocation claim is about the engine.
    mesorasi_par::with_threads(1, || {
        let mut rng = seeded_rng(6);
        let net = NetworkKind::PointNetPPClassification.build_small(5, &mut rng);
        let mut engine = PlanEngine::new();
        let record =
            |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
        let clouds: Vec<PointCloud> =
            (0..8).map(|s| sample_shape(ShapeClass::Chair, net.input_points(), 4 + s)).collect();

        // Warm-up: compile the plan (first forward) and cache every
        // cloud's bindings; run once more to settle any lazy init.
        for _ in 0..2 {
            for cloud in &clouds {
                let _ = engine.run(cloud, &record);
            }
        }

        // A hit on each cached sample: whichever slot the lookup scan
        // stops at, the hit only restamps it.
        for (i, cloud) in clouds.iter().enumerate() {
            ARMED.store(true, Ordering::SeqCst);
            let before = ALLOCS.load(Ordering::SeqCst);
            let _ = engine.run(cloud, &record);
            let after = ALLOCS.load(Ordering::SeqCst);
            ARMED.store(false, Ordering::SeqCst);
            assert_eq!(after - before, 0, "a warm planned forward (sample {i}) must not allocate");
        }
        let cache = engine.sample_cache_stats();
        assert_eq!((cache.entries, cache.misses), (8, 8), "eight samples, each derived once");
    });
}

#[test]
fn warm_streamed_forward_on_the_default_engine_allocates_nothing() {
    let _serial = serial();
    // Warm streamed PointNet++ frames make zero heap allocations. The
    // streaming path never caches samples: every frame rebuilds per-space
    // octrees and re-queries from the plan's centroid lists. All of it must
    // run out of the engine's persistent search arena. Sequential execution
    // for the same reason as the cache-hit audit.
    mesorasi_par::with_threads(1, || {
        let mut rng = seeded_rng(6);
        let net = NetworkKind::PointNetPPClassification.build_small(5, &mut rng);
        let mut engine = PlanEngine::new();
        let record =
            |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
        let frames: Vec<PointCloud> =
            (0..4).map(|s| sample_shape(ShapeClass::Chair, net.input_points(), s)).collect();

        // Warm pass: compiles the plan, sizes the frame bindings, and
        // grows every search buffer to this frame population's high-water
        // mark. The streamed replay re-derives everything per frame, so
        // re-running the same frames still exercises the full search path.
        for frame in &frames {
            let _ = engine.run_streamed(frame, &record);
        }

        ARMED.store(true, Ordering::SeqCst);
        let before = ALLOCS.load(Ordering::SeqCst);
        for frame in &frames {
            let _ = engine.run_streamed(frame, &record);
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        ARMED.store(false, Ordering::SeqCst);

        assert_eq!(
            after - before,
            0,
            "a warm streamed forward must not allocate — searches included"
        );
        let stats = engine.stats(net.input_points()).expect("compiled");
        assert!(stats.search.index_builds >= 8, "every streamed frame rebuilds its indices");
        assert!(stats.search.query_calls >= 8, "every streamed frame runs its searches");
    });
}

#[test]
fn warm_session_frame_inference_allocates_nothing_end_to_end() {
    let _serial = serial();
    // The full serving path: Session → FrameStream::infer_into with a
    // recycled result. Once warm, a frame costs zero heap allocations —
    // engine checkout, per-frame searches, planned execution, and output
    // delivery included.
    mesorasi_par::with_threads(1, || {
        let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(5)
            .workers(1)
            .build();
        let n = session.network().input_points();
        let frames: Vec<PointCloud> =
            (0..4).map(|s| sample_shape(ShapeClass::Lamp, n, 40 + s)).collect();

        let mut frame_stream = session.frames();
        let mut out = frame_stream.infer(&frames[0]);
        for frame in &frames {
            frame_stream.infer_into(frame, &mut out);
        }

        ARMED.store(true, Ordering::SeqCst);
        let before = ALLOCS.load(Ordering::SeqCst);
        for frame in &frames {
            frame_stream.infer_into(frame, &mut out);
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        ARMED.store(false, Ordering::SeqCst);

        assert_eq!(after - before, 0, "a warm Session frame must not touch the allocator");
        assert_eq!(out.domain(), Domain::Classification, "results still flow");
    });
}

#[test]
fn a_streamed_frame_after_warm_allocates_nothing() {
    let _serial = serial();
    mesorasi_par::with_threads(1, || {
        let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(5)
            .workers(1)
            .build();
        let cloud = sample_shape(ShapeClass::Lamp, session.network().input_points(), 60);
        session.warm(&cloud);
        let mut out = session.infer(&cloud);

        ARMED.store(true, Ordering::SeqCst);
        let before = ALLOCS.load(Ordering::SeqCst);
        session.frames().infer_into(&cloud, &mut out);
        let after = ALLOCS.load(Ordering::SeqCst);
        ARMED.store(false, Ordering::SeqCst);

        assert_eq!(after - before, 0, "warm left the streaming path cold");
        assert_eq!(session.cache_stats().misses, 1, "warm's forward was the only miss");
    });
}

#[test]
fn warm_streamed_forward_allocates_nothing_at_two_threads() {
    let _serial = serial();
    // The multi-worker bar: at 2 pool threads the cost model splits both
    // ball queries (48 and 16 centroids) into parallel chunks; dispatch
    // rides retired job headers and each participant's query scratch comes
    // out of its per-worker `ScratchPool` slot — so the warm streamed frame
    // stays at exactly zero heap allocations even though real parallel
    // dispatch is in the loop.
    mesorasi_par::with_threads(2, || {
        let mut rng = seeded_rng(6);
        let net = NetworkKind::PointNetPPClassification.build_small(5, &mut rng);
        let mut engine = PlanEngine::new();
        let record =
            |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
        let frames: Vec<PointCloud> =
            (0..4).map(|s| sample_shape(ShapeClass::Chair, net.input_points(), 60 + s)).collect();

        warm_on_every_pool_thread(2, &mut engine, &frames, &record);

        ARMED.store(true, Ordering::SeqCst);
        let before = ALLOCS.load(Ordering::SeqCst);
        for frame in &frames {
            let _ = engine.run_streamed(frame, &record);
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        ARMED.store(false, Ordering::SeqCst);

        assert_eq!(after - before, 0, "a warm streamed frame must not allocate at 2 threads");
        let stats = engine.stats(net.input_points()).expect("compiled");
        assert!(stats.parallel_scratch_bytes > 0, "pooled parallel chunks must have run");
    });
}

#[test]
fn warm_stream_holds_a_hard_heap_ceiling() {
    let _serial = serial();
    // The memory-ceiling half of the contract: beyond "no allocator
    // calls", the bytes already *retained* must stop moving once warm.
    // Tensor-arena peak, search-arena retention, and the process-wide
    // per-worker scratch pool are all captured after warm-up and must be
    // bit-for-bit unchanged after further frames — and no arena slot may
    // ever grow past its planned capacity.
    mesorasi_par::with_threads(2, || {
        let mut rng = seeded_rng(6);
        let net = NetworkKind::PointNetPPClassification.build_small(5, &mut rng);
        let mut engine = PlanEngine::new();
        let record =
            |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
        let n = net.input_points();
        let frames: Vec<PointCloud> =
            (0..4).map(|s| sample_shape(ShapeClass::Lamp, n, 80 + s)).collect();

        warm_on_every_pool_thread(2, &mut engine, &frames, &record);
        let warm = engine.stats(n).expect("compiled");
        assert!(warm.arena.peak_bytes > 0, "the arena must retain planned storage");
        assert!(warm.search_bytes > 0, "the search arena must retain storage");
        assert!(warm.parallel_scratch_bytes > 0, "pooled parallel chunks must have run");

        for _ in 0..3 {
            for frame in &frames {
                let _ = engine.run_streamed(frame, &record);
            }
        }
        let after = engine.stats(n).expect("compiled");

        assert_eq!(after.arena.peak_bytes, warm.arena.peak_bytes, "arena grew warm");
        assert_eq!(after.arena.grow_events, warm.arena.grow_events, "slots grew warm");
        assert_eq!(after.search_bytes, warm.search_bytes, "search arena grew warm");
        assert_eq!(
            after.parallel_scratch_bytes, warm.parallel_scratch_bytes,
            "per-worker scratch pool grew while warm"
        );
    });
}

#[test]
fn warm_dgcnn_stream_allocates_nothing_and_accounts_the_feature_panel() {
    let _serial = serial();
    // Every DGCNN module searches the previous module's feature space: no
    // index is ever built, each frame refills the scan's dim-major row
    // panel instead. The panel belongs to the engine's search context, so
    // it must be grown once, shared by every query chunk on whichever
    // worker runs it, and reported in `search_bytes`.
    for threads in [1, 2] {
        mesorasi_par::with_threads(threads, || {
            let mut rng = seeded_rng(6);
            let net = NetworkKind::DgcnnClassification.build_small(5, &mut rng);
            let n = net.input_points();
            // At 2 threads the cost model cuts each scan's 128 queries
            // into 16-query chunks.
            let mut engine = PlanEngine::new();
            let record =
                |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
            let frames: Vec<PointCloud> =
                (0..4).map(|s| sample_shape(ShapeClass::Guitar, n, 90 + s)).collect();

            warm_on_every_pool_thread(threads, &mut engine, &frames, &record);
            let warm = engine.stats(n).expect("compiled");

            ARMED.store(true, Ordering::SeqCst);
            let before = ALLOCS.load(Ordering::SeqCst);
            for frame in &frames {
                let _ = engine.run_streamed(frame, &record);
            }
            let after = ALLOCS.load(Ordering::SeqCst);
            ARMED.store(false, Ordering::SeqCst);
            assert_eq!(after - before, 0, "a warm DGCNN frame allocated at {threads} threads");

            let stats = engine.stats(n).expect("compiled");
            assert_eq!(stats.search.index_builds, 0, "DGCNN searches feature space only");
            assert!(stats.search.query_calls >= 16, "every frame runs its feature scans");
            assert_eq!(stats.arena.peak_bytes, warm.arena.peak_bytes, "arena grew warm");
            assert_eq!(stats.search_bytes, warm.search_bytes, "search arena grew warm");
            assert_eq!(stats.parallel_scratch_bytes, warm.parallel_scratch_bytes);
            // The widest space searched is ec2's 24-wide input: 128 rows
            // are 8 full 16-lane blocks of 24 dims. Beside the panel the
            // arena holds at least the 128 × (8 neighbors + centroid) NIT;
            // everything but the panel sums to less than this bound.
            let (panel, nit) = (n * 24 * 4, n * (8 + 1) * std::mem::size_of::<usize>());
            assert!(
                stats.search_bytes >= panel + nit,
                "the panel must be part of the reported {} bytes",
                stats.search_bytes
            );
            // The scan's query scratch: four 128-lane distance rows, the
            // 2 · 16 minima that `k = 8` asks for, and the `k + 1`
            // candidates of the selection buffer. One thread keeps it in
            // the context; at two, the parallel chunks ran on pooled
            // per-worker scratch.
            let tile =
                (4 * n + 32) * 4 + 9 * std::mem::size_of::<mesorasi::knn::bruteforce::Candidate>();
            let (held, by) = match threads {
                1 => (stats.search_bytes - panel - nit, "the search arena"),
                _ => (stats.parallel_scratch_bytes, "the worker pool"),
            };
            assert!(held >= tile, "the distance rows must be part of what {by} reports");
        });
    }
}

#[test]
fn warm_segmentation_stream_allocates_nothing_including_stencils() {
    let _serial = serial();
    // Feature propagation searches like every module: each frame's
    // stencils point-query the coarse levels through the engine's search
    // context and land in the frame bindings. A query list or a table
    // built per frame on that path would show here.
    for threads in [1, 2] {
        mesorasi_par::with_threads(threads, || {
            let mut rng = seeded_rng(6);
            let net = NetworkKind::PointNetPPSegmentation.build_small(5, &mut rng);
            let n = net.input_points();
            // At 2 threads the cost model splits the ball queries and the
            // stencils into chunks, on whichever worker claims them.
            let mut engine = PlanEngine::new();
            let record =
                |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
            let frames: Vec<PointCloud> =
                (0..4).map(|s| sample_shape(ShapeClass::Table, n, 110 + s)).collect();

            warm_on_every_pool_thread(threads, &mut engine, &frames, &record);
            let warm = engine.stats(n).expect("compiled");

            ARMED.store(true, Ordering::SeqCst);
            let before = ALLOCS.load(Ordering::SeqCst);
            for frame in &frames {
                let _ = engine.run_streamed(frame, &record);
            }
            let after = ALLOCS.load(Ordering::SeqCst);
            ARMED.store(false, Ordering::SeqCst);
            assert_eq!(
                after - before,
                0,
                "a warm segmentation frame allocated at {threads} threads"
            );

            // Per frame: two ball queries and two stencils over three
            // octrees (see `session_inference`).
            let stats = engine.stats(n).expect("compiled");
            let frames_run = (threads as u64 + 1) * frames.len() as u64;
            let traffic = (stats.search.query_calls, stats.search.index_builds);
            assert_eq!(traffic, (4 * frames_run, 3 * frames_run));
            assert_eq!(stats.search_bytes, warm.search_bytes, "search arena grew warm");
            assert_eq!(stats.arena.peak_bytes, warm.arena.peak_bytes, "arena grew warm");
            assert_eq!(stats.parallel_scratch_bytes, warm.parallel_scratch_bytes);
            if threads > 1 {
                assert!(stats.parallel_scratch_bytes > 0, "pooled parallel chunks must have run");
            }
        });
    }
}

#[test]
fn warm_packed_matmul_allocates_nothing() {
    use mesorasi::tensor::{ops, Matrix};

    /// Allocations of one warm `(128,600)×(600,80)` product: `B` is deeper
    /// than the in-place limit, `k` spans several `k`-blocks, and at 2
    /// threads the rows split into four chunks that each pack their own
    /// panels.
    fn warm_allocs() -> u64 {
        let a = Matrix::from_fn(128, 600, |r, c| ((r * 7 + c) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(600, 80, |r, c| ((r + c * 5) % 11) as f32 * 0.5);
        let mut out = Matrix::zeros(0, 0);
        for _ in 0..2 {
            ops::matmul_into(&a, &b, &mut out);
        }
        ARMED.store(true, Ordering::SeqCst);
        let before = ALLOCS.load(Ordering::SeqCst);
        ops::matmul_into(&a, &b, &mut out);
        let after = ALLOCS.load(Ordering::SeqCst);
        ARMED.store(false, Ordering::SeqCst);
        after - before
    }

    let _serial = serial();
    for threads in [1, 2] {
        mesorasi_par::with_threads(threads, || {
            assert_eq!(warm_allocs(), 0, "warm packed matmul at {threads} threads");
        });
    }
}

#[test]
fn alternating_two_point_counts_through_one_engine_allocates_nothing() {
    let _serial = serial();
    mesorasi_par::with_threads(1, || {
        let mut rng = seeded_rng(6);
        let net = NetworkKind::PointNetPPSegmentation.build_small(5, &mut rng);
        let mut engine = PlanEngine::new();
        let record =
            |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
        let (n, m) = (net.input_points(), net.input_points() * 3 / 2);
        // n, m, n, m: a full alternation of the two shapes.
        let frames: Vec<PointCloud> = (0..4)
            .map(|s| sample_shape(ShapeClass::Table, if s % 2 == 0 { n } else { m }, 130 + s))
            .collect();

        // One warm pass of each shape: compiles both plans and grows the
        // shared buffers to the larger shape's high-water mark.
        for frame in &frames {
            let _ = engine.run_streamed(frame, &record);
        }
        let warm = [n, m].map(|p| engine.stats(p).expect("compiled"));

        ARMED.store(true, Ordering::SeqCst);
        let before = ALLOCS.load(Ordering::SeqCst);
        for frame in &frames {
            let _ = engine.run_streamed(frame, &record);
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        ARMED.store(false, Ordering::SeqCst);

        assert_eq!(after - before, 0, "switching between warm shapes must not allocate");
        assert_eq!(engine.compiled_plans(), 2);
        for (p, warm) in [n, m].into_iter().zip(warm) {
            let stats = engine.stats(p).expect("compiled");
            assert_eq!(stats.arena.peak_bytes, warm.arena.peak_bytes, "{p}-point arena grew");
            assert_eq!(stats.search_bytes, warm.search_bytes, "search state grew at {p}");
            assert_eq!(stats.cache_bytes, warm.cache_bytes, "the cache moved at {p}");
            assert_eq!(stats.parallel_scratch_bytes, warm.parallel_scratch_bytes);
        }
    });
}

#[test]
fn alternating_frames_between_two_workers_sharing_a_plan_allocates_nothing() {
    let _serial = serial();
    mesorasi_par::with_threads(1, || {
        let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(5)
            .workers(2)
            .build();
        let n = session.network().input_points();
        let frames: Vec<PointCloud> =
            (0..4).map(|s| sample_shape(ShapeClass::Chair, n, 150 + s)).collect();
        let mut streams = [session.frames(), session.frames()];
        let mut out = streams[0].infer(&frames[0]);

        // One warm pass on each worker: the first compiles the plan, the
        // second fits its own arena and search state to the shared one.
        for stream in &mut streams {
            for frame in &frames {
                stream.infer_into(frame, &mut out);
            }
        }
        let warm = session.arena_stats(n).expect("compiled");

        ARMED.store(true, Ordering::SeqCst);
        let before = ALLOCS.load(Ordering::SeqCst);
        for (i, frame) in frames.iter().enumerate() {
            streams[i % 2].infer_into(frame, &mut out);
            streams[(i + 1) % 2].infer_into(frame, &mut out);
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        ARMED.store(false, Ordering::SeqCst);

        assert_eq!(after - before, 0, "a warm frame on a worker sharing the plan allocated");
        assert_eq!(session.compiled_plans(), 1, "two workers, one shape, one plan");
        let stats = session.arena_stats(n).expect("compiled");
        assert_eq!(stats.arena.peak_bytes, warm.arena.peak_bytes, "arena grew warm");
        assert_eq!(stats.plan_bytes, warm.plan_bytes, "the shared plan grew warm");
        assert_eq!(stats.search_bytes, warm.search_bytes, "search state grew warm");
        assert_eq!(stats.cache_bytes, warm.cache_bytes, "the cache moved");
    });
}

#[test]
fn decoding_a_short_frame_reserves_no_more_than_its_payload() {
    use mesorasi::serve::protocol::{self, MAX_POINTS};

    /// The largest block `decode` requests for `payload`, which must fail.
    fn largest_request(payload: &[u8]) -> u64 {
        LARGEST.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        let decoded = protocol::decode(payload);
        let largest = LARGEST.load(Ordering::SeqCst);
        ARMED.store(false, Ordering::SeqCst);
        assert!(decoded.is_err(), "a truncated frame must not decode");
        largest
    }

    let _serial = serial();
    // A header-only INFER claiming MAX_POINTS points (12 MB of them).
    let infer = [&[0x01][..], &1u64.to_le_bytes(), &MAX_POINTS.to_le_bytes()].concat();
    // A RESULT whose one matrix claims 2048 x 2048 cells (16 MB) and
    // carries 16 of them: room for the matrix list, not for the claim.
    let shape = 2048u32.to_le_bytes();
    let result = [&[0x81][..], &1u64.to_le_bytes(), &[1], &shape, &shape, &[0; 64]].concat();
    for (kind, payload) in [("INFER", &infer), ("RESULT", &result)] {
        let largest = largest_request(payload);
        assert!(
            largest <= payload.len() as u64,
            "{kind}: {largest}-byte request for a {}-byte payload",
            payload.len()
        );
    }
}

/// Transient bytes a cold run may hold beyond what its engine retains: the
/// recording's position copies and op list, and the first derivation's
/// scratch. Measured at 38 KiB on the small PointNet++ (s) and 5 KiB on the
/// paper-scale scene; an eager recording tape overshoots by 1.4 MB and
/// 315 MB.
const COLD_RUN_SLACK: i64 = 256 * 1024;

/// The heap peak of a cold engine's first `run` on one `n`-point cloud of
/// `net` (compile included) and the bytes the engine reports retaining
/// after it: plan, arena, derivation state and sample cache.
fn cold_run_peak(net: &dyn PointCloudNetwork, n: usize) -> (i64, i64) {
    let mut engine = PlanEngine::new();
    let record = |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
    let cloud = sample_shape(ShapeClass::Table, n, 170);
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let _ = engine.run(&cloud, &record);
    ARMED.store(false, Ordering::SeqCst);
    let stats = engine.stats(n).expect("compiled");
    let retained =
        stats.plan_bytes + stats.arena.peak_bytes + stats.search_bytes + stats.cache_bytes;
    (PEAK.load(Ordering::SeqCst), retained as i64)
}

fn check_cold_run_peak(net: &dyn PointCloudNetwork, n: usize) {
    let _serial = serial();
    mesorasi_par::with_threads(1, || {
        let (peak, retained) = cold_run_peak(net, n);
        assert!(
            peak <= retained + COLD_RUN_SLACK,
            "a cold {n}-point run peaked at {peak} B; its engine retains {retained} B"
        );
    });
}

#[test]
fn a_cold_engines_first_run_peaks_at_what_it_retains() {
    let net = NetworkKind::PointNetPPSegmentation.build_small(5, &mut seeded_rng(6));
    check_cold_run_peak(net.as_ref(), net.input_points());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale forward: release only")]
fn a_cold_paper_scale_scene_run_peaks_at_what_it_retains() {
    let net = NetworkKind::PointNetPPSegmentation.build_paper(&mut seeded_rng(6));
    check_cold_run_peak(net.as_ref(), 32_768);
}
