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
//! Ten audits, in increasing strictness:
//!
//! 1. the original cache-hit audit on [`PlanEngine::run`] — searches are
//!    cached, pure planned tensor execution — in both dtypes;
//! 2. the streaming audit on [`PlanEngine::run_streamed`], where the NIT
//!    cache is bypassed, so centroid sampling, **index rebuilds, and
//!    neighbor queries run on every frame** — the search arena must make
//!    them allocation-free too;
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
//!    further frames neither grow a slot nor retain new storage — in both
//!    dtype modes, and the f64 mode's extra state is part of the total;
//! 6. the feature-space audit: audits 1–5 run PointNet++, which only ever
//!    searches coordinates. A warm streamed DGCNN frame — every search a
//!    feature-space scan over its row panel — makes zero heap allocations
//!    at 1 and 2 threads under a frozen ceiling that counts the panel and
//!    each worker's distance rows;
//! 7. the packed-matmul audit: the small networks of audits 1–6 have no
//!    weight matrix deep enough for `ops::matmul_into`'s packed order, the
//!    paper-scale ones do. A warm packed product makes zero heap
//!    allocations at 1 and 2 threads in both dtypes — its panel buffer is
//!    on the stack of whichever thread runs the row chunk, so there is no
//!    retained storage for `EngineStats` to count.
//! 8. the default-configuration audit: audits 2–5 force the octree (the
//!    small networks' searches would otherwise all stay on the exhaustive
//!    scan) and 6 searches feature space, so the automatic planner — the configuration
//!    every benchmark workload runs — never planned a coordinate search
//!    inside an armed window. A warm streamed PointNet++ frame on
//!    [`PlanEngine::new`] makes zero heap allocations, backend choice
//!    included;
//! 9. the segmentation audit: audits 1–8 run no feature propagation. A warm
//!    streamed PointNet++ (s) frame point-queries two coarse levels for its
//!    interpolation stencils — one on the scan, one on the octree — and
//!    makes zero heap allocations at 1 and 2 threads, stencil indices and
//!    weights included.

use mesorasi::core::engine::PlanEngine;
use mesorasi::core::EngineConfig;
use mesorasi::nn::VarId;
use mesorasi::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

/// A forced-octree engine (real index construction under audit, not just
/// brute-force scans) at the given dtype.
fn octree_engine(dtype: Dtype) -> PlanEngine {
    PlanEngine::with_config(EngineConfig {
        search: mesorasi::SearchPlanner::forced(SearchBackend::Octree),
        dtype,
        ..EngineConfig::default()
    })
}

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

thread_local! {
    /// Whether this thread is running an audit. Const and without a
    /// destructor, so reading it inside the allocator neither allocates nor
    /// fails during thread teardown.
    static AUDITED: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocator call if an audit is armed and owns this thread: its
/// own, or a pool worker (which only ever runs the armed audit's jobs).
fn count() {
    if ARMED.load(Ordering::Relaxed) && (AUDITED.with(Cell::get) || mesorasi_par::worker_slot() > 0)
    {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Streams `frames` through `engine` once on every participant of a
/// `threads`-wide parallel region — the caller and each of the
/// `threads - 1` pool workers: compiles the plan, sizes the stream
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
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
        let cloud = sample_shape(ShapeClass::Chair, net.input_points(), 4);

        // Warm-up: compile the plan (forward 1) and fill the NIT cache
        // (same forward); run once more to settle any lazy init.
        for _ in 0..2 {
            let _ = engine.run(&cloud, &record);
        }

        ARMED.store(true, Ordering::SeqCst);
        let before = ALLOCS.load(Ordering::SeqCst);
        let _ = engine.run(&cloud, &record);
        let after = ALLOCS.load(Ordering::SeqCst);
        ARMED.store(false, Ordering::SeqCst);

        assert_eq!(after - before, 0, "a warm planned forward must not touch the allocator");
    });
}

#[test]
fn warm_f64_shadow_forward_allocates_nothing() {
    let _serial = serial();
    // In f64 mode the engine replays the full plan against an f64 arena
    // after every forward. That arena, its scratch, and the rounded outputs
    // are all persistent, so a warm f64-mode forward must be exactly as
    // allocation-free as the f32 path it shadows — the dtype knob may not
    // reintroduce the per-op allocation the planner exists to eliminate.
    mesorasi_par::with_threads(1, || {
        let mut rng = seeded_rng(6);
        let net = NetworkKind::PointNetPPClassification.build_small(5, &mut rng);
        let mut engine =
            PlanEngine::with_config(EngineConfig { dtype: Dtype::F64, ..EngineConfig::default() });
        let record =
            |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
        let cloud = sample_shape(ShapeClass::Chair, net.input_points(), 4);

        // Warm-up: compile the plan and build the shadow (forward 1), fill
        // the NIT cache, and settle any lazy growth in the f64 arena.
        for _ in 0..3 {
            let _ = engine.run(&cloud, &record);
        }

        ARMED.store(true, Ordering::SeqCst);
        let before = ALLOCS.load(Ordering::SeqCst);
        let _ = engine.run(&cloud, &record);
        let after = ALLOCS.load(Ordering::SeqCst);
        ARMED.store(false, Ordering::SeqCst);

        assert_eq!(after - before, 0, "a warm f64 shadow forward must not touch the allocator");
    });
}

#[test]
fn warm_streamed_forward_allocates_nothing_including_search() {
    let _serial = serial();
    // The streaming path never caches samples: every frame re-selects
    // centroids, rebuilds per-space indices (forced octree, so real index
    // construction — not just brute-force scans — is under audit), and
    // re-queries. All of it must run out of the engine's persistent search
    // arena. Sequential execution for the same reason as above.
    mesorasi_par::with_threads(1, || {
        let mut rng = seeded_rng(6);
        let net = NetworkKind::PointNetPPClassification.build_small(5, &mut rng);
        let mut engine = octree_engine(Dtype::F32);
        let record =
            |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
        let frames: Vec<PointCloud> =
            (0..4).map(|s| sample_shape(ShapeClass::Chair, net.input_points(), s)).collect();

        // Warm pass: compiles the plan, sizes the stream bindings, and
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
    });
}

#[test]
fn warm_streamed_forward_on_the_default_engine_allocates_nothing() {
    let _serial = serial();
    // Built-in defaults, environment not consulted: the automatic planner
    // costs every candidate backend for every ball query of every frame,
    // and that choice must not touch the allocator either.
    mesorasi_par::with_threads(1, || {
        let mut rng = seeded_rng(6);
        let net = NetworkKind::PointNetPPClassification.build_small(5, &mut rng);
        let mut engine = PlanEngine::new();
        let record =
            |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
        let frames: Vec<PointCloud> =
            (0..4).map(|s| sample_shape(ShapeClass::Chair, net.input_points(), s)).collect();

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

        assert_eq!(after - before, 0, "planning a warm frame's searches must not allocate");
        let stats = engine.stats(net.input_points()).expect("compiled");
        assert!(stats.search.query_calls >= 8, "every streamed frame plans and runs its searches");
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
            .search_backend(SearchBackend::Octree)
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
fn warm_tiled_streaming_allocates_nothing_at_two_threads() {
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
        let mut engine = octree_engine(Dtype::F32);
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
fn warm_tiled_stream_holds_a_hard_heap_ceiling() {
    let _serial = serial();
    // The memory-ceiling half of the contract: beyond "no allocator
    // calls", the bytes already *retained* must stop moving once warm.
    // Tensor-arena peak, search-arena retention, and the process-wide
    // per-worker scratch pool are all captured after warm-up and must be
    // bit-for-bit unchanged after further frames — and no arena slot may
    // ever grow past its planned capacity. In f64 mode the reported arena
    // total must also carry the f64 state the engine retains.
    let warm_stats = |dtype: Dtype| {
        mesorasi_par::with_threads(2, || {
            let mut rng = seeded_rng(6);
            let net = NetworkKind::PointNetPPClassification.build_small(5, &mut rng);
            let mut engine = octree_engine(dtype);
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

            assert_eq!(after.arena.peak_bytes, warm.arena.peak_bytes, "{dtype} arena grew warm");
            assert_eq!(after.arena.grow_events, warm.arena.grow_events, "{dtype} slots grew warm");
            assert_eq!(after.search_bytes, warm.search_bytes, "{dtype} search arena grew warm");
            assert_eq!(
                after.parallel_scratch_bytes, warm.parallel_scratch_bytes,
                "{dtype} per-worker scratch pool grew while warm"
            );
            warm
        })
    };
    let f32_mode = warm_stats(Dtype::F32);
    let f64_mode = warm_stats(Dtype::F64);
    assert!(
        f64_mode.arena.peak_bytes > f32_mode.arena.peak_bytes,
        "f64 mode retains an extra arena that the ceiling must report: {} vs {}",
        f64_mode.arena.peak_bytes,
        f32_mode.arena.peak_bytes
    );
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
            assert!(stats.search.calls_by_backend[SearchBackend::BruteForce as usize] >= 16);
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
    // context and land in the stream bindings. A query list or a table
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

            // Per frame: two ball queries and two stencils, one of each on
            // the scan and on the octree (see `session_inference`).
            let stats = engine.stats(n).expect("compiled");
            let frames_run = (threads as u64 + 1) * frames.len() as u64;
            assert_eq!(stats.search.calls_by_backend, [2, 2].map(|c| c * frames_run));
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
    use mesorasi::tensor::{ops, Element, Mat};

    /// Allocations of one warm `(128,600)×(600,80)` product: `B` is deeper
    /// than the in-place limit in both dtypes, `k` spans several
    /// `k`-blocks, and at 2 threads the rows split into four chunks that
    /// each pack their own panels.
    fn warm_allocs<T: Element>() -> u64 {
        let a = Mat::<T>::from_fn(128, 600, |r, c| T::from_f64(((r * 7 + c) % 13) as f64 - 6.0));
        let b = Mat::<T>::from_fn(600, 80, |r, c| T::from_f64(((r + c * 5) % 11) as f64 * 0.5));
        let mut out = Mat::<T>::zeros(0, 0);
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
            assert_eq!(warm_allocs::<f32>(), 0, "warm packed f32 matmul at {threads} threads");
            assert_eq!(warm_allocs::<f64>(), 0, "warm packed f64 matmul at {threads} threads");
        });
    }
}
