//! Zero-dependency data-parallel execution layer.
//!
//! Mesorasi's hot kernels — the dense MLP matrix products, the grouped max
//! reductions, and per-query neighbor search — are embarrassingly parallel
//! over rows, groups, and queries. This crate provides the minimal scoped
//! thread-pool substrate they share, in the same offline vendor-shim style
//! as `vendor/rand`: no external dependencies, `std::thread::scope` under
//! the hood.
//!
//! # Determinism contract
//!
//! Every primitive here is *bit-deterministic with respect to the thread
//! count*: work is split into chunks at fixed boundaries, each output
//! element is produced entirely by the chunk that owns it, and chunks never
//! share mutable state. Running with 1, 2, or 64 threads therefore produces
//! identical results down to the last float — threads only change which OS
//! thread executes a chunk, never the order of any floating-point
//! accumulation. At an effective thread count of 1 nothing is spawned at
//! all: the chunks run inline on the caller's thread.
//!
//! # Sizing
//!
//! The effective thread count is resolved, in priority order, from
//!
//! 1. a [`with_threads`] scope (used by tests and the bench harness),
//! 2. the `MESORASI_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Worker threads themselves run nested parallel calls sequentially, so a
//! parallel evaluation loop calling parallel matmuls cannot oversubscribe
//! the machine.

// `par` is, with `mesorasi_tensor::simd`, one of the two documented
// unsafe exceptions in the workspace: the chunk-claiming primitives hand
// disjoint sub-slices of one buffer to scoped workers, which cannot be
// expressed in safe Rust without an extra dependency. Every unsafe item
// below carries an explicit `#[allow(unsafe_code)]` and a SAFETY comment;
// everything else in the crate stays under the deny.
#![deny(unsafe_code)]

mod pool;

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Upper bound on the pool size; protects against a pathological
/// `MESORASI_THREADS` value.
const MAX_POOL: usize = 256;

/// Minimum amount of per-chunk work (in arbitrary cost units — roughly
/// "inner-loop operations") below which [`chunk_len`] refuses to split
/// further. Keeps tiny kernels on one thread where spawn overhead dominates.
const MIN_CHUNK_WORK: usize = 16 * 1024;

/// Chunks-per-thread target: a few chunks per worker lets the atomic queue
/// balance uneven per-item cost (e.g. octree queries) without shrinking
/// chunks into spawn-overhead territory.
const CHUNKS_PER_THREAD: usize = 4;

thread_local! {
    /// Per-thread override installed by [`with_threads`] and by pool
    /// workers (who pin themselves to 1 to serialize nested parallelism).
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };

    /// The pool slot of this thread: 0 for every non-pool thread (callers
    /// participate in their own jobs), `n + 1` for pool worker `n`. What
    /// [`ScratchPool`] keys its checkouts by.
    static WORKER_SLOT: Cell<usize> = const { Cell::new(0) };
}

/// Tags the calling thread with its pool slot — called once per worker at
/// spawn time.
pub(crate) fn set_worker_slot(slot: usize) {
    WORKER_SLOT.with(|s| s.set(slot));
}

/// The calling thread's scratch slot: 0 on any non-pool thread, a unique
/// `1..=MAX_POOL` id on pool workers. Distinct participants of one
/// parallel region always see distinct slots (the caller is the only
/// participant with slot 0), which is what makes [`ScratchPool`] checkouts
/// inside `par_*` bodies contention-free.
pub fn worker_slot() -> usize {
    WORKER_SLOT.with(|s| s.get())
}

/// Per-worker scratch buffers for `par_*` chunk bodies.
///
/// A chunk body that needs a scratch buffer (e.g. the kNN candidate heap)
/// cannot share one `&mut` buffer across workers, and allocating per chunk
/// would break the zero-allocation streaming bar above 1 thread. A
/// `ScratchPool` holds one lazily-default-initialized buffer per pool
/// slot; [`ScratchPool::with`] checks out the calling thread's slot for
/// the duration of a closure. Within one parallel region every
/// participant has a distinct slot, so checkouts never contend; the mutex
/// per slot exists for soundness (two *caller* threads from different
/// sessions share slot 0) and an uncontended `std` mutex does not
/// allocate.
///
/// Buffers keep their capacity across checkouts — after a warm-up pass,
/// `with` performs zero heap allocations no matter the thread count.
pub struct ScratchPool<T> {
    slots: Box<[Slot<T>]>,
}

/// One pool slot on cache lines of its own. A kNN selection rewrites its
/// buffer's `Vec` header on every insert; two workers' headers on one
/// line (or on the line pair x86 prefetches together) turned each write
/// into a cross-core invalidation, and parallel per-query kNN ran slower
/// than one thread whenever the pool's allocation happened to land that
/// way.
#[repr(align(128))]
struct Slot<T>(Mutex<T>);

impl<T: Default> Default for ScratchPool<T> {
    fn default() -> Self {
        ScratchPool::new()
    }
}

impl<T: Default> ScratchPool<T> {
    /// A pool with one default-initialized slot per possible participant
    /// (`MAX_POOL` workers plus the slot-0 caller).
    pub fn new() -> Self {
        ScratchPool { slots: (0..=MAX_POOL).map(|_| Slot(Mutex::new(T::default()))).collect() }
    }
}

impl<T> ScratchPool<T> {
    /// Runs `f` with exclusive access to the calling thread's slot buffer.
    /// The buffer retains whatever state (and capacity) the previous
    /// checkout on this slot left behind — callers must clear it if they
    /// need a fresh start.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard =
            self.slots[worker_slot()].0.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut guard)
    }

    /// Folds `measure` over every slot buffer (skipping any slot currently
    /// checked out) — how retained scratch memory is reported.
    pub fn measure_bytes(&self, measure: impl Fn(&T) -> usize) -> usize {
        self.slots.iter().filter_map(|s| s.0.try_lock().ok()).map(|guard| measure(&guard)).sum()
    }
}

/// Resolves the `MESORASI_THREADS` override, once per process: the value
/// sizes the process-wide worker pool, so it is frozen at first use. Unset
/// or blank means the hardware parallelism (CI can blank a job-level
/// variable but not remove it).
///
/// # Panics
///
/// Panics on any other value that is not a positive integer, naming the
/// accepted range. Silently falling back to the hardware count would make
/// a typo'd override *look* honored — config errors must fail loudly, not
/// skew thread-sweep experiments.
fn env_or_hardware_threads() -> usize {
    static RESOLVED: OnceLock<usize> = OnceLock::new();
    *RESOLVED.get_or_init(|| match std::env::var("MESORASI_THREADS") {
        Ok(raw) if !raw.trim().is_empty() => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n.min(MAX_POOL),
            _ => panic!(
                "invalid MESORASI_THREADS='{raw}': accepted values are \
                     positive integers 1..={MAX_POOL}"
            ),
        },
        _ => std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_POOL)),
    })
}

/// The effective thread count for parallel primitives called from this
/// thread: the innermost [`with_threads`] override if any, else
/// `MESORASI_THREADS`, else the hardware parallelism.
pub fn current_threads() -> usize {
    OVERRIDE.with(|o| o.get()).unwrap_or_else(env_or_hardware_threads)
}

/// Permanently pins the calling thread to sequential execution — used by
/// pool workers so nested parallel calls inside a chunk body run inline.
pub(crate) fn pin_current_thread_sequential() {
    OVERRIDE.with(|o| o.set(Some(1)));
}

/// Runs `f` with the effective thread count forced to `n` (clamped to
/// `1..=256`) on this thread, restoring the previous setting afterwards.
/// This is how the bench harness and the equivalence tests sweep thread
/// counts without touching the process environment.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let n = n.clamp(1, MAX_POOL);
    let prev = OVERRIDE.with(|o| o.replace(Some(n)));
    // Restore on unwind too, so a panicking closure doesn't leak the
    // override into unrelated tests sharing this thread.
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Picks a chunk length (in items) for `n` items of roughly `cost_per_item`
/// work units each: enough chunks to balance [`current_threads`] workers,
/// but never chunks smaller than `MIN_CHUNK_WORK` total work. Returns a
/// length ≥ `n` (meaning "do not parallelize") for small workloads.
pub fn chunk_len(n: usize, cost_per_item: usize) -> usize {
    if n == 0 {
        return 1;
    }
    let threads = current_threads();
    if threads <= 1 {
        return n;
    }
    let balanced = n.div_ceil(threads * CHUNKS_PER_THREAD).max(1);
    let min_items = MIN_CHUNK_WORK.div_ceil(cost_per_item.max(1)).max(1);
    balanced.max(min_items)
}

/// Raw mutable base pointer that is safe to ship across scoped threads:
/// each worker only ever touches the disjoint chunk it claimed.
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only dereferenced through disjoint [start, end)
// ranges, each claimed by exactly one worker via an atomic chunk queue,
// and the pointee buffer outlives the scoped job.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for SendPtr<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor method (rather than field access) so closures capture the
    /// `Sync` wrapper, not the raw pointer itself.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Splits `data` into fixed-boundary chunks of `chunk` elements (the last
/// may be shorter) and runs `f(chunk_index, chunk)` over them on the
/// effective thread count. Chunk boundaries depend only on `chunk` and
/// `data.len()` — never on the thread count — and workers claim chunk
/// indices from an atomic queue, so uneven chunks still balance.
///
/// A panic in any chunk propagates to the caller (after all workers join),
/// preserving the payload.
///
/// # Panics
///
/// Panics if `chunk == 0` while `data` is non-empty.
#[allow(unsafe_code)]
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk > 0, "chunk length must be positive");
    let n_chunks = data.len().div_ceil(chunk);
    let threads = current_threads().min(n_chunks);
    if threads <= 1 {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }

    let len = data.len();
    let base = SendPtr(data.as_mut_ptr());
    let next = AtomicUsize::new(0);
    let panic_slot = PanicSlot::default();
    let body = || loop {
        if panic_slot.poisoned() {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n_chunks {
            break;
        }
        let start = i * chunk;
        let end = (start + chunk).min(len);
        // SAFETY: chunk index `i` is claimed by exactly one participant
        // (fetch_add), and [start, end) ranges for distinct `i` are
        // disjoint sub-slices of `data`, which outlives the pool job.
        let slice = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        panic_slot.run(|| f(i, slice));
    };
    pool::run(threads - 1, &body);
    panic_slot.resume();
}

/// Captures the first panic raised on a worker so the caller can re-raise
/// it with the original payload (`std::thread::scope` alone would replace
/// the message with "a scoped thread panicked", breaking the kernels'
/// documented assertion messages).
#[derive(Default)]
struct PanicSlot {
    poisoned: std::sync::atomic::AtomicBool,
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl PanicSlot {
    fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Runs `f`, stashing its panic payload (first writer wins).
    fn run(&self, f: impl FnOnce()) {
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            self.poisoned.store(true, Ordering::Relaxed);
            let mut slot = self.payload.lock().expect("panic slot lock");
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }

    /// Re-raises the stashed panic, if any.
    fn resume(&self) {
        if let Some(payload) = self.payload.lock().expect("panic slot lock").take() {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Like [`par_chunks_mut`] but splits two output slices along proportional
/// fixed boundaries — chunk `i` covers `a[i*chunk_a ..]` and
/// `b[i*chunk_b ..]` — so kernels producing paired outputs (a reduced
/// matrix plus its argmax table) keep both halves of each work unit on the
/// same thread.
///
/// # Panics
///
/// Panics if either chunk length is zero while its slice is non-empty, or
/// if the two slices disagree on the number of chunks.
#[allow(unsafe_code)]
pub fn par_chunks_mut_pair<A, B, F>(a: &mut [A], b: &mut [B], chunk_a: usize, chunk_b: usize, f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    if a.is_empty() && b.is_empty() {
        return;
    }
    assert!(chunk_a > 0 && chunk_b > 0, "chunk lengths must be positive");
    let n_chunks = a.len().div_ceil(chunk_a).max(b.len().div_ceil(chunk_b));
    assert!(
        (n_chunks - 1) * chunk_a < a.len().max(1) && (n_chunks - 1) * chunk_b < b.len().max(1),
        "slices disagree on chunk count: {} × {chunk_a} vs {} × {chunk_b}",
        a.len(),
        b.len()
    );
    let threads = current_threads().min(n_chunks);
    let (a_len, b_len) = (a.len(), b.len());
    let run_chunk = |i: usize, a_ptr: *mut A, b_ptr: *mut B| {
        let (a_start, b_start) = (i * chunk_a, i * chunk_b);
        let a_end = (a_start + chunk_a).min(a_len);
        let b_end = (b_start + chunk_b).min(b_len);
        // SAFETY: chunk index `i` is processed exactly once, and the
        // [start, end) ranges for distinct `i` are disjoint in both slices.
        let (sa, sb) = unsafe {
            (
                std::slice::from_raw_parts_mut(a_ptr.add(a_start), a_end - a_start),
                std::slice::from_raw_parts_mut(b_ptr.add(b_start), b_end - b_start),
            )
        };
        f(i, sa, sb);
    };
    if threads <= 1 {
        for i in 0..n_chunks {
            run_chunk(i, a.as_mut_ptr(), b.as_mut_ptr());
        }
        return;
    }
    let base_a = SendPtr(a.as_mut_ptr());
    let base_b = SendPtr(b.as_mut_ptr());
    let next = AtomicUsize::new(0);
    let panic_slot = PanicSlot::default();
    let body = || loop {
        if panic_slot.poisoned() {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n_chunks {
            break;
        }
        panic_slot.run(|| run_chunk(i, base_a.get(), base_b.get()));
    };
    pool::run(threads - 1, &body);
    panic_slot.resume();
}

/// Computes `f(0..n)` in parallel and returns the results in index order.
/// The closure runs on worker threads but the result vector is assembled
/// in index order, so output is identical at every thread count.
pub fn par_map_indices<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let chunk = n.div_ceil(current_threads() * CHUNKS_PER_THREAD).max(1);
    if current_threads() <= 1 || n <= 1 || chunk >= n {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    par_chunks_mut(&mut out, chunk, |ci, slots| {
        let start = ci * chunk;
        for (j, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(start + j));
        }
    });
    out.into_iter().map(|r| r.expect("every index chunk fills its slots")).collect()
}

/// Runs heterogeneous one-shot tasks on the pool (used for per-module /
/// per-trace parallelism where each task is a different closure). Tasks are
/// claimed from a queue; at an effective thread count of 1 they run inline
/// in order.
pub fn par_run_tasks<'scope>(tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
    let threads = current_threads().min(tasks.len());
    if threads <= 1 {
        for t in tasks {
            t();
        }
        return;
    }
    let queue = Mutex::new(tasks.into_iter());
    let panic_slot = PanicSlot::default();
    let body = || loop {
        if panic_slot.poisoned() {
            break;
        }
        let task = queue.lock().expect("task queue poisoned").next();
        match task {
            Some(t) => panic_slot.run(t),
            None => break,
        }
    };
    pool::run(threads - 1, &body);
    panic_slot.resume();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = current_threads();
        let inner = with_threads(3, current_threads);
        assert_eq!(inner, 3);
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn with_threads_clamps_zero_to_one() {
        assert_eq!(with_threads(0, current_threads), 1);
    }

    #[test]
    fn with_threads_restores_after_panic() {
        let before = current_threads();
        let caught = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn chunk_len_keeps_small_work_sequential() {
        with_threads(8, || {
            // 100 items of cost 1 = 100 work units << MIN_CHUNK_WORK.
            assert!(chunk_len(100, 1) >= 100);
            // Large per-item cost splits down to the balanced size.
            assert_eq!(chunk_len(64, 1 << 20), 2);
        });
    }

    #[test]
    fn par_chunks_mut_covers_every_element_once() {
        for threads in [1, 2, 8] {
            let mut data = vec![0u32; 1003];
            with_threads(threads, || {
                par_chunks_mut(&mut data, 17, |ci, chunk| {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v += (ci * 17 + j) as u32 + 1;
                    }
                });
            });
            let want: Vec<u32> = (1..=1003).collect();
            assert_eq!(data, want, "threads = {threads}");
        }
    }

    #[test]
    fn par_chunks_mut_empty_input_is_noop() {
        let mut data: Vec<u32> = Vec::new();
        par_chunks_mut(&mut data, 0, |_, _| panic!("must not run"));
    }

    #[test]
    fn par_map_indices_preserves_order() {
        for threads in [1, 2, 8] {
            let out = with_threads(threads, || par_map_indices(500, |i| i * 1000 + 7));
            let want: Vec<usize> = (0..500).map(|i| i * 1000 + 7).collect();
            assert_eq!(out, want, "threads = {threads}");
        }
    }

    #[test]
    fn par_chunks_mut_pair_splits_proportionally() {
        for threads in [1, 2, 8] {
            // 20 groups: a holds 3 values per group, b holds 1 per group.
            let mut a = vec![0u32; 60];
            let mut b = vec![0u32; 20];
            with_threads(threads, || {
                par_chunks_mut_pair(&mut a, &mut b, 2 * 3, 2, |ci, ca, cb| {
                    for v in ca.iter_mut() {
                        *v = ci as u32 + 1;
                    }
                    for v in cb.iter_mut() {
                        *v = (ci as u32 + 1) * 100;
                    }
                });
            });
            for g in 0..20 {
                let chunk = (g / 2) as u32 + 1;
                assert_eq!(b[g], chunk * 100, "threads {threads} group {g}");
                assert!(a[3 * g..3 * (g + 1)].iter().all(|&v| v == chunk));
            }
        }
    }

    #[test]
    fn par_run_tasks_runs_everything() {
        let counter = AtomicU64::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..37)
            .map(|i| {
                let c = &counter;
                Box::new(move || {
                    c.fetch_add(1 << (i % 10), Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        with_threads(4, || par_run_tasks(tasks));
        let mut want = 0u64;
        for i in 0..37 {
            want += 1 << (i % 10);
        }
        assert_eq!(counter.load(Ordering::Relaxed), want);
    }

    #[test]
    fn workers_serialize_nested_parallelism() {
        let mut data = vec![0usize; 64];
        with_threads(4, || {
            par_chunks_mut(&mut data, 8, |_, chunk| {
                // Inside a worker the effective thread count is pinned to 1.
                for v in chunk.iter_mut() {
                    *v = current_threads();
                }
            });
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn worker_slots_are_distinct_within_a_region() {
        // Every chunk records the slot of the thread that ran it; the
        // caller is slot 0 and each pool worker has a unique nonzero slot,
        // so concurrent participants can never collide in a ScratchPool.
        let mut slots = vec![usize::MAX; 64];
        with_threads(4, || {
            par_chunks_mut(&mut slots, 1, |_, chunk| {
                // Spread the claims out so several workers participate.
                std::thread::sleep(std::time::Duration::from_micros(50));
                chunk[0] = worker_slot();
            });
        });
        assert!(slots.iter().all(|&s| s <= MAX_POOL));
        assert_eq!(worker_slot(), 0, "the calling thread keeps slot 0");
    }

    #[test]
    fn scratch_pool_keeps_per_slot_capacity() {
        let pool: ScratchPool<Vec<u64>> = ScratchPool::new();
        let mut caps = vec![0usize; 64];
        for _round in 0..2 {
            with_threads(4, || {
                par_chunks_mut(&mut caps, 1, |ci, chunk| {
                    pool.with(|buf| {
                        buf.clear();
                        buf.extend((0..128).map(|j| (ci * 128 + j) as u64));
                        chunk[0] = buf.capacity();
                    });
                });
            });
        }
        assert!(caps.iter().all(|&c| c >= 128));
        // Capacity is retained across checkouts and visible to the meter.
        assert!(pool.measure_bytes(|v| v.capacity() * 8) >= 128 * 8);
    }

    #[test]
    fn scratch_pool_slots_never_share_a_cache_line_pair() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        let addrs: Vec<usize> = pool.slots.iter().map(|s| s as *const _ as usize).collect();
        assert!(addrs.iter().all(|a| a % 128 == 0));
        assert!(addrs.windows(2).all(|w| w[1] - w[0] >= 128));
    }

    #[test]
    fn scratch_pool_slot_zero_is_shared_but_sound() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        pool.with(|v| v.push(1));
        pool.with(|v| v.push(2));
        pool.with(|v| assert_eq!(v.as_slice(), &[1, 2]));
    }

    #[test]
    fn panic_in_chunk_propagates_payload() {
        let result = std::panic::catch_unwind(|| {
            let mut data = vec![0u8; 100];
            with_threads(2, || {
                par_chunks_mut(&mut data, 10, |ci, _| {
                    if ci == 7 {
                        panic!("chunk 7 exploded");
                    }
                });
            });
        });
        let err = result.expect_err("must panic");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("chunk 7 exploded"), "got '{msg}'");
    }
}
