//! Machine-readable performance harness (`repro bench`).
//!
//! Measures the hot kernels — the matmul family, the grouped reductions,
//! and every neighbor-search backend with its index build/query split —
//! across a thread sweep, plus whole network forwards on both execution
//! engines (autograd tape vs a [`Session`]), batched session throughput,
//! and streamed frame sequences, and emits the results as
//! `BENCH_<date>.json` so the ROADMAP's performance trajectory accumulates
//! comparable data points across PRs.
//!
//! JSON schema (`mesorasi-bench/8`):
//!
//! ```json
//! {
//!   "schema": "mesorasi-bench/8",
//!   "date": "2026-07-28",
//!   "unix_time": 1785000000,
//!   "host_threads": 8,
//!   "smoke": false,
//!   "records": [
//!     { "op": "matmul", "backend": "tensor", "threads": 2,
//!       "ns_per_op": 812345.6, "speedup_vs_1t": 1.94 },
//!     { "op": "matmul", "backend": "naive", "threads": 2,
//!       "ns_per_op": 2712345.6, "speedup_vs_1t": 1.91 },
//!     { "op": "matmul", "backend": "tensor", "threads": 1,
//!       "ns_per_op": 9123456.7, "dtype": "f64", "speedup_vs_1t": 1.0 },
//!     { "op": "index_build", "backend": "kdtree", "threads": 1,
//!       "ns_per_op": 93210.5, "speedup_vs_1t": 1.0 },
//!     { "op": "index_build", "backend": "octree-1m-paged", "threads": 1,
//!       "ns_per_op": 48123456.0, "speedup_vs_1t": 1.0 },
//!     { "op": "query", "backend": "octree-128k-paged", "threads": 2,
//!       "ns_per_op": 812345.0, "speedup_vs_1t": 1.88 },
//!     { "op": "forward_planned", "backend": "PointNet++ (c)", "threads": 8,
//!       "ns_per_op": 212345.6, "speedup_vs_tape": 3.41,
//!       "arena_peak_bytes": 1843200, "arena_slot_reuse": 6.5 },
//!     { "op": "infer_batch", "backend": "PointNet++ (c)", "threads": 8,
//!       "ns_per_op": 61234.5, "batch": 8, "samples_per_sec": 16330.6,
//!       "speedup_vs_sequential": 3.47 },
//!     { "op": "infer_frames", "backend": "PointNet++ (c)", "threads": 8,
//!       "ns_per_op": 70123.4, "frames": 24,
//!       "distance_evals_per_frame": 1843200.0,
//!       "index_builds_per_frame": 4.0,
//!       "index_build_ns_per_frame": 81234.0,
//!       "query_ns_per_frame": 412345.0 },
//!     { "op": "serve_mixed", "backend": "PointNet++ (c)", "threads": 8,
//!       "ns_per_op": 812345.0, "streams": 4, "requests": 256,
//!       "throughput_rps": 1234.5, "p50_us": 700, "p99_us": 1400,
//!       "p999_us": 1900, "shed": 0, "errored": 0 },
//!     { "op": "stream_tiled", "backend": "PointNet++ (c)", "threads": 2,
//!       "ns_per_op": 512345.0, "tile_budget": 256, "frames": 120,
//!       "p99_frame_us": 780, "speedup_vs_untiled": 1.62 }
//!   ]
//! }
//! ```
//!
//! `speedup_vs_1t` is the same op/backend's 1-thread time divided by this
//! record's time (1.0 for the 1-thread record itself; omitted on records
//! with no 1-thread baseline, i.e. the network forwards). The `knn` /
//! `ball` kernel records time pure *queries* against prebuilt indices;
//! the `index_build` records (new in `/4`) time a warm in-place rebuild
//! (`build_into`) of each index backend, so the build-vs-query split the
//! planner's cost model reasons about is measured directly. `forward_tape`
//! / `forward_planned` records compare the two engines per network (smoke:
//! kernel-sized instances; full: paper-scale); planned records carry the
//! arena statistics (`arena_peak_bytes`, `arena_slot_reuse` — values per
//! physical buffer) and `speedup_vs_tape`. `infer_batch` records time
//! [`Session::infer_batch`] per batch size: `ns_per_op` is per *sample*,
//! `samples_per_sec` is the batch throughput, and `speedup_vs_sequential`
//! divides the same network's single-sample sequential time
//! (`forward_planned`) by the per-sample batched time. `infer_frames`
//! records (new in `/4`) time [`Session::frames`] over a pool of distinct
//! same-shaped clouds — the streaming path re-searches every frame, so
//! unlike `forward_planned` (NIT-cache steady state) they include real
//! search work — and carry the session's [`mesorasi_knn::stats`] search
//! counters per frame: distance evaluations and the index-build vs query
//! time split of genuine inference traffic (Fig. 6-style analysis without
//! synthetic workloads).
//!
//! New in `/6`: the `matmul` kernel runs at paper scale (a 2048-point
//! feature block, `(2048, 128) x (128, 128)`) and is recorded through
//! three implementations — the register-tiled fast tier (`backend:
//! "tensor"`), the pre-tier reference kernel (`backend: "naive"`), and
//! the same tier at `f64` (`backend: "tensor"`, `"dtype": "f64"`). The
//! optional `dtype` field is part of a record's identity for
//! [`crate::diff`] (`repro bench-diff`); records without it are the
//! native f32 tier. The committed artifact therefore carries the fast
//! tier's speedup over the scalar reference (the ISSUE's >= 2x
//! acceptance bar) as an ordinary pair of records.
//!
//! New in `/7`: the tiled streaming sweep and the full transpose-product
//! kernel family. `stream_tiled` records time [`Session::frames`] on a
//! tile-streaming session ([`SessionBuilder::tile_budget`]) over the same
//! distinct-cloud pool as `infer_frames`, for every tile budget in
//! [`STREAM_TILE_BUDGETS`] crossed with the thread sweep (so 1- and
//! 2-thread rows exist on any host, like the kernel records); the extras
//! carry the budget (part of the record's identity for `bench-diff`), the
//! frame count, the p99 frame latency (nearest-rank, microseconds), and
//! `speedup_vs_untiled` — the `stream_untiled` baseline's ns/frame over
//! this record's (the `stream_untiled` record is the same workload
//! through a sequential untiled session, the pre-tiling configuration;
//! it carries `tile_budget: 0`). The `matmul_at_b` / `matmul_a_bt`
//! kernels are recorded through both the register-tiled fast tier
//! (`backend: "tensor"`) and the pre-tier reference (`backend: "naive"`),
//! completing the naive-vs-tensor pairs the `/6` schema introduced for
//! `matmul`.
//!
//! New in `/8`: the out-of-core sweep (see [`crate::largecloud`]).
//! `index_build` and `query` records at 2^17- and 2^20-point scales
//! (smoke: one 2^15-point cloud) measure the octree backend — resident
//! and behind a ⅛-storage pager budget (`-paged`) — against the kd-tree
//! and grid backends on the same synthetic cloud. The cloud size and mode
//! are encoded in the backend label (`octree-1m-paged`, `kdtree-128k`,
//! ...) because a record's `bench-diff` identity is
//! `(op, backend, threads, dtype)`.
//!
//! `serve_fresh` / `serve_mixed` records (new in `/5`, produced by
//! `repro serve-bench`, see [`crate::serve_bench`]) measure end-to-end
//! request latency through the `mesorasi-serve` network server under
//! concurrent client streams: `ns_per_op` is the mean send→response
//! latency, and the extras carry the latency tail (`p50_us` / `p99_us` /
//! `p999_us`, nearest-rank), achieved throughput, and the shed/error
//! counts. `serve_fresh` sends never-repeating clouds (every request an
//! engine NIT-cache miss); `serve_mixed` sends the hot-set-plus-fresh mix
//! a deployed server sees, where the engine cache must help.
//!
//! Four smoke gates guard CI: any parallel record more than 1.5× slower
//! than its own sequential baseline fails (parallelism may never change
//! results, and may not wreck performance either), any network whose
//! planned forward is slower than its tape forward fails (the inference
//! engine must never lose to the allocating tape), any batched record
//! more than 1.5× slower per sample than sequential single-sample
//! inference fails (batching must never wreck throughput), and any serve
//! record with sheds/errors, or a `serve_mixed` p99 more than 1.5× its
//! `serve_fresh` p99, fails (cache-friendly traffic may never develop a
//! latency cliff — the repo's standard 1.5× tolerance).

use mesorasi_core::Strategy;
use mesorasi_knn::feature::FeatureView;
use mesorasi_knn::{
    ball, bruteforce, feature, grid::UniformGrid, kdtree::KdTree, SearchBackend, SearchIndex,
};
use mesorasi_networks::registry::NetworkKind;
use mesorasi_networks::session::{Session, SessionBuilder};
use mesorasi_nn::Graph;
use mesorasi_par as par;
use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
use mesorasi_pointcloud::{sampling, PointCloud};
use mesorasi_tensor::{group, ops, Matrix, Matrix64};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Planned-engine extras carried by `forward_planned` records (schema
/// `mesorasi-bench/2`).
#[derive(Debug, Clone, Copy)]
pub struct EngineExtra {
    /// Tape ns over planned ns for the same network and thread count.
    pub speedup_vs_tape: f64,
    /// Total bytes of the plan's arena.
    pub arena_peak_bytes: usize,
    /// Intermediates per physical buffer (1.0 = no reuse).
    pub arena_slot_reuse: f64,
}

/// Batched-throughput extras carried by `infer_batch` records (schema
/// `mesorasi-bench/3`).
#[derive(Debug, Clone, Copy)]
pub struct BatchExtra {
    /// Samples per [`Session::infer_batch`] call.
    pub batch_size: usize,
    /// Steady-state throughput of the batched call.
    pub samples_per_sec: f64,
    /// Sequential single-sample ns over batched per-sample ns for the same
    /// network (>1 means batching helps).
    pub speedup_vs_sequential: f64,
}

/// Search-traffic extras carried by `infer_frames` records (schema
/// `mesorasi-bench/4`): the session's search counters over the timed
/// window, normalized per frame.
#[derive(Debug, Clone, Copy)]
pub struct SearchExtra {
    /// Frames inferred in the timed window.
    pub frames: usize,
    /// Pairwise distance evaluations per frame (measured, not modeled).
    pub distance_evals_per_frame: f64,
    /// Index (re)builds per frame.
    pub index_builds_per_frame: f64,
    /// Nanoseconds spent building indices, per frame.
    pub index_build_ns_per_frame: f64,
    /// Nanoseconds spent answering queries, per frame.
    pub query_ns_per_frame: f64,
    /// Query calls per frame by answering backend (indexed like
    /// `SearchCounters::calls_by_backend`) — which backends the planner
    /// picked. Printed in the table; not part of the JSON schema.
    pub calls_per_frame: [f64; 4],
}

/// Served-latency extras carried by `serve_fresh` / `serve_mixed` records
/// (schema `mesorasi-bench/5`): the tail of end-to-end request latency
/// through the network server under concurrent streams.
#[derive(Debug, Clone, Copy)]
pub struct ServeExtra {
    /// Concurrent client connections the load ran over.
    pub streams: usize,
    /// Requests sent across all streams.
    pub requests: u64,
    /// Completed requests per second of wall-clock (slowest stream's
    /// window).
    pub throughput_rps: f64,
    /// Median send→response latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds (nearest-rank).
    pub p99_us: u64,
    /// 99.9th-percentile latency, microseconds (nearest-rank).
    pub p999_us: u64,
    /// Requests shed by server admission control.
    pub shed: u64,
    /// Requests failed with any other typed error.
    pub errored: u64,
}

/// Tiled-streaming extras carried by `stream_tiled` / `stream_untiled`
/// records (schema `mesorasi-bench/7`).
#[derive(Debug, Clone, Copy)]
pub struct StreamExtra {
    /// Points per tile the session streamed with; `0` on the
    /// `stream_untiled` baseline record.
    pub tile_budget: usize,
    /// Frames inferred in the timed window.
    pub frames: usize,
    /// 99th-percentile frame latency, microseconds (nearest-rank).
    pub p99_frame_us: u64,
    /// The `stream_untiled` baseline's ns/frame over this record's
    /// (1.0 on the baseline itself; >1 means tiling + workers help).
    pub speedup_vs_untiled: f64,
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Kernel name (`matmul`, `knn`, `forward_tape`, `forward_planned`,
    /// `infer_batch`, ...).
    pub op: &'static str,
    /// Implementation / search structure / network the op ran on.
    pub backend: &'static str,
    /// Effective thread count the measurement ran at.
    pub threads: usize,
    /// Element type the kernel ran in; `None` means the native f32 tier
    /// (the only case before `/6`), `Some("f64")` the shadow-precision
    /// kernels. Part of the record's identity for `bench-diff`.
    pub dtype: Option<&'static str>,
    /// Mean wall time per operation, in nanoseconds (per sample for
    /// `infer_batch` records).
    pub ns_per_op: f64,
    /// `ns(1 thread) / ns(this)` for the same op/backend; `None` when no
    /// 1-thread baseline was measured (the network-forward records, which
    /// run at the host thread count only).
    pub speedup_vs_1t: Option<f64>,
    /// Planned-engine extras (`forward_planned` records only).
    pub extra: Option<EngineExtra>,
    /// Batched-throughput extras (`infer_batch` records only).
    pub batch: Option<BatchExtra>,
    /// Search-traffic extras (`infer_frames` records only).
    pub search: Option<SearchExtra>,
    /// Served-latency extras (`serve_fresh` / `serve_mixed` records only).
    pub serve: Option<ServeExtra>,
    /// Tiled-streaming extras (`stream_tiled` / `stream_untiled` records
    /// only).
    pub stream: Option<StreamExtra>,
}

/// A full harness run: records plus the metadata the JSON header carries.
#[derive(Debug)]
pub struct BenchReport {
    /// ISO `YYYY-MM-DD` of the run (UTC).
    pub date: String,
    /// Seconds since the Unix epoch at the start of the run.
    pub unix_time: u64,
    /// Hardware/env thread budget ([`par::current_threads`] outside any
    /// override) at run time.
    pub host_threads: usize,
    /// Whether the reduced smoke workloads were used.
    pub smoke: bool,
    /// All measurements, in (op, backend, threads) order.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// `BENCH_<date>.json`, the canonical artifact name.
    pub fn filename(&self) -> String {
        format!("BENCH_{}.json", self.date)
    }

    /// Serializes the report (no external JSON dependency in this
    /// environment, so the writer is hand-rolled; the schema is flat).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"mesorasi-bench/8\",\n");
        s.push_str(&format!("  \"date\": \"{}\",\n", self.date));
        s.push_str(&format!("  \"unix_time\": {},\n", self.unix_time));
        s.push_str(&format!("  \"host_threads\": {},\n", self.host_threads));
        s.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        s.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let extra = r.extra.map_or(String::new(), |e| {
                format!(
                    ", \"speedup_vs_tape\": {:.3}, \"arena_peak_bytes\": {}, \
                     \"arena_slot_reuse\": {:.2}",
                    e.speedup_vs_tape, e.arena_peak_bytes, e.arena_slot_reuse
                )
            });
            let batch = r.batch.map_or(String::new(), |b| {
                format!(
                    ", \"batch\": {}, \"samples_per_sec\": {:.1}, \
                     \"speedup_vs_sequential\": {:.3}",
                    b.batch_size, b.samples_per_sec, b.speedup_vs_sequential
                )
            });
            let search = r.search.map_or(String::new(), |f| {
                format!(
                    ", \"frames\": {}, \"distance_evals_per_frame\": {:.1}, \
                     \"index_builds_per_frame\": {:.2}, \
                     \"index_build_ns_per_frame\": {:.1}, \"query_ns_per_frame\": {:.1}",
                    f.frames,
                    f.distance_evals_per_frame,
                    f.index_builds_per_frame,
                    f.index_build_ns_per_frame,
                    f.query_ns_per_frame
                )
            });
            let serve = r.serve.map_or(String::new(), |v| {
                format!(
                    ", \"streams\": {}, \"requests\": {}, \"throughput_rps\": {:.1}, \
                     \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \"shed\": {}, \
                     \"errored\": {}",
                    v.streams,
                    v.requests,
                    v.throughput_rps,
                    v.p50_us,
                    v.p99_us,
                    v.p999_us,
                    v.shed,
                    v.errored
                )
            });
            let stream = r.stream.map_or(String::new(), |t| {
                format!(
                    ", \"tile_budget\": {}, \"frames\": {}, \"p99_frame_us\": {}, \
                     \"speedup_vs_untiled\": {:.3}",
                    t.tile_budget, t.frames, t.p99_frame_us, t.speedup_vs_untiled
                )
            });
            let speedup =
                r.speedup_vs_1t.map_or(String::new(), |s| format!(", \"speedup_vs_1t\": {s:.3}"));
            let dtype = r.dtype.map_or(String::new(), |d| format!(", \"dtype\": \"{d}\""));
            s.push_str(&format!(
                "    {{ \"op\": \"{}\", \"backend\": \"{}\", \"threads\": {}, \
                 \"ns_per_op\": {:.1}{dtype}{speedup}{extra}{batch}{search}{serve}{stream} }}{}\n",
                r.op,
                r.backend,
                r.threads,
                r.ns_per_op,
                if i + 1 < self.records.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Plain-text table for the terminal.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "# bench {} (host threads: {}{})\n",
            self.date,
            self.host_threads,
            if self.smoke { ", smoke" } else { "" }
        ));
        s.push_str(&format!(
            "{:<18} {:<11} {:>7} {:>14} {:>12}\n",
            "op", "backend", "threads", "ns/op", "speedup"
        ));
        for r in &self.records {
            let extra = r.extra.map_or(String::new(), |e| {
                format!(
                    "   vs tape {:.2}x, arena {} KiB, reuse {:.1}",
                    e.speedup_vs_tape,
                    e.arena_peak_bytes / 1024,
                    e.arena_slot_reuse
                )
            });
            let batch = r.batch.map_or(String::new(), |b| {
                format!(
                    "   batch {:>2}: {:.0} samples/s, vs sequential {:.2}x",
                    b.batch_size, b.samples_per_sec, b.speedup_vs_sequential
                )
            });
            let search = r.search.map_or(String::new(), |f| {
                let routed: Vec<String> = SearchBackend::ALL
                    .iter()
                    .zip(f.calls_per_frame)
                    .filter(|(_, calls)| *calls > 0.0)
                    .map(|(b, calls)| format!("{} {calls:.1}", b.name()))
                    .collect();
                format!(
                    "   {:.0} dist evals/frame, build {:.0} ns + query {:.0} ns, calls/frame: {}",
                    f.distance_evals_per_frame,
                    f.index_build_ns_per_frame,
                    f.query_ns_per_frame,
                    routed.join(", ")
                )
            });
            let serve = r.serve.map_or(String::new(), |v| {
                format!(
                    "   {} streams, {:.0} req/s, p50 {} us, p99 {} us, p999 {} us, shed {}",
                    v.streams, v.throughput_rps, v.p50_us, v.p99_us, v.p999_us, v.shed
                )
            });
            let stream = r.stream.map_or(String::new(), |t| {
                format!(
                    "   tile {} x {} frames, p99 {} us, vs untiled {:.2}x",
                    t.tile_budget, t.frames, t.p99_frame_us, t.speedup_vs_untiled
                )
            });
            let speedup = r.speedup_vs_1t.map_or("          -".into(), |s| format!("{s:>11.2}x"));
            let backend = match r.dtype {
                Some(d) => format!("{} ({d})", r.backend),
                None => r.backend.to_owned(),
            };
            s.push_str(&format!(
                "{:<18} {:<14} {:>7} {:>14.0} {speedup}{extra}{batch}{search}{serve}{stream}\n",
                r.op, backend, r.threads, r.ns_per_op
            ));
        }
        s
    }

    /// The CI smoke gate: parallel configurations more than 1.5× slower
    /// than their own sequential baseline. Empty means the gate passes.
    pub fn regressions(&self) -> Vec<&BenchRecord> {
        self.records
            .iter()
            .filter(|r| r.threads > 1 && r.speedup_vs_1t.is_some_and(|s| s < 1.0 / 1.5))
            .collect()
    }

    /// The engine smoke gate: networks whose planned forward was slower
    /// than their tape forward. Empty means the gate passes.
    pub fn engine_regressions(&self) -> Vec<&BenchRecord> {
        self.records
            .iter()
            .filter(|r| {
                r.op == "forward_planned" && r.extra.is_some_and(|e| e.speedup_vs_tape < 1.0)
            })
            .collect()
    }

    /// The batching smoke gate: `infer_batch` records more than 1.5× slower
    /// per sample than sequential single-sample inference on the same
    /// network (the same tolerance the parallel gate applies, absorbing
    /// dispatch jitter on small hosts). Empty means the gate passes.
    pub fn batch_regressions(&self) -> Vec<&BenchRecord> {
        self.records
            .iter()
            .filter(|r| {
                r.op == "infer_batch"
                    && r.batch.is_some_and(|b| b.speedup_vs_sequential < 1.0 / 1.5)
            })
            .collect()
    }

    /// The serving smoke gate, as human-readable violations (empty means
    /// the gate passes): no serve record may shed or error — the load
    /// generator sizes the queue so a healthy scheduler admits everything
    /// — and `serve_mixed` p99 latency may not exceed 1.5× the same
    /// backend's `serve_fresh` p99. Under the old wholesale cache clear,
    /// mixed traffic periodically hit an emptied cache and its tail blew
    /// past fresh-traffic latency; true LRU keeps the hot set resident, so
    /// this gate holding is exactly the "no cache cliff" property, served.
    pub fn serve_regressions(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for r in &self.records {
            let Some(v) = r.serve else { continue };
            if v.shed > 0 {
                violations.push(format!(
                    "{}/{}: {} of {} requests shed (gate: a sized queue sheds none)",
                    r.op, r.backend, v.shed, v.requests
                ));
            }
            if v.errored > 0 {
                violations.push(format!(
                    "{}/{}: {} of {} requests errored",
                    r.op, r.backend, v.errored, v.requests
                ));
            }
        }
        for mixed in self.records.iter().filter(|r| r.op == "serve_mixed") {
            let Some(m) = mixed.serve else { continue };
            let fresh = self
                .records
                .iter()
                .find(|r| r.op == "serve_fresh" && r.backend == mixed.backend)
                .and_then(|r| r.serve);
            if let Some(f) = fresh {
                if m.p99_us as f64 > 1.5 * f.p99_us as f64 {
                    violations.push(format!(
                        "serve_mixed/{}: p99 {} us exceeds 1.5x serve_fresh p99 {} us \
                         (cache-friendly traffic developed a latency cliff)",
                        mixed.backend, m.p99_us, f.p99_us
                    ));
                }
            }
        }
        violations
    }
}

/// Time budget per measured configuration.
fn budget(smoke: bool) -> Duration {
    if smoke {
        Duration::from_millis(25)
    } else {
        Duration::from_millis(150)
    }
}

/// Mean ns per call of `f` under `budget`, after one warm-up call.
pub(crate) fn time_ns<R>(budget: Duration, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        black_box(f());
        iters += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The thread counts swept: 1 (sequential baseline), 2, and the host
/// budget. The 2-thread point is measured even on a 1-core host — the
/// pool override forces the worker count, exactly as `MESORASI_THREADS=2`
/// would — so the JSON artifact always carries speedup-trackable records
/// (a 1-core CI runner used to emit only `threads=1` rows, useless for
/// the perf trajectory). Counts beyond 2 stay host-capped because
/// oversubscription measures scheduler contention, not the backend.
fn thread_sweep(host: usize) -> Vec<usize> {
    let mut sweep = vec![1, 2, host];
    sweep.retain(|&t| t <= host || t == 2);
    sweep.sort_unstable();
    sweep.dedup();
    sweep
}

/// A deterministic test matrix (no RNG needed: a fixed mixing formula).
fn bench_matrix(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 17) % 29) as f32 * 0.1 - 1.4)
}

struct Workloads {
    mm_a: Matrix,
    mm_b: Matrix,
    red_src: Matrix,
    red_groups: Vec<usize>,
    red_k: usize,
    cloud: PointCloud,
    queries: Vec<usize>,
    knn_k: usize,
    radius: f32,
    feat_dim: usize,
}

impl Workloads {
    fn new(smoke: bool) -> Self {
        let (m, k, n) = if smoke { (96, 64, 64) } else { (2048, 128, 128) };
        let (points, n_queries, knn_k) = if smoke { (512, 128, 8) } else { (2048, 512, 16) };
        let (n_groups, red_k, red_cols) = if smoke { (128, 16, 64) } else { (512, 32, 128) };
        let red_src = bench_matrix(points, red_cols);
        let red_groups: Vec<usize> =
            (0..n_groups * red_k).map(|i| (i * 7 + i / red_k) % points).collect();
        let cloud = sample_shape(ShapeClass::Chair, points, 2020);
        let queries = sampling::random_indices(&cloud, n_queries, 7);
        Workloads {
            mm_a: bench_matrix(m, k),
            mm_b: bench_matrix(k, n),
            red_src,
            red_groups,
            red_k,
            cloud,
            queries,
            knn_k,
            radius: 0.25,
            feat_dim: if smoke { 16 } else { 32 },
        }
    }
}

/// Runs the full harness: every kernel at every swept thread count.
pub fn run(smoke: bool) -> BenchReport {
    let host_threads = par::current_threads();
    let sweep = thread_sweep(host_threads);
    let budget = budget(smoke);
    let w = Workloads::new(smoke);

    let grid = UniformGrid::build(&w.cloud, w.radius);
    let tree = KdTree::build(&w.cloud);
    let feat = bench_matrix(w.cloud.len(), w.feat_dim);
    let mm_at = w.mm_a.transposed();
    // Warm in-place rebuilds: what the search arena pays per streamed
    // frame, as opposed to the pure-query `knn`/`ball` records below.
    let kd_rebuild = std::cell::RefCell::new(KdTree::build(&w.cloud));
    let grid_rebuild = std::cell::RefCell::new(UniformGrid::build(&w.cloud, w.radius));

    // The fast-tier acceptance comparison: the same paper-scale product
    // through the pre-tier reference kernel and the tier's f64
    // instantiation, so the committed artifact carries the tier speedup
    // and the cost of double precision as first-class records.
    let naive_out = std::cell::RefCell::new(Matrix::zeros(0, 0));
    let at_b_naive_out = std::cell::RefCell::new(Matrix::zeros(0, 0));
    let a_bt_naive_out = std::cell::RefCell::new(Matrix::zeros(0, 0));
    let mm_bt = w.mm_b.transposed();
    let mm_a64 = Matrix64::cast_from(&w.mm_a);
    let mm_b64 = Matrix64::cast_from(&w.mm_b);
    let mm_out64 = std::cell::RefCell::new(Matrix64::zeros(0, 0));

    // (op, backend, dtype, runner) — each runner is one timed call.
    type Kernel<'a> = (&'static str, &'static str, Option<&'static str>, Box<dyn Fn() + 'a>);
    let kernels: Vec<Kernel<'_>> = vec![
        ("matmul", "tensor", None, Box::new(|| drop(black_box(ops::matmul(&w.mm_a, &w.mm_b))))),
        (
            "matmul",
            "naive",
            None,
            Box::new(|| ops::naive::matmul_into(&w.mm_a, &w.mm_b, &mut naive_out.borrow_mut())),
        ),
        (
            "matmul",
            "tensor",
            Some("f64"),
            Box::new(|| ops::matmul_into(&mm_a64, &mm_b64, &mut mm_out64.borrow_mut())),
        ),
        (
            "matmul_at_b",
            "tensor",
            None,
            Box::new(|| drop(black_box(ops::matmul_at_b(&mm_at, &w.mm_b)))),
        ),
        (
            "matmul_at_b",
            "naive",
            None,
            Box::new(|| {
                ops::naive::matmul_at_b_into(&mm_at, &w.mm_b, &mut at_b_naive_out.borrow_mut())
            }),
        ),
        (
            "matmul_a_bt",
            "tensor",
            None,
            Box::new(|| drop(black_box(ops::matmul_a_bt(&w.mm_a, &mm_bt)))),
        ),
        (
            "matmul_a_bt",
            "naive",
            None,
            Box::new(|| {
                ops::naive::matmul_a_bt_into(&w.mm_a, &mm_bt, &mut a_bt_naive_out.borrow_mut())
            }),
        ),
        (
            "group_max_reduce",
            "tensor",
            None,
            Box::new(|| {
                let gathered = group::gather_rows(&w.red_src, &w.red_groups);
                drop(black_box(group::group_max_reduce(&gathered, w.red_k)))
            }),
        ),
        (
            "gather_max_reduce",
            "tensor",
            None,
            Box::new(|| {
                drop(black_box(group::gather_max_reduce(&w.red_src, &w.red_groups, w.red_k)))
            }),
        ),
        (
            "knn",
            "bruteforce",
            None,
            Box::new(|| drop(black_box(bruteforce::knn_indices(&w.cloud, &w.queries, w.knn_k)))),
        ),
        (
            "knn",
            "kdtree",
            None,
            Box::new(|| drop(black_box(tree.knn_indices(&w.cloud, &w.queries, w.knn_k)))),
        ),
        (
            "ball",
            "kdtree",
            None,
            Box::new(|| {
                drop(black_box(ball::ball_query(&w.cloud, &tree, &w.queries, w.radius, w.knn_k)))
            }),
        ),
        (
            "ball",
            "grid",
            None,
            Box::new(|| drop(black_box(grid.ball_query(&w.cloud, &w.queries, w.radius, w.knn_k)))),
        ),
        (
            "knn",
            "feature",
            None,
            Box::new(|| {
                let view = FeatureView::new(feat.as_slice(), w.feat_dim)
                    .expect("bench feature matrix is rectangular");
                drop(black_box(feature::knn_rows(view, &w.queries, w.knn_k)))
            }),
        ),
        ("index_build", "kdtree", None, Box::new(|| kd_rebuild.borrow_mut().build_into(&w.cloud))),
        ("index_build", "grid", None, Box::new(|| grid_rebuild.borrow_mut().build_into(&w.cloud))),
    ];

    let mut records = Vec::new();
    for (op, backend, dtype, kernel) in &kernels {
        let mut base_ns = 0.0f64;
        for &threads in &sweep {
            let ns = par::with_threads(threads, || time_ns(budget, kernel));
            if threads == 1 {
                base_ns = ns;
            }
            let speedup = if ns > 0.0 && base_ns > 0.0 { base_ns / ns } else { 1.0 };
            records.push(BenchRecord {
                op,
                backend,
                threads,
                dtype: *dtype,
                ns_per_op: ns,
                speedup_vs_1t: Some(speedup),
                extra: None,
                batch: None,
                search: None,
                serve: None,
                stream: None,
            });
        }
    }
    records.extend(crate::largecloud::records(smoke, budget, &sweep));
    records.extend(net_forward_records(smoke, budget));
    records.extend(stream_records(smoke, budget));

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    BenchReport { date: utc_date(unix_time), unix_time, host_threads, smoke, records }
}

/// Batch sizes the throughput sweep measures per network.
const BATCH_SIZES: [usize; 2] = [2, 8];

/// Whole-network forwards — tape vs [`Session`] — plus batched session
/// throughput, at the current host thread count. Smoke uses the
/// kernel-sized (small) instances; the full run uses paper scale — the
/// acceptance bars are planned ≤ tape and batched ≤ sequential on every
/// network. The session timings are the steady state ([`Session::warm`]
/// pre-compiles every worker's plan and fills its NIT cache outside the
/// clock), i.e. the serving path; the tape timing is what the eval loops
/// paid before the engine existed (fresh graph, fresh searches, per-op
/// allocation).
fn net_forward_records(smoke: bool, budget: Duration) -> Vec<BenchRecord> {
    let threads = par::current_threads();
    let mut rng = mesorasi_pointcloud::seeded_rng(2020);
    let mut records = Vec::new();
    for kind in NetworkKind::ALL {
        let net = if smoke { kind.build_small(10, &mut rng) } else { kind.build_paper(&mut rng) };
        let n = net.input_points();
        let cloud = sample_shape(ShapeClass::Chair, n, 77);

        let tape_ns = time_ns(budget, || {
            let mut g = Graph::new();
            black_box(net.forward(&mut g, &cloud, Strategy::Delayed, 7));
        });

        // At most max(BATCH_SIZES) engines ever serve a batch; capping the
        // pool spares warm() from compiling paper-scale plans for workers
        // the sweep would never touch.
        let max_batch = BATCH_SIZES[BATCH_SIZES.len() - 1];
        let session: Session =
            SessionBuilder::from_boxed(net).seed(7).workers(threads.min(max_batch)).build();
        session.warm(&cloud);
        let planned_ns = time_ns(budget, || {
            black_box(session.infer(&cloud));
        });
        let stats = session.arena_stats(n).expect("warmed above");

        records.push(BenchRecord {
            op: "forward_tape",
            backend: kind.name(),
            threads,
            dtype: None,
            ns_per_op: tape_ns,
            speedup_vs_1t: None,
            extra: None,
            batch: None,
            search: None,
            serve: None,
            stream: None,
        });
        records.push(BenchRecord {
            op: "forward_planned",
            backend: kind.name(),
            threads,
            dtype: None,
            ns_per_op: planned_ns,
            speedup_vs_1t: None,
            extra: Some(EngineExtra {
                speedup_vs_tape: if planned_ns > 0.0 { tape_ns / planned_ns } else { 1.0 },
                arena_peak_bytes: stats.arena.peak_bytes,
                arena_slot_reuse: stats.arena.reuse_ratio,
            }),
            batch: None,
            search: None,
            serve: None,
            stream: None,
        });

        // Batched throughput: every worker engine is warm on `cloud`, so a
        // batch of refs to it measures pure batch-path cost (chunking, pool
        // dispatch, parallel replay) against the sequential baseline above.
        for batch_size in BATCH_SIZES {
            let batch: Vec<&PointCloud> = (0..batch_size).map(|_| &cloud).collect();
            let batch_call_ns = time_ns(budget, || {
                black_box(session.infer_batch(&batch));
            });
            let per_sample_ns = batch_call_ns / batch_size as f64;
            records.push(BenchRecord {
                op: "infer_batch",
                backend: kind.name(),
                threads,
                dtype: None,
                ns_per_op: per_sample_ns,
                speedup_vs_1t: None,
                extra: None,
                batch: Some(BatchExtra {
                    batch_size,
                    samples_per_sec: if per_sample_ns > 0.0 { 1e9 / per_sample_ns } else { 0.0 },
                    speedup_vs_sequential: if per_sample_ns > 0.0 {
                        planned_ns / per_sample_ns
                    } else {
                        1.0
                    },
                }),
                search: None,
                serve: None,
                stream: None,
            });
        }

        records.push(frames_record(&session, kind.name(), n, threads, budget));
    }
    records
}

/// Distinct same-shaped clouds the frame-sequence sweep cycles through
/// (distinct contents force real per-frame searches, as in deployment).
const FRAME_POOL: usize = 4;

/// Times [`Session::frames`] over a pool of distinct clouds and reads the
/// session's search counters across the timed window — the record that
/// carries measured per-frame search traffic (distance evaluations, index
/// build vs query time) off real inference work.
fn frames_record(
    session: &Session,
    backend: &'static str,
    n: usize,
    threads: usize,
    budget: Duration,
) -> BenchRecord {
    let clouds: Vec<PointCloud> =
        (0..FRAME_POOL).map(|s| sample_shape(ShapeClass::Chair, n, 500 + s as u64)).collect();
    // Warm the streaming path on the frame shapes, then release the engine
    // so the counter snapshot below can lock the pool.
    let mut frames = session.frames();
    for cloud in &clouds {
        black_box(frames.infer(cloud));
    }
    drop(frames);

    let before = session.search_counters();
    let mut frames = session.frames();
    let start = Instant::now();
    let mut done = 0usize;
    while done < clouds.len() || start.elapsed() < budget {
        black_box(frames.infer(&clouds[done % clouds.len()]));
        done += 1;
    }
    let ns_per_frame = start.elapsed().as_nanos() as f64 / done as f64;
    drop(frames);
    let delta = session.search_counters().since(&before);

    let per_frame = |v: u64| v as f64 / done as f64;
    BenchRecord {
        op: "infer_frames",
        backend,
        threads,
        dtype: None,
        ns_per_op: ns_per_frame,
        speedup_vs_1t: None,
        extra: None,
        batch: None,
        search: Some(SearchExtra {
            frames: done,
            distance_evals_per_frame: per_frame(delta.distance_evals),
            index_builds_per_frame: per_frame(delta.index_builds),
            index_build_ns_per_frame: per_frame(delta.index_build_ns),
            query_ns_per_frame: per_frame(delta.query_ns),
            calls_per_frame: delta.calls_by_backend.map(per_frame),
        }),
        serve: None,
        stream: None,
    }
}

/// Tile budgets the streamed-tile sweep measures (points per tile). At
/// paper scale (2048-point frames) these split a frame into 8 and 2
/// tiles respectively; smoke instances may fit in one tile, which still
/// exercises the tiled code path end to end.
pub const STREAM_TILE_BUDGETS: [usize; 2] = [256, 1024];

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tiled streaming sweep: [`Session::frames`] on the representative
/// network through a tile-streaming session, every budget in
/// [`STREAM_TILE_BUDGETS`] crossed with the thread sweep, against a
/// sequential untiled baseline (`stream_untiled`) — the record pair the
/// tentpole's acceptance bar reads (tiled multi-worker ns/frame vs
/// untiled sequential). Per-frame latencies are captured individually so
/// the records carry the p99 frame latency, not just the mean.
fn stream_records(smoke: bool, budget: Duration) -> Vec<BenchRecord> {
    let sweep = thread_sweep(par::current_threads());
    let kind = NetworkKind::ALL[0];
    let make_net = || {
        let mut rng = mesorasi_pointcloud::seeded_rng(2020);
        if smoke {
            kind.build_small(10, &mut rng)
        } else {
            kind.build_paper(&mut rng)
        }
    };
    let n = make_net().input_points();
    let clouds: Vec<PointCloud> =
        (0..FRAME_POOL).map(|s| sample_shape(ShapeClass::Chair, n, 500 + s as u64)).collect();

    // (mean ns/frame, frames, p99 us) of a warm frame loop at `threads`.
    let measure = |session: &Session, threads: usize| -> (f64, usize, u64) {
        par::with_threads(threads, || {
            let mut frames = session.frames();
            for cloud in &clouds {
                black_box(frames.infer(cloud));
            }
            let mut lat_us: Vec<u64> = Vec::new();
            let start = Instant::now();
            let mut done = 0usize;
            while done < clouds.len() || start.elapsed() < budget {
                let t0 = Instant::now();
                black_box(frames.infer(&clouds[done % clouds.len()]));
                lat_us.push(t0.elapsed().as_micros() as u64);
                done += 1;
            }
            let ns = start.elapsed().as_nanos() as f64 / done as f64;
            lat_us.sort_unstable();
            (ns, done, percentile(&lat_us, 99.0))
        })
    };

    let mut records = Vec::new();
    let untiled: Session =
        SessionBuilder::from_boxed(make_net()).seed(7).workers(1).tile_budget(None).build();
    untiled.warm(&clouds[0]);
    let (untiled_ns, untiled_frames, untiled_p99) = measure(&untiled, 1);
    drop(untiled);
    records.push(BenchRecord {
        op: "stream_untiled",
        backend: kind.name(),
        threads: 1,
        dtype: None,
        ns_per_op: untiled_ns,
        speedup_vs_1t: None,
        extra: None,
        batch: None,
        search: None,
        serve: None,
        stream: Some(StreamExtra {
            tile_budget: 0,
            frames: untiled_frames,
            p99_frame_us: untiled_p99,
            speedup_vs_untiled: 1.0,
        }),
    });

    for &tile in &STREAM_TILE_BUDGETS {
        let session: Session = SessionBuilder::from_boxed(make_net())
            .seed(7)
            .workers(1)
            .tile_budget(Some(tile))
            .build();
        session.warm(&clouds[0]);
        for &threads in &sweep {
            let (ns, frames_done, p99) = measure(&session, threads);
            records.push(BenchRecord {
                op: "stream_tiled",
                backend: kind.name(),
                threads,
                dtype: None,
                ns_per_op: ns,
                speedup_vs_1t: None,
                extra: None,
                batch: None,
                search: None,
                serve: None,
                stream: Some(StreamExtra {
                    tile_budget: tile,
                    frames: frames_done,
                    p99_frame_us: p99,
                    speedup_vs_untiled: if ns > 0.0 { untiled_ns / ns } else { 1.0 },
                }),
            });
        }
    }
    records
}

/// `YYYY-MM-DD` (UTC) for a Unix timestamp — civil-from-days, Hinnant's
/// algorithm, so the harness needs no date dependency.
pub(crate) fn utc_date(unix_time: u64) -> String {
    let days = (unix_time / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_date_known_values() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(951_782_400), "2000-02-29"); // leap day
        assert_eq!(utc_date(1_753_660_800), "2025-07-28");
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let report = BenchReport {
            date: "2026-07-28".into(),
            unix_time: 1,
            host_threads: 4,
            smoke: true,
            records: vec![
                BenchRecord {
                    op: "matmul",
                    backend: "tensor",
                    threads: 2,
                    dtype: None,
                    ns_per_op: 1234.5,
                    speedup_vs_1t: Some(1.8),
                    extra: None,
                    batch: None,
                    search: None,
                    serve: None,
                    stream: None,
                },
                BenchRecord {
                    op: "matmul",
                    backend: "tensor",
                    threads: 1,
                    dtype: Some("f64"),
                    ns_per_op: 9876.5,
                    speedup_vs_1t: Some(1.0),
                    extra: None,
                    batch: None,
                    search: None,
                    serve: None,
                    stream: None,
                },
                BenchRecord {
                    op: "forward_planned",
                    backend: "PointNet++ (c)",
                    threads: 2,
                    dtype: None,
                    ns_per_op: 100.0,
                    speedup_vs_1t: None,
                    extra: Some(EngineExtra {
                        speedup_vs_tape: 3.5,
                        arena_peak_bytes: 4096,
                        arena_slot_reuse: 6.25,
                    }),
                    batch: None,
                    search: None,
                    serve: None,
                    stream: None,
                },
                BenchRecord {
                    op: "infer_batch",
                    backend: "PointNet++ (c)",
                    threads: 2,
                    dtype: None,
                    ns_per_op: 50.0,
                    speedup_vs_1t: None,
                    extra: None,
                    batch: Some(BatchExtra {
                        batch_size: 8,
                        samples_per_sec: 20_000_000.0,
                        speedup_vs_sequential: 2.0,
                    }),
                    search: None,
                    serve: None,
                    stream: None,
                },
                BenchRecord {
                    op: "infer_frames",
                    backend: "PointNet++ (c)",
                    threads: 2,
                    dtype: None,
                    ns_per_op: 75.0,
                    speedup_vs_1t: None,
                    extra: None,
                    batch: None,
                    search: Some(SearchExtra {
                        frames: 24,
                        distance_evals_per_frame: 1_843_200.0,
                        index_builds_per_frame: 4.0,
                        index_build_ns_per_frame: 81_234.0,
                        query_ns_per_frame: 412_345.5,
                        calls_per_frame: [2.0, 0.0, 1.0, 0.0],
                    }),
                    serve: None,
                    stream: None,
                },
                BenchRecord {
                    op: "serve_mixed",
                    backend: "PointNet++ (c)",
                    threads: 2,
                    dtype: None,
                    ns_per_op: 812_345.0,
                    speedup_vs_1t: None,
                    extra: None,
                    batch: None,
                    search: None,
                    serve: Some(ServeExtra {
                        streams: 4,
                        requests: 256,
                        throughput_rps: 1234.5,
                        p50_us: 700,
                        p99_us: 1400,
                        p999_us: 1900,
                        shed: 0,
                        errored: 0,
                    }),
                    stream: None,
                },
                BenchRecord {
                    op: "stream_tiled",
                    backend: "PointNet++ (c)",
                    threads: 2,
                    dtype: None,
                    ns_per_op: 512_345.0,
                    speedup_vs_1t: None,
                    extra: None,
                    batch: None,
                    search: None,
                    serve: None,
                    stream: Some(StreamExtra {
                        tile_budget: 256,
                        frames: 120,
                        p99_frame_us: 780,
                        speedup_vs_untiled: 1.62,
                    }),
                },
            ],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"mesorasi-bench/8\""));
        assert!(json.contains("\"op\": \"matmul\""));
        assert!(json.contains("\"dtype\": \"f64\""));
        // f32 records carry no dtype key at all (absence = native tier).
        assert_eq!(json.matches("\"dtype\"").count(), 1);
        assert!(json.contains("\"speedup_vs_1t\": 1.800"));
        assert!(json.contains("\"speedup_vs_tape\": 3.500"));
        assert!(json.contains("\"arena_peak_bytes\": 4096"));
        assert!(json.contains("\"arena_slot_reuse\": 6.25"));
        assert!(json.contains("\"batch\": 8"));
        assert!(json.contains("\"samples_per_sec\": 20000000.0"));
        assert!(json.contains("\"speedup_vs_sequential\": 2.000"));
        assert!(json.contains("\"frames\": 24"));
        assert!(json.contains("\"distance_evals_per_frame\": 1843200.0"));
        assert!(json.contains("\"index_builds_per_frame\": 4.00"));
        assert!(json.contains("\"query_ns_per_frame\": 412345.5"));
        assert!(json.contains("\"streams\": 4"));
        assert!(json.contains("\"throughput_rps\": 1234.5"));
        assert!(json.contains("\"p50_us\": 700"));
        assert!(json.contains("\"p999_us\": 1900"));
        assert!(json.contains("\"shed\": 0"));
        assert!(json.contains("\"tile_budget\": 256"));
        assert!(json.contains("\"p99_frame_us\": 780"));
        assert!(json.contains("\"speedup_vs_untiled\": 1.620"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(report.filename(), "BENCH_2026-07-28.json");
        // The table names the backends the planner routed frames to.
        assert!(report.to_table().contains("calls/frame: bruteforce 2.0, grid 1.0"));
    }

    #[test]
    fn serve_gate_flags_sheds_and_p99_cliffs() {
        let serve_rec = |op: &'static str, p99_us: u64, shed: u64| BenchRecord {
            op,
            backend: "PointNet++ (c)",
            threads: 2,
            dtype: None,
            ns_per_op: 1000.0,
            speedup_vs_1t: None,
            extra: None,
            batch: None,
            search: None,
            serve: Some(ServeExtra {
                streams: 4,
                requests: 64,
                throughput_rps: 100.0,
                p50_us: p99_us / 2,
                p99_us,
                p999_us: p99_us * 2,
                shed,
                errored: 0,
            }),
            stream: None,
        };
        let report = |fresh_p99: u64, mixed_p99: u64, shed: u64| BenchReport {
            date: "2026-08-08".into(),
            unix_time: 1,
            host_threads: 4,
            smoke: true,
            records: vec![
                serve_rec("serve_fresh", fresh_p99, 0),
                serve_rec("serve_mixed", mixed_p99, shed),
            ],
        };
        assert!(report(1000, 1200, 0).serve_regressions().is_empty());
        // Mixed faster than fresh (the cache helping) is the expected case.
        assert!(report(1000, 400, 0).serve_regressions().is_empty());
        let cliff = report(1000, 1501, 0).serve_regressions();
        assert_eq!(cliff.len(), 1);
        assert!(cliff[0].contains("latency cliff"), "{}", cliff[0]);
        let shed = report(1000, 1000, 3).serve_regressions();
        assert_eq!(shed.len(), 1);
        assert!(shed[0].contains("shed"), "{}", shed[0]);
    }

    fn rec(threads: usize, speedup: f64) -> BenchRecord {
        BenchRecord {
            op: "knn",
            backend: "bruteforce",
            threads,
            dtype: None,
            ns_per_op: 100.0,
            speedup_vs_1t: Some(speedup),
            extra: None,
            batch: None,
            search: None,
            serve: None,
            stream: None,
        }
    }

    #[test]
    fn regressions_flags_slow_parallel_records_only() {
        let report = BenchReport {
            date: String::new(),
            unix_time: 0,
            host_threads: 4,
            smoke: true,
            records: vec![rec(1, 1.0), rec(2, 0.5), rec(4, 0.7), rec(8, 2.0)],
        };
        let slow: Vec<usize> = report.regressions().iter().map(|r| r.threads).collect();
        assert_eq!(slow, vec![2]); // 0.5 < 1/1.5; 0.7 and 2.0 pass
    }

    #[test]
    fn engine_regressions_flags_planned_slower_than_tape() {
        let fwd = |op: &'static str, vs_tape: Option<f64>| BenchRecord {
            op,
            backend: "DGCNN (c)",
            threads: 1,
            dtype: None,
            ns_per_op: 100.0,
            speedup_vs_1t: None,
            extra: vs_tape.map(|s| EngineExtra {
                speedup_vs_tape: s,
                arena_peak_bytes: 1,
                arena_slot_reuse: 1.0,
            }),
            batch: None,
            search: None,
            serve: None,
            stream: None,
        };
        let report = BenchReport {
            date: String::new(),
            unix_time: 0,
            host_threads: 1,
            smoke: true,
            records: vec![
                fwd("forward_tape", None),
                fwd("forward_planned", Some(0.8)),
                fwd("forward_planned", Some(1.7)),
            ],
        };
        assert_eq!(report.engine_regressions().len(), 1);
    }

    #[test]
    fn batch_regressions_flags_slow_batches_with_tolerance() {
        let batched = |vs_seq: f64| BenchRecord {
            op: "infer_batch",
            backend: "LDGCNN",
            threads: 2,
            dtype: None,
            ns_per_op: 100.0,
            speedup_vs_1t: None,
            extra: None,
            batch: Some(BatchExtra {
                batch_size: 8,
                samples_per_sec: 1.0,
                speedup_vs_sequential: vs_seq,
            }),
            search: None,
            serve: None,
            stream: None,
        };
        let report = BenchReport {
            date: String::new(),
            unix_time: 0,
            host_threads: 2,
            smoke: true,
            records: vec![batched(0.5), batched(0.8), batched(2.0)],
        };
        // 0.5 < 1/1.5 fails; 0.8 and 2.0 sit inside the tolerance.
        assert_eq!(report.batch_regressions().len(), 1);
    }

    #[test]
    fn thread_sweep_always_includes_two_threads() {
        // Satellite fix: on a 1-core host the pool override still forces
        // 2 workers, so the artifact keeps speedup-trackable records.
        assert_eq!(thread_sweep(1), vec![1, 2]);
        assert_eq!(thread_sweep(2), vec![1, 2]);
        assert_eq!(thread_sweep(8), vec![1, 2, 8]);
    }

    #[test]
    fn smoke_run_produces_full_sweep() {
        // A micro smoke run: every kernel must yield one record per swept
        // thread count, 1-thread records must have speedup 1.0, and every
        // network must contribute a tape/planned record pair.
        let report = par::with_threads(2, || run(true));
        assert!(report.smoke);
        let sweep = thread_sweep(2);
        let kernels: Vec<&BenchRecord> = report
            .records
            .iter()
            .filter(|r| {
                !r.op.starts_with("forward_")
                    && !r.op.starts_with("infer_")
                    && !r.op.starts_with("stream_")
            })
            .collect();
        assert_eq!(kernels.len() % sweep.len(), 0);
        for r in kernels.iter().filter(|r| r.threads == 1) {
            let s = r.speedup_vs_1t.expect("kernel records carry a baseline");
            assert!((s - 1.0).abs() < 1e-9);
        }
        let builds = kernels.iter().filter(|r| r.op == "index_build").count();
        assert_eq!(
            builds,
            (2 + crate::largecloud::build_configs(true)) * sweep.len(),
            "kdtree + grid + large-cloud rebuild records per thread count"
        );
        let queries = kernels.iter().filter(|r| r.op == "query").count();
        assert_eq!(
            queries,
            crate::largecloud::query_configs(true) * sweep.len(),
            "large-cloud query records per thread count"
        );
        let tape = report.records.iter().filter(|r| r.op == "forward_tape").count();
        let planned: Vec<&BenchRecord> =
            report.records.iter().filter(|r| r.op == "forward_planned").collect();
        assert_eq!(tape, NetworkKind::ALL.len());
        assert_eq!(planned.len(), NetworkKind::ALL.len());
        for r in &planned {
            let extra = r.extra.expect("planned records carry arena stats");
            assert!(extra.arena_peak_bytes > 0);
            assert!(extra.arena_slot_reuse >= 1.0);
        }
        let batched: Vec<&BenchRecord> =
            report.records.iter().filter(|r| r.op == "infer_batch").collect();
        assert_eq!(batched.len(), NetworkKind::ALL.len() * BATCH_SIZES.len());
        for r in &batched {
            let b = r.batch.expect("infer_batch records carry batch extras");
            assert!(BATCH_SIZES.contains(&b.batch_size));
            assert!(b.samples_per_sec > 0.0);
            assert!(b.speedup_vs_sequential > 0.0);
        }
        let framed: Vec<&BenchRecord> =
            report.records.iter().filter(|r| r.op == "infer_frames").collect();
        assert_eq!(framed.len(), NetworkKind::ALL.len());
        for r in &framed {
            let f = r.search.expect("infer_frames records carry search counters");
            assert!(f.frames >= FRAME_POOL);
            assert!(f.distance_evals_per_frame > 0.0, "streamed frames search every frame");
            assert!(f.query_ns_per_frame > 0.0);
        }
        let untiled: Vec<&BenchRecord> =
            report.records.iter().filter(|r| r.op == "stream_untiled").collect();
        assert_eq!(untiled.len(), 1);
        assert_eq!(untiled[0].threads, 1);
        let u = untiled[0].stream.expect("stream records carry stream extras");
        assert_eq!(u.tile_budget, 0);
        assert!(u.frames >= FRAME_POOL);
        let tiled: Vec<&BenchRecord> =
            report.records.iter().filter(|r| r.op == "stream_tiled").collect();
        assert_eq!(tiled.len(), STREAM_TILE_BUDGETS.len() * sweep.len());
        for r in &tiled {
            assert!(sweep.contains(&r.threads), "tiled rows cover the forced 1/2-thread sweep");
            let t = r.stream.expect("stream records carry stream extras");
            assert!(STREAM_TILE_BUDGETS.contains(&t.tile_budget));
            assert!(t.frames >= FRAME_POOL);
            assert!(t.speedup_vs_untiled > 0.0);
        }
        assert!(report.records.iter().all(|r| r.ns_per_op > 0.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
    }
}
