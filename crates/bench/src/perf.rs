//! Kernel and index micro-records (`repro bench`).
//!
//! Times what the end-to-end harness in `benchmark/` cannot see from
//! outside a frame: the matmul family (fast tier and the naive reference;
//! `matmul` at a shallow-weight and a deep-weight shape), the grouped reductions — the tape's argmax-tracking kernels and
//! the `_into` forms a frame executes, at PointNet++ SA1's shape and at
//! DGCNN's last EdgeConv — both coordinate-search backends (the
//! exhaustive scan, and the octree split into a warm `index_build` and
//! pure `knn`/`ball` queries) and the feature-space scan at a shallow
//! shape and at DGCNN's own,
//! and the large-cloud `index_build`/`query` sweep and `stencil` pair of
//! [`crate::largecloud`] — each across a thread sweep. Anything measured
//! through a `Session`, a frame stream or the server belongs to
//! `benchmark/` and has no record here.
//!
//! A run serialises as `BENCH_<date>.json` under schema
//! `mesorasi-bench/9` (example in the README's "Performance harness"
//! section): a header of [`BenchReport`]'s fields and one flat object per
//! [`BenchRecord`], whose field docs are the schema. `repro bench-diff`
//! ([`crate::diff`]) compares two such files record by record.
//!
//! One smoke gate guards CI: a parallel record more than 1.5× slower than
//! its own 1-thread record fails (parallelism may never change results,
//! and may not wreck performance either).

use mesorasi_knn::feature::{self, FeatureScratch, FeatureView};
use mesorasi_knn::{ball, bruteforce, MortonOctree, NeighborIndexTable};
use mesorasi_par as par;
use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
use mesorasi_pointcloud::{sampling, PointCloud};
use mesorasi_tensor::{group, ops, Matrix};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured configuration. `(op, backend, threads, points, mode)` is
/// its identity for `bench-diff`.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Kernel name: `matmul`, `matmul_at_b`, `matmul_a_bt`,
    /// `group_max_reduce`, `gather_max_reduce` (the tape's allocating,
    /// argmax-tracking reductions), `group_max_into`, `gather_max_into` (the
    /// values-only forms the engine runs), `knn`, `ball`, `index_build` (a
    /// warm in-place rebuild), `query` (the large-cloud sweep's pure
    /// queries against a prebuilt index) or `stencil` (feature
    /// propagation's 3-NN point queries, likewise).
    pub op: &'static str,
    /// Implementation or search structure the op ran on.
    pub backend: &'static str,
    /// Pool threads the measurement ran at.
    pub threads: usize,
    /// Cloud size, on large-cloud records only (query points, on
    /// `stencil` rows).
    pub points: Option<usize>,
    /// Variant of the configuration; `None` (key absent) is the default.
    /// `Some("deep")`, on `matmul` rows: the deep-weight shape
    /// `(128,512)×(512,1024)` — the last SA3 layer of PointNet++, whose 2 MB
    /// `B` takes the packed order — instead of the shallow-weight
    /// `(2048,128)×(128,128)`; on the `knn`/`feature` row: DGCNN's widest
    /// search, all 1024 rows of a 1024 × 128 matrix at `k = 20`, instead of
    /// 512 queries over 2048 × 32 at `k = 16`; on the `gather_max_into` row:
    /// DGCNN's last EdgeConv, 1024 groups of `k = 20` over a 1024 × 256
    /// table, instead of PointNet++ SA1's 512 groups of `k = 32` over
    /// 1024 × 128.
    pub mode: Option<&'static str>,
    /// Wall time per operation, in nanoseconds: the fastest of five
    /// sub-batch means.
    pub ns_per_op: f64,
    /// The same configuration's 1-thread time over this record's.
    pub speedup_vs_1t: f64,
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
    /// The kernel tier the tensor rows ran ([`mesorasi_tensor::simd::tier`]):
    /// `"avx512f"`, `"avx2"` or `"scalar"`.
    pub tier: &'static str,
    /// Whether the reduced smoke workloads were used.
    pub smoke: bool,
    /// All measurements, one per configuration and swept thread count.
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
        s.push_str("  \"schema\": \"mesorasi-bench/9\",\n");
        s.push_str(&format!("  \"date\": \"{}\",\n", self.date));
        s.push_str(&format!("  \"unix_time\": {},\n", self.unix_time));
        s.push_str(&format!("  \"host_threads\": {},\n", self.host_threads));
        s.push_str(&format!("  \"tier\": \"{}\",\n", self.tier));
        s.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        s.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let mut id = String::new();
            if let Some(n) = r.points {
                let _ = write!(id, ", \"points\": {n}");
            }
            if let Some(m) = r.mode {
                let _ = write!(id, ", \"mode\": \"{m}\"");
            }
            s.push_str(&format!(
                "    {{ \"op\": \"{}\", \"backend\": \"{}\", \"threads\": {}{id}, \
                 \"ns_per_op\": {:.1}, \"speedup_vs_1t\": {:.3} }}{}\n",
                r.op,
                r.backend,
                r.threads,
                r.ns_per_op,
                r.speedup_vs_1t,
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
            "# bench {} (host threads: {}, tier: {}{})\n",
            self.date,
            self.host_threads,
            self.tier,
            if self.smoke { ", smoke" } else { "" }
        ));
        s.push_str(&format!(
            "{:<18} {:<14} {:>9} {:>7} {:>14} {:>12}\n",
            "op", "backend", "points", "threads", "ns/op", "speedup"
        ));
        for r in &self.records {
            let mut backend = r.backend.to_owned();
            if let Some(mode) = r.mode {
                let _ = write!(backend, " ({mode})");
            }
            let points = r.points.map_or("-".into(), |n| n.to_string());
            s.push_str(&format!(
                "{:<18} {:<14} {:>9} {:>7} {:>14.0} {:>11.2}x\n",
                r.op, backend, points, r.threads, r.ns_per_op, r.speedup_vs_1t
            ));
        }
        s
    }

    /// The CI smoke gate: parallel configurations more than 1.5× slower
    /// than their own sequential baseline. Empty means the gate passes.
    pub fn regressions(&self) -> Vec<&BenchRecord> {
        self.records.iter().filter(|r| r.threads > 1 && r.speedup_vs_1t < 1.0 / 1.5).collect()
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

/// Equal slices one measurement's budget is split into.
const SUB_BATCHES: u32 = 5;

/// Ns per call of `f` after one warm-up call: the fastest of
/// [`SUB_BATCHES`] equal slices of `budget`, each the mean over as many
/// calls as fit (at least one). A host burst lands in one slice and the
/// minimum drops it; a single mean over the whole budget carried it into
/// the record, which is how one burst inside a 2-thread sample used to
/// trip the 1.5× gate.
fn time_ns<R>(budget: Duration, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let slice = budget / SUB_BATCHES;
    let mut best = f64::INFINITY;
    for _ in 0..SUB_BATCHES {
        let start = Instant::now();
        let mut iters = 0u64;
        loop {
            black_box(f());
            iters += 1;
            if start.elapsed() >= slice {
                break;
            }
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
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

/// One configuration to time: a record's identity plus the call.
pub(crate) struct Kernel<'a> {
    pub op: &'static str,
    pub backend: &'static str,
    pub points: Option<usize>,
    pub mode: Option<&'static str>,
    /// One timed call.
    pub run: Box<dyn Fn() + 'a>,
}

impl<'a> Kernel<'a> {
    /// A kernel on no particular cloud.
    pub fn new(op: &'static str, backend: &'static str, run: Box<dyn Fn() + 'a>) -> Self {
        Kernel { op, backend, points: None, mode: None, run }
    }
}

/// Times every kernel at every swept thread count (`sweep` ascending from
/// 1, so each kernel's first row is its own speedup baseline).
pub(crate) fn sweep_records(
    kernels: &[Kernel<'_>],
    budget: Duration,
    sweep: &[usize],
) -> Vec<BenchRecord> {
    let mut records = Vec::with_capacity(kernels.len() * sweep.len());
    for k in kernels {
        let mut base_ns = 0.0f64;
        for &threads in sweep {
            let ns = par::with_threads(threads, || time_ns(budget, &k.run));
            if threads == 1 {
                base_ns = ns;
            }
            records.push(BenchRecord {
                op: k.op,
                backend: k.backend,
                threads,
                points: k.points,
                mode: k.mode,
                ns_per_op: ns,
                speedup_vs_1t: if ns > 0.0 && base_ns > 0.0 { base_ns / ns } else { 1.0 },
            });
        }
    }
    records
}

/// A deterministic test matrix (no RNG needed: a fixed mixing formula).
fn bench_matrix(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 17) % 29) as f32 * 0.1 - 1.4)
}

/// Feature rows for the `knn`/`feature` records: [`bench_matrix`] repeats
/// every 29 rows, which would make a query's nearest rows exact copies of
/// itself; a multiplicative hash of the element index does not repeat.
fn scattered_matrix(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| scatter(r * cols + c) as f32 / (1 << 23) as f32 - 1.0)
}

/// 24 well-mixed bits of `i` (a multiplicative hash).
fn scatter(i: usize) -> u32 {
    (i as u32).wrapping_mul(2_654_435_761) >> 8
}

struct Workloads {
    mm_a: Matrix,
    mm_b: Matrix,
    /// The `mode: "deep"` product: few rows against a `B` far beyond L1.
    deep_a: Matrix,
    deep_b: Matrix,
    red_src: Matrix,
    red_groups: Vec<usize>,
    red_k: usize,
    cloud: PointCloud,
    queries: Vec<usize>,
    knn_k: usize,
    radius: f32,
    /// Feature rows searched by the `knn`/`feature` row, one per cloud point.
    feat: Matrix,
    /// The `mode: "deep"` feature search: every row a query.
    deep_feat: Matrix,
    deep_feat_queries: Vec<usize>,
    deep_feat_k: usize,
    /// The `_into` reductions at PointNet++ SA1's shape, and the
    /// `mode: "deep"` one at DGCNN's last EdgeConv.
    agg: Aggregation,
    deep_agg: Aggregation,
}

/// One max-aggregation as a frame runs it: a Point Feature Table and the
/// neighbor lists reducing it, `k` scattered rows per group.
struct Aggregation {
    table: Matrix,
    groups: Vec<usize>,
    k: usize,
}

impl Aggregation {
    fn new(rows: usize, cols: usize, n_groups: usize, k: usize) -> Self {
        Aggregation {
            table: scattered_matrix(rows, cols),
            groups: (0..n_groups * k).map(|i| scatter(i) as usize % rows).collect(),
            k,
        }
    }
}

impl Workloads {
    fn new(smoke: bool) -> Self {
        let (m, k, n) = if smoke { (96, 64, 64) } else { (2048, 128, 128) };
        // Smoke keeps `B` (72 KB) past the in-place limit: still packed.
        let (dm, dk, dn) = if smoke { (48, 192, 96) } else { (128, 512, 1024) };
        let (points, n_queries, knn_k) = if smoke { (512, 128, 8) } else { (2048, 512, 16) };
        let (n_groups, red_k, red_cols) = if smoke { (128, 16, 64) } else { (512, 32, 128) };
        let red_src = bench_matrix(points, red_cols);
        let red_groups: Vec<usize> =
            (0..n_groups * red_k).map(|i| (i * 7 + i / red_k) % points).collect();
        let cloud = sample_shape(ShapeClass::Chair, points, 2020);
        let queries = sampling::random_indices(&cloud, n_queries, 7);
        let (deep_rows, deep_dim) = if smoke { (256, 32) } else { (1024, 128) };
        Workloads {
            mm_a: bench_matrix(m, k),
            mm_b: bench_matrix(k, n),
            deep_a: bench_matrix(dm, dk),
            deep_b: bench_matrix(dk, dn),
            red_src,
            red_groups,
            red_k,
            cloud,
            queries,
            knn_k,
            radius: 0.25,
            feat: scattered_matrix(points, if smoke { 16 } else { 32 }),
            deep_feat: scattered_matrix(deep_rows, deep_dim),
            deep_feat_queries: (0..deep_rows).collect(),
            deep_feat_k: 20,
            // Smoke widths are no multiple of a tile, so CI runs the
            // column tail: 77 = 64 + 8 + 5, 100 = 64 + 4·8 + 4.
            agg: if smoke {
                Aggregation::new(256, 77, 64, 8)
            } else {
                Aggregation::new(1024, 128, 512, 32)
            },
            deep_agg: if smoke {
                Aggregation::new(256, 100, 128, 5)
            } else {
                Aggregation::new(1024, 256, 1024, 20)
            },
        }
    }
}

/// One warm feature-space scan per call: table and scratch are retained
/// across calls, as the engine's search context retains them.
fn feature_scan<'a>(feat: &'a Matrix, queries: &'a [usize], k: usize) -> Box<dyn Fn() + 'a> {
    let state = std::cell::RefCell::new((NeighborIndexTable::default(), FeatureScratch::default()));
    Box::new(move || {
        let view = FeatureView::new(feat.as_slice(), feat.cols()).expect("a matrix is rectangular");
        let (out, scratch) = &mut *state.borrow_mut();
        black_box(feature::knn_rows_into(view, queries, k, out, scratch));
    })
}

/// One warm values-only aggregation per call, into a retained output as
/// the plan arena retains it.
fn gather_max(a: &Aggregation) -> Box<dyn Fn() + '_> {
    let out = std::cell::RefCell::new(Matrix::zeros(0, 0));
    Box::new(move || group::gather_max_into(&a.table, &a.groups, a.k, &mut out.borrow_mut()))
}

/// Runs the full harness: every kernel at every swept thread count.
pub fn run(smoke: bool) -> BenchReport {
    let host_threads = par::current_threads();
    let sweep = thread_sweep(host_threads);
    let budget = budget(smoke);
    let w = Workloads::new(smoke);

    let mm_at = w.mm_a.transposed();
    // The octree as the search arena holds it: built once and queried into
    // a retained table (the pure-query `knn`/`ball` records), and rebuilt
    // warm in place — what a streamed frame pays (`index_build`).
    let octree = std::cell::RefCell::new(MortonOctree::build(&w.cloud));
    let nit = std::cell::RefCell::new(NeighborIndexTable::default());
    let octree_rebuild = std::cell::RefCell::new(MortonOctree::build(&w.cloud));

    // The fast-tier acceptance comparison: the same paper-scale product
    // through the pre-tier reference kernel, so the committed artifact
    // carries the tier speedup as a first-class record.
    let naive_out = std::cell::RefCell::new(Matrix::zeros(0, 0));
    let at_b_naive_out = std::cell::RefCell::new(Matrix::zeros(0, 0));
    let a_bt_naive_out = std::cell::RefCell::new(Matrix::zeros(0, 0));
    let mm_bt = w.mm_b.transposed();
    // What Strategy::Original reduces: the gathered rows, `k` per group.
    let agg_grouped = group::gather_rows(&w.agg.table, &w.agg.groups);
    let agg_out = std::cell::RefCell::new(Matrix::zeros(0, 0));

    let kernels = [
        Kernel::new(
            "matmul",
            "tensor",
            Box::new(|| drop(black_box(ops::matmul(&w.mm_a, &w.mm_b)))),
        ),
        Kernel::new(
            "matmul",
            "naive",
            Box::new(|| ops::naive::matmul_into(&w.mm_a, &w.mm_b, &mut naive_out.borrow_mut())),
        ),
        // The same two rows at the deep-weight shape the single
        // shallow one cannot stand for (its 64 KB `B` never showed the
        // 2 MB cliff).
        Kernel {
            mode: Some("deep"),
            ..Kernel::new(
                "matmul",
                "tensor",
                Box::new(|| drop(black_box(ops::matmul(&w.deep_a, &w.deep_b)))),
            )
        },
        Kernel {
            mode: Some("deep"),
            ..Kernel::new(
                "matmul",
                "naive",
                Box::new(|| {
                    ops::naive::matmul_into(&w.deep_a, &w.deep_b, &mut naive_out.borrow_mut())
                }),
            )
        },
        Kernel::new(
            "matmul_at_b",
            "tensor",
            Box::new(|| drop(black_box(ops::matmul_at_b(&mm_at, &w.mm_b)))),
        ),
        Kernel::new(
            "matmul_at_b",
            "naive",
            Box::new(|| {
                ops::naive::matmul_at_b_into(&mm_at, &w.mm_b, &mut at_b_naive_out.borrow_mut())
            }),
        ),
        Kernel::new(
            "matmul_a_bt",
            "tensor",
            Box::new(|| drop(black_box(ops::matmul_a_bt(&w.mm_a, &mm_bt)))),
        ),
        Kernel::new(
            "matmul_a_bt",
            "naive",
            Box::new(|| {
                ops::naive::matmul_a_bt_into(&w.mm_a, &mm_bt, &mut a_bt_naive_out.borrow_mut())
            }),
        ),
        Kernel::new(
            "group_max_reduce",
            "tensor",
            Box::new(|| {
                let gathered = group::gather_rows(&w.red_src, &w.red_groups);
                drop(black_box(group::group_max_reduce(&gathered, w.red_k)))
            }),
        ),
        Kernel::new(
            "gather_max_reduce",
            "tensor",
            Box::new(|| {
                drop(black_box(group::gather_max_reduce(&w.red_src, &w.red_groups, w.red_k)))
            }),
        ),
        Kernel::new(
            "group_max_into",
            "tensor",
            Box::new(|| group::group_max_into(&agg_grouped, w.agg.k, &mut agg_out.borrow_mut())),
        ),
        Kernel::new("gather_max_into", "tensor", gather_max(&w.agg)),
        Kernel {
            mode: Some("deep"),
            ..Kernel::new("gather_max_into", "tensor", gather_max(&w.deep_agg))
        },
        Kernel::new(
            "knn",
            "bruteforce",
            Box::new(|| drop(black_box(bruteforce::knn_indices(&w.cloud, &w.queries, w.knn_k)))),
        ),
        Kernel::new(
            "knn",
            "octree",
            Box::new(|| {
                let (tree, out) = (&mut *octree.borrow_mut(), &mut *nit.borrow_mut());
                black_box(tree.knn_into(&w.cloud, &w.queries, w.knn_k, out));
            }),
        ),
        Kernel::new(
            "ball",
            "bruteforce",
            Box::new(|| drop(black_box(ball::ball_query(&w.cloud, &w.queries, w.radius, w.knn_k)))),
        ),
        Kernel::new(
            "ball",
            "octree",
            Box::new(|| {
                let (tree, out) = (&mut *octree.borrow_mut(), &mut *nit.borrow_mut());
                black_box(tree.ball_into(&w.cloud, &w.queries, w.radius, w.knn_k, out));
            }),
        ),
        Kernel::new("knn", "feature", feature_scan(&w.feat, &w.queries, w.knn_k)),
        Kernel {
            mode: Some("deep"),
            ..Kernel::new(
                "knn",
                "feature",
                feature_scan(&w.deep_feat, &w.deep_feat_queries, w.deep_feat_k),
            )
        },
        Kernel::new(
            "index_build",
            "octree",
            Box::new(|| octree_rebuild.borrow_mut().build_into(&w.cloud)),
        ),
    ];

    let mut records = sweep_records(&kernels, budget, &sweep);
    records.extend(crate::largecloud::records(smoke, budget, &sweep));

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let tier = mesorasi_tensor::simd::tier();
    BenchReport { date: utc_date(unix_time), unix_time, host_threads, tier, smoke, records }
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
    use std::collections::BTreeSet;

    fn rec(backend: &'static str, threads: usize, speedup: f64) -> BenchRecord {
        BenchRecord {
            op: "knn",
            backend,
            threads,
            points: None,
            mode: None,
            ns_per_op: 1234.5,
            speedup_vs_1t: speedup,
        }
    }

    #[test]
    fn utc_date_known_values() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(951_782_400), "2000-02-29"); // leap day
        assert_eq!(utc_date(1_753_660_800), "2025-07-28");
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let report = BenchReport {
            date: "2026-10-01".into(),
            unix_time: 1,
            host_threads: 4,
            tier: "avx2",
            smoke: true,
            records: vec![
                rec("bruteforce", 2, 1.8),
                rec("tensor", 1, 1.0),
                BenchRecord { points: Some(1 << 20), mode: Some("deep"), ..rec("octree", 2, 0.9) },
            ],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"mesorasi-bench/9\""));
        assert!(json.contains("\"host_threads\": 4,\n  \"tier\": \"avx2\",\n"), "{json}");
        assert!(report
            .to_table()
            .starts_with("# bench 2026-10-01 (host threads: 4, tier: avx2, smoke)"));
        assert!(json.contains(
            "{ \"op\": \"knn\", \"backend\": \"bruteforce\", \"threads\": 2, \
             \"ns_per_op\": 1234.5, \"speedup_vs_1t\": 1.800 }"
        ));
        // Identity fields a record does not have are absent, not null.
        for key in ["\"points\": 1048576", "\"mode\": \"deep\""] {
            assert_eq!(json.matches(key).count(), 1, "{key}");
        }
        assert!(!json.contains("\"dtype\""), "records carry no dtype key");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(report.filename(), "BENCH_2026-10-01.json");
        assert!(report.to_table().contains("octree (deep)    1048576"), "{}", report.to_table());
    }

    #[test]
    fn regressions_flags_slow_parallel_records_only() {
        let report = BenchReport {
            date: String::new(),
            unix_time: 0,
            host_threads: 4,
            tier: "avx2",
            smoke: true,
            records: vec![
                rec("bruteforce", 1, 1.0),
                rec("bruteforce", 2, 0.5),
                rec("bruteforce", 4, 0.7),
                rec("bruteforce", 8, 2.0),
            ],
        };
        let slow: Vec<usize> = report.regressions().iter().map(|r| r.threads).collect();
        assert_eq!(slow, vec![2]); // 0.5 < 1/1.5; 0.7 and 2.0 pass
    }

    /// Busy-waits `d`: a body whose cost the scheduler cannot shorten.
    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn time_ns_drops_a_burst_and_always_runs_each_sub_batch() {
        // One 20 ms stall (the third call: warm-up, then the second call of
        // the first sub-batch) inside a smoke budget of ~10 µs calls: a
        // single mean over the budget read ~5× the body's time. Judged
        // against the same body timed without the stall, so a loaded test
        // host slows both sides alike.
        let clean = time_ns(budget(true), || spin(Duration::from_micros(10)));
        let calls = std::cell::Cell::new(0u32);
        let burst = time_ns(budget(true), || {
            calls.set(calls.get() + 1);
            spin(Duration::from_micros(if calls.get() == 3 { 20_000 } else { 10 }));
        });
        assert!(clean >= 10_000.0 && burst >= 10_000.0, "{clean} / {burst} ns for a 10 µs body");
        assert!(burst < 2.0 * clean, "one stall moved {clean} ns to {burst} ns");

        // An op longer than the whole budget still gets one call per
        // sub-batch (plus the warm-up), and reads its own time.
        let calls = std::cell::Cell::new(0u32);
        let ns = time_ns(Duration::from_millis(5), || {
            calls.set(calls.get() + 1);
            spin(Duration::from_millis(6));
        });
        assert_eq!(calls.get(), 1 + SUB_BATCHES);
        assert!(ns >= 6e6, "a 6 ms body read {ns} ns");
    }

    #[test]
    fn thread_sweep_always_includes_two_threads() {
        // On a 1-core host the pool override still forces 2 workers, so
        // the artifact keeps speedup-trackable records.
        assert_eq!(thread_sweep(1), vec![1, 2]);
        assert_eq!(thread_sweep(2), vec![1, 2]);
        assert_eq!(thread_sweep(8), vec![1, 2, 8]);
    }

    #[test]
    fn smoke_run_produces_full_sweep() {
        let report = par::with_threads(2, || run(true));
        assert!(report.smoke);
        let ops: BTreeSet<&str> = report.records.iter().map(|r| r.op).collect();
        let expected = [
            "matmul",
            "matmul_at_b",
            "matmul_a_bt",
            "group_max_reduce",
            "gather_max_reduce",
            "group_max_into",
            "gather_max_into",
            "knn",
            "ball",
            "index_build",
            "query",
            "stencil",
        ];
        assert_eq!(ops, BTreeSet::from(expected), "nothing Session-, stream- or server-level");

        // Every configuration has one row per swept thread count, and the
        // 1-thread row is its own baseline.
        let sweep = thread_sweep(2);
        assert_eq!(report.records.len() % sweep.len(), 0);
        for r in &report.records {
            assert!(sweep.contains(&r.threads));
            assert!(r.ns_per_op > 0.0);
            assert!(r.threads != 1 || (r.speedup_vs_1t - 1.0).abs() < 1e-9);
        }

        // Size is a field, never a label suffix.
        for r in &report.records {
            assert!(
                !r.backend.contains(|c: char| c.is_ascii_digit()),
                "backend label encodes a size: {}",
                r.backend
            );
            let large = r.op == "query" || r.op == "stencil";
            assert!(!large || r.points.is_some(), "large-cloud record without points");
        }
        assert!(report.records.iter().any(|r| r.op == "index_build" && r.points.is_none()));

        // matmul is timed at both weight shapes, the deep one as a mode of
        // the same two backend rows.
        let matmul_rows = |mode| {
            let rows = report.records.iter().filter(|r| r.op == "matmul" && r.mode == mode);
            rows.map(|r| (r.backend, r.threads)).collect::<BTreeSet<_>>()
        };
        assert_eq!(matmul_rows(Some("deep")).len(), 2 * sweep.len());
        assert_eq!(matmul_rows(Some("deep")), matmul_rows(None));

        // So is the feature-space scan: the shallow shape and DGCNN's.
        let feature_rows = |mode| {
            let rows = report.records.iter();
            rows.filter(|r| (r.op, r.backend, r.mode) == ("knn", "feature", mode)).count()
        };
        assert_eq!((feature_rows(None), feature_rows(Some("deep"))), (sweep.len(), sweep.len()));

        // The identity is a key: reading the artifact back rejects duplicates.
        let parsed = crate::diff::parse_report(&report.to_json()).expect("keys are unique");
        assert_eq!(parsed.records.len(), report.records.len());
    }
}
