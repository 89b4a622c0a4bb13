//! The two kinds of run: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.

use crate::procfs;
use crate::replay::{self, Timings};
use crate::run::{self, LoopResult, Outcome, Ready, Record, Until};
use crate::stats::{median, percentile, samples_beyond, sorted};
use crate::trace::{Tracer, NONE};
use crate::workload::{self, generate_frame, Frame, Reference, Spec};
use mesorasi::par;
use mesorasi::serve::protocol::{self, Frame as Wire};
use mesorasi::sim::soc::{simulate, Platform, SocConfig};
use mesorasi::{PointCloud, Session, Strategy};
use std::time::Instant;

/// Threads every measured frame computes with. One, not `nproc`: on this
/// two-vCPU sandbox the host hands the second vCPU over late and takes it
/// away in bursts, every parallel section waits for it, and ten identical
/// two-thread runs minutes apart read 12.0 - 16.1 ms on `pnpp_delayed`
/// (13 - 26 % quartile spread on every time metric of every workload). A
/// gate that cannot see a 20 % change is no gate, so the second core is
/// measured where it is not gated — `par.*_speedup_2t`,
/// `networks.batch_fps_2w` — and by `serve_mixed`, whose two engines run on
/// two cores. See the README for the measurements.
pub const FRAME_THREADS: usize = 1;

/// Share of `--seconds` run untimed before the measured window.
const WARMUP_SHARE: f64 = 0.1;

/// Frame index of the cloud sessions are warmed on; far outside any pool,
/// so warming never pre-loads the sample cache with measured traffic.
const WARM_FRAME: usize = 1 << 40;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value)` in reporting order; units come from the contract.
    pub metrics: Vec<(&'static str, f64)>,
    /// Frames attempted in the measured window.
    pub attempted: u64,
    /// Frames whose reply was an error.
    pub errored: u64,
    /// Frames the server shed.
    pub shed: u64,
    /// Frames that never got a reply.
    pub missing: u64,
    /// Frames whose output differed from the tape's or was not finite.
    pub mismatched: u64,
    /// Untimed warm-up frames before the window.
    pub warmup_frames: u64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Samples beyond the 90th percentile.
    pub beyond_p90: usize,
    /// Wall time of the tape oracle, seconds; not part of `setup_s`.
    pub oracle_s: f64,
    /// Set-ups timed for `setup_s`.
    pub setups: usize,
}

impl Report {
    /// Frames that failed for any reason.
    pub fn failed(&self) -> u64 {
        self.errored + self.shed + self.missing + self.mismatched
    }

    /// Failed frames as a share of those attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// A metric's value, if the run produced it.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Windows the untraced run splits `--seconds` into. Every end-to-end time
/// metric is computed per window and the run reports the median window, so
/// a host disturbance lasting a few seconds (they do: see [`FRAME_THREADS`])
/// moves at most two of the five and leaves the reported value alone.
const WINDOWS: usize = 5;

/// The frames a workload sends, and for the served workload which of them
/// each connection sends in the warm-up and in each window.
struct Inputs {
    table: Vec<Frame>,
    plans: Vec<Vec<usize>>,
    warmup: usize,
    per_window: usize,
}

fn inputs(spec: &Spec, seed: u64, seconds: f64, windows: usize) -> Inputs {
    let (n, plans, warmup, per_window) = match &spec.serve {
        None => (spec.pool, Vec::new(), 0, 0),
        Some(serve) => {
            let warmup = (WARMUP_SHARE * seconds * serve.rate_hz).ceil() as usize;
            let per_window = (seconds * serve.rate_hz / windows as f64).round().max(1.0) as usize;
            let frames = warmup + per_window * windows;
            let plans = (0..serve.connections).map(|c| run::serve_plan(serve, c, frames)).collect();
            (run::serve_table_len(serve, frames), plans, warmup, per_window)
        }
    };
    let table = par::par_map_indices(n, |i| generate_frame(spec, seed, i));
    Inputs { table, plans, warmup, per_window }
}

/// Runs the workload's loop on a ready session: an untimed warm-up, then
/// `windows` back-to-back windows of `seconds / windows` each. Returns the
/// windows and the number of warm-up frames.
fn drive(
    spec: &Spec,
    ready: &mut Ready,
    inputs: &Inputs,
    seconds: f64,
    windows: usize,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<LoopResult>, u64) {
    let window_s = seconds / windows as f64;
    match (&spec.serve, ready.served.take()) {
        (Some(serve), Some((server, conns))) => {
            let poll = tracer.is_some();
            let phase = |first: usize, len: usize, tracer: Option<&mut Tracer>| {
                let plans: Vec<&[usize]> =
                    inputs.plans.iter().map(|p| &p[first..first + len]).collect();
                run::open_loop(&server, &conns, serve, &inputs.table, &plans, first, poll, tracer)
            };
            phase(0, inputs.warmup, None);
            let out = (0..windows)
                .map(|w| {
                    let first = inputs.warmup + w * inputs.per_window;
                    phase(first, inputs.per_window, tracer.as_deref_mut())
                })
                .collect();
            drop(conns);
            server.shutdown();
            (out, (inputs.warmup * serve.connections) as u64)
        }
        _ => {
            let session = &ready.session;
            let warm_up = Until::Seconds(WARMUP_SHARE * seconds);
            let warm = run::closed_loop(session, &inputs.table, 0, warm_up, None);
            let mut first = warm.records.len();
            let out = (0..windows)
                .map(|_| {
                    let until = Until::Seconds(window_s);
                    let w = run::closed_loop(
                        session,
                        &inputs.table,
                        first,
                        until,
                        tracer.as_deref_mut(),
                    );
                    first += w.records.len();
                    w
                })
                .collect();
            (out, warm.records.len() as u64)
        }
    }
}

/// References for exactly the inputs `windows` touched, indexed like the
/// frame table (`None` for frames never sent).
fn oracle_for(
    session: &Session,
    table: &[Frame],
    windows: &[LoopResult],
    threads: usize,
) -> (Vec<Option<Reference>>, f64) {
    // Frame 0 always: the traced run replays its recorded operators.
    let mut used: Vec<usize> =
        windows.iter().flat_map(|w| &w.records).map(|r| r.input).chain([0]).collect();
    used.sort_unstable();
    used.dedup();
    let clouds: Vec<&PointCloud> = used.iter().map(|&i| &table[i].cloud).collect();
    let (refs, oracle_s) = workload::oracle(session, &clouds, threads);
    let mut by_input: Vec<Option<Reference>> = (0..table.len()).map(|_| None).collect();
    for (i, r) in used.into_iter().zip(refs) {
        by_input[i] = Some(r);
    }
    (by_input, oracle_s)
}

/// Checks every record against the oracle; returns the latencies of the
/// verified frames, ascending, and adds to the report's frame counts.
fn score(records: &[Record], refs: &[Option<Reference>], report: &mut Report) -> Vec<f64> {
    let mut ok = Vec::with_capacity(records.len());
    report.attempted += records.len() as u64;
    for r in records {
        match r.outcome {
            Outcome::Output { checksum, finite } => {
                let want = refs[r.input].as_ref().expect("oracle covers every sent frame");
                if finite && want.finite && checksum == want.checksum {
                    ok.push(r.latency_ms);
                } else {
                    report.mismatched += 1;
                }
            }
            Outcome::Shed => report.shed += 1,
            Outcome::Errored => report.errored += 1,
            Outcome::Missing => report.missing += 1,
        }
    }
    report.samples += ok.len();
    report.beyond_p90 += samples_beyond(ok.len(), 90.0);
    sorted(&ok)
}

fn percentile_or_zero(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, p)
    }
}

/// The untraced run: set-up (several times, median reported), warm-up, the
/// measured windows, and only then the oracle — so the tape's allocations
/// stay out of `peak_rss_mb`.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64, cores: usize) -> Report {
    let mut report = Report::default();
    let inputs = inputs(spec, seed, seconds, WINDOWS);
    let warm = generate_frame(spec, seed, WARM_FRAME);

    let mut setups = Vec::new();
    let mut ready = loop {
        let ready = run::setup(spec, &warm.cloud);
        setups.push(ready.total_s);
        // Five set-ups when they are cheap, three when one takes a while.
        if setups.len() >= if setups[0] < 0.3 { 5 } else { 3 } {
            break ready;
        }
        ready.teardown();
    };
    report.setups = setups.len();

    let (windows, warmup_frames) = drive(spec, &mut ready, &inputs, seconds, WINDOWS, None);
    report.warmup_frames = warmup_frames;
    let peak_rss_mb = procfs::peak_rss_mb();

    let (refs, oracle_s) = oracle_for(&ready.session, &inputs.table, &windows, cores);
    report.oracle_s = oracle_s;
    let (mut p50, mut p90, mut fps, mut cpu) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for w in &windows {
        let ok = score(&w.records, &refs, &mut report);
        p50.push(percentile_or_zero(&ok, 50.0));
        p90.push(percentile_or_zero(&ok, 90.0));
        fps.push(ok.len() as f64 / w.wall_s.max(1e-9));
        cpu.push(w.cpu_s * 1e3 / ok.len().max(1) as f64);
    }
    report.metrics = vec![
        ("setup_s", median(&setups)),
        ("frame_ms_p50", median(&p50)),
        ("frame_ms_p90", median(&p90)),
        ("frames_per_s", median(&fps)),
        ("cpu_ms_per_frame", median(&cpu)),
        ("peak_rss_mb", peak_rss_mb),
    ];
    report
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Median latency of `session.infer` on `clouds`, cycled for `budget_s`
/// (at least `clouds.len()` calls).
fn infer_p50(session: &Session, clouds: &[&PointCloud], budget_s: f64) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < clouds.len() || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        std::hint::black_box(session.infer(clouds[times.len() % clouds.len()]));
        times.push(ms(t0));
    }
    median(&times)
}

/// What compiling a plan costs: first contact with a shape on a cold
/// session, minus a second fresh cloud that pays everything but that.
fn compile_ms(spec: &Spec, first: &PointCloud, second: &PointCloud) -> f64 {
    let cold = spec.builder().workers(1).build();
    let t0 = Instant::now();
    std::hint::black_box(cold.infer(first));
    let first_contact_ms = ms(t0);
    let t0 = Instant::now();
    std::hint::black_box(cold.infer(second));
    first_contact_ms - ms(t0)
}

/// `infer_batch` over two disjoint halves of `clouds` on one fresh
/// two-engine session: the first half under one thread (one engine works),
/// the second under two. Frames per second of each.
fn batch_fps(spec: &Spec, warm: &PointCloud, clouds: &[&PointCloud]) -> (f64, f64) {
    let session = spec.builder().workers(2).build();
    session.warm(warm);
    let (one, two) = clouds.split_at(clouds.len() / 2);
    let fps = |workers: usize, part: &[&PointCloud]| {
        par::with_threads(workers, || {
            let t0 = Instant::now();
            std::hint::black_box(session.infer_batch(part));
            part.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9)
        })
    };
    (fps(1, one), fps(2, two))
}

/// Mean cost of encoding and decoding one request and one response of this
/// workload on the wire: `(encode_us, decode_us, request_kb, response_kb)`.
fn wire_costs(session: &Session, cloud: &PointCloud) -> (f64, f64, f64, f64) {
    let request = Wire::Infer { id: 1, cloud: cloud.clone() };
    let response = Wire::Result { id: 1, mats: vec![session.infer(cloud).logits().clone()] };
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    let reps = 20;
    let t0 = Instant::now();
    for _ in 0..reps {
        req.clear();
        resp.clear();
        protocol::encode(&request, &mut req);
        protocol::encode(&response, &mut resp);
    }
    let encode_us = ms(t0) * 1e3 / reps as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(protocol::decode(&req[4..]).expect("own request decodes"));
        std::hint::black_box(protocol::decode(&resp[4..]).expect("own response decodes"));
    }
    let decode_us = ms(t0) * 1e3 / reps as f64;
    (encode_us, decode_us, req.len() as f64 / 1e3, resp.len() as f64 / 1e3)
}

/// Replays `trace`'s searches and tensor ops under `threads` threads.
fn replay_at(
    spec: &Spec,
    reference: &Reference,
    cloud: &PointCloud,
    seed: u64,
    threads: usize,
    budget_s: f64,
    mut tracer: Option<&mut Tracer>,
) -> (Timings, Timings) {
    par::with_threads(threads, || {
        let mut s_ops = replay::search_ops(spec, &reference.trace, cloud, seed);
        let mut t_ops = replay::tensor_ops(&reference.trace, seed);
        if threads > 1 {
            // The host needs about half a second of parallel demand before
            // an idle vCPU really runs; spend it outside the timed passes.
            replay::time_ops(&mut t_ops, 0.5, None);
        }
        let search = replay::time_ops(&mut s_ops, budget_s, tracer.as_deref_mut());
        let tensor = replay::time_ops(&mut t_ops, budget_s, tracer);
        (search, tensor)
    })
}

/// The traced run. Returns the per-layer report and the spans.
pub fn traced(spec: &Spec, seed: u64, seconds: f64, cores: usize) -> (Report, Tracer) {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let window_s = 0.4 * seconds;
    let inputs = inputs(spec, seed, window_s, 1);
    let warm = generate_frame(spec, seed, WARM_FRAME);
    let pool: Vec<&PointCloud> = inputs.table.iter().take(spec.pool).map(|f| &f.cloud).collect();

    let setup_start = Instant::now();
    let mut ready = run::setup(spec, &warm.cloud);
    let built = setup_start + std::time::Duration::from_secs_f64(ready.build_s);
    let warmed = built + std::time::Duration::from_secs_f64(ready.warm_s);
    tracer.record("networks.build", NONE, NONE, setup_start, built);
    tracer.record("networks.warm", NONE, NONE, built, warmed);
    let session = std::sync::Arc::clone(&ready.session);
    report.setups = 1;

    // One counted pass over the pool: the work counts below are exact and
    // repeat run to run, whatever the window's length turns out to be.
    let before = session.search_counters();
    run::closed_loop(&session, &inputs.table[..pool.len()], 0, Until::Frames(pool.len()), None);
    let counts = session.search_counters().since(&before);
    let n_counted = pool.len() as f64;

    let before = session.search_counters();
    let (mut windows, warmup_frames) =
        drive(spec, &mut ready, &inputs, window_s, 1, Some(&mut tracer));
    let window = windows.pop().expect("one window was asked for");
    let search = session.search_counters().since(&before);
    let cache = session.cache_stats();
    report.warmup_frames = warmup_frames;

    let (refs, oracle_s) =
        oracle_for(&session, &inputs.table, std::slice::from_ref(&window), cores);
    report.oracle_s = oracle_s;
    let ok = score(&window.records, &refs, &mut report);
    let frames = window.records.len().max(1) as f64;
    let frame_p50 = percentile_or_zero(&ok, 50.0);
    let by_tracing = |traced: bool| {
        let v: Vec<f64> =
            window.records.iter().filter(|r| r.traced == traced).map(|r| r.latency_ms).collect();
        if v.is_empty() {
            frame_p50
        } else {
            median(&v)
        }
    };

    let decode: Vec<f64> = window.records.iter().map(|r| r.decode_ms).collect();
    let decode_ms = median(&decode);
    let xyz_mb = inputs.table[0].xyz.len() as f64 / 1e6;
    let late = sorted(&window.records.iter().map(|r| r.late_ms).collect::<Vec<_>>());

    // Layer replays on the first pool frame's recorded operators.
    let first_ref = refs[0].as_ref().expect("the oracle always covers frame 0");
    let budget = 0.05 * seconds;
    let (search_t, tensor_t) =
        replay_at(spec, first_ref, pool[0], seed, FRAME_THREADS, budget, Some(&mut tracer));
    let (search_2t, tensor_2t) = if cores > FRAME_THREADS {
        replay_at(spec, first_ref, pool[0], seed, cores, budget, None)
    } else {
        (search_t, tensor_t)
    };
    let work = replay::work(&first_ref.trace);

    // Pure plan replay: the cloud's neighbor structure is in the sample
    // cache after the first call, so later calls only execute the plan.
    let _ = session.infer(pool[0]);
    let replay_p50 = infer_p50(&session, &pool[..1], 0.05 * seconds);
    let stats = session.arena_stats(spec.points).expect("the frame shape is compiled");

    let compile_ms = compile_ms(spec, pool[0], pool[pool.len() - 1]);
    // An even number of pool clouds worth about a tenth of `--seconds`.
    let batch = ((0.1 * seconds * 1e3 / frame_p50.max(1e-3)) as usize).clamp(2, pool.len()) & !1;
    let (batch_1w, batch_2w) = batch_fps(spec, &warm.cloud, &pool[..batch]);
    let (encode_us, decode_us, request_kb, response_kb) = wire_costs(&session, pool[0]);

    // What the same traffic mix costs without the server in the way.
    let overhead_ms = if spec.serve.is_some() {
        let local = spec.builder().workers(1).build();
        local.warm(&warm.cloud);
        let mix: Vec<&PointCloud> =
            inputs.plans[0].iter().take(120).map(|&i| &inputs.table[i].cloud).collect();
        frame_p50 - infer_p50(&local, &mix, 0.0)
    } else {
        0.0
    };
    let (s0, s1, depth_max) = window.server.unwrap_or_default();
    let batches = s1.batches.saturating_sub(s0.batches);
    let served = s1.served.saturating_sub(s0.served);
    let (hits, misses) = (s1.cache_hits - s0.cache_hits, s1.cache_misses - s0.cache_misses);

    let platform = match spec.strategy {
        Strategy::Delayed => Platform::MesorasiHw,
        _ => Platform::GpuNpu,
    };
    let t0 = Instant::now();
    let sim = simulate(&first_ref.trace, platform, &SocConfig::default());
    let sim_host_ms = ms(t0);

    let query_ms = search.query_ns as f64 / 1e6 / frames;
    let build_ms = search.index_build_ns as f64 / 1e6 / frames;
    let attributed = decode_ms + query_ms + build_ms + tensor_t.tensor_ms();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    report.metrics = vec![
        ("pointcloud.decode_ms", decode_ms),
        ("pointcloud.decode_mb_per_s", ratio(xyz_mb, decode_ms / 1e3)),
        ("knn.query_ms_per_frame", query_ms),
        ("knn.index_build_ms_per_frame", build_ms),
        ("knn.index_builds_per_frame", counts.index_builds as f64 / n_counted),
        ("knn.queries_per_frame", counts.queries as f64 / n_counted),
        ("knn.distance_evals_per_frame", counts.distance_evals as f64 / n_counted),
        ("knn.search_share", ratio(query_ms + build_ms, frame_p50)),
        ("knn.search_arena_mb", stats.search_bytes as f64 / 1e6),
        ("knn.replay_ms_per_frame", search_t.search_ms()),
        ("knn.replay_coord_ms_per_frame", search_t.search_coord_ms),
        ("knn.replay_feature_ms_per_frame", search_t.search_feature_ms),
        ("tensor.macs_per_frame", work.macs as f64),
        ("tensor.matmul_ms_per_frame", tensor_t.matmul_ms),
        ("tensor.matmul_gflops", ratio(2.0 * work.macs as f64 / 1e9, tensor_t.matmul_ms / 1e3)),
        ("tensor.aggregate_ms_per_frame", tensor_t.aggregate_ms),
        ("tensor.gather_mb_per_frame", work.gather_bytes as f64 / 1e6),
        ("tensor.reduce_ms_per_frame", tensor_t.reduce_ms),
        ("nn.replay_ms_p50", replay_p50),
        ("nn.plan_overhead_ms", replay_p50 - tensor_t.tensor_ms()),
        ("nn.arena_peak_mb", stats.arena.peak_bytes as f64 / 1e6),
        ("nn.arena_slot_reuse", stats.arena.reuse_ratio),
        ("core.derive_ms_per_frame", by_tracing(false) - replay_p50 - query_ms - build_ms),
        ("core.compile_ms", compile_ms),
        ("core.cache_hit_rate", ratio(hits as f64, (hits + misses) as f64)),
        ("core.cache_evictions", cache.evictions as f64),
        ("core.unattributed_share", 1.0 - ratio(attributed, frame_p50)),
        ("networks.build_ms", ready.build_s * 1e3),
        ("networks.warm_ms", ready.warm_s * 1e3),
        ("networks.batch_fps_1w", batch_1w),
        ("networks.batch_fps_2w", batch_2w),
        ("par.threads", FRAME_THREADS as f64),
        ("par.matmul_speedup_2t", ratio(tensor_t.matmul_ms, tensor_2t.matmul_ms)),
        ("par.search_speedup_2t", ratio(search_t.search_ms(), search_2t.search_ms())),
        ("serve.encode_us", encode_us),
        ("serve.decode_us", decode_us),
        ("serve.request_kb", request_kb),
        ("serve.response_kb", response_kb),
        ("serve.overhead_ms_p50", overhead_ms),
        ("serve.batches", batches as f64),
        ("serve.mean_batch", ratio(served as f64, batches as f64)),
        ("serve.shed", s1.shed.saturating_sub(s0.shed) as f64),
        ("serve.malformed", s1.malformed.saturating_sub(s0.malformed) as f64),
        ("serve.queue_depth_max", depth_max as f64),
        ("serve.generator_late_ms_p90", percentile_or_zero(&late, 90.0)),
        ("sim.model_ms", sim.total_ms()),
        ("sim.model_mj", sim.total_mj()),
        ("sim.dram_mb", sim.dram_bytes() as f64 / 1e6),
        ("sim.host_ms", sim_host_ms),
        ("trace.overhead_ratio", ratio(by_tracing(true), by_tracing(false))),
    ];
    (report, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::Contract;
    use crate::workload::NAMES;

    fn names(defs: &[crate::contract::MetricDef]) -> Vec<&str> {
        defs.iter().map(|m| m.name.as_str()).collect()
    }

    /// The `--smoke` scale end to end: every workload, both kinds of run,
    /// every declared metric present, every frame verified.
    #[test]
    fn smoke_runs_emit_exactly_the_declared_metrics_on_every_workload() {
        let contract = Contract::load();
        for name in NAMES {
            let spec = Spec::named(name, true).expect("known workload");
            let run = par::with_threads(FRAME_THREADS, || end_to_end(&spec, 11, 0.4, 2));
            let got: Vec<&str> = run.metrics.iter().map(|(n, _)| *n).collect();
            assert_eq!(got, names(&contract.end_to_end), "{name}: end-to-end metric names");
            assert_eq!(run.failed(), 0, "{name}: {run:?}");
            assert!(run.attempted > 0 && run.samples as u64 == run.attempted, "{name}: {run:?}");
            for (metric, v) in &run.metrics {
                // CPU time ticks in 10 ms steps: a smoke window can read 0.
                let floor = if *metric == "cpu_ms_per_frame" { -1.0 } else { 0.0 };
                assert!(v.is_finite() && *v > floor, "{name}: {metric} = {v}");
            }

            let (trace, tracer) = par::with_threads(FRAME_THREADS, || traced(&spec, 11, 0.8, 2));
            let got: Vec<&str> = trace.metrics.iter().map(|(n, _)| *n).collect();
            assert_eq!(got, names(&contract.per_layer), "{name}: per-layer metric names");
            assert_eq!(trace.failed(), 0, "{name}: {trace:?}");
            assert!(trace.metrics.iter().all(|(_, v)| v.is_finite()), "{name}: {trace:?}");
            let has = |span: &str| tracer.spans().iter().any(|s| s.name == span);
            assert!(has("frame") && has("networks.build"), "{name}: root spans");
            assert!(has(if spec.serve.is_some() { "serve.roundtrip" } else { "networks.infer" }));
            assert!(tracer.spans().iter().any(|s| s.name.starts_with("tensor.matmul[")));
            assert!(tracer.spans().iter().any(|s| s.name.starts_with("knn.search[")));
        }
    }

    /// The counts a later change may cite as exact must repeat bit for bit.
    #[test]
    fn work_counts_repeat_exactly_for_one_seed() {
        let spec = Spec::named("scene_32k", true).expect("known workload");
        let exact = || {
            let (r, _) = par::with_threads(FRAME_THREADS, || traced(&spec, 3, 0.5, 2));
            [
                "knn.distance_evals_per_frame",
                "knn.queries_per_frame",
                "tensor.macs_per_frame",
                "tensor.gather_mb_per_frame",
                "sim.model_ms",
                "sim.model_mj",
                "sim.dram_mb",
            ]
            .map(|m| r.get(m).expect("declared metric").to_bits())
        };
        assert_eq!(exact(), exact());
    }
}
