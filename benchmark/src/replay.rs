//! Shape-faithful replay of one frame's recorded operators through the
//! `knn` and `tensor` layers' public functions. This is how the traced run
//! attributes time to layers it can only see from outside: every
//! `SearchOp`, `MatMulOp`, `AggregateOp` and `ReduceOp` of the frame's
//! `NetworkTrace` is run again on data of the same shape (aggregations on
//! their real neighbor tables) and timed on its own.

use crate::stats;
use crate::trace::{Tracer, NONE};
use crate::workload::{mix, Spec};
use mesorasi::core::runner;
use mesorasi::core::trace::{AggregateOp, MatMulOp, ModuleTrace, ReduceOp, SearchOp};
use mesorasi::core::NetworkTrace;
use mesorasi::knn::feature::FeatureView;
use mesorasi::knn::{NeighborIndexTable, SearchContext, SearchPlanner};
use mesorasi::networks::DEFAULT_TILE_BUDGET;
use mesorasi::pointcloud::sampling;
use mesorasi::tensor::{group, ops, Matrix};
use mesorasi::PointCloud;
use std::time::Instant;

/// Which per-layer sum an op's time goes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Coordinate-space search (ball query, kNN, interpolation stencil).
    SearchCoord,
    /// Feature-space kNN.
    SearchFeature,
    /// An MLP layer's matrix product.
    MatMul,
    /// Gather, or gather fused with the max reduction.
    Aggregate,
    /// Stand-alone grouped max.
    Reduce,
}

/// One replayable operator: a span name and a closure that runs it once on
/// pre-built inputs.
pub struct Op<'a> {
    name: String,
    class: Class,
    run: Box<dyn FnMut() + 'a>,
}

/// Median time of each class over the replay passes, ms per frame.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Timings {
    /// Sum of the coordinate-search medians.
    pub search_coord_ms: f64,
    /// Sum of the feature-search medians.
    pub search_feature_ms: f64,
    /// Sum of the matmul medians.
    pub matmul_ms: f64,
    /// Sum of the aggregation medians.
    pub aggregate_ms: f64,
    /// Sum of the reduction medians.
    pub reduce_ms: f64,
    /// Counted passes behind each median.
    pub passes: usize,
}

impl Timings {
    /// All search time.
    pub fn search_ms(&self) -> f64 {
        self.search_coord_ms + self.search_feature_ms
    }

    /// All tensor time.
    pub fn tensor_ms(&self) -> f64 {
        self.matmul_ms + self.aggregate_ms + self.reduce_ms
    }
}

/// Runs every op once untimed (buffers reach their final size), then in
/// timed passes until `budget_s` is spent — at least 3, at most 25 — and
/// sums each class's per-op medians. The first timed pass is also written
/// to `tracer` as one span per op.
pub fn time_ops(ops: &mut [Op<'_>], budget_s: f64, mut tracer: Option<&mut Tracer>) -> Timings {
    for op in ops.iter_mut() {
        (op.run)();
    }
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); ops.len()];
    let start = Instant::now();
    let mut passes = 0;
    while passes < 3 || (passes < 25 && start.elapsed().as_secs_f64() < budget_s) {
        for (op, times) in ops.iter_mut().zip(&mut samples) {
            let t0 = Instant::now();
            (op.run)();
            let t1 = Instant::now();
            times.push((t1 - t0).as_secs_f64() * 1e3);
            if let (0, Some(tracer)) = (passes, tracer.as_deref_mut()) {
                tracer.record(&op.name, NONE, NONE, t0, t1);
            }
        }
        passes += 1;
    }
    let mut t = Timings { passes, ..Timings::default() };
    for (op, times) in ops.iter().zip(&samples) {
        let ms = stats::median(times);
        match op.class {
            Class::SearchCoord => t.search_coord_ms += ms,
            Class::SearchFeature => t.search_feature_ms += ms,
            Class::MatMul => t.matmul_ms += ms,
            Class::Aggregate => t.aggregate_ms += ms,
            Class::Reduce => t.reduce_ms += ms,
        }
    }
    t
}

/// A deterministic matrix of values in `[-1, 1)`.
fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = mix(state, 1);
        (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    })
}

/// The first `n` points of a seeded shuffle of `cloud` — the stand-in for
/// the centroid subset a deeper module searches.
fn subset(cloud: &PointCloud, n: usize, seed: u64) -> PointCloud {
    if n >= cloud.len() {
        cloud.clone()
    } else {
        cloud.select(&sampling::random_indices(cloud, n, seed))
    }
}

fn search_context() -> SearchContext {
    // What a default `Session` gives its engines.
    let mut ctx = SearchContext::with_planner(SearchPlanner::auto());
    ctx.set_tile_budget(Some(DEFAULT_TILE_BUDGET));
    ctx
}

fn search_op<'a>(
    spec: &Spec,
    module: &str,
    op: &SearchOp,
    radius: Option<f32>,
    cloud: &PointCloud,
    seed: u64,
) -> Option<Op<'a>> {
    let name = format!("knn.search[{module}]");
    if op.queries > op.candidates {
        // Feature propagation: every fine point looks up its 3 nearest
        // coarse points. One coarse point means a broadcast, no search.
        if op.k < 3 {
            return None;
        }
        let coarse = subset(cloud, op.candidates, seed);
        let fine = subset(cloud, op.queries, seed ^ 1);
        let (mut indices, mut weights) = (Vec::new(), Vec::new());
        let run = move || runner::fp_stencils_into(&coarse, &fine, &mut indices, &mut weights);
        return Some(Op { name, class: Class::SearchCoord, run: Box::new(run) });
    }
    let mut ctx = search_context();
    let mut out = NeighborIndexTable::new(op.k);
    let k = op.k;
    if spec.feature_search() && !op.radius_query {
        let features = filled(op.candidates, op.dim, seed);
        let queries: Vec<usize> = (0..op.queries).collect();
        let run = move || {
            let view = FeatureView::new(features.as_slice(), features.cols())
                .expect("matrix storage is rectangular");
            ctx.feature_knn_into(view, &queries, k, &mut out);
        };
        return Some(Op { name, class: Class::SearchFeature, run: Box::new(run) });
    }
    let candidates = subset(cloud, op.candidates, seed);
    let queries = runner::select_centroids(&candidates, op.queries, seed);
    let run: Box<dyn FnMut()> = match radius {
        Some(r) => Box::new(move || ctx.ball_into(seed, &candidates, &queries, r, k, &mut out)),
        None => Box::new(move || ctx.knn_into(seed, &candidates, &queries, k, &mut out)),
    };
    Some(Op { name, class: Class::SearchCoord, run })
}

/// One op per search of `trace`, on subsets of `cloud` (coordinate
/// searches) or seeded features (feature searches) of the recorded shape.
/// The cloud never changes between passes, so index builds happen in the
/// untimed pass and the timed passes are pure query time — the quantity
/// `SearchCounters::query_ns` reports for real traffic.
pub fn search_ops<'a>(
    spec: &Spec,
    trace: &NetworkTrace,
    cloud: &PointCloud,
    seed: u64,
) -> Vec<Op<'a>> {
    let mut radii = spec.ball_radii.iter().copied();
    trace
        .modules
        .iter()
        .enumerate()
        .filter_map(|(i, m)| {
            let op = m.search.as_ref()?;
            let radius = if op.radius_query { Some(radii.next().unwrap_or(0.3)) } else { None };
            search_op(spec, &m.name, op, radius, cloud, mix(seed, i as u64))
        })
        .collect()
}

fn matmul_op<'a>(name: String, op: &MatMulOp, seed: u64) -> Op<'a> {
    let a = filled(op.rows, op.inner, seed);
    let b = filled(op.inner, op.cols, seed ^ 1);
    let mut out = Matrix::zeros(0, 0);
    Op { name, class: Class::MatMul, run: Box::new(move || ops::matmul_into(&a, &b, &mut out)) }
}

fn aggregate_op<'a>(name: String, op: &'a AggregateOp, seed: u64) -> Op<'a> {
    let table = filled(op.table_rows, op.width, seed);
    let mut out = Matrix::zeros(0, 0);
    let (indices, k) = (op.nit.neighbors_flat(), op.nit.k());
    let run: Box<dyn FnMut() + 'a> = if op.fused_reduce {
        Box::new(move || group::gather_max_into(&table, indices, k, &mut out))
    } else {
        Box::new(move || group::gather_rows_into(&table, indices, &mut out))
    };
    Op { name, class: Class::Aggregate, run }
}

fn reduce_op<'a>(name: String, op: &ReduceOp, seed: u64) -> Op<'a> {
    let grouped = filled(op.groups * op.k, op.width, seed);
    let mut out = Matrix::zeros(0, 0);
    let k = op.k;
    Op {
        name,
        class: Class::Reduce,
        run: Box::new(move || group::group_max_into(&grouped, k, &mut out)),
    }
}

fn module_tensor_ops<'a>(m: &'a ModuleTrace, seed: u64, ops: &mut Vec<Op<'a>>) {
    for (layer, mm) in m.mlp_pre.iter().chain(&m.mlp_post).enumerate() {
        let name = format!("tensor.matmul[{}.{layer}]", m.name);
        ops.push(matmul_op(name, mm, mix(seed, layer as u64)));
    }
    if let Some(agg) = &m.aggregate {
        ops.push(aggregate_op(format!("tensor.aggregate[{}]", m.name), agg, mix(seed, 100)));
    }
    if let Some(red) = &m.reduce {
        ops.push(reduce_op(format!("tensor.reduce[{}]", m.name), red, mix(seed, 101)));
    }
}

/// One op per matmul, aggregation and reduction of `trace`.
pub fn tensor_ops(trace: &NetworkTrace, seed: u64) -> Vec<Op<'_>> {
    let mut ops = Vec::new();
    for (i, m) in trace.modules.iter().enumerate() {
        module_tensor_ops(m, mix(seed, 1_000 + i as u64), &mut ops);
    }
    ops
}

/// Work counts read off the trace — exact, and identical run to run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    /// Multiply-accumulates of every MLP layer.
    pub macs: u64,
    /// Bytes the aggregations gather.
    pub gather_bytes: u64,
}

/// Sums the trace's MACs and gathered bytes.
pub fn work(trace: &NetworkTrace) -> Work {
    Work { macs: trace.mlp_macs(), gather_bytes: trace.aggregation_bytes() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_frame, reference};

    #[test]
    fn every_recorded_op_replays_with_its_recorded_shape() {
        for name in ["pnpp_original", "dgcnn_delayed", "scene_32k"] {
            let spec = Spec::named(name, true).expect("known workload");
            let session = spec.builder().workers(1).build();
            let frame = generate_frame(&spec, 4, 0);
            let trace = reference(&session, &frame.cloud).trace;

            let searches = trace.modules.iter().filter_map(|m| m.search.as_ref());
            let expected = searches.filter(|s| s.queries <= s.candidates || s.k >= 3).count();
            let mut s_ops = search_ops(&spec, &trace, &frame.cloud, 4);
            assert_eq!(s_ops.len(), expected, "{name}: one replay op per search");
            let feature = s_ops.iter().filter(|o| o.class == Class::SearchFeature).count();
            assert_eq!(feature > 0, spec.feature_search(), "{name}");

            let mut t_ops = tensor_ops(&trace, 4);
            let matmuls: usize =
                trace.modules.iter().map(|m| m.mlp_pre.len() + m.mlp_post.len()).sum();
            assert_eq!(t_ops.iter().filter(|o| o.class == Class::MatMul).count(), matmuls);

            let mut tracer = Tracer::new();
            let s = time_ops(&mut s_ops, 0.0, Some(&mut tracer));
            let t = time_ops(&mut t_ops, 0.0, Some(&mut tracer));
            assert_eq!((s.passes, t.passes), (3, 3));
            assert!(s.search_ms() > 0.0 && t.matmul_ms > 0.0, "{name}");
            assert_eq!(tracer.spans().len(), s_ops.len() + t_ops.len(), "one span per op");
            assert!(work(&trace).macs > 0);
        }
    }

    #[test]
    fn filled_matrices_are_deterministic_and_bounded() {
        let a = filled(4, 5, 9);
        assert_eq!(a, filled(4, 5, 9));
        assert_ne!(a, filled(4, 5, 10));
        assert!(a.as_slice().iter().all(|v| (-1.0..1.0).contains(v)));
    }
}
