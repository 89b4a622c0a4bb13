//! Module orchestration: centroid sampling, neighbor search, execution,
//! trace recording.
//!
//! [`run_module`] is the single entry point the networks use. It selects
//! centroids (random sampling, the paper's optimized baseline, §VI), runs
//! the configured neighbor search, dispatches to the right
//! [`crate::executor`] variant for the strategy, and records a
//! [`ModuleTrace`] with the real NIT so the hardware simulator can replay
//! exactly what happened.

use crate::config::EngineConfig;
use crate::engine::{rec, StateSource};
use crate::executor;
use crate::module::{Module, NeighborMode};
use crate::strategy::Strategy;
use crate::trace::{AggregateOp, MatMulOp, ModuleTrace, ReduceOp, SearchOp};
use mesorasi_knn::{feature::FeatureView, NeighborIndexTable, SearchContext};
use mesorasi_nn::layers::SharedMlp;
use mesorasi_nn::{Graph, VarId};
use mesorasi_pointcloud::{sampling, Point3, PointCloud};
use mesorasi_tensor::Matrix;
use std::cell::RefCell;

/// The data flowing between modules: 3-D positions (for coordinate-space
/// search and interpolation) and the per-point feature rows on the graph.
#[derive(Debug, Clone)]
pub struct ModuleState {
    /// Positions of the current point set.
    pub positions: PointCloud,
    /// `N × M` feature rows on the autograd graph.
    pub features: VarId,
}

impl ModuleState {
    /// Initial state: features are the raw `N × 3` coordinates (the paper's
    /// first-module input).
    ///
    /// Under plan recording the *first* `from_cloud` of a forward pass is
    /// taken to be the sample itself; later input states must use
    /// [`ModuleState::from_cloud_derived_into`] so the plan can re-derive
    /// them.
    pub fn from_cloud(g: &mut Graph, cloud: &PointCloud) -> Self {
        let features = g.input(Matrix::from_vec(cloud.len(), 3, cloud.to_xyz_rows()));
        rec::input_state(features, cloud, None);
        ModuleState { positions: cloud.clone(), features }
    }

    /// Like [`ModuleState::from_cloud`], for a cloud that is a pure,
    /// deterministic function of the sample (e.g. F-PointNet's masked and
    /// recentered crop). `derive(sample, out)` must reproduce `cloud` when
    /// applied to the sample this forward pass runs on; the inference plan
    /// replays it per sample, writing into the engine's persistent
    /// per-state buffer. A warm engine replays it with zero heap
    /// allocations as long as the derivation itself reuses its own scratch.
    pub fn from_cloud_derived_into(
        g: &mut Graph,
        cloud: &PointCloud,
        derive: crate::engine::DeriveIntoFn,
    ) -> Self {
        let features = g.input(Matrix::from_vec(cloud.len(), 3, cloud.to_xyz_rows()));
        rec::input_state(features, cloud, Some(StateSource::DerivedInto(derive)));
        ModuleState { positions: cloud.clone(), features }
    }

    /// A state carrying this state's positions but different features
    /// (skip links, dense feature concatenation). Registers the new
    /// features with the inference recorder as sitting on the same
    /// positions — build derived states through this rather than a struct
    /// literal, or the forward pass cannot be planned.
    pub fn with_features(&self, features: VarId) -> ModuleState {
        rec::alias_state(self.features, features);
        ModuleState { positions: self.positions.clone(), features }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the state holds no points.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// Result of running one module.
#[derive(Debug)]
pub struct RunOutput {
    /// The output point set and features.
    pub state: ModuleState,
    /// The recorded workload.
    pub trace: ModuleTrace,
    /// The neighbor table used (absent for group-all modules).
    pub nit: Option<NeighborIndexTable>,
}

/// Selects `n_out` centroid indices from `n_in` points. Uses the identity
/// selection when sizes match (DGCNN keeps all points), random sampling
/// otherwise — matching the paper's optimized baseline, which replaced FPS
/// with random sampling (§VI, optimization 3).
pub fn select_centroids(positions: &PointCloud, n_out: usize, seed: u64) -> Vec<usize> {
    let mut out = Vec::new();
    select_centroids_into(positions, n_out, seed, &mut Vec::new(), &mut out);
    out
}

/// [`select_centroids`] writing into caller-owned buffers (`shuffle` holds
/// the permutation scratch of the random path) — the engine's streaming
/// replay re-derives centroid selections without allocating. Bit-identical
/// to [`select_centroids`].
pub fn select_centroids_into(
    positions: &PointCloud,
    n_out: usize,
    seed: u64,
    shuffle: &mut Vec<usize>,
    out: &mut Vec<usize>,
) {
    assert!(
        n_out <= positions.len(),
        "cannot select {n_out} centroids from {} points",
        positions.len()
    );
    if n_out == positions.len() {
        out.clear();
        out.extend(0..n_out);
    } else {
        sampling::random_indices_into(positions.len(), n_out, seed, shuffle, out);
    }
}

thread_local! {
    /// The tape path's search context: persistent per thread so consecutive
    /// modules (and consecutive forwards) searching the same cloud share
    /// one built index. Keyed by cloud content hash, verified bit-exactly,
    /// so sharing can never change a result. The backend follows the
    /// environment as of the thread's first tape search.
    static TAPE_SEARCH: RefCell<SearchContext> =
        RefCell::new(SearchContext::with_planner(EngineConfig::from_env().search));
}

/// Runs the neighbor search of one module: the single search
/// implementation behind both the tape-based runner and the inference
/// engine's per-sample replay (both must produce the identical NIT).
/// The backend — exhaustive scan or octree — is chosen by the
/// [`mesorasi_knn::SearchPlanner`] cost model (override with
/// `MESORASI_SEARCH`, see [`EngineConfig::from_env`]); both are exact with
/// identical tie-breaking, so the choice never changes the NIT.
///
/// `features` is required exactly for [`NeighborMode::FeatureKnn`].
///
/// # Panics
///
/// Panics for [`NeighborMode::Global`] (global modules never search) or a
/// missing feature matrix on a feature-space search.
pub fn search_nit(
    positions: &PointCloud,
    features: Option<&Matrix>,
    neighbor: NeighborMode,
    centroids: &[usize],
    k: usize,
) -> NeighborIndexTable {
    let mut out = NeighborIndexTable::default();
    TAPE_SEARCH.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let space = positions.content_hash();
        search_nit_into(&mut ctx, space, positions, features, neighbor, centroids, k, &mut out);
    });
    out
}

/// [`search_nit`] against an explicit [`SearchContext`], writing into a
/// caller-owned table. `space` identifies the search space for index
/// sharing: the engine passes its module-state id (stable across frames,
/// so streaming rebuilds indices in place), the tape wrapper passes the
/// cloud's content hash.
#[allow(clippy::too_many_arguments)]
pub fn search_nit_into(
    ctx: &mut SearchContext,
    space: u64,
    positions: &PointCloud,
    features: Option<&Matrix>,
    neighbor: NeighborMode,
    centroids: &[usize],
    k: usize,
    out: &mut NeighborIndexTable,
) {
    match neighbor {
        NeighborMode::CoordKnn => ctx.knn_into(space, positions, centroids, k, out),
        NeighborMode::CoordBall { radius } => {
            ctx.ball_into(space, positions, centroids, radius, k, out)
        }
        NeighborMode::FeatureKnn => {
            let feats = features.expect("feature-space search needs the feature matrix");
            let view = FeatureView::new(feats.as_slice(), feats.cols())
                .expect("matrix storage is always rectangular");
            ctx.feature_knn_into(view, centroids, k, out);
        }
        NeighborMode::Global => unreachable!("global modules never search"),
    }
}

fn run_search(
    g: &Graph,
    module: &Module,
    state: &ModuleState,
    centroids: &[usize],
) -> (NeighborIndexTable, SearchOp) {
    let n_in = state.len();
    let k = module.config.k;
    assert!(k <= n_in, "{}: k = {k} exceeds N_in = {n_in}", module.config.name);
    let features = g.value(state.features);
    let nit = search_nit(&state.positions, Some(features), module.config.neighbor, centroids, k);
    let (dim, radius_query) = match module.config.neighbor {
        NeighborMode::CoordKnn => (3, false),
        NeighborMode::CoordBall { .. } => (3, true),
        NeighborMode::FeatureKnn => (features.cols(), false),
        NeighborMode::Global => unreachable!("global modules never search"),
    };
    (nit, SearchOp { queries: centroids.len(), candidates: n_in, dim, k, radius_query })
}

/// Builds the MLP-layer trace ops for a batch of `rows` rows through the
/// module's (constructed) layer widths.
fn mlp_ops(widths: &[usize], rows: usize) -> Vec<MatMulOp> {
    widths.windows(2).map(|w| MatMulOp { rows, inner: w[0], cols: w[1] }).collect()
}

/// Runs one module under `strategy`, producing the output state, the
/// workload trace, and the NIT used.
///
/// # Panics
///
/// Panics when the state is inconsistent with the module configuration
/// (wrong feature width, `n_out` or `k` larger than the input).
pub fn run_module(
    g: &mut Graph,
    module: &Module,
    state: &ModuleState,
    strategy: Strategy,
    seed: u64,
) -> RunOutput {
    let cfg = &module.config;
    let n_in = state.len();
    assert_eq!(
        g.value(state.features).rows(),
        n_in,
        "{}: positions and features disagree on N_in",
        cfg.name
    );

    if matches!(cfg.neighbor, NeighborMode::Global) {
        let features = executor::global_module(g, module, state.features);
        rec::global_state(features);
        let out_positions = PointCloud::from_points(vec![centroid_or_origin(&state.positions)]);
        let widths = cfg.layer_widths();
        let trace = ModuleTrace {
            name: cfg.name.clone(),
            search: None,
            mlp_pre: Vec::new(),
            aggregate: None,
            mlp_post: mlp_ops(&widths, n_in),
            reduce: Some(ReduceOp { groups: 1, k: n_in, width: cfg.m_out() }),
            other_flops: 0,
            other_bytes: 0,
        };
        return RunOutput {
            state: ModuleState { positions: out_positions, features },
            trace,
            nit: None,
        };
    }

    let centroids = select_centroids(&state.positions, cfg.n_out, seed);
    let (nit, search_op) = run_search(g, module, state, &centroids);
    let out_positions = state.positions.select(&centroids);

    rec::begin_search(g.len(), state.features, cfg.neighbor, cfg.n_out, cfg.k, seed);
    let features = match (cfg.edge, strategy) {
        (false, Strategy::Original) => executor::original_offset(g, module, state.features, &nit),
        (false, Strategy::LtdDelayed) => executor::ltd_offset(g, module, state.features, &nit),
        (false, Strategy::Delayed) => executor::delayed_offset(g, module, state.features, &nit),
        (true, Strategy::Original) => executor::original_edge(g, module, state.features, &nit),
        (true, Strategy::LtdDelayed) => executor::ltd_edge(g, module, state.features, &nit),
        (true, Strategy::Delayed) => executor::delayed_edge(g, module, state.features, &nit),
    };
    rec::end_search(features, &out_positions);

    let trace = build_module_trace(cfg.name.clone(), module, strategy, n_in, &nit, search_op);
    RunOutput { state: ModuleState { positions: out_positions, features }, trace, nit: Some(nit) }
}

/// Computes the 3-NN inverse-distance interpolation stencil lifting
/// `coarse` features onto `fine` points into caller-owned buffers
/// (flattened `n_fine × 3` indices and weights), reusing their capacity:
/// [`search_stencils_into`] on the tape's search context, keyed by the
/// coarse cloud's content hash — so a coarse level some module already
/// indexed is not rebuilt — the way [`search_nit`] wraps
/// [`search_nit_into`].
///
/// # Panics
///
/// Panics when `coarse` has fewer than 3 points.
pub fn fp_stencils_into(
    coarse: &PointCloud,
    fine: &PointCloud,
    indices: &mut Vec<usize>,
    weights: &mut Vec<f32>,
) {
    TAPE_SEARCH.with(|ctx| {
        let space = coarse.content_hash();
        search_stencils_into(&mut ctx.borrow_mut(), space, coarse, fine, indices, weights);
    });
}

/// The interpolation stencil against an explicit [`SearchContext`]: the
/// single stencil implementation behind the tape-based
/// [`run_feature_propagation`] and the inference engine's per-sample
/// replay (both must produce bit-identical index/weight vectors). Each fine
/// point's 3 nearest coarse points come from the context's point-query
/// kNN on the planned backend — exact under `(distance, index)` ordering,
/// so unique — and get weights `1 / (d² + 1e-8)`, normalised to sum 1.
/// `space` identifies the coarse cloud for index sharing, as in
/// [`search_nit_into`]. Warm buffers of the same shape are refilled
/// without allocating.
///
/// # Panics
///
/// Panics when `coarse` has fewer than 3 points.
pub fn search_stencils_into(
    ctx: &mut SearchContext,
    space: u64,
    coarse: &PointCloud,
    fine: &PointCloud,
    indices: &mut Vec<usize>,
    weights: &mut Vec<f32>,
) {
    assert!(coarse.len() >= 3, "3-NN interpolation needs at least 3 coarse points");
    indices.clear();
    indices.resize(fine.len() * 3, 0);
    ctx.knn_points_into(space, coarse, fine.points(), 3, indices);
    weights.clear();
    let coarse_pts = coarse.points();
    for (nn, &p) in indices.chunks_exact(3).zip(fine.points()) {
        let mut w = [0f32; 3];
        for (wi, &i) in w.iter_mut().zip(nn) {
            *wi = 1.0 / (coarse_pts[i].distance_squared(p) + 1e-8);
        }
        let sum: f32 = w.iter().sum();
        weights.extend(w.map(|wi| wi / sum));
    }
}

fn centroid_or_origin(cloud: &PointCloud) -> Point3 {
    if cloud.is_empty() {
        Point3::ORIGIN
    } else {
        cloud.centroid()
    }
}

/// Builds the [`ModuleTrace`] describing how `strategy` schedules this
/// module's work (see [`ModuleTrace`] for the placement rules).
fn build_module_trace(
    name: String,
    module: &Module,
    strategy: Strategy,
    n_in: usize,
    nit: &NeighborIndexTable,
    search: SearchOp,
) -> ModuleTrace {
    let cfg = &module.config;
    let widths = cfg.layer_widths();
    let n_out = nit.len();
    let k = nit.k();
    let edge_rows = n_out * k;
    let m_out = cfg.m_out();

    let (mlp_pre, mlp_post, aggregate, reduce) = match strategy {
        Strategy::Original => {
            // The grouping gather moves each neighbor row (plus the
            // centroid row) of the *input* features; the edge concatenation
            // itself is feature-computation work.
            let agg_width = cfg.m_in();
            let rows_per_entry = k + 1;
            (
                Vec::new(),
                mlp_ops(&widths, edge_rows),
                AggregateOp {
                    nit: nit.clone(),
                    table_rows: n_in,
                    width: agg_width,
                    rows_per_entry,
                    fused_reduce: false,
                },
                Some(ReduceOp { groups: n_out, k, width: m_out }),
            )
        }
        Strategy::LtdDelayed => {
            // Layer 1 runs per point before aggregation; the tail per edge.
            let w1 = widths[1];
            let pre = vec![MatMulOp { rows: n_in, inner: widths[0], cols: w1 }];
            let post = mlp_ops(&widths[1..], edge_rows);
            let rows_per_entry = if cfg.edge { k + 2 } else { k + 1 };
            (
                pre,
                post,
                AggregateOp {
                    nit: nit.clone(),
                    table_rows: n_in,
                    width: w1,
                    rows_per_entry,
                    fused_reduce: false,
                },
                Some(ReduceOp { groups: n_out, k, width: m_out }),
            )
        }
        Strategy::Delayed => {
            // Whole MLP per point; aggregation fused with reduce+subtract.
            // Edge modules run the tail on the N_out reduced rows.
            let (pre, post) = if cfg.edge {
                let w1 = widths[1];
                let pre = vec![MatMulOp { rows: n_in, inner: widths[0], cols: w1 }];
                let post = mlp_ops(&widths[1..], n_out);
                (pre, post)
            } else {
                (mlp_ops(&widths, n_in), Vec::new())
            };
            let width = if cfg.edge { widths[1] } else { m_out };
            (
                pre,
                post,
                AggregateOp {
                    nit: nit.clone(),
                    table_rows: n_in,
                    width,
                    rows_per_entry: k + 1,
                    fused_reduce: true,
                },
                None,
            )
        }
    };

    ModuleTrace {
        name,
        search: Some(search),
        mlp_pre,
        aggregate: Some(aggregate),
        mlp_post,
        reduce,
        other_flops: 0,
        other_bytes: 0,
    }
}

/// Feature propagation (PointNet++'s segmentation upsampling): for each
/// fine-level point, interpolate the 3 nearest coarse points' features with
/// inverse-distance weights, concatenate skip features if given, and run a
/// unit MLP. The 3-NN is a point-query search through the tape's search
/// context ([`fp_stencils_into`]), planned and metered like every module
/// search, and recorded as the trace's `SearchOp`. The paper's baseline
/// moved this operator (`three_interpolate`) to the GPU (§VI, optimization
/// 2); delayed-aggregation does not change it.
///
/// # Panics
///
/// Panics when the coarse state has fewer than 3 points (one remains valid:
/// the global feature is broadcast instead, PointNet++'s convention).
pub fn run_feature_propagation(
    g: &mut Graph,
    mlp: &SharedMlp,
    coarse: &ModuleState,
    fine_positions: &PointCloud,
    skip_features: Option<VarId>,
    trace_name: &str,
) -> (ModuleState, ModuleTrace) {
    let n_fine = fine_positions.len();
    let n_coarse = coarse.len();
    assert!(n_coarse >= 1, "feature propagation needs at least one coarse point");
    let coarse_width = g.value(coarse.features).cols();

    let interpolated = if n_coarse < 3 {
        // Broadcast the (global) coarse feature to every fine point — the
        // index list is structural (all zeros), so no dynamic binding.
        let idx = vec![0usize; n_fine];
        g.gather(coarse.features, idx)
    } else {
        let (mut indices, mut weights) = (Vec::new(), Vec::new());
        fp_stencils_into(&coarse.positions, fine_positions, &mut indices, &mut weights);
        g.weighted_gather(coarse.features, indices, weights, 3)
    };
    let stencil_var = (n_coarse >= 3).then_some(interpolated);

    let combined = match skip_features {
        Some(skip) => g.hstack(skip, interpolated),
        None => interpolated,
    };
    let features = mlp.forward(g, combined);
    rec::feature_propagation(coarse.features, fine_positions, stencil_var, features);

    let interp_k = if n_coarse < 3 { 1 } else { 3 };
    let trace = ModuleTrace {
        name: trace_name.to_owned(),
        search: Some(SearchOp {
            queries: n_fine,
            candidates: n_coarse,
            dim: 3,
            k: interp_k,
            radius_query: false,
        }),
        mlp_pre: Vec::new(),
        aggregate: None,
        mlp_post: mlp_ops(&mlp.widths(), n_fine),
        reduce: None,
        other_flops: (n_fine as u64) * (interp_k as u64) * (coarse_width as u64) * 2,
        other_bytes: (n_fine as u64) * (interp_k as u64) * (coarse_width as u64) * 4,
    };
    (ModuleState { positions: fine_positions.clone(), features }, trace)
}

/// Runs a plain MLP head (fully-connected classifier layers) and records
/// its trace as `Other`-stage work.
pub fn run_head(
    g: &mut Graph,
    mlp: &SharedMlp,
    features: VarId,
    trace_name: &str,
) -> (VarId, ModuleTrace) {
    let rows = g.value(features).rows();
    let out = mlp.forward(g, features);
    let trace = ModuleTrace {
        name: trace_name.to_owned(),
        mlp_post: mlp_ops(&mlp.widths(), rows),
        ..ModuleTrace::default()
    };
    (out, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleConfig;
    use mesorasi_nn::layers::NormMode;
    use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};

    fn cloud() -> PointCloud {
        sample_shape(ShapeClass::Lamp, 96, 3)
    }

    fn offset_module(widths: Vec<usize>) -> Module {
        let mut rng = mesorasi_pointcloud::seeded_rng(1);
        Module::new(
            ModuleConfig::offset("sa", 24, 8, NeighborMode::CoordKnn, widths),
            NormMode::None,
            &mut rng,
        )
    }

    #[test]
    fn run_module_produces_subsampled_state() {
        let module = offset_module(vec![3, 16, 32]);
        let mut g = Graph::new();
        let state = ModuleState::from_cloud(&mut g, &cloud());
        let out = run_module(&mut g, &module, &state, Strategy::Delayed, 7);
        assert_eq!(out.state.len(), 24);
        assert_eq!(g.value(out.state.features).shape(), (24, 32));
        assert_eq!(out.nit.as_ref().unwrap().len(), 24);
        // Output positions are a subset of input positions.
        for p in out.state.positions.points() {
            assert!(cloud().points().contains(p));
        }
    }

    #[test]
    fn trace_schedules_mlp_per_strategy() {
        let module = offset_module(vec![3, 16, 32]);
        for (strategy, pre, post) in [
            (Strategy::Original, 0usize, 2usize),
            (Strategy::LtdDelayed, 1, 1),
            (Strategy::Delayed, 2, 0),
        ] {
            let mut g = Graph::new();
            let state = ModuleState::from_cloud(&mut g, &cloud());
            let out = run_module(&mut g, &module, &state, strategy, 7);
            assert_eq!(out.trace.mlp_pre.len(), pre, "{strategy}");
            assert_eq!(out.trace.mlp_post.len(), post, "{strategy}");
            let agg = out.trace.aggregate.as_ref().unwrap();
            assert_eq!(agg.fused_reduce, strategy == Strategy::Delayed);
            assert_eq!(out.trace.reduce.is_none(), strategy == Strategy::Delayed);
        }
    }

    #[test]
    fn delayed_trace_has_fewer_macs_but_wider_gather() {
        let module = offset_module(vec![3, 16, 32]);
        let mut g = Graph::new();
        let state = ModuleState::from_cloud(&mut g, &cloud());
        let orig = run_module(&mut g, &module, &state, Strategy::Original, 7);
        let mut g2 = Graph::new();
        let state2 = ModuleState::from_cloud(&mut g2, &cloud());
        let del = run_module(&mut g2, &module, &state2, Strategy::Delayed, 7);
        assert!(del.trace.mlp_macs() < orig.trace.mlp_macs(), "fewer MACs (Fig. 9)");
        let wo = orig.trace.aggregate.as_ref().unwrap().working_set_bytes();
        let wd = del.trace.aggregate.as_ref().unwrap().working_set_bytes();
        assert!(wd > wo, "wider gather working set (§IV-C)");
    }

    #[test]
    fn same_seed_same_nit_across_strategies() {
        // The comparison experiments rely on all strategies sharing the
        // neighbor structure for a given input and seed.
        let module = offset_module(vec![3, 8]);
        let mut nits = Vec::new();
        for strategy in Strategy::ALL {
            let mut g = Graph::new();
            let state = ModuleState::from_cloud(&mut g, &cloud());
            let out = run_module(&mut g, &module, &state, strategy, 99);
            nits.push(out.nit.unwrap());
        }
        assert_eq!(nits[0], nits[1]);
        assert_eq!(nits[1], nits[2]);
    }

    #[test]
    fn global_module_state_is_single_point() {
        let mut rng = mesorasi_pointcloud::seeded_rng(2);
        let module = Module::new(ModuleConfig::global("g", vec![3, 64]), NormMode::None, &mut rng);
        let mut g = Graph::new();
        let state = ModuleState::from_cloud(&mut g, &cloud());
        let out = run_module(&mut g, &module, &state, Strategy::Original, 0);
        assert_eq!(out.state.len(), 1);
        assert_eq!(g.value(out.state.features).shape(), (1, 64));
        assert!(out.nit.is_none());
        assert!(out.trace.search.is_none());
    }

    #[test]
    fn feature_knn_module_runs() {
        let mut rng = mesorasi_pointcloud::seeded_rng(3);
        let module =
            Module::new(ModuleConfig::edge("ec", 96, 4, vec![3, 12]), NormMode::None, &mut rng);
        let mut g = Graph::new();
        let state = ModuleState::from_cloud(&mut g, &cloud());
        let out = run_module(&mut g, &module, &state, Strategy::Delayed, 0);
        assert_eq!(out.state.len(), 96);
        assert_eq!(g.value(out.state.features).shape(), (96, 12));
        // Feature-space search dims recorded.
        assert_eq!(out.trace.search.as_ref().unwrap().dim, 3);
    }

    #[test]
    fn feature_propagation_upsamples() {
        let module = offset_module(vec![3, 16]);
        let mut rng = mesorasi_pointcloud::seeded_rng(4);
        let fp_mlp = SharedMlp::new(&[16, 8], NormMode::None, true, &mut rng);
        let mut g = Graph::new();
        let fine = cloud();
        let state = ModuleState::from_cloud(&mut g, &fine);
        let coarse = run_module(&mut g, &module, &state, Strategy::Delayed, 7).state;
        let (up, trace) = run_feature_propagation(&mut g, &fp_mlp, &coarse, &fine, None, "fp1");
        assert_eq!(up.len(), 96);
        assert_eq!(g.value(up.features).shape(), (96, 8));
        assert_eq!(trace.search.as_ref().unwrap().k, 3);
    }

    #[test]
    fn feature_propagation_broadcasts_from_global() {
        let mut rng = mesorasi_pointcloud::seeded_rng(5);
        let gmod = Module::new(ModuleConfig::global("g", vec![3, 32]), NormMode::None, &mut rng);
        let fp_mlp = SharedMlp::new(&[32, 16], NormMode::None, true, &mut rng);
        let mut g = Graph::new();
        let fine = cloud();
        let state = ModuleState::from_cloud(&mut g, &fine);
        let coarse = run_module(&mut g, &gmod, &state, Strategy::Original, 0).state;
        let (up, _) = run_feature_propagation(&mut g, &fp_mlp, &coarse, &fine, None, "fp");
        assert_eq!(g.value(up.features).shape(), (96, 16));
    }

    /// The stencil by definition: every coarse point ranked by a full sort
    /// on `(distance, index)`, the first three weighted `1 / (d² + 1e-8)`
    /// and normalised.
    fn reference_stencils(coarse: &PointCloud, fine: &PointCloud) -> (Vec<usize>, Vec<f32>) {
        let (mut indices, mut weights) = (Vec::new(), Vec::new());
        for &p in fine.points() {
            let mut ranked: Vec<(f32, usize)> = coarse
                .points()
                .iter()
                .enumerate()
                .map(|(i, c)| (c.distance_squared(p), i))
                .collect();
            ranked.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
            let w = [0, 1, 2].map(|t| 1.0 / (ranked[t].0 + 1e-8));
            let sum: f32 = w.iter().sum();
            indices.extend(ranked[..3].iter().map(|&(_, i)| i));
            weights.extend(w.map(|wi| wi / sum));
        }
        (indices, weights)
    }

    /// A coarse level drawn from `fine` (so every coarse point coincides with
    /// a fine one) with every 16th point duplicated, so distance ties are
    /// common and broken by index.
    fn coarse_with_duplicates(fine: &PointCloud, n_coarse: usize) -> PointCloud {
        let step = fine.len() / n_coarse;
        let picks: Vec<usize> =
            (0..n_coarse).map(|i| if i % 16 == 15 { (i - 1) * step } else { i * step }).collect();
        fine.select(&picks)
    }

    /// Indices and weight bits of the tape path and of both backends
    /// forced through a context, against the full-sort reference.
    fn stencils_match_the_reference(n_fine: usize, n_coarse: usize) {
        use mesorasi_knn::{SearchBackend, SearchPlanner};
        let fine = sample_shape(ShapeClass::Chair, n_fine, 2);
        let coarse = coarse_with_duplicates(&fine, n_coarse);
        let (want_idx, want_w) = reference_stencils(&coarse, &fine);
        let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut idx, mut w) = (Vec::new(), Vec::new());
        fp_stencils_into(&coarse, &fine, &mut idx, &mut w);
        assert_eq!(idx, want_idx, "tape indices at {n_fine} x {n_coarse}");
        assert_eq!(bits(&w), bits(&want_w), "tape weights at {n_fine} x {n_coarse}");
        for backend in SearchBackend::ALL {
            let mut ctx = SearchContext::with_planner(SearchPlanner::forced(backend));
            search_stencils_into(&mut ctx, 0, &coarse, &fine, &mut idx, &mut w);
            assert_eq!(idx, want_idx, "{backend:?} indices at {n_fine} x {n_coarse}");
            assert_eq!(bits(&w), bits(&want_w), "{backend:?} weights at {n_fine} x {n_coarse}");
            assert_eq!(ctx.counters().queries, n_fine as u64, "the stencil is metered");
        }
    }

    #[test]
    fn stencils_match_a_full_sort_reference() {
        stencils_match_the_reference(120, 40);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "16.8 M pairs through the full-sort reference: release only"
    )]
    fn scene_scale_stencils_match_a_full_sort_reference() {
        stencils_match_the_reference(32768, 512);
    }

    #[test]
    fn fp_stencils_into_reuses_buffers_and_matches() {
        let fine = sample_shape(ShapeClass::Chair, 120, 2);
        let coarse = fine.select(&(0..40).collect::<Vec<_>>());
        let (want_idx, want_w) = reference_stencils(&coarse, &fine);
        let (mut idx, mut w) = (Vec::new(), Vec::new());
        fp_stencils_into(&coarse, &fine, &mut idx, &mut w);
        assert_eq!(idx, want_idx);
        assert_eq!(w, want_w);
        // Second fill must not grow the buffers.
        let caps = (idx.capacity(), w.capacity());
        fp_stencils_into(&coarse, &fine, &mut idx, &mut w);
        assert_eq!((idx.capacity(), w.capacity()), caps);
    }

    #[test]
    fn select_centroids_into_matches_allocating_variant() {
        let cloud = sample_shape(ShapeClass::Lamp, 90, 4);
        let (mut shuffle, mut out) = (Vec::new(), Vec::new());
        select_centroids_into(&cloud, 24, 11, &mut shuffle, &mut out);
        assert_eq!(out, select_centroids(&cloud, 24, 11));
        select_centroids_into(&cloud, 90, 11, &mut shuffle, &mut out);
        assert_eq!(out, (0..90).collect::<Vec<_>>(), "identity selection when sizes match");
    }

    #[test]
    fn head_trace_records_layers() {
        let mut rng = mesorasi_pointcloud::seeded_rng(6);
        let head = SharedMlp::new(&[32, 16, 10], NormMode::None, false, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(4, 32));
        let (out, trace) = run_head(&mut g, &head, x, "classifier");
        assert_eq!(g.value(out).shape(), (4, 10));
        assert_eq!(trace.mlp_post.len(), 2);
        assert!(trace.search.is_none() && trace.aggregate.is_none());
    }
}
