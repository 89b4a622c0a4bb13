//! Pure functional executors for one module, given a precomputed neighbor
//! index table.
//!
//! These are the algorithmic heart of the reproduction: the same module
//! semantics in the three orders of Fig. 3 (original) and Fig. 8 (delayed),
//! all expressed on the autograd graph so each variant is trainable and
//! their outputs can be compared numerically.
//!
//! | variant | MLP batch | aggregation | exactness |
//! |---|---|---|---|
//! | original | `N_out·K` offset rows | before MLP | reference |
//! | ltd      | layer 1 on `N_in` rows, tail on `N_out·K` | between | exact (linear part only hoisted) |
//! | delayed  | full MLP on `N_in` rows (PFT) | after MLP, fused with max | approximate through ReLU |

use crate::engine::rec;
use crate::module::Module;
use mesorasi_knn::NeighborIndexTable;
use mesorasi_nn::{Graph, VarId};

fn check_nit(g: &Graph, features: VarId, module: &Module, nit: &NeighborIndexTable) {
    let (n_in, m_in) = g.shape(features);
    assert_eq!(
        m_in,
        module.config.m_in(),
        "{}: feature width must equal the module's M_in",
        module.config.name
    );
    assert_eq!(
        nit.len(),
        module.config.n_out,
        "{}: NIT entries must equal N_out",
        module.config.name
    );
    assert_eq!(nit.k(), module.config.k, "{}: NIT K must match config", module.config.name);
    if let Some(max) = nit.max_index() {
        assert!(max < n_in, "{}: NIT references row {max} >= N_in = {n_in}", module.config.name);
    }
}

/// Original-order offset module: gather neighbors, subtract centroids, run
/// the MLP over `N_out·K` offset rows, max-reduce per group.
///
/// # Panics
///
/// Panics when the NIT disagrees with the module configuration.
pub fn original_offset(
    g: &mut Graph,
    module: &Module,
    features: VarId,
    nit: &NeighborIndexTable,
) -> VarId {
    check_nit(g, features, module, nit);
    let k = nit.k();
    let gathered = g.gather(features, nit.neighbors_flat().to_vec());
    rec::bind_neighbors(gathered);
    let centroids = g.gather(features, nit.centroids().to_vec());
    let offsets = g.sub_centroid(gathered, centroids, k);
    let h = module.mlp.forward(g, offsets);
    g.group_max(h, k)
}

/// Limited delayed-aggregation offset module (Ltd-Mesorasi): hoists only
/// the first layer's matrix product before aggregation — exact, because
/// `(p_k − p_i)·W = p_k·W − p_i·W` — then runs the MLP tail per edge.
///
/// # Panics
///
/// Panics when the NIT disagrees with the module configuration.
pub fn ltd_offset(
    g: &mut Graph,
    module: &Module,
    features: VarId,
    nit: &NeighborIndexTable,
) -> VarId {
    check_nit(g, features, module, nit);
    let k = nit.k();
    let t = module.mlp.first_layer().forward_linear_only(g, features);
    let gathered = g.gather(t, nit.neighbors_flat().to_vec());
    rec::bind_neighbors(gathered);
    let centroids = g.gather(t, nit.centroids().to_vec());
    let offsets = g.sub_centroid(gathered, centroids, k);
    let h = module.mlp.forward_after_first_linear(g, offsets);
    g.group_max(h, k)
}

/// Full delayed-aggregation offset module (paper Equ. 2 with the
/// max-before-subtract optimization of §IV-A): compute the Point Feature
/// Table with the whole MLP over the `N_in` input points, then per centroid
/// take the column-wise max of its neighbors' PFT rows and subtract the
/// centroid's own PFT row.
///
/// # Panics
///
/// Panics when the NIT disagrees with the module configuration.
pub fn delayed_offset(
    g: &mut Graph,
    module: &Module,
    features: VarId,
    nit: &NeighborIndexTable,
) -> VarId {
    check_nit(g, features, module, nit);
    let pft = module.mlp.forward(g, features);
    let reduced = g.gather_max(pft, nit.neighbors_flat(), nit.k());
    rec::bind_neighbors(reduced);
    let centroids = g.gather(pft, nit.centroids().to_vec());
    g.sub(reduced, centroids)
}

/// Splits an edge module's first-layer product into the centroid half
/// (`x·W_top`) and the offset half (`x·W_bot`), exploiting
/// `[a | b]·W = a·W_top + b·W_bot`.
fn edge_first_layer_halves(g: &mut Graph, module: &Module, features: VarId) -> (VarId, VarId) {
    let m = module.config.m_in();
    let w = g.param(&module.mlp.first_layer().weight);
    let w_top = g.gather(w, (0..m).collect());
    let w_bot = g.gather(w, (m..2 * m).collect());
    let u = g.matmul(features, w_top);
    let v = g.matmul(features, w_bot);
    (u, v)
}

/// Original-order edge module (DGCNN's EdgeConv): per edge, the MLP
/// consumes `[x_i | x_j − x_i]`; the K edge outputs of each centroid are
/// max-reduced.
///
/// # Panics
///
/// Panics when the NIT disagrees with the module configuration.
pub fn original_edge(
    g: &mut Graph,
    module: &Module,
    features: VarId,
    nit: &NeighborIndexTable,
) -> VarId {
    check_nit(g, features, module, nit);
    let k = nit.k();
    let repeated_centroids: Vec<usize> =
        nit.centroids().iter().flat_map(|&c| std::iter::repeat_n(c, k)).collect();
    let gathered = g.gather(features, nit.neighbors_flat().to_vec());
    rec::bind_neighbors(gathered);
    let centroid_rows = g.gather(features, repeated_centroids);
    let offsets = g.sub(gathered, centroid_rows);
    let edge_rows = g.hstack(centroid_rows, offsets);
    let h = module.mlp.forward(g, edge_rows);
    g.group_max(h, k)
}

/// Ltd edge module: the first layer's product is hoisted per point
/// (`u = x·W_top`, `v = x·W_bot`), edges assemble the exact pre-activation
/// `(u − v)_i + v_j`, and the MLP tail still runs per edge. The centroid
/// term is subtracted per point and gathered once: a row copy commutes
/// with the elementwise difference, so this is bit for bit `u_i − v_i`.
///
/// # Panics
///
/// Panics when the NIT disagrees with the module configuration.
pub fn ltd_edge(
    g: &mut Graph,
    module: &Module,
    features: VarId,
    nit: &NeighborIndexTable,
) -> VarId {
    check_nit(g, features, module, nit);
    let k = nit.k();
    let (u, v) = edge_first_layer_halves(g, module, features);
    let repeated_centroids: Vec<usize> =
        nit.centroids().iter().flat_map(|&c| std::iter::repeat_n(c, k)).collect();
    let u_minus_v = g.sub(u, v);
    let centroid_term = g.gather(u_minus_v, repeated_centroids);
    let v_j = g.gather(v, nit.neighbors_flat().to_vec());
    rec::bind_neighbors(v_j);
    let pre = g.add(centroid_term, v_j);
    let h = module.mlp.forward_after_first_linear(g, pre);
    g.group_max(h, k)
}

/// Delayed edge module: per-point halves `u`, `v` are computed once; the
/// offset half is max-reduced over each centroid's neighbors *before* the
/// non-linearity (`max_j φ(c + v_j) = φ(c + max_j v_j)` — exact for a
/// single-layer MLP since φ is monotone), then the MLP tail runs on the
/// `N_out` reduced rows (the Equ. 3-style approximation for deeper MLPs).
/// As in [`ltd_edge`], the centroid term `u − v` is gathered once.
///
/// # Panics
///
/// Panics when the NIT disagrees with the module configuration.
pub fn delayed_edge(
    g: &mut Graph,
    module: &Module,
    features: VarId,
    nit: &NeighborIndexTable,
) -> VarId {
    check_nit(g, features, module, nit);
    let (u, v) = edge_first_layer_halves(g, module, features);
    let reduced_v = g.gather_max(v, nit.neighbors_flat(), nit.k());
    rec::bind_neighbors(reduced_v);
    let u_minus_v = g.sub(u, v);
    let centroid_term = g.gather(u_minus_v, nit.centroids().to_vec());
    let pre = g.add(centroid_term, reduced_v);
    module.mlp.forward_after_first_linear(g, pre)
}

/// Group-all module: the MLP runs over all input rows, followed by a global
/// column-wise max — identical in every strategy (there is no neighbor
/// aggregation to reorder), so the strategy distinction collapses here.
pub fn global_module(g: &mut Graph, module: &Module, features: VarId) -> VarId {
    assert_eq!(
        g.shape(features).1,
        module.config.m_in(),
        "{}: feature width must equal the module's M_in",
        module.config.name
    );
    let h = module.mlp.forward(g, features);
    g.global_max(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{ModuleConfig, NeighborMode};
    use mesorasi_knn::bruteforce;
    use mesorasi_nn::layers::NormMode;
    use mesorasi_pointcloud::sampling::random_indices;
    use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
    use mesorasi_tensor::{ops, Matrix};

    fn setup(edge: bool, widths: Vec<usize>) -> (Module, Matrix, NeighborIndexTable) {
        let mut rng = mesorasi_pointcloud::seeded_rng(42);
        let cloud = sample_shape(ShapeClass::Chair, 64, 1);
        let config = if edge {
            ModuleConfig::edge("test-edge", 16, 4, widths)
        } else {
            ModuleConfig::offset("test-offset", 16, 4, NeighborMode::CoordKnn, widths)
        };
        let module = Module::new(config, NormMode::None, &mut rng);
        let centroids = random_indices(&cloud, 16, 2);
        let nit = bruteforce::knn_indices(&cloud, &centroids, 4);
        let features = Matrix::from_vec(64, 3, cloud.to_xyz_rows());
        (module, features, nit)
    }

    #[test]
    fn all_offset_variants_have_output_shape_nout_by_mout() {
        let (module, features, nit) = setup(false, vec![3, 8, 12]);
        for f in [original_offset, ltd_offset, delayed_offset] {
            let mut g = Graph::new();
            let x = g.input(features.clone());
            let y = f(&mut g, &module, x, &nit);
            assert_eq!(g.value(y).shape(), (16, 12));
        }
    }

    #[test]
    fn all_edge_variants_have_output_shape_nout_by_mout() {
        let (module, features, nit) = setup(true, vec![3, 8, 12]);
        for f in [original_edge, ltd_edge, delayed_edge] {
            let mut g = Graph::new();
            let x = g.input(features.clone());
            let y = f(&mut g, &module, x, &nit);
            assert_eq!(g.value(y).shape(), (16, 12));
        }
    }

    #[test]
    fn ltd_offset_equals_original_exactly() {
        // Hoisting only the linear part is precise (paper §VII-C): for any
        // depth and any activation pattern the two must agree bitwise-ish.
        let (module, features, nit) = setup(false, vec![3, 8, 8, 5]);
        let mut g1 = Graph::new();
        let x1 = g1.input(features.clone());
        let a = original_offset(&mut g1, &module, x1, &nit);
        let mut g2 = Graph::new();
        let x2 = g2.input(features);
        let b = ltd_offset(&mut g2, &module, x2, &nit);
        let diff = ops::sub(g1.value(a), g2.value(b)).max_abs();
        assert!(diff < 1e-4, "ltd must be exact, diff = {diff}");
    }

    #[test]
    fn ltd_edge_equals_original_exactly() {
        let (module, features, nit) = setup(true, vec![3, 8, 5]);
        let mut g1 = Graph::new();
        let x1 = g1.input(features.clone());
        let a = original_edge(&mut g1, &module, x1, &nit);
        let mut g2 = Graph::new();
        let x2 = g2.input(features);
        let b = ltd_edge(&mut g2, &module, x2, &nit);
        let diff = ops::sub(g1.value(a), g2.value(b)).max_abs();
        assert!(diff < 1e-4, "ltd edge must be exact, diff = {diff}");
    }

    #[test]
    fn delayed_edge_single_layer_equals_original_exactly() {
        // For a single-layer edge MLP, moving the max inside the monotone
        // non-linearity is exact: max_j φ(c + v_j) = φ(c + max_j v_j).
        let (module, features, nit) = setup(true, vec![3, 10]);
        let mut g1 = Graph::new();
        let x1 = g1.input(features.clone());
        let a = original_edge(&mut g1, &module, x1, &nit);
        let mut g2 = Graph::new();
        let x2 = g2.input(features);
        let b = delayed_edge(&mut g2, &module, x2, &nit);
        let diff = ops::sub(g1.value(a), g2.value(b)).max_abs();
        assert!(diff < 1e-4, "single-layer delayed edge must be exact, diff = {diff}");
    }

    #[test]
    fn delayed_offset_is_close_but_not_identical_with_relu() {
        let (module, features, nit) = setup(false, vec![3, 16, 8]);
        let mut g1 = Graph::new();
        let x1 = g1.input(features.clone());
        let a = original_offset(&mut g1, &module, x1, &nit);
        let mut g2 = Graph::new();
        let x2 = g2.input(features);
        let b = delayed_offset(&mut g2, &module, x2, &nit);
        let a = g1.value(a);
        let b = g2.value(b);
        let diff = ops::sub(a, b).max_abs();
        assert!(diff > 0.0, "ReLU makes delayed aggregation approximate");
        // But bounded: the approximation must stay within the activation
        // scale (both are built from the same weights and inputs).
        let scale = a.max_abs().max(b.max_abs()).max(1e-6);
        assert!(diff / scale < 2.0, "divergence should be bounded, got {diff} vs scale {scale}");
    }

    #[test]
    fn gradients_flow_through_every_variant() {
        let (module, features, nit) = setup(false, vec![3, 6, 4]);
        for f in [original_offset, ltd_offset, delayed_offset] {
            let mut g = Graph::new();
            let x = g.input(features.clone());
            let y = f(&mut g, &module, x, &nit);
            let t = g.input(Matrix::zeros(16, 4));
            let loss = g.mse(y, t);
            g.backward(loss);
            let w_grad = g.param_grad(module.mlp.first_layer().weight.id());
            assert!(w_grad.is_some(), "first-layer weight must receive gradient");
            assert!(w_grad.unwrap().max_abs() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "NIT entries must equal N_out")]
    fn mismatched_nit_panics() {
        let (module, features, _) = setup(false, vec![3, 8]);
        let mut bad = NeighborIndexTable::new(4);
        bad.push_entry(0, &[0, 1, 2, 3]);
        let mut g = Graph::new();
        let x = g.input(features);
        let _ = original_offset(&mut g, &module, x, &bad);
    }

    #[test]
    fn global_module_reduces_to_single_row() {
        let mut rng = mesorasi_pointcloud::seeded_rng(5);
        let module = Module::new(ModuleConfig::global("g", vec![8, 16]), NormMode::None, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(32, 8, |r, c| ((r * c) as f32).sin()));
        let y = global_module(&mut g, &module, x);
        assert_eq!(g.value(y).shape(), (1, 16));
    }
}
