//! LDGCNN \[65\]: linked dynamic graph CNN.
//!
//! LDGCNN is DGCNN with hierarchical skip links: the input of EdgeConv
//! module `i` is the concatenation of the raw coordinates and *all*
//! previous module outputs, and the final fuse MLP sees the same full
//! concatenation. All EdgeConv MLPs are single-layer — which is why the
//! paper finds Mesorasi ≈ Ltd-Mesorasi on LDGCNN (§VII-C).

use crate::{NetForward, PointCloudNetwork};
use mesorasi_core::module::{Module, ModuleConfig};
use mesorasi_core::runner::{self, ModuleState};
use mesorasi_core::trace::ReduceOp;
use mesorasi_core::{NetworkTrace, Strategy};
use mesorasi_nn::layers::{NormMode, SharedMlp};
use mesorasi_nn::{Graph, Param, VarId};
use mesorasi_pointcloud::PointCloud;
use rand::rngs::StdRng;

/// The LDGCNN classification network.
#[derive(Debug, Clone)]
pub struct Ldgcnn {
    input_points: usize,
    /// EdgeConv modules; module `i`'s input width is `3 + Σ_{j<i} out_j`.
    edges: Vec<Module>,
    fuse: SharedMlp,
    head: SharedMlp,
}

impl Ldgcnn {
    /// Paper-scale network: 1024 points, K = 20, EdgeConvs
    /// `[64, 64, 64, 128]` over linked inputs, fuse to 1024, 40-way head.
    pub fn paper(rng: &mut StdRng) -> Self {
        let k = 20;
        let n = 1024;
        // Linked input widths: 3, 3+64, 3+128, 3+192.
        let edges = vec![
            Module::new(ModuleConfig::edge("lec1", n, k, vec![3, 64]), NormMode::None, rng),
            Module::new(ModuleConfig::edge("lec2", n, k, vec![67, 64]), NormMode::None, rng),
            Module::new(ModuleConfig::edge("lec3", n, k, vec![131, 64]), NormMode::None, rng),
            Module::new(ModuleConfig::edge("lec4", n, k, vec![195, 128]), NormMode::None, rng),
        ];
        let fuse = SharedMlp::new(&[3 + 64 + 64 + 64 + 128, 1024], NormMode::None, true, rng);
        let head = SharedMlp::new(&[1024, 512, 256, 40], NormMode::None, false, rng);
        Ldgcnn { input_points: n, edges, fuse, head }
    }

    /// Small trainable instance.
    pub fn small(classes: usize, rng: &mut StdRng) -> Self {
        let k = 8;
        let n = 128;
        let edges = vec![
            Module::new(ModuleConfig::edge("lec1", n, k, vec![3, 16]), NormMode::Feature, rng),
            Module::new(ModuleConfig::edge("lec2", n, k, vec![19, 24]), NormMode::Feature, rng),
        ];
        let fuse = SharedMlp::new(&[3 + 16 + 24, 64], NormMode::Feature, true, rng);
        let head = SharedMlp::new(&[64, 32, classes], NormMode::None, false, rng);
        Ldgcnn { input_points: n, edges, fuse, head }
    }
}

impl PointCloudNetwork for Ldgcnn {
    fn name(&self) -> &str {
        "LDGCNN"
    }

    fn input_points(&self) -> usize {
        self.input_points
    }

    fn domain(&self) -> crate::Domain {
        crate::Domain::Classification
    }

    fn boxed_clone(&self) -> Box<dyn PointCloudNetwork> {
        Box::new(self.clone())
    }

    fn forward(
        &self,
        g: &mut Graph,
        cloud: &PointCloud,
        strategy: Strategy,
        seed: u64,
    ) -> NetForward {
        let mut trace = NetworkTrace::new("LDGCNN", strategy);
        let initial = ModuleState::from_cloud(g, cloud);
        // The linked input so far: raw coordinates, then growing concat.
        let mut linked: VarId = initial.features;
        for (i, module) in self.edges.iter().enumerate() {
            let state = initial.with_features(linked);
            let out = runner::run_module(g, module, &state, strategy, seed.wrapping_add(i as u64));
            trace.modules.push(out.trace);
            linked = g.hstack(linked, out.state.features);
        }

        let (fused, mut fuse_trace) = runner::run_head(g, &self.fuse, linked, "fuse");
        let (rows, width) = g.shape(fused);
        let global = g.global_max(fused);
        fuse_trace.reduce = Some(ReduceOp { groups: 1, k: rows, width });
        trace.modules.push(fuse_trace);

        let (logits, head_trace) = runner::run_head(g, &self.head, global, "cls-head");
        trace.modules.push(head_trace);
        NetForward { logits, trace }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        for m in &mut self.edges {
            params.extend(m.mlp.params_mut());
        }
        params.extend(self.fuse.params_mut());
        params.extend(self.head.params_mut());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};

    #[test]
    fn small_instance_forward_shapes() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = Ldgcnn::small(10, &mut rng);
        let cloud = sample_shape(ShapeClass::Piano, 128, 1);
        let mut g = Graph::new();
        let out = net.forward(&mut g, &cloud, Strategy::Original, 3);
        assert_eq!(g.value(out.logits).shape(), (1, 10));
        assert_eq!(out.trace.modules.len(), 4); // 2 edges + fuse + head
    }

    #[test]
    fn linked_inputs_grow_search_dimension() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = Ldgcnn::small(4, &mut rng);
        let cloud = sample_shape(ShapeClass::Radio, 128, 1);
        let mut g = Graph::new();
        let out = net.forward(&mut g, &cloud, Strategy::Delayed, 3);
        let dims: Vec<usize> =
            out.trace.modules.iter().filter_map(|m| m.search.as_ref().map(|s| s.dim)).collect();
        // Module 2 searches in the 3+16 = 19-wide linked feature space.
        assert_eq!(dims, vec![3, 19]);
    }

    #[test]
    fn single_layer_modules_make_delayed_near_exact() {
        // Norm-free instance: FeatureNorm statistics differ between the
        // two orders (batch rows differ), which is exactly the batch-norm
        // perturbation §VII-B describes — so exactness holds only without it.
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = Ldgcnn {
            input_points: 128,
            edges: vec![
                Module::new(
                    ModuleConfig::edge("lec1", 128, 8, vec![3, 16]),
                    NormMode::None,
                    &mut rng,
                ),
                Module::new(
                    ModuleConfig::edge("lec2", 128, 8, vec![19, 24]),
                    NormMode::None,
                    &mut rng,
                ),
            ],
            fuse: SharedMlp::new(&[43, 64], NormMode::None, true, &mut rng),
            head: SharedMlp::new(&[64, 32, 4], NormMode::None, false, &mut rng),
        };
        let cloud = sample_shape(ShapeClass::Sphere, 128, 2);
        let mut g1 = Graph::new();
        let a = net.forward(&mut g1, &cloud, Strategy::Original, 5);
        let mut g2 = Graph::new();
        let b = net.forward(&mut g2, &cloud, Strategy::Delayed, 5);
        let diff = mesorasi_tensor::ops::sub(g1.value(a.logits), g2.value(b.logits)).max_abs();
        assert!(diff < 1e-3, "LDGCNN delayed should be near-exact, diff {diff}");
    }

    #[test]
    fn paper_scale_linked_widths_are_consistent() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = Ldgcnn::paper(&mut rng);
        assert_eq!(net.edges[1].config.m_in(), 67);
        assert_eq!(net.edges[3].config.m_in(), 195);
    }
}
