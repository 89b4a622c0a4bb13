//! DGCNN \[53\]: dynamic graph CNN, classification and segmentation.
//!
//! Every EdgeConv module rebuilds its neighbor graph by KNN *in the feature
//! space of the previous module* (Fig. 1b), which is why DGCNN's neighbor
//! search cost dominates (Fig. 5) and grows with feature width. Edge
//! features are `[x_i | x_j − x_i]`; module outputs are concatenated, fused
//! by a point-wise MLP, globally max-pooled, and classified. The
//! segmentation variant broadcasts the global feature back to every point.

use crate::{NetForward, PointCloudNetwork};
use mesorasi_core::module::{Module, ModuleConfig};
use mesorasi_core::runner::{self, ModuleState};
use mesorasi_core::trace::ReduceOp;
use mesorasi_core::{NetworkTrace, Strategy};
use mesorasi_nn::layers::{NormMode, SharedMlp};
use mesorasi_nn::{Graph, Param, VarId};
use mesorasi_pointcloud::PointCloud;
use rand::rngs::StdRng;

/// DGCNN in either variant.
#[derive(Debug, Clone)]
pub struct Dgcnn {
    name: String,
    input_points: usize,
    /// EdgeConv modules (feature-space KNN, edge-concat MLPs).
    edges: Vec<Module>,
    /// Point-wise MLP fusing the concatenated module outputs.
    fuse: SharedMlp,
    /// Classification head or per-point segmentation head.
    head: SharedMlp,
    segmentation: bool,
}

impl Dgcnn {
    /// Paper-scale classification: 1024 points, K = 20, four single-layer
    /// EdgeConvs `[64, 64, 128, 256]`, fuse to 1024, 40-way head — the
    /// architecture of \[53\] §5.1.
    pub fn classification_paper(rng: &mut StdRng) -> Self {
        let k = 20;
        let n = 1024;
        let edges = vec![
            Module::new(ModuleConfig::edge("ec1", n, k, vec![3, 64]), NormMode::None, rng),
            Module::new(ModuleConfig::edge("ec2", n, k, vec![64, 64]), NormMode::None, rng),
            Module::new(ModuleConfig::edge("ec3", n, k, vec![64, 128]), NormMode::None, rng),
            Module::new(ModuleConfig::edge("ec4", n, k, vec![128, 256]), NormMode::None, rng),
        ];
        let fuse = SharedMlp::new(&[64 + 64 + 128 + 256, 1024], NormMode::None, true, rng);
        let head = SharedMlp::new(&[1024, 512, 256, 40], NormMode::None, false, rng);
        Dgcnn { name: "DGCNN (c)".into(), input_points: n, edges, fuse, head, segmentation: false }
    }

    /// Small trainable classification instance.
    pub fn classification_small(classes: usize, rng: &mut StdRng) -> Self {
        let k = 8;
        let n = 128;
        let edges = vec![
            Module::new(ModuleConfig::edge("ec1", n, k, vec![3, 24]), NormMode::Feature, rng),
            Module::new(ModuleConfig::edge("ec2", n, k, vec![24, 32]), NormMode::Feature, rng),
        ];
        let fuse = SharedMlp::new(&[24 + 32, 96], NormMode::Feature, true, rng);
        let head = SharedMlp::new(&[96, 48, classes], NormMode::None, false, rng);
        Dgcnn { name: "DGCNN (c)".into(), input_points: n, edges, fuse, head, segmentation: false }
    }

    /// Paper-scale segmentation: 2048 points, K = 40, deeper EdgeConvs with
    /// two-layer MLPs (where full delayed-aggregation differs from
    /// Ltd-Mesorasi), per-point head.
    pub fn segmentation_paper(parts: usize, rng: &mut StdRng) -> Self {
        let k = 40;
        let n = 2048;
        let edges = vec![
            Module::new(ModuleConfig::edge("ec1", n, k, vec![3, 64, 64]), NormMode::None, rng),
            Module::new(ModuleConfig::edge("ec2", n, k, vec![64, 64, 64]), NormMode::None, rng),
            Module::new(ModuleConfig::edge("ec3", n, k, vec![64, 64]), NormMode::None, rng),
        ];
        let fuse = SharedMlp::new(&[64 + 64 + 64, 1024], NormMode::None, true, rng);
        // Per-point head input: global (1024) + concatenated locals (192).
        let head = SharedMlp::new(&[1024 + 192, 256, 256, 128, parts], NormMode::None, false, rng);
        Dgcnn { name: "DGCNN (s)".into(), input_points: n, edges, fuse, head, segmentation: true }
    }

    /// Small trainable segmentation instance.
    pub fn segmentation_small(parts: usize, rng: &mut StdRng) -> Self {
        let k = 8;
        let n = 128;
        let edges = vec![
            Module::new(ModuleConfig::edge("ec1", n, k, vec![3, 24, 24]), NormMode::Feature, rng),
            Module::new(ModuleConfig::edge("ec2", n, k, vec![24, 32]), NormMode::Feature, rng),
        ];
        let fuse = SharedMlp::new(&[24 + 32, 64], NormMode::Feature, true, rng);
        let head = SharedMlp::new(&[64 + 56, 48, parts], NormMode::None, false, rng);
        Dgcnn { name: "DGCNN (s)".into(), input_points: n, edges, fuse, head, segmentation: true }
    }
}

impl PointCloudNetwork for Dgcnn {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_points(&self) -> usize {
        self.input_points
    }

    fn domain(&self) -> crate::Domain {
        if self.segmentation {
            crate::Domain::Segmentation
        } else {
            crate::Domain::Classification
        }
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
        let mut trace = NetworkTrace::new(&self.name, strategy);
        let mut state = ModuleState::from_cloud(g, cloud);
        let mut locals: Vec<VarId> = Vec::with_capacity(self.edges.len());
        for (i, module) in self.edges.iter().enumerate() {
            let out = runner::run_module(g, module, &state, strategy, seed.wrapping_add(i as u64));
            trace.modules.push(out.trace);
            state = out.state;
            locals.push(state.features);
        }

        // Concatenate all module outputs (the "+" in Fig. 1b) and fuse.
        let mut concat = locals[0];
        for &f in &locals[1..] {
            concat = g.hstack(concat, f);
        }
        let (fused, mut fuse_trace) = runner::run_head(g, &self.fuse, concat, "fuse");
        let n = g.value(fused).rows();
        let fused_width = g.value(fused).cols();
        let global = g.global_max(fused);
        fuse_trace.reduce = Some(ReduceOp { groups: 1, k: n, width: fused_width });
        trace.modules.push(fuse_trace);

        let logits = if self.segmentation {
            // Broadcast the global feature to every point and concatenate
            // with the per-point local features.
            let broadcast = g.gather(global, vec![0; n]);
            let per_point = g.hstack(broadcast, concat);
            let (out, head_trace) = runner::run_head(g, &self.head, per_point, "seg-head");
            trace.modules.push(head_trace);
            out
        } else {
            let (out, head_trace) = runner::run_head(g, &self.head, global, "cls-head");
            trace.modules.push(head_trace);
            out
        };
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
    fn classification_small_shapes() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = Dgcnn::classification_small(10, &mut rng);
        let cloud = sample_shape(ShapeClass::Guitar, 128, 1);
        let mut g = Graph::new();
        let out = net.forward(&mut g, &cloud, Strategy::Original, 3);
        assert_eq!(g.value(out.logits).shape(), (1, 10));
        // 2 EdgeConvs + fuse + head.
        assert_eq!(out.trace.modules.len(), 4);
    }

    #[test]
    fn segmentation_small_shapes() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = Dgcnn::segmentation_small(6, &mut rng);
        let cloud = sample_shape(ShapeClass::Airplane, 128, 1);
        let mut g = Graph::new();
        let out = net.forward(&mut g, &cloud, Strategy::Delayed, 3);
        assert_eq!(g.value(out.logits).shape(), (128, 6));
    }

    #[test]
    fn every_edge_module_searches_in_feature_space() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = Dgcnn::classification_small(4, &mut rng);
        let cloud = sample_shape(ShapeClass::Cup, 128, 1);
        let mut g = Graph::new();
        let out = net.forward(&mut g, &cloud, Strategy::Original, 3);
        // First module searches in 3-D, second in the 24-wide feature space.
        let dims: Vec<usize> =
            out.trace.modules.iter().filter_map(|m| m.search.as_ref().map(|s| s.dim)).collect();
        assert_eq!(dims, vec![3, 24]);
    }

    #[test]
    fn single_layer_edge_delayed_matches_original_logits() {
        // With single-layer EdgeConv MLPs the delayed transform is exact,
        // so whole-network outputs agree (the DGCNN (c) observation that
        // Mesorasi ≈ Ltd-Mesorasi in §VII-C).
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let k = 8;
        let n = 64;
        let edges = vec![
            Module::new(ModuleConfig::edge("ec1", n, k, vec![3, 16]), NormMode::None, &mut rng),
            Module::new(ModuleConfig::edge("ec2", n, k, vec![16, 16]), NormMode::None, &mut rng),
        ];
        let fuse = SharedMlp::new(&[32, 32], NormMode::None, true, &mut rng);
        let head = SharedMlp::new(&[32, 4], NormMode::None, false, &mut rng);
        let net =
            Dgcnn { name: "test".into(), input_points: n, edges, fuse, head, segmentation: false };
        let cloud = sample_shape(ShapeClass::Sphere, 64, 2);
        let mut g1 = Graph::new();
        let a = net.forward(&mut g1, &cloud, Strategy::Original, 5);
        let mut g2 = Graph::new();
        let b = net.forward(&mut g2, &cloud, Strategy::Delayed, 5);
        let diff = mesorasi_tensor::ops::sub(g1.value(a.logits), g2.value(b.logits)).max_abs();
        assert!(diff < 1e-3, "single-layer DGCNN delayed must be near-exact, diff {diff}");
    }

    #[test]
    fn delayed_saves_macs_on_paper_scale_config() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = Dgcnn::classification_small(4, &mut rng);
        let cloud = sample_shape(ShapeClass::Sofa, 128, 2);
        let mut g1 = Graph::new();
        let orig = net.forward(&mut g1, &cloud, Strategy::Original, 5);
        let mut g2 = Graph::new();
        let del = net.forward(&mut g2, &cloud, Strategy::Delayed, 5);
        assert!(del.trace.mlp_macs() < orig.trace.mlp_macs());
    }
}
