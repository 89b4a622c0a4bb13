//! PointNet++ \[43\], classification (SSG) and segmentation variants.
//!
//! The classification network is the paper's running example (Fig. 3 /
//! Fig. 8): three set-abstraction modules — two sampled ball-query modules
//! and one group-all module — followed by fully-connected layers. The
//! segmentation variant adds feature-propagation (3-NN interpolation)
//! layers back up to full resolution and a per-point head.

use crate::{NetForward, PointCloudNetwork};
use mesorasi_core::module::{Module, ModuleConfig, NeighborMode};
use mesorasi_core::runner::{self, ModuleState};
use mesorasi_core::{NetworkTrace, Strategy};
use mesorasi_nn::layers::{NormMode, SharedMlp};
use mesorasi_nn::{Graph, Param, VarId};
use mesorasi_pointcloud::PointCloud;
use rand::rngs::StdRng;

/// PointNet++ in either variant.
#[derive(Debug, Clone)]
pub struct PointNetPP {
    name: String,
    input_points: usize,
    /// Set-abstraction modules, ending with the group-all module.
    sa: Vec<Module>,
    /// Feature-propagation MLPs, coarse-to-fine; empty for classification.
    fp: Vec<SharedMlp>,
    /// Classification head (`1 × …`) or per-point segmentation head.
    head: SharedMlp,
    segmentation: bool,
}

impl PointNetPP {
    /// The paper-scale classification network: 1024 points, ModelNet40-style
    /// 40-way output (SSG configuration of \[43\]).
    pub fn classification_paper(rng: &mut StdRng) -> Self {
        let sa = vec![
            Module::new(
                ModuleConfig::offset(
                    "sa1",
                    512,
                    32,
                    NeighborMode::CoordBall { radius: 0.2 },
                    vec![3, 64, 64, 128],
                ),
                NormMode::None,
                rng,
            ),
            Module::new(
                ModuleConfig::offset(
                    "sa2",
                    128,
                    64,
                    NeighborMode::CoordBall { radius: 0.4 },
                    vec![128, 128, 128, 256],
                ),
                NormMode::None,
                rng,
            ),
            Module::new(
                ModuleConfig::global("sa3", vec![256, 256, 512, 1024]),
                NormMode::None,
                rng,
            ),
        ];
        let head = SharedMlp::new(&[1024, 512, 256, 40], NormMode::None, false, rng);
        PointNetPP {
            name: "PointNet++ (c)".into(),
            input_points: 1024,
            sa,
            fp: Vec::new(),
            head,
            segmentation: false,
        }
    }

    /// A small trainable classification instance (128 points).
    pub fn classification_small(classes: usize, rng: &mut StdRng) -> Self {
        let sa = vec![
            Module::new(
                ModuleConfig::offset(
                    "sa1",
                    48,
                    8,
                    NeighborMode::CoordBall { radius: 0.35 },
                    vec![3, 24, 32],
                ),
                NormMode::Feature,
                rng,
            ),
            Module::new(
                ModuleConfig::offset(
                    "sa2",
                    16,
                    8,
                    NeighborMode::CoordBall { radius: 0.7 },
                    vec![32, 48, 64],
                ),
                NormMode::Feature,
                rng,
            ),
            Module::new(ModuleConfig::global("sa3", vec![64, 96, 128]), NormMode::Feature, rng),
        ];
        let head = SharedMlp::new(&[128, 64, classes], NormMode::None, false, rng);
        PointNetPP {
            name: "PointNet++ (c)".into(),
            input_points: 128,
            sa,
            fp: Vec::new(),
            head,
            segmentation: false,
        }
    }

    /// The paper-scale segmentation network: 2048 points, `parts`-way
    /// per-point output.
    pub fn segmentation_paper(parts: usize, rng: &mut StdRng) -> Self {
        let sa = vec![
            Module::new(
                ModuleConfig::offset(
                    "sa1",
                    512,
                    32,
                    NeighborMode::CoordBall { radius: 0.2 },
                    vec![3, 64, 64, 128],
                ),
                NormMode::None,
                rng,
            ),
            Module::new(
                ModuleConfig::offset(
                    "sa2",
                    128,
                    64,
                    NeighborMode::CoordBall { radius: 0.4 },
                    vec![128, 128, 128, 256],
                ),
                NormMode::None,
                rng,
            ),
            Module::new(
                ModuleConfig::global("sa3", vec![256, 256, 512, 1024]),
                NormMode::None,
                rng,
            ),
        ];
        // FP widths: input = coarse output width + skip width at that level.
        let fp = vec![
            SharedMlp::new(&[1024 + 256, 256, 256], NormMode::None, true, rng),
            SharedMlp::new(&[256 + 128, 256, 128], NormMode::None, true, rng),
            SharedMlp::new(&[128 + 3, 128, 128, 128], NormMode::None, true, rng),
        ];
        let head = SharedMlp::new(&[128, 128, parts], NormMode::None, false, rng);
        PointNetPP {
            name: "PointNet++ (s)".into(),
            input_points: 2048,
            sa,
            fp,
            head,
            segmentation: true,
        }
    }

    /// A small trainable segmentation instance (192 points).
    pub fn segmentation_small(parts: usize, rng: &mut StdRng) -> Self {
        let sa = vec![
            Module::new(
                ModuleConfig::offset(
                    "sa1",
                    64,
                    8,
                    NeighborMode::CoordBall { radius: 0.35 },
                    vec![3, 24, 32],
                ),
                NormMode::Feature,
                rng,
            ),
            Module::new(
                ModuleConfig::offset(
                    "sa2",
                    16,
                    8,
                    NeighborMode::CoordBall { radius: 0.7 },
                    vec![32, 48, 64],
                ),
                NormMode::Feature,
                rng,
            ),
            Module::new(ModuleConfig::global("sa3", vec![64, 128]), NormMode::Feature, rng),
        ];
        let fp = vec![
            SharedMlp::new(&[128 + 64, 64], NormMode::Feature, true, rng),
            SharedMlp::new(&[64 + 32, 48], NormMode::Feature, true, rng),
            SharedMlp::new(&[48 + 3, 48], NormMode::Feature, true, rng),
        ];
        let head = SharedMlp::new(&[48, 32, parts], NormMode::None, false, rng);
        PointNetPP {
            name: "PointNet++ (s)".into(),
            input_points: 192,
            sa,
            fp,
            head,
            segmentation: true,
        }
    }

    /// The set-abstraction modules (exposed for per-module experiments).
    pub fn sa_modules(&self) -> &[Module] {
        &self.sa
    }
}

impl PointCloudNetwork for PointNetPP {
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
        let mut states: Vec<ModuleState> = vec![ModuleState::from_cloud(g, cloud)];
        for (i, module) in self.sa.iter().enumerate() {
            let out = runner::run_module(
                g,
                module,
                states.last().expect("states never empty"),
                strategy,
                seed.wrapping_add(i as u64),
            );
            trace.modules.push(out.trace);
            states.push(out.state);
        }

        let logits: VarId = if self.segmentation {
            // Walk back up: fp[j] lifts level (L − j) onto level (L − j − 1).
            let levels = states.len();
            let mut current = states[levels - 1].clone();
            for (j, fp_mlp) in self.fp.iter().enumerate() {
                let fine = &states[levels - 2 - j];
                let (state, fp_trace) = runner::run_feature_propagation(
                    g,
                    fp_mlp,
                    &current,
                    fine,
                    &format!("fp{}", self.fp.len() - j),
                );
                trace.modules.push(fp_trace);
                current = state;
            }
            let (out, head_trace) = runner::run_head(g, &self.head, current.features, "seg-head");
            trace.modules.push(head_trace);
            out
        } else {
            let global = states.last().expect("states never empty").features;
            let (out, head_trace) = runner::run_head(g, &self.head, global, "cls-head");
            trace.modules.push(head_trace);
            out
        };
        NetForward { logits, trace }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        for m in &mut self.sa {
            params.extend(m.mlp.params_mut());
        }
        for fp in &mut self.fp {
            params.extend(fp.params_mut());
        }
        params.extend(self.head.params_mut());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};

    #[test]
    fn classification_small_produces_class_logits() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = PointNetPP::classification_small(10, &mut rng);
        let cloud = sample_shape(ShapeClass::Chair, 128, 1);
        let mut g = Graph::new();
        let out = net.forward(&mut g, &cloud, Strategy::Original, 3);
        assert_eq!(g.value(out.logits).shape(), (1, 10));
        // 3 SA modules + head.
        assert_eq!(out.trace.modules.len(), 4);
    }

    #[test]
    fn segmentation_small_produces_per_point_logits() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = PointNetPP::segmentation_small(6, &mut rng);
        let cloud = sample_shape(ShapeClass::Table, 192, 1);
        let mut g = Graph::new();
        let out = net.forward(&mut g, &cloud, Strategy::Delayed, 3);
        assert_eq!(g.value(out.logits).shape(), (192, 6));
        // 3 SA + 3 FP + head.
        assert_eq!(out.trace.modules.len(), 7);
    }

    #[test]
    fn strategies_share_module_structure() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = PointNetPP::classification_small(5, &mut rng);
        let cloud = sample_shape(ShapeClass::Lamp, 128, 1);
        for strategy in Strategy::ALL {
            let mut g = Graph::new();
            let out = net.forward(&mut g, &cloud, strategy, 3);
            assert_eq!(out.trace.modules.len(), 4, "{strategy}");
            assert_eq!(g.value(out.logits).shape(), (1, 5));
        }
    }

    #[test]
    fn delayed_uses_fewer_macs_than_original() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = PointNetPP::classification_small(5, &mut rng);
        let cloud = sample_shape(ShapeClass::Vase, 128, 1);
        let mut g1 = Graph::new();
        let orig = net.forward(&mut g1, &cloud, Strategy::Original, 3);
        let mut g2 = Graph::new();
        let del = net.forward(&mut g2, &cloud, Strategy::Delayed, 3);
        assert!(del.trace.mlp_macs() < orig.trace.mlp_macs());
    }

    #[test]
    fn gradients_reach_first_module() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = PointNetPP::classification_small(4, &mut rng);
        let cloud = sample_shape(ShapeClass::Cone, 128, 1);
        let mut g = Graph::new();
        let out = net.forward(&mut g, &cloud, Strategy::Delayed, 3);
        let loss = g.softmax_cross_entropy(out.logits, vec![2]);
        g.backward(loss);
        let w = &net.sa[0].mlp.first_layer().weight;
        assert!(g.param_grad(w.id()).is_some());
    }

    #[test]
    fn paper_scale_dimensions() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = PointNetPP::classification_paper(&mut rng);
        assert_eq!(net.input_points(), 1024);
        assert_eq!(net.sa_modules()[0].config.n_out, 512);
        assert_eq!(net.sa_modules()[0].config.k, 32);
        assert_eq!(net.sa_modules()[0].config.m_out(), 128);
    }
}
