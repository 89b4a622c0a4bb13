//! F-PointNet \[41\]: frustum-based 3-D object detection.
//!
//! The pipeline: a 2-D detector proposes a frustum (simulated here by
//! `mesorasi-pointcloud::lidar::Scene::frustum`); a PointNet++-style
//! network segments the frustum's points into object/background; a T-Net
//! regresses the object center from the masked points; and a box-estimation
//! network regresses the 3-D box parameters. Only the segmentation network
//! touches aggregation order; the T-Net and box network consume the masked
//! subset.
//!
//! Simplifications vs \[41\] (recorded in `DESIGN.md`): the mask used to
//! crop points for the T-Net/box network is the ground-truth mask during
//! both training and tracing (the original uses it during training only),
//! and the box parameterization is a single regression head (no
//! heading/size bins).

use crate::{NetForward, PointCloudNetwork};
use mesorasi_core::module::{Module, ModuleConfig, NeighborMode};
use mesorasi_core::runner::{self, ModuleState};
use mesorasi_core::{NetworkTrace, Strategy};
use mesorasi_nn::layers::{NormMode, SharedMlp};
use mesorasi_nn::{Graph, Param, VarId};
use mesorasi_pointcloud::PointCloud;
use rand::rngs::StdRng;

/// Output of the full detection pipeline.
#[derive(Debug)]
pub struct DetectionForward {
    /// Per-point object/background logits, `N × 2`.
    pub seg_logits: VarId,
    /// T-Net center residual, `1 × 3`.
    pub center: VarId,
    /// Box regression `1 × 7`: center residual (3), size residual (3),
    /// heading (1).
    pub box_params: VarId,
    /// The recorded workload.
    pub trace: NetworkTrace,
}

/// Seeds the box head's output bias with a car-sized prior
/// `(w ≈ h ≈ 1.5 m)` so early training predicts plausible boxes — the same
/// role the size-cluster anchors play in \[41\].
fn init_box_prior(head: &mut SharedMlp) {
    let bias = &mut head.last_layer_mut().bias;
    debug_assert_eq!(bias.value.cols(), 7);
    bias.value[(0, 3)] = 1.5;
    bias.value[(0, 4)] = 1.5;
}

/// The F-PointNet pipeline.
#[derive(Debug, Clone)]
pub struct FPointNet {
    input_points: usize,
    masked_points: usize,
    seg_sa: Vec<Module>,
    seg_fp: Vec<SharedMlp>,
    seg_head: SharedMlp,
    tnet: Module,
    tnet_head: SharedMlp,
    box_sa: Vec<Module>,
    box_head: SharedMlp,
}

impl FPointNet {
    /// Paper-scale pipeline: 1024-point frustums, 512 masked points.
    pub fn paper(rng: &mut StdRng) -> Self {
        let seg_sa = vec![
            Module::new(
                ModuleConfig::offset(
                    "seg-sa1",
                    512,
                    64,
                    NeighborMode::CoordBall { radius: 0.25 },
                    vec![3, 64, 64, 128],
                ),
                NormMode::None,
                rng,
            ),
            Module::new(
                ModuleConfig::offset(
                    "seg-sa2",
                    128,
                    64,
                    NeighborMode::CoordBall { radius: 0.45 },
                    vec![128, 128, 256],
                ),
                NormMode::None,
                rng,
            ),
            Module::new(
                ModuleConfig::global("seg-sa3", vec![256, 256, 512, 1024]),
                NormMode::None,
                rng,
            ),
        ];
        let seg_fp = vec![
            SharedMlp::new(&[1024 + 256, 512, 512], NormMode::None, true, rng),
            SharedMlp::new(&[512 + 128, 512, 256], NormMode::None, true, rng),
            SharedMlp::new(&[256 + 3, 256, 128], NormMode::None, true, rng),
        ];
        let seg_head = SharedMlp::new(&[128, 128, 2], NormMode::None, false, rng);
        let tnet =
            Module::new(ModuleConfig::global("tnet", vec![3, 128, 256, 512]), NormMode::None, rng);
        let tnet_head = SharedMlp::new(&[512, 256, 3], NormMode::None, false, rng);
        let box_sa = vec![
            Module::new(
                ModuleConfig::offset(
                    "box-sa1",
                    128,
                    32,
                    NeighborMode::CoordBall { radius: 0.3 },
                    vec![3, 128, 128, 256],
                ),
                NormMode::None,
                rng,
            ),
            Module::new(ModuleConfig::global("box-sa2", vec![256, 256, 512]), NormMode::None, rng),
        ];
        let mut box_head = SharedMlp::new(&[512, 256, 7], NormMode::None, false, rng);
        init_box_prior(&mut box_head);
        FPointNet {
            input_points: 1024,
            masked_points: 512,
            seg_sa,
            seg_fp,
            seg_head,
            tnet,
            tnet_head,
            box_sa,
            box_head,
        }
    }

    /// Small trainable pipeline: 128-point frustums, 32 masked points.
    pub fn small(rng: &mut StdRng) -> Self {
        let seg_sa = vec![
            Module::new(
                ModuleConfig::offset(
                    "seg-sa1",
                    48,
                    8,
                    NeighborMode::CoordBall { radius: 0.35 },
                    vec![3, 24, 32],
                ),
                NormMode::Feature,
                rng,
            ),
            Module::new(ModuleConfig::global("seg-sa2", vec![32, 64]), NormMode::Feature, rng),
        ];
        let seg_fp = vec![
            SharedMlp::new(&[64 + 32, 48], NormMode::Feature, true, rng),
            SharedMlp::new(&[48 + 3, 32], NormMode::Feature, true, rng),
        ];
        let seg_head = SharedMlp::new(&[32, 2], NormMode::None, false, rng);
        let tnet =
            Module::new(ModuleConfig::global("tnet", vec![3, 32, 64]), NormMode::Feature, rng);
        let tnet_head = SharedMlp::new(&[64, 3], NormMode::None, false, rng);
        let box_sa = vec![
            Module::new(
                ModuleConfig::offset(
                    "box-sa1",
                    16,
                    8,
                    NeighborMode::CoordBall { radius: 0.5 },
                    vec![3, 32, 48],
                ),
                NormMode::Feature,
                rng,
            ),
            Module::new(ModuleConfig::global("box-sa2", vec![48, 64]), NormMode::Feature, rng),
        ];
        let mut box_head = SharedMlp::new(&[64, 7], NormMode::None, false, rng);
        init_box_prior(&mut box_head);
        FPointNet {
            input_points: 128,
            masked_points: 32,
            seg_sa,
            seg_fp,
            seg_head,
            tnet,
            tnet_head,
            box_sa,
            box_head,
        }
    }

    /// Indices of the `masked_points` points to crop for the T-Net and box
    /// network: foreground (label > 0) points, resampled with repetition to
    /// the fixed size; falls back to all points when no label is foreground.
    pub fn mask_indices(&self, cloud: &PointCloud) -> Vec<usize> {
        Self::mask_indices_for(self.masked_points, cloud)
    }

    fn mask_indices_for(masked_points: usize, cloud: &PointCloud) -> Vec<usize> {
        let mut out = Vec::new();
        Self::mask_indices_into(masked_points, cloud, &mut out);
        out
    }

    /// [`FPointNet::mask_indices_for`] writing into reusable storage. The
    /// foreground pool is accumulated directly in `out` and then resampled
    /// with repetition by reading `out`'s own earlier entries (which *are*
    /// the pool), so a warm buffer derives the mask with zero allocations.
    fn mask_indices_into(masked_points: usize, cloud: &PointCloud, out: &mut Vec<usize>) {
        out.clear();
        if let Some(labels) = cloud.labels() {
            out.extend((0..cloud.len()).filter(|&i| labels[i] > 0));
        }
        if out.is_empty() {
            out.extend(0..cloud.len());
        }
        let pool_len = out.len();
        if pool_len >= masked_points {
            out.truncate(masked_points);
        } else {
            for i in pool_len..masked_points {
                let repeat = out[i % pool_len];
                out.push(repeat);
            }
        }
    }

    /// The masked, recentered crop the T-Net and box network consume — a
    /// pure function of the sample cloud, which is what lets the inference
    /// plan re-derive it per sample.
    fn masked_centered(masked_points: usize, cloud: &PointCloud) -> PointCloud {
        let mut out = PointCloud::new();
        Self::masked_centered_into(masked_points, cloud, &mut Vec::new(), &mut out);
        out
    }

    /// [`FPointNet::masked_centered`] writing into caller-owned buffers —
    /// the streaming engine's per-frame derivation, allocation-free once
    /// `mask` and `out` are warm. Identical operation order to the
    /// allocating form (select, centroid, recenter), so the two derive
    /// bit-identical crops.
    fn masked_centered_into(
        masked_points: usize,
        cloud: &PointCloud,
        mask: &mut Vec<usize>,
        out: &mut PointCloud,
    ) {
        Self::mask_indices_into(masked_points, cloud, mask);
        cloud.select_into(mask, out);
        let centroid = out.centroid();
        for p in out.points_mut() {
            *p -= centroid;
        }
    }

    /// Runs the complete detection pipeline.
    pub fn forward_detection(
        &self,
        g: &mut Graph,
        cloud: &PointCloud,
        strategy: Strategy,
        seed: u64,
    ) -> DetectionForward {
        let mut trace = NetworkTrace::new("F-PointNet", strategy);

        // --- instance segmentation over the frustum -----------------------
        let mut states: Vec<ModuleState> = vec![ModuleState::from_cloud(g, cloud)];
        for (i, module) in self.seg_sa.iter().enumerate() {
            let out = runner::run_module(
                g,
                module,
                states.last().expect("non-empty"),
                strategy,
                seed.wrapping_add(i as u64),
            );
            trace.modules.push(out.trace);
            states.push(out.state);
        }
        let levels = states.len();
        let mut current = states[levels - 1].clone();
        for (j, fp_mlp) in self.seg_fp.iter().enumerate() {
            let fine = &states[levels - 2 - j];
            let (state, fp_trace) = runner::run_feature_propagation(
                g,
                fp_mlp,
                &current,
                fine,
                &format!("seg-fp{}", self.seg_fp.len() - j),
            );
            trace.modules.push(fp_trace);
            current = state;
        }
        let (seg_logits, head_trace) =
            runner::run_head(g, &self.seg_head, current.features, "seg-head");
        trace.modules.push(head_trace);

        // --- mask & recenter ----------------------------------------------
        let masked_points = self.masked_points;
        let centered = Self::masked_centered(masked_points, cloud);
        // The derivation owns its mask scratch (one per compiled plan);
        // warm streamed frames re-derive the crop without allocating.
        let mask_scratch = std::sync::Mutex::new(Vec::new());
        let masked_state = ModuleState::from_cloud_derived_into(
            g,
            &centered,
            std::sync::Arc::new(move |c: &PointCloud, out: &mut PointCloud| {
                let mut mask =
                    mask_scratch.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                Self::masked_centered_into(masked_points, c, &mut mask, out);
            }),
        );

        // --- T-Net ----------------------------------------------------------
        let tnet_out =
            runner::run_module(g, &self.tnet, &masked_state, strategy, seed.wrapping_add(100));
        trace.modules.push(tnet_out.trace);
        let (center, tnet_head_trace) =
            runner::run_head(g, &self.tnet_head, tnet_out.state.features, "tnet-head");
        trace.modules.push(tnet_head_trace);

        // --- box estimation --------------------------------------------------
        let mut box_state = masked_state;
        for (i, module) in self.box_sa.iter().enumerate() {
            let out = runner::run_module(
                g,
                module,
                &box_state,
                strategy,
                seed.wrapping_add(200 + i as u64),
            );
            trace.modules.push(out.trace);
            box_state = out.state;
        }
        let (box_params, box_head_trace) =
            runner::run_head(g, &self.box_head, box_state.features, "box-head");
        trace.modules.push(box_head_trace);

        DetectionForward { seg_logits, center, box_params, trace }
    }
}

impl PointCloudNetwork for FPointNet {
    fn name(&self) -> &str {
        "F-PointNet"
    }

    fn input_points(&self) -> usize {
        self.input_points
    }

    fn domain(&self) -> crate::Domain {
        crate::Domain::Detection
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
        let det = self.forward_detection(g, cloud, strategy, seed);
        NetForward { logits: det.seg_logits, trace: det.trace }
    }

    /// Detection sessions keep both pipeline heads: `[seg_logits,
    /// box_params]`, the order [`crate::session::Boxes3D`] expects.
    fn session_outputs(
        &self,
        g: &mut Graph,
        cloud: &PointCloud,
        strategy: Strategy,
        seed: u64,
    ) -> Vec<VarId> {
        let det = self.forward_detection(g, cloud, strategy, seed);
        vec![det.seg_logits, det.box_params]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        for m in &mut self.seg_sa {
            params.extend(m.mlp.params_mut());
        }
        for fp in &mut self.seg_fp {
            params.extend(fp.params_mut());
        }
        params.extend(self.seg_head.params_mut());
        params.extend(self.tnet.mlp.params_mut());
        params.extend(self.tnet_head.params_mut());
        for m in &mut self.box_sa {
            params.extend(m.mlp.params_mut());
        }
        params.extend(self.box_head.params_mut());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesorasi_pointcloud::{Point3, PointCloud};

    /// A labelled synthetic frustum: background plane + a box of object
    /// points labelled 1.
    fn toy_frustum(n: usize, seed: u64) -> PointCloud {
        use rand::Rng;
        let mut rng = mesorasi_pointcloud::seeded_rng(seed);
        let mut cloud = PointCloud::new();
        for i in 0..n {
            if i % 3 == 0 {
                // object points in a tight box
                cloud.push_labelled(
                    Point3::new(
                        0.3 + rng.gen_range(-0.1f32..0.1),
                        rng.gen_range(-0.1..0.1),
                        rng.gen_range(-0.1..0.1),
                    ),
                    1,
                );
            } else {
                cloud.push_labelled(
                    Point3::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0), -0.5),
                    0,
                );
            }
        }
        cloud
    }

    #[test]
    fn detection_pipeline_shapes() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = FPointNet::small(&mut rng);
        let cloud = toy_frustum(128, 1);
        let mut g = Graph::new();
        let det = net.forward_detection(&mut g, &cloud, Strategy::Delayed, 3);
        assert_eq!(g.value(det.seg_logits).shape(), (128, 2));
        assert_eq!(g.value(det.center).shape(), (1, 3));
        assert_eq!(g.value(det.box_params).shape(), (1, 7));
    }

    #[test]
    fn mask_prefers_foreground_points() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = FPointNet::small(&mut rng);
        let cloud = toy_frustum(128, 2);
        let mask = net.mask_indices(&cloud);
        assert_eq!(mask.len(), 32);
        let labels = cloud.labels().unwrap();
        assert!(mask.iter().all(|&i| labels[i] == 1));
    }

    #[test]
    fn mask_falls_back_without_labels() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = FPointNet::small(&mut rng);
        let cloud = PointCloud::from_points(vec![Point3::ORIGIN; 40]);
        let mask = net.mask_indices(&cloud);
        assert_eq!(mask.len(), 32);
    }

    #[test]
    fn mask_into_matches_reference_resampling() {
        // Fewer foreground points than the mask size: the in-place
        // resampling-with-repetition must match `pool[i % pool.len()]`.
        let mut cloud = PointCloud::new();
        for i in 0..40u32 {
            cloud.push_labelled(Point3::new(i as f32, 0.0, 0.0), u32::from(i % 7 == 0));
        }
        let pool: Vec<usize> = (0..40).filter(|i| i % 7 == 0).collect();
        let want: Vec<usize> = (0..32).map(|i| pool[i % pool.len()]).collect();
        assert_eq!(FPointNet::mask_indices_for(32, &cloud), want);
        // The warm buffer reproduces the mask without growing.
        let mut buf = Vec::new();
        FPointNet::mask_indices_into(32, &cloud, &mut buf);
        assert_eq!(buf, want);
        let cap = buf.capacity();
        FPointNet::mask_indices_into(32, &cloud, &mut buf);
        assert_eq!(buf, want);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn masked_centered_into_matches_allocating_form() {
        let cloud = toy_frustum(128, 8);
        let want = FPointNet::masked_centered(32, &cloud);
        let mut mask = Vec::new();
        let mut out = PointCloud::new();
        FPointNet::masked_centered_into(32, &cloud, &mut mask, &mut out);
        assert!(out.content_eq(&want), "in-place crop must be bit-identical");
    }

    #[test]
    fn trace_covers_all_three_subnets() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = FPointNet::small(&mut rng);
        let cloud = toy_frustum(128, 3);
        let mut g = Graph::new();
        let det = net.forward_detection(&mut g, &cloud, Strategy::Original, 3);
        let names: Vec<&str> = det.trace.modules.iter().map(|m| m.name.as_str()).collect();
        assert!(names.iter().any(|n| n.starts_with("seg-sa")));
        assert!(names.iter().any(|n| n.starts_with("tnet")));
        assert!(names.iter().any(|n| n.starts_with("box-")));
    }

    #[test]
    fn gradients_reach_box_head_and_seg_net() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let net = FPointNet::small(&mut rng);
        let cloud = toy_frustum(128, 4);
        let mut g = Graph::new();
        let det = net.forward_detection(&mut g, &cloud, Strategy::Delayed, 3);
        let labels: Vec<u32> = cloud.labels().unwrap().iter().map(|&l| l.min(1)).collect();
        let seg_loss = g.softmax_cross_entropy(det.seg_logits, labels);
        let target = g.input(mesorasi_tensor::Matrix::zeros(1, 7));
        let box_loss = g.mse(det.box_params, target);
        let total = g.add(seg_loss, box_loss);
        g.backward(total);
        assert!(g.param_grad(net.seg_sa[0].mlp.first_layer().weight.id()).is_some());
        assert!(g.param_grad(net.box_head.first_layer().weight.id()).is_some());
    }
}
