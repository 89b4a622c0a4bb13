//! The five workloads: what runs, on which inputs, and the tape oracle
//! every output is checked against.

use mesorasi::core::NetworkTrace;
use mesorasi::nn::Graph;
use mesorasi::pointcloud::shapes::{sample_shape, ShapeClass};
use mesorasi::pointcloud::{io, Point3};
use mesorasi::tensor::Matrix;
use mesorasi::{NetworkKind, PointCloud, Session, SessionBuilder, Strategy};
use std::time::Instant;

/// Where a workload's frames come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Input {
    /// One synthetic CAD-style object per frame, unit-sphere normalized.
    Shapes,
    /// One multi-object scene per frame: synthetic objects on a ground
    /// grid, the whole scene unit-sphere normalized.
    Scenes,
}

/// Open-loop traffic through the TCP server instead of a closed loop over
/// one `FrameStream`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Serve {
    /// Client connections, each with its own generator.
    pub connections: usize,
    /// Frames per second offered on each connection.
    pub rate_hz: f64,
    /// Clouds each connection keeps resending (sample-cache hits).
    pub hot_set: usize,
    /// Every `fresh_every`-th frame of a connection is a cloud never sent
    /// before (a sample-cache miss).
    pub fresh_every: usize,
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Network served.
    pub kind: NetworkKind,
    /// Execution order of N, A and F.
    pub strategy: Strategy,
    /// Points per frame.
    pub points: usize,
    /// Distinct frames the closed loop cycles through. `FrameStream`
    /// bypasses the sample cache, so a cycled pool is still all-fresh work.
    pub pool: usize,
    /// Frame source.
    pub input: Input,
    /// `Some` for the served open-loop workload.
    pub serve: Option<Serve>,
    /// Paper-scale network (false only under `--smoke`).
    pub paper_scale: bool,
    /// Radii of the network's ball queries in trace order; `SearchOp`
    /// records shapes only, and the search replay needs a radius.
    pub ball_radii: &'static [f32],
}

/// Workload names in reporting order, as `BENCHMARK.json` must list them.
#[cfg(test)]
pub const NAMES: [&str; 5] =
    ["pnpp_delayed", "pnpp_original", "dgcnn_delayed", "scene_32k", "serve_mixed"];

impl Spec {
    /// The workload called `name`; `smoke` swaps in the small-scale
    /// networks and tiny pools so a run takes well under two seconds.
    pub fn named(name: &str, smoke: bool) -> Option<Spec> {
        use NetworkKind::{DgcnnClassification, PointNetPPClassification, PointNetPPSegmentation};
        let pnpp = Spec {
            name: "pnpp_delayed",
            kind: PointNetPPClassification,
            strategy: Strategy::Delayed,
            points: if smoke { 128 } else { 1024 },
            pool: if smoke { 4 } else { 16 },
            input: Input::Shapes,
            serve: None,
            paper_scale: !smoke,
            ball_radii: if smoke { &[0.35, 0.7] } else { &[0.2, 0.4] },
        };
        Some(match name {
            "pnpp_delayed" => pnpp,
            "pnpp_original" => Spec { name: "pnpp_original", strategy: Strategy::Original, ..pnpp },
            "dgcnn_delayed" => Spec {
                name: "dgcnn_delayed",
                kind: DgcnnClassification,
                pool: if smoke { 3 } else { 8 },
                ball_radii: &[],
                ..pnpp
            },
            "scene_32k" => Spec {
                name: "scene_32k",
                kind: PointNetPPSegmentation,
                points: if smoke { 1024 } else { 32768 },
                pool: if smoke { 2 } else { 4 },
                input: Input::Scenes,
                ..pnpp
            },
            "serve_mixed" => Spec {
                name: "serve_mixed",
                serve: Some(Serve { connections: 2, rate_hz: 25.0, hot_set: 4, fresh_every: 4 }),
                ..pnpp
            },
            _ => return None,
        })
    }

    /// True when the network's kNN searches run in feature space (DGCNN's
    /// dynamic graph), which `SearchOp` cannot tell apart from coordinate
    /// kNN when the feature width happens to be 3.
    pub fn feature_search(&self) -> bool {
        self.kind == NetworkKind::DgcnnClassification
    }

    /// Engine-pool size: one engine per concurrent caller.
    pub fn workers(&self) -> usize {
        self.serve.map_or(1, |s| s.connections)
    }

    /// A session builder for this workload's network and strategy.
    pub fn builder(&self) -> SessionBuilder {
        let b = SessionBuilder::from_kind(self.kind).strategy(self.strategy);
        if self.paper_scale {
            b.paper_scale()
        } else {
            b
        }
    }
}

/// SplitMix64 step: decorrelates the per-frame seeds derived from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One input frame: the encoded bytes a sensor would hand over, and the
/// cloud they decode to (what the oracle and the wire path consume).
#[derive(Debug, Clone)]
pub struct Frame {
    /// `.xyz` text.
    pub xyz: Vec<u8>,
    /// `read_xyz(xyz)`.
    pub cloud: PointCloud,
}

/// Generates frame number `index` of the stream `--seed` names.
pub fn generate_frame(spec: &Spec, seed: u64, index: usize) -> Frame {
    let s = mix(seed, index as u64);
    let raw = match spec.input {
        Input::Shapes => sample_shape(ShapeClass::ALL[(s % 40) as usize], spec.points, s >> 8),
        Input::Scenes => {
            // Objects on a jittered 4-wide ground grid, 2.5 object radii
            // apart, then the whole scene scaled into the unit sphere.
            let objects = if spec.paper_scale { 16 } else { 4 };
            let per_object = spec.points / objects;
            let mut points = Vec::with_capacity(spec.points);
            for j in 0..objects {
                let o = mix(s, j as u64);
                let n = if j + 1 == objects { spec.points - points.len() } else { per_object };
                let shape = sample_shape(ShapeClass::ALL[(o % 40) as usize], n, o >> 8);
                let jitter = |bits: u64| (bits % 1024) as f32 / 1024.0 - 0.5;
                let (dx, dy) = (
                    (j % 4) as f32 * 2.5 + jitter(o >> 16),
                    (j / 4) as f32 * 2.5 + jitter(o >> 32),
                );
                points.extend(shape.iter().map(|p| Point3::new(p.x + dx, p.y + dy, p.z)));
            }
            let mut cloud = PointCloud::from_points(points);
            cloud.normalize_to_unit_sphere();
            cloud
        }
    };
    let mut xyz = Vec::with_capacity(raw.len() * 36);
    io::write_xyz(&raw, &mut xyz).expect("writing to a Vec cannot fail");
    let cloud = io::read_xyz(xyz.as_slice()).expect("generated .xyz text decodes");
    Frame { xyz, cloud }
}

/// FNV-1a over the output's shape and the bit patterns of its values, one
/// 32-bit word per step.
pub fn checksum(out: &Matrix) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for word in [out.rows() as u64, out.cols() as u64] {
        h = (h ^ word).wrapping_mul(PRIME);
    }
    for v in out.as_slice() {
        h = (h ^ u64::from(v.to_bits())).wrapping_mul(PRIME);
    }
    h
}

/// What the tape says a frame's output is, plus the workload it recorded.
#[derive(Debug)]
pub struct Reference {
    /// [`checksum`] of the tape's logits.
    pub checksum: u64,
    /// False when the tape itself produced a NaN or infinity.
    pub finite: bool,
    /// The operators the forward executed, with the real neighbor tables.
    pub trace: NetworkTrace,
}

/// Runs the autograd tape on `cloud` with the session's own network,
/// strategy and sampling seed.
pub fn reference(session: &Session, cloud: &PointCloud) -> Reference {
    let mut g = Graph::new();
    let fwd = session.network().forward(&mut g, cloud, session.strategy(), session.seed());
    let logits = g.value(fwd.logits);
    Reference { checksum: checksum(logits), finite: logits.is_finite(), trace: fwd.trace }
}

/// [`reference`] for every cloud, split across `threads` scoped threads
/// (the tape is sequential per forward). Returns the references in input
/// order and the wall time spent, which is reported as `oracle_s` and kept
/// out of `setup_s`.
pub fn oracle(session: &Session, clouds: &[&PointCloud], threads: usize) -> (Vec<Reference>, f64) {
    let start = Instant::now();
    let chunk = clouds.len().div_ceil(threads.max(1)).max(1);
    let refs = std::thread::scope(|scope| {
        let handles: Vec<_> = clouds
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    mesorasi::par::with_threads(1, || {
                        part.iter().map(|c| reference(session, c)).collect::<Vec<_>>()
                    })
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("oracle thread")).collect()
    });
    (refs, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_resolves_in_both_scales() {
        for name in NAMES {
            for smoke in [false, true] {
                let spec = Spec::named(name, smoke).expect("known workload");
                assert_eq!(spec.name, name);
                assert_eq!(spec.paper_scale, !smoke);
            }
        }
        assert!(Spec::named("nope", false).is_none());
    }

    #[test]
    fn frames_depend_on_the_seed_and_nothing_else() {
        for name in ["pnpp_delayed", "scene_32k"] {
            let spec = Spec::named(name, true).expect("known workload");
            let a = generate_frame(&spec, 5, 2);
            assert_eq!(a.cloud.len(), spec.points);
            assert_eq!(a.xyz, generate_frame(&spec, 5, 2).xyz, "{name}: same seed, same bytes");
            assert_ne!(a.xyz, generate_frame(&spec, 6, 2).xyz, "{name}: seed changes frames");
            assert_ne!(a.xyz, generate_frame(&spec, 5, 3).xyz, "{name}: frames differ");
            assert!(a.cloud.labels().is_none());
        }
    }

    #[test]
    fn checksum_sees_shape_and_sign_bits() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        assert_eq!(checksum(&a), checksum(&a.clone()));
        assert_ne!(checksum(&a), checksum(&Matrix::from_vec(2, 1, vec![0.0, 1.0])));
        assert_ne!(checksum(&a), checksum(&Matrix::from_vec(1, 2, vec![-0.0, 1.0])));
    }

    #[test]
    fn the_session_matches_its_own_tape_oracle() {
        let spec = Spec::named("dgcnn_delayed", true).expect("known workload");
        let session = spec.builder().workers(1).build();
        let frames: Vec<Frame> = (0..3).map(|i| generate_frame(&spec, 9, i)).collect();
        let clouds: Vec<&PointCloud> = frames.iter().map(|f| &f.cloud).collect();
        let (refs, _) = oracle(&session, &clouds, 2);
        assert_eq!(refs.len(), 3);
        for (frame, r) in frames.iter().zip(&refs) {
            assert!(r.finite);
            assert_eq!(checksum(session.infer(&frame.cloud).logits()), r.checksum);
            assert!(r.trace.modules.iter().any(|m| m.search.is_some()));
        }
    }
}
