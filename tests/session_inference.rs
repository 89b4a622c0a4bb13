//! Session equivalence: the inference API's correctness oracle.
//!
//! A [`Session`] (engine pool over `mesorasi_core::engine` +
//! `mesorasi_nn::plan`) must reproduce `Graph`-based forwards
//! *bit-identically* — same kernels, same search code, same accumulation
//! orders — for every network, every strategy, every thread count, on
//! samples it never recorded on, through every entry point (`infer`,
//! `infer_batch`, `frames`), and from concurrent callers sharing one
//! `Arc<Session>`.

use mesorasi::prelude::*;
use mesorasi::tensor::Matrix;
// `proptest::prelude` also exports a `Strategy` trait; ours wins explicitly.
use mesorasi::Strategy;
use proptest::prelude::*;
use std::sync::Arc;

fn tape_logits(
    net: &dyn PointCloudNetwork,
    cloud: &PointCloud,
    strategy: Strategy,
    seed: u64,
) -> Matrix {
    let mut g = Graph::new();
    let out = net.forward(&mut g, cloud, strategy, seed);
    g.value(out.logits).clone()
}

/// The acceptance matrix: all 7 networks × 3 strategies × {1, 2, 8}
/// threads, single and batched inference, bit-identical to the tape on
/// both the recording sample and an unseen one — with the plan's
/// `MatMul → AddBias → Relu?` chains running as fused linear steps.
#[test]
fn all_seven_networks_bit_identical_at_every_thread_count() {
    let mut rng = seeded_rng(42);
    for kind in NetworkKind::ALL {
        let net = kind.build_small(5, &mut rng);
        for strategy in Strategy::ALL {
            // Cloud 0 is the recording sample; cloud 1 exercises replay
            // with re-derived neighbor structure on unseen data.
            let clouds: Vec<PointCloud> = [1u64, 2]
                .iter()
                .map(|&s| sample_shape(ShapeClass::Airplane, net.input_points(), s))
                .collect();
            let expected: Vec<Matrix> =
                clouds.iter().map(|c| tape_logits(net.as_ref(), c, strategy, 7)).collect();
            let session = SessionBuilder::from_network_ref(net.as_ref())
                .strategy(strategy)
                .seed(7)
                .workers(2)
                .build();
            for threads in [1usize, 2, 8] {
                mesorasi_par::with_threads(threads, || {
                    for (cloud, want) in clouds.iter().zip(&expected) {
                        assert_eq!(
                            session.infer(cloud).logits(),
                            want,
                            "{} / {strategy} / {threads}t: infer != tape",
                            kind.name()
                        );
                    }
                    // The plan runs its linear layers as fused steps; the
                    // tape, the oracle, does not.
                    let stats = session.arena_stats(net.input_points()).expect("plan compiled");
                    assert!(stats.arena.fused > 0, "{} / {strategy}: no fused layer", kind.name());
                    let batched = session.infer_batch(&clouds);
                    for (out, want) in batched.iter().zip(&expected) {
                        assert_eq!(
                            out.logits(),
                            want,
                            "{} / {strategy} / {threads}t: infer_batch != tape",
                            kind.name()
                        );
                    }
                });
            }
        }
    }
}

/// Frame-sequence mode: the streaming path (NIT cache bypassed, search
/// indices warm-started from the previous frame, searches chunked across
/// the pool by the cost model) must stay bit-identical to the tape for
/// every network on every frame of an unseen sequence, at {1, 2, 8} pool
/// threads — the whole result, not only the logits, equal across them.
#[test]
fn all_seven_networks_framed_streams_bit_identical_to_tape() {
    let mut rng = seeded_rng(23);
    for kind in NetworkKind::ALL {
        let net = kind.build_small(5, &mut rng);
        let frames: Vec<PointCloud> =
            (10u64..14).map(|s| sample_shape(ShapeClass::Chair, net.input_points(), s)).collect();
        let expected: Vec<Matrix> =
            frames.iter().map(|c| tape_logits(net.as_ref(), c, Strategy::Delayed, 7)).collect();
        let mut sequential: Option<Vec<Inference>> = None;
        for threads in [1usize, 2, 8] {
            let framed: Vec<Inference> = mesorasi_par::with_threads(threads, || {
                let session =
                    SessionBuilder::from_network_ref(net.as_ref()).seed(7).workers(1).build();
                let mut stream = session.frames();
                let framed: Vec<Inference> = frames.iter().map(|c| stream.infer(c)).collect();
                for (i, (out, want)) in framed.iter().zip(&expected).enumerate() {
                    assert_eq!(out.logits(), want, "{} {threads}t frame {i} != tape", kind.name());
                }
                // A second pass over the same sequence reuses all warm search
                // state and must reproduce the results exactly.
                let again: Vec<Inference> = frames.iter().map(|c| stream.infer(c)).collect();
                assert_eq!(again, framed, "{} {threads}t: warm stream drifted", kind.name());
                framed
            });
            match &sequential {
                None => sequential = Some(framed),
                Some(want) => assert_eq!(&framed, want, "{} {threads}t != 1t", kind.name()),
            }
        }
    }
}

#[test]
fn sessions_return_the_domain_typed_variant() {
    let mut rng = seeded_rng(17);
    for kind in NetworkKind::ALL {
        let net = kind.build_small(5, &mut rng);
        let session = SessionBuilder::from_network_ref(net.as_ref()).build();
        assert_eq!(session.domain(), kind.domain());
        let cloud = sample_shape(ShapeClass::Table, net.input_points(), 3);
        let out = session.infer(&cloud);
        assert_eq!(out.domain(), kind.domain(), "{}", kind.name());
        match kind.domain() {
            Domain::Classification => {
                let logits = out.into_classification();
                assert_eq!(logits.matrix().shape(), (1, 5));
            }
            Domain::Segmentation => {
                let labels = out.into_segmentation();
                assert_eq!(labels.len(), cloud.len());
                assert_eq!(labels.labels().len(), cloud.len());
            }
            Domain::Detection => {
                let boxes = out.into_detection();
                assert_eq!(boxes.seg_logits().rows(), cloud.len());
                assert_eq!(boxes.params().shape(), (1, 7));
            }
        }
    }
}

#[test]
fn detection_sessions_match_tape_outputs_on_labelled_frustums() {
    let mut rng = seeded_rng(5);
    let net = mesorasi::networks::fpointnet::FPointNet::small(&mut rng);
    let frustums = mesorasi::networks::datasets::frustums(3, 128, 9);
    for strategy in Strategy::ALL {
        let session = SessionBuilder::from_network_ref(&net).strategy(strategy).seed(13).build();
        for ex in frustums.iter().take(4) {
            let mut g = Graph::new();
            let det = net.forward_detection(&mut g, &ex.cloud, strategy, 13);
            let boxes = session.infer(&ex.cloud).into_detection();
            assert_eq!(boxes.seg_logits(), g.value(det.seg_logits), "{strategy}: seg differs");
            assert_eq!(boxes.params(), g.value(det.box_params), "{strategy}: box differs");
        }
    }
}

/// Two threads hammering one `Arc<Session>` — single and batched calls
/// interleaved — must each see results identical to the tape reference.
#[test]
fn concurrent_callers_sharing_a_session_stay_deterministic() {
    let mut rng = seeded_rng(2);
    let net = NetworkKind::DgcnnClassification.build_small(4, &mut rng);
    let clouds: Vec<PointCloud> =
        (0..6).map(|s| sample_shape(ShapeClass::Car, net.input_points(), s)).collect();
    let expected: Vec<Matrix> =
        clouds.iter().map(|c| tape_logits(net.as_ref(), c, Strategy::Delayed, 7)).collect();
    let session = Arc::new(
        SessionBuilder::from_network_ref(net.as_ref())
            .strategy(Strategy::Delayed)
            .seed(7)
            .workers(2)
            .build(),
    );
    let per_thread: Vec<Vec<Matrix>> = std::thread::scope(|scope| {
        (0..2)
            .map(|t| {
                let session = Arc::clone(&session);
                let clouds = &clouds;
                scope.spawn(move || {
                    let mut got = Vec::new();
                    for round in 0..2 {
                        got = if (t + round) % 2 == 0 {
                            clouds.iter().map(|c| session.infer(c).logits().clone()).collect()
                        } else {
                            session.infer_batch(clouds).iter().map(|o| o.logits().clone()).collect()
                        };
                    }
                    got
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("inference thread"))
            .collect()
    });
    for (t, got) in per_thread.iter().enumerate() {
        assert_eq!(got, &expected, "thread {t} saw non-reference results");
    }
}

#[test]
fn frame_stream_yields_results_in_input_order() {
    let session =
        SessionBuilder::from_kind(NetworkKind::PointNetPPClassification).classes(4).build();
    let n = session.network().input_points();
    let clouds: Vec<PointCloud> = (0..4).map(|s| sample_shape(ShapeClass::Cup, n, s)).collect();
    let singles: Vec<Inference> = clouds.iter().map(|c| session.infer(c)).collect();
    let mut stream = session.frames();
    let streamed: Vec<Inference> = clouds.iter().map(|c| stream.infer(c)).collect();
    assert_eq!(streamed, singles);
}

#[test]
fn steady_state_arena_never_grows_and_reuses_slots() {
    let mut rng = seeded_rng(2);
    let net = NetworkKind::PointNetPPSegmentation.build_small(6, &mut rng);
    let session = SessionBuilder::from_network_ref(net.as_ref()).seed(7).build();
    let cloud = sample_shape(ShapeClass::Table, net.input_points(), 1);
    for _ in 0..3 {
        let _ = session.infer(&cloud);
    }
    let stats = session.arena_stats(net.input_points()).expect("plan compiled");
    assert_eq!(stats.arena.grow_events, 0, "steady state must stay inside planned capacities");
    assert!(stats.arena.reuse_ratio > 1.5, "deep networks must reuse slots, got {stats:?}");
    assert!(stats.arena.peak_bytes > 0);
    assert!(stats.search_bytes > 0, "the first infer derives search state through the arena");
    assert!(stats.search.query_calls > 0, "searches are metered");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shape fuzz: input point counts the networks were never recorded on
    /// (each count compiles a fresh plan) must still replay bit-identically
    /// under every strategy.
    #[test]
    fn session_matches_tape_over_shapes(
        n in 48usize..=160,
        cloud_seed in 0u64..1000,
        strategy_idx in 0usize..3,
    ) {
        let strategy = Strategy::ALL[strategy_idx];
        let mut rng = seeded_rng(8);
        let net = NetworkKind::PointNetPPClassification.build_small(4, &mut rng);
        let cloud = sample_shape(ShapeClass::Guitar, n, cloud_seed);
        let expected = tape_logits(net.as_ref(), &cloud, strategy, 3);
        let session =
            SessionBuilder::from_network_ref(net.as_ref())
                .strategy(strategy)
                .seed(3)
                .build();
        let out = session.infer(&cloud);
        prop_assert_eq!(out.logits(), &expected);
    }

    /// Same fuzz for an edge-module (feature-space search) network, whose
    /// dynamic graph makes the searches depend on intermediate features.
    #[test]
    fn session_matches_tape_over_shapes_dgcnn(
        n in 128usize..=192,
        cloud_seed in 0u64..1000,
    ) {
        let mut rng = seeded_rng(9);
        let net = NetworkKind::DgcnnClassification.build_small(4, &mut rng);
        let cloud = sample_shape(ShapeClass::Bottle, n, cloud_seed);
        let expected = tape_logits(net.as_ref(), &cloud, Strategy::Delayed, 3);
        let session =
            SessionBuilder::from_network_ref(net.as_ref()).seed(3).build();
        let out = session.infer(&cloud);
        prop_assert_eq!(out.logits(), &expected);
    }
}

/// Each network's search traffic, as a checked fact: one Delayed forward
/// per registry network at small and at paper scale on the built-in
/// defaults, as `(query_calls, index_builds)`. Every coordinate search (no
/// network uses `NeighborMode::CoordKnn`; set abstraction is all ball
/// queries, feature propagation's stencils point-query kNN) reaches the
/// octree; feature-space modules (DGCNN, LDGCNN) run the dense row scan
/// and build nothing. A build per searched point set, not per call: the
/// segmentation networks' last stencil searches the coarse level the
/// second set-abstraction module already indexed.
#[test]
fn every_network_carries_the_pinned_search_traffic() {
    use NetworkKind::*;
    let expected = [
        (PointNetPPClassification, (2, 2), (2, 2)),
        (PointNetPPSegmentation, (4, 3), (4, 3)),
        (DgcnnClassification, (2, 0), (4, 0)),
        (DgcnnSegmentation, (2, 0), (3, 0)),
        (FPointNet, (3, 3), (5, 4)),
        (Ldgcnn, (2, 0), (4, 0)),
        (DensePoint, (3, 2), (8, 3)),
    ];
    assert_eq!(expected.map(|(kind, ..)| kind), NetworkKind::ALL);
    for (kind, small, paper) in expected {
        for (paper_scale, (calls, builds)) in [(false, small), (true, paper)] {
            // Unoptimised, the paper-scale feature scans are half a minute
            // spent learning that a network without an octree build has
            // none.
            if cfg!(debug_assertions) && paper_scale && builds == 0 {
                continue;
            }
            let mut rng = seeded_rng(3);
            let net = if paper_scale {
                kind.build_paper(&mut rng)
            } else {
                kind.build_small(4, &mut rng)
            };
            let n = net.input_points();
            let record =
                |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
            // Built-in defaults, environment not read.
            let mut engine = mesorasi::core::engine::PlanEngine::new();
            let _ = engine.run(&sample_shape(ShapeClass::Chair, n, 3), &record);
            let traffic = engine.stats(n).expect("compiled").search;
            let scale = if paper_scale { "paper" } else { "small" };
            assert_eq!(traffic.query_calls, calls, "{} at {scale} scale", kind.name());
            assert_eq!(traffic.index_builds, builds, "{} builds at {scale} scale", kind.name());
        }
    }
}

/// ROADMAP item 3's decline rule as a regression check: the Gram bound of
/// the feature-space scan hands at most `4k` rows per query to exact
/// ranking on a paper-scale DGCNN (c) forward (`k = 20`, four scans of
/// 1024 queries), and never fewer than the `k` it must return.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale feature scans: release only")]
fn paper_scale_dgcnn_ranks_at_most_four_k_rows_per_query() {
    let mut rng = seeded_rng(3);
    let net = NetworkKind::DgcnnClassification.build_paper(&mut rng);
    let n = net.input_points();
    let record = |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
    let mut engine = mesorasi::core::engine::PlanEngine::new();
    let _ = engine.run(&sample_shape(ShapeClass::Chair, n, 3), &record);
    let traffic = engine.stats(n).expect("compiled").search;
    let k = 20;
    assert_eq!(traffic.queries, 4 * n as u64, "four EdgeConv scans, every point a query");
    assert!(traffic.ranked >= k * traffic.queries, "{} ranked", traffic.ranked);
    assert!(
        traffic.ranked <= 4 * k * traffic.queries,
        "{:.1} rows ranked per query",
        traffic.ranked as f64 / traffic.queries as f64
    );
}
