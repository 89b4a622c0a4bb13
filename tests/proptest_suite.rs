//! Property-based tests over the core invariants, with randomized inputs.

use mesorasi::knn::{bruteforce, MortonOctree, NeighborIndexTable};
use mesorasi::pointcloud::{morton, Point3, PointCloud};
use mesorasi::tensor::{group, ops, Matrix};
use mesorasi_core::distributivity;
use mesorasi_sim::au::AuConfig;
use mesorasi_sim::npu::NpuConfig;
use proptest::prelude::*;

fn arb_cloud(max_points: usize) -> impl Strategy<Value = PointCloud> {
    prop::collection::vec((-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0), 8..max_points).prop_map(
        |pts| {
            PointCloud::from_points(pts.into_iter().map(|(x, y, z)| Point3::new(x, y, z)).collect())
        },
    )
}

fn arb_matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-2.0f32..2.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn morton_encode_decode_round_trips(
        x in 0u32..(1 << 21), y in 0u32..(1 << 21), z in 0u32..(1 << 21)
    ) {
        prop_assert_eq!(morton::decode(morton::encode(x, y, z)), (x, y, z));
    }

    #[test]
    fn octree_knn_matches_bruteforce(cloud in arb_cloud(120), k in 1usize..8) {
        prop_assume!(k <= cloud.len());
        let queries: Vec<usize> = (0..cloud.len()).step_by(5).collect();
        let a = bruteforce::knn_indices(&cloud, &queries, k);
        let mut b = NeighborIndexTable::default();
        MortonOctree::build(&cloud).knn_into(&cloud, &queries, k, &mut b);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn morton_sort_preserves_points(cloud in arb_cloud(100)) {
        let sorted = morton::sort_cloud(&cloud);
        prop_assert_eq!(sorted.len(), cloud.len());
        let key = |p: &Point3| (p.x.to_bits(), p.y.to_bits(), p.z.to_bits());
        let mut a: Vec<_> = cloud.points().iter().map(key).collect();
        let mut b: Vec<_> = sorted.points().iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn blocked_matmul_matches_naive_reference_bitwise(
        m in 1usize..41, k in 0usize..25, n in 0usize..34, seed in 0u64..1000, zero_every in 0usize..4
    ) {
        // The fast tier (register-tiled, AVX-512 or AVX2 where detected)
        // promises bit identity with the reference kernel: same ascending-k
        // order per element, one fused multiply-add per step. Adversarial
        // shapes hit every tail path — m % 4 rows, n % 16 / n % 8 columns,
        // k == 0 and n == 0 empties — and injected exact zeros hit the
        // reference kernel's zero-skip (covered by the ±0.0 identity).
        use rand::Rng;
        let mut rng = mesorasi::pointcloud::seeded_rng(seed);
        let mut a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-2.0..2.0f32));
        let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-2.0..2.0f32));
        if zero_every > 0 {
            for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
                if i % (zero_every + 1) == 0 {
                    *v = 0.0;
                }
            }
        }
        let fast = ops::matmul(&a, &b);
        let mut reference = Matrix::zeros(0, 0);
        ops::naive::matmul_into(&a, &b, &mut reference);
        prop_assert_eq!(fast.shape(), reference.shape());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(bits(&fast), bits(&reference));
    }

    #[test]
    fn transposed_matmul_variants_match_naive_bitwise(
        p in 1usize..20, m in 1usize..16, n in 1usize..16, seed in 0u64..1000
    ) {
        use rand::Rng;
        let mut rng = mesorasi::pointcloud::seeded_rng(seed);
        let a = Matrix::from_fn(p, m, |_, _| rng.gen_range(-2.0..2.0f32));
        let b = Matrix::from_fn(p, n, |_, _| rng.gen_range(-2.0..2.0f32));
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();

        let fast = ops::matmul_at_b(&a, &b);
        let mut reference = Matrix::zeros(0, 0);
        ops::naive::matmul_at_b_into(&a, &b, &mut reference);
        prop_assert_eq!(bits(&fast), bits(&reference));

        let at = a.transposed();
        let bt = b.transposed();
        let fast = ops::matmul_a_bt(&at, &bt);
        let mut reference = Matrix::zeros(0, 0);
        ops::naive::matmul_a_bt_into(&at, &bt, &mut reference);
        prop_assert_eq!(bits(&fast), bits(&reference));
    }

    #[test]
    fn gather_scatter_is_adjoint(m in arb_matrix(4..20, 1..6), seed in 0u64..1000) {
        // <gather(x, idx), y> == <x, scatter(idx, y)> — the adjoint property
        // the autograd backward pass relies on.
        use rand::Rng;
        let mut rng = mesorasi::pointcloud::seeded_rng(seed);
        let idx: Vec<usize> = (0..12).map(|_| rng.gen_range(0..m.rows())).collect();
        let y = Matrix::from_fn(idx.len(), m.cols(), |r, c| ((r * 3 + c) % 5) as f32 - 2.0);
        let gathered = group::gather_rows(&m, &idx);
        let lhs: f32 = gathered
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let mut scat = Matrix::zeros(m.rows(), m.cols());
        group::scatter_add_rows(&mut scat, &idx, &y);
        let rhs: f32 = m.as_slice().iter().zip(scat.as_slice()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() <= 1e-3 * (1.0 + lhs.abs()));
    }

    #[test]
    fn max_before_subtract_identity(pft in arb_matrix(8..24, 1..8), seed in 0u64..1000) {
        use rand::Rng;
        let mut rng = mesorasi::pointcloud::seeded_rng(seed);
        let k = rng.gen_range(1..5usize);
        let groups: Vec<usize> = (0..3 * k).map(|_| rng.gen_range(0..pft.rows())).collect();
        let centroids: Vec<usize> = (0..3).map(|_| rng.gen_range(0..pft.rows())).collect();
        let cents = group::gather_rows(&pft, &centroids);
        // subtract-then-max
        let gathered = group::gather_rows(&pft, &groups);
        let offsets = group::subtract_centroid_per_group(&gathered, &cents, k);
        let (a, _) = group::group_max_reduce(&offsets, k);
        // max-then-subtract
        let (reduced, _) = group::gather_max_reduce(&pft, &groups, k);
        let b = ops::sub(&reduced, &cents);
        prop_assert!(ops::sub(&a, &b).max_abs() < 1e-5);
    }

    #[test]
    fn linear_mlp_distributes_exactly(
        a in arb_matrix(4..12, 3..4), b in arb_matrix(4..12, 3..4), seed in 0u64..1000
    ) {
        prop_assume!(a.shape() == b.shape());
        use rand::Rng;
        let mut rng = mesorasi::pointcloud::seeded_rng(seed);
        let weights = vec![
            Matrix::from_fn(3, 8, |_, _| rng.gen_range(-0.5..0.5f32)),
            Matrix::from_fn(8, 4, |_, _| rng.gen_range(-0.5..0.5f32)),
        ];
        let lhs = distributivity::linear_forward(&ops::sub(&a, &b), &weights);
        let rhs = ops::sub(
            &distributivity::linear_forward(&a, &weights),
            &distributivity::linear_forward(&b, &weights),
        );
        prop_assert!(ops::sub(&lhs, &rhs).max_abs() < 1e-3);
    }

    #[test]
    fn systolic_cycles_bounded_by_work(m in 1usize..200, k in 1usize..96, n in 1usize..96) {
        let npu = NpuConfig::default();
        let cycles = npu.matmul_cycles(m, k, n);
        let ideal = ((m * k * n) as u64) / (npu.macs_per_cycle() as u64);
        prop_assert!(cycles >= ideal.max(1));
        // And never catastrophically worse than ideal on padded tiles:
        let padded = (m.div_ceil(16) * 16) as u64
            * (n.div_ceil(16) * 16) as u64
            * (k as u64 + 32);
        prop_assert!(cycles * 256 <= padded + 256 * 256);
    }

    #[test]
    fn au_cycles_at_least_streaming_lower_bound(cloud in arb_cloud(100), seed in 0u64..100) {
        use rand::Rng;
        let mut rng = mesorasi::pointcloud::seeded_rng(seed);
        let k = rng.gen_range(1..8usize).min(cloud.len());
        let n_out = rng.gen_range(1..cloud.len().min(16));
        let queries: Vec<usize> = (0..n_out).collect();
        let nit = bruteforce::knn_indices(&cloud, &queries, k);
        let width = rng.gen_range(1..32usize);
        let agg = mesorasi_core::trace::AggregateOp {
            nit,
            table_rows: cloud.len(),
            width,
            rows_per_entry: k + 1,
            fused_reduce: true,
        };
        let r = AuConfig::default().simulate(&agg);
        // At minimum each entry streams its column slice once per partition.
        let cols_pp = width.div_ceil(r.partitions) as u64;
        prop_assert!(r.cycles >= (n_out as u64) * cols_pp);
        prop_assert!(r.time_vs_ideal >= 1.0 - 1e-9);
    }

    #[test]
    fn bank_conflict_rounds_bounded_by_k_and_banks(cloud in arb_cloud(80)) {
        let k = 4usize.min(cloud.len());
        let queries: Vec<usize> = (0..cloud.len().min(8)).collect();
        let nit = bruteforce::knn_indices(&cloud, &queries, k);
        let agg = mesorasi_core::trace::AggregateOp {
            nit,
            table_rows: cloud.len(),
            width: 8,
            rows_per_entry: k + 1,
            fused_reduce: true,
        };
        let r = AuConfig::default().simulate(&agg);
        prop_assert!(r.time_vs_ideal <= k as f64 + 1e-9, "rounds can never exceed K");
    }
}
