//! Fig. 6: how many neighborhoods each input point occurs in.
//!
//! The paper profiles 32 inputs per network and plots, per cloud, the
//! number of points (`y`) occurring in exactly `x` neighborhoods. Its
//! summary: "In PointNet++, over half occur in more than 30 neighborhoods;
//! in DGCNN, over half occurs in 20" — counting across a network's modules.
//! This is the root cause of the MLP activation blow-up (Fig. 3 caption:
//! most points are normalized to 20–100 centroids).

use crate::Context;
use mesorasi_knn::{ball, bruteforce, stats};
use mesorasi_pointcloud::sampling::random_indices;
use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
use mesorasi_sim::report::{pct, Table};

/// Membership counts for one PointNet++-configured input: ball-query
/// modules 512/K32/r0.2 then 128/K64/r0.4, mapped back to input points.
fn pointnetpp_membership(seed: u64) -> Vec<u32> {
    let cloud = sample_shape(ShapeClass::ALL[(seed % 40) as usize], 1024, seed);
    let c1 = random_indices(&cloud, 512, seed);
    let nit1 = ball::ball_query(&cloud, &c1, 0.2, 32);

    let level1 = cloud.select(&c1);
    let c2 = random_indices(&level1, 128, seed ^ 1);
    let nit2_local = ball::ball_query(&level1, &c2, 0.4, 64);
    // Map level-1-local indices back to original input ids.
    let mut nit2 = mesorasi_knn::NeighborIndexTable::new(64);
    for (centroid, neighbors) in nit2_local.iter() {
        let mapped: Vec<usize> = neighbors.iter().map(|&i| c1[i]).collect();
        nit2.push_entry(c1[centroid], &mapped);
    }
    stats::accumulate_membership(&[(&nit1, 1024), (&nit2, 1024)])
}

/// Membership counts for one DGCNN-configured input: a K=20 KNN graph over
/// all 1024 points (one module — Fig. 6's x-range shows DGCNN mass at ≈20,
/// i.e. per-graph in-degree; coordinate space stands in for the feature
/// spaces, whose index-overlap statistics are what matters).
fn dgcnn_membership(seed: u64) -> Vec<u32> {
    let cloud = sample_shape(ShapeClass::ALL[(seed % 40) as usize], 1024, seed ^ 77);
    let queries: Vec<usize> = (0..1024).collect();
    let nit = bruteforce::knn_indices(&cloud, &queries, 20);
    stats::membership_counts(&nit, 1024)
}

/// Runs the experiment over 32 inputs per network.
pub fn run(_ctx: &Context) -> String {
    let mut t = Table::new(
        "Fig. 6: neighborhood membership per input point (32 inputs)",
        &["Network", "mean", "frac >= 20", "frac > 30", "paper summary"],
    );
    for (name, f, paper) in [
        (
            "PointNet++",
            pointnetpp_membership as fn(u64) -> Vec<u32>,
            "over half occur in > 30 neighborhoods",
        ),
        ("DGCNN", dgcnn_membership, "over half occur in >= 20 neighborhoods"),
    ] {
        let mut all_counts = Vec::new();
        for seed in 0..32u64 {
            all_counts.extend(f(seed));
        }
        t.row(vec![
            name.to_owned(),
            format!("{:.1}", stats::mean_membership(&all_counts)),
            pct(stats::fraction_at_least(&all_counts, 20) * 100.0),
            pct(stats::fraction_at_least(&all_counts, 31) * 100.0),
            paper.to_owned(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointnetpp_membership_has_substantial_overlap() {
        let counts = pointnetpp_membership(3);
        let mean = mesorasi_knn::stats::mean_membership(&counts);
        assert!(mean > 10.0, "accumulated membership should be high, got {mean}");
    }

    #[test]
    fn dgcnn_membership_mean_equals_k() {
        // Every point queries once with K=20, so the mean in-degree is 20.
        let counts = dgcnn_membership(3);
        let mean = mesorasi_knn::stats::mean_membership(&counts);
        assert!((mean - 20.0).abs() < 1e-9);
    }
}
