//! Centroid sampling and input resampling.
//!
//! A module's neighbor search may run on only a subset of input points ("the
//! notion of a stride", paper §III-A), producing `N_out < N_in`. PointNet++
//! originally selects those centroids with Farthest Point Sampling; the
//! paper's optimized baseline replaces FPS with random sampling "with little
//! accuracy loss" (§VI). [`random_indices`] is that baseline, and every
//! module and experiment samples through it.

use crate::PointCloud;
use rand::seq::SliceRandom;
use rand::Rng;

/// Selects `count` distinct point indices uniformly at random.
///
/// Matches the paper's optimized baseline (§VI, optimization 3). The result
/// is sorted ascending so downstream gather patterns stay index-coherent,
/// which the Aggregation Unit's LSB bank interleaving benefits from.
///
/// # Panics
///
/// Panics if `count > cloud.len()`.
pub fn random_indices(cloud: &PointCloud, count: usize, seed: u64) -> Vec<usize> {
    let n = cloud.len();
    assert!(count <= n, "cannot sample {count} centroids from {n} points");
    let mut rng = crate::seeded_rng(seed);
    let mut picks: Vec<usize> = (0..n).collect();
    picks.shuffle(&mut rng);
    picks.truncate(count);
    picks.sort_unstable();
    picks
}

/// Downsamples (or upsamples with replacement) a cloud to exactly `count`
/// points — used to fix the input size of every network (e.g. 1024 points
/// for classification, 2048 for segmentation).
pub fn resample(cloud: &PointCloud, count: usize, seed: u64) -> PointCloud {
    let n = cloud.len();
    assert!(n > 0, "cannot resample an empty cloud");
    if count <= n {
        cloud.select(&random_indices(cloud, count, seed))
    } else {
        let mut rng = crate::seeded_rng(seed);
        let mut idx: Vec<usize> = (0..n).collect();
        idx.extend((n..count).map(|_| rng.gen_range(0..n)));
        cloud.select(&idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::{sample_shape, ShapeClass};

    #[test]
    fn random_indices_are_distinct_and_in_range() {
        let cloud = sample_shape(ShapeClass::Sphere, 256, 11);
        let idx = random_indices(&cloud, 64, 5);
        assert_eq!(idx.len(), 64);
        let mut sorted = idx.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "indices must be distinct");
        assert!(idx.iter().all(|&i| i < 256));
    }

    #[test]
    fn random_indices_deterministic_per_seed() {
        let cloud = sample_shape(ShapeClass::Sphere, 128, 11);
        assert_eq!(random_indices(&cloud, 32, 7), random_indices(&cloud, 32, 7));
        assert_ne!(random_indices(&cloud, 32, 7), random_indices(&cloud, 32, 8));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_panics() {
        let cloud = sample_shape(ShapeClass::Cube, 16, 4);
        let _ = random_indices(&cloud, 17, 0);
    }

    #[test]
    fn resample_up_and_down() {
        let cloud = sample_shape(ShapeClass::Cone, 100, 2);
        assert_eq!(resample(&cloud, 40, 0).len(), 40);
        assert_eq!(resample(&cloud, 250, 0).len(), 250);
    }
}
