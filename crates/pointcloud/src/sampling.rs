//! Centroid sampling and input resampling.
//!
//! A module's neighbor search may run on only a subset of input points ("the
//! notion of a stride", paper §III-A), producing `N_out < N_in`. PointNet++
//! originally selects those centroids with Farthest Point Sampling; the
//! paper's optimized baseline replaces FPS with random sampling "with little
//! accuracy loss" (§VI). [`random_indices`] (and its buffer-reusing twin
//! [`random_indices_into`], which the inference engine calls) is that
//! baseline, and every executor and experiment samples through it.

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
    let mut out = Vec::new();
    random_indices_into(cloud.len(), count, seed, &mut Vec::new(), &mut out);
    out
}

/// [`random_indices`] writing into caller-owned buffers: `scratch` holds the
/// full index permutation, `out` receives the sorted picks. Both reuse their
/// capacity, so the inference engine's streaming path re-derives centroid
/// selections without allocating. Bit-identical to [`random_indices`].
///
/// # Panics
///
/// Panics if `count > n`.
pub fn random_indices_into(
    n: usize,
    count: usize,
    seed: u64,
    scratch: &mut Vec<usize>,
    out: &mut Vec<usize>,
) {
    assert!(count <= n, "cannot sample {count} centroids from {n} points");
    let mut rng = crate::seeded_rng(seed);
    scratch.clear();
    scratch.extend(0..n);
    scratch.shuffle(&mut rng);
    out.clear();
    out.extend_from_slice(&scratch[..count]);
    out.sort_unstable();
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
    fn random_indices_into_matches_allocating_variant() {
        let cloud = sample_shape(ShapeClass::Torus, 200, 3);
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        for seed in [0u64, 7, 41] {
            random_indices_into(cloud.len(), 48, seed, &mut scratch, &mut out);
            assert_eq!(out, random_indices(&cloud, 48, seed), "seed {seed}");
        }
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
