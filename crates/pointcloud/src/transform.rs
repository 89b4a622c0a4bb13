//! Data augmentation used when training the networks for Fig. 16.
//!
//! Two of the standard PointNet++-style augmentations: per-point Gaussian
//! jitter and anisotropic scaling.

use crate::{Point3, PointCloud};
use rand::Rng;
use std::f32::consts::PI;

/// Adds clipped Gaussian jitter to every point, the PointNet++ recipe
/// (`sigma = 0.01`, `clip = 0.05` for unit-sphere clouds).
pub fn jitter(cloud: &mut PointCloud, sigma: f32, clip: f32, seed: u64) {
    assert!(sigma >= 0.0 && clip >= 0.0);
    let mut rng = crate::seeded_rng(seed);
    let mut noise = || (sigma * gaussian(&mut rng)).clamp(-clip, clip);
    for p in cloud.points_mut() {
        *p += Point3::new(noise(), noise(), noise());
    }
}

/// Scales the cloud anisotropically by factors drawn from `[lo, hi]`.
pub fn random_scale(cloud: &mut PointCloud, lo: f32, hi: f32, seed: u64) {
    assert!(0.0 < lo && lo <= hi);
    let mut rng = crate::seeded_rng(seed);
    let sx = rng.gen_range(lo..=hi);
    let sy = rng.gen_range(lo..=hi);
    let sz = rng.gen_range(lo..=hi);
    for p in cloud.points_mut() {
        *p = Point3::new(p.x * sx, p.y * sy, p.z * sz);
    }
}

/// One standard normal sample via Box–Muller.
fn gaussian<R: Rng>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::{sample_shape, ShapeClass};

    #[test]
    fn jitter_is_bounded_by_clip() {
        let mut cloud = sample_shape(ShapeClass::Sphere, 256, 0);
        let original = cloud.clone();
        jitter(&mut cloud, 0.5, 0.05, 9);
        for (a, b) in cloud.iter().zip(original.iter()) {
            let d = *a - *b;
            assert!(
                d.x.abs() <= 0.05 + 1e-6 && d.y.abs() <= 0.05 + 1e-6 && d.z.abs() <= 0.05 + 1e-6
            );
        }
    }

    #[test]
    fn jitter_zero_sigma_is_identity() {
        let mut cloud = sample_shape(ShapeClass::Sphere, 64, 0);
        let original = cloud.clone();
        jitter(&mut cloud, 0.0, 0.05, 9);
        assert_eq!(cloud, original);
    }

    #[test]
    fn random_scale_stays_in_bounds() {
        let mut cloud = PointCloud::from_points(vec![Point3::splat(1.0)]);
        random_scale(&mut cloud, 0.5, 2.0, 4);
        let p = cloud.point(0);
        for v in [p.x, p.y, p.z] {
            assert!((0.5..=2.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn augmentation_is_deterministic_per_seed() {
        let mut a = sample_shape(ShapeClass::Lamp, 64, 1);
        let mut b = sample_shape(ShapeClass::Lamp, 64, 1);
        let original = a.clone();
        for cloud in [&mut a, &mut b] {
            random_scale(cloud, 0.9, 1.1, 77);
            jitter(cloud, 0.01, 0.05, 77);
        }
        assert_eq!(a, b);
        assert_ne!(a, original, "the augmentation moved the points");
    }
}
