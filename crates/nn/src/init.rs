//! Weight initializers.

use mesorasi_tensor::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Xavier/Glorot uniform initialization: `U(−a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. The default for linear layers.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Matrix {
    assert!(fan_in > 0 && fan_out > 0, "fan sizes must be positive");
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Matrix::from_fn(fan_in, fan_out, |_, _| rng.gen_range(-a..a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_is_bounded_and_centered() {
        let mut rng = mesorasi_pointcloud::seeded_rng(1);
        let w = xavier_uniform(64, 128, &mut rng);
        let a = (6.0f32 / 192.0).sqrt();
        assert!(w.as_slice().iter().all(|&v| v.abs() <= a));
        let mean: f32 = w.as_slice().iter().sum::<f32>() / w.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean} should be near zero");
    }

    #[test]
    fn deterministic_per_rng_seed() {
        let mut a = mesorasi_pointcloud::seeded_rng(3);
        let mut b = mesorasi_pointcloud::seeded_rng(3);
        assert_eq!(xavier_uniform(4, 4, &mut a), xavier_uniform(4, 4, &mut b));
    }
}
