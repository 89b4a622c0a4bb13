//! The approximate-distributivity identity (paper Equ. 3), exact for the
//! linear part of an MLP.
//!
//! Without the activation function, an MLP distributes *exactly* over the
//! subtraction in aggregation:
//!
//! ```text
//! (P − 1·pᵢᵀ) · W₁ · W₂ = P·W₁·W₂ − 1·pᵢᵀ·W₁·W₂
//! ```
//!
//! With φ = ReLU between layers the two sides differ; delayed-aggregation
//! accepts that difference and recovers accuracy by training (Fig. 16).

use mesorasi_tensor::{ops, Matrix};

/// Applies a bias-free MLP `x ↦ x·W₁·W₂·…` without any non-linearity.
pub fn linear_forward(x: &Matrix, weights: &[Matrix]) -> Matrix {
    assert!(!weights.is_empty(), "at least one layer");
    let mut h = x.clone();
    for w in weights {
        h = ops::matmul(&h, w);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn random_weights(widths: &[usize], seed: u64) -> Vec<Matrix> {
        let mut rng = mesorasi_pointcloud::seeded_rng(seed);
        widths
            .windows(2)
            .map(|w| Matrix::from_fn(w[0], w[1], |_, _| rng.gen_range(-0.5..0.5f32)))
            .collect()
    }

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = mesorasi_pointcloud::seeded_rng(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0f32))
    }

    #[test]
    fn linear_mlp_distributes_exactly() {
        let weights = random_weights(&[3, 16, 8], 1);
        let a = random_matrix(20, 3, 2);
        let b = random_matrix(20, 3, 3);
        let lhs = linear_forward(&ops::sub(&a, &b), &weights);
        let rhs = ops::sub(&linear_forward(&a, &weights), &linear_forward(&b, &weights));
        assert!(ops::sub(&lhs, &rhs).max_abs() < 1e-4, "linear part must be exact (Equ. 3)");
    }
}
