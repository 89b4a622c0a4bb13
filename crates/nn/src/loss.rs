//! Loss helpers built on the graph's primitive losses.

use mesorasi_tensor::{ops, Matrix};

/// Computes classification logits' predicted labels (row-wise argmax).
pub fn predictions(logits: &Matrix) -> Vec<u32> {
    ops::argmax_rows(logits).into_iter().map(|i| i as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictions_are_argmax() {
        let logits = Matrix::from_rows(&[&[0.1, 0.9], &[2.0, -1.0]]);
        assert_eq!(predictions(&logits), vec![1, 0]);
    }
}
