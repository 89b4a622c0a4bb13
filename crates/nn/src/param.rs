//! Trainable parameters.

use mesorasi_tensor::Matrix;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_PARAM_ID: AtomicU64 = AtomicU64::new(0);

/// A trainable tensor with a process-unique identity.
///
/// Layers own their `Param`s; each forward pass registers the current value
/// on the [`crate::Graph`] under the param's id, and optimizers look
/// gradients up by the same id after `backward`. Identity — not storage
/// location — links the two, so models can be moved freely between passes.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value. Mutated by optimizers only.
    pub value: Matrix,
    /// Unique id used to match gradients to this parameter.
    id: u64,
    /// First Adam/momentum moment, lazily sized.
    pub(crate) moment1: Option<Matrix>,
    /// Second Adam moment, lazily sized.
    pub(crate) moment2: Option<Matrix>,
}

impl Param {
    /// Wraps `value` as a fresh parameter with a new unique id.
    pub fn new(value: Matrix) -> Self {
        Param {
            value,
            id: NEXT_PARAM_ID.fetch_add(1, Ordering::Relaxed),
            moment1: None,
            moment2: None,
        }
    }

    /// The parameter's unique id.
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True when the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let a = Param::new(Matrix::zeros(1, 1));
        let b = Param::new(Matrix::zeros(1, 1));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn clone_preserves_id() {
        // Cloning a model must keep the id so a cloned-then-trained model
        // still matches its own gradients.
        let a = Param::new(Matrix::zeros(2, 2));
        let b = a.clone();
        assert_eq!(a.id(), b.id());
    }
}
