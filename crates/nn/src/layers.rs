//! Trainable layers.
//!
//! Point-cloud networks are built almost entirely from *shared* MLPs: the
//! same `Linear` weights applied to every row of a batched matrix (paper
//! Fig. 3: "the same MLP is shared across all the row vectors"). A
//! [`SharedMlp`] is therefore just a stack of [`Linear`] + normalization +
//! ReLU applied to an `N × M` matrix.

use crate::graph::{Graph, VarId};
use crate::init;
use crate::param::Param;
use mesorasi_tensor::Matrix;
use rand::rngs::StdRng;

/// A fully-connected layer `y = x · W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, `in × out`.
    pub weight: Param,
    /// Bias row, `1 × out`.
    pub bias: Param,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Linear {
            weight: Param::new(init::xavier_uniform(in_dim, out_dim, rng)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Applies the layer to every row of `x`.
    pub fn forward(&self, g: &mut Graph, x: VarId) -> VarId {
        let w = g.param(&self.weight);
        let b = g.param(&self.bias);
        let y = g.matmul(x, w);
        g.add_bias(y, b)
    }

    /// Applies only the matrix-vector product, *without bias* — used by the
    /// limited delayed-aggregation baseline (Ltd-Mesorasi), which may hoist
    /// only the linear part of the first layer ahead of aggregation because
    /// only that part distributes exactly over subtraction.
    pub fn forward_linear_only(&self, g: &mut Graph, x: VarId) -> VarId {
        let w = g.param(&self.weight);
        g.matmul(x, w)
    }

    /// Adds this layer's bias to `x` (completes [`Self::forward_linear_only`]).
    pub fn forward_bias_only(&self, g: &mut Graph, x: VarId) -> VarId {
        let b = g.param(&self.bias);
        g.add_bias(x, b)
    }

    /// Collects the layer's parameters for an optimizer step.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// Trainable per-column scale and shift applied after detached
/// standardization — the simplified batch normalization used throughout
/// (see [`Graph::standardize`] for why the statistics are detached; the
/// paper §VII-B notes batch normalization "perturbs the distributive
/// property ... more than ReLU", which Fig. 16's retraining recovers).
#[derive(Debug, Clone)]
pub struct FeatureNorm {
    /// Per-column scale, `1 × dim`, initialized to 1.
    pub gamma: Param,
    /// Per-column shift, `1 × dim`, initialized to 0.
    pub beta: Param,
}

impl FeatureNorm {
    /// Creates a norm over `dim` features.
    pub fn new(dim: usize) -> Self {
        FeatureNorm {
            gamma: Param::new(Matrix::full(1, dim, 1.0)),
            beta: Param::new(Matrix::zeros(1, dim)),
        }
    }

    /// Standardizes columns (detached stats), then applies `γ · x + β`.
    pub fn forward(&self, g: &mut Graph, x: VarId) -> VarId {
        let standardized = g.standardize(x);
        let gamma = g.param(&self.gamma);
        let beta = g.param(&self.beta);
        // scale by broadcasting gamma: implemented as hstack-free per-column
        // multiply using a constant-shaped trick: y = standardized ⊙ γ_rows.
        let rows = g.shape(standardized).0;
        let gamma_rows = g.gather(gamma, vec![0; rows]);
        let scaled = g.hadamard(standardized, gamma_rows);
        let beta_rows = g.gather(beta, vec![0; rows]);
        g.add(scaled, beta_rows)
    }

    /// Collects parameters for an optimizer step.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }
}

/// Where a [`SharedMlp`] applies normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormMode {
    /// No normalization (pure Linear + ReLU). Distributivity holds best.
    None,
    /// [`FeatureNorm`] between the linear map and the ReLU.
    Feature,
}

/// A stack of shared fully-connected layers with ReLU between them — the
/// `F` operator of a point-cloud module (an MLP applied to batched rows).
#[derive(Debug, Clone)]
pub struct SharedMlp {
    layers: Vec<Linear>,
    norms: Vec<Option<FeatureNorm>>,
    /// Apply ReLU after the last layer too (point-cloud modules do; final
    /// classifier heads don't).
    relu_last: bool,
}

impl SharedMlp {
    /// Builds an MLP with the given layer widths, e.g. `[3, 64, 64, 128]`
    /// builds three layers (3→64→64→128) — the first PointNet++ module's
    /// MLP in Fig. 3.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize], norm: NormMode, relu_last: bool, rng: &mut StdRng) -> Self {
        assert!(widths.len() >= 2, "an MLP needs at least input and output widths");
        let mut layers = Vec::with_capacity(widths.len() - 1);
        let mut norms = Vec::with_capacity(widths.len() - 1);
        for w in widths.windows(2) {
            layers.push(Linear::new(w[0], w[1], rng));
            norms.push(match norm {
                NormMode::None => None,
                NormMode::Feature => Some(FeatureNorm::new(w[1])),
            });
        }
        SharedMlp { layers, norms, relu_last }
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The layer widths, `[in, hidden..., out]`.
    pub fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.layers.iter().map(Linear::in_dim).collect();
        w.push(self.layers.last().expect("at least one layer").out_dim());
        w
    }

    /// The first layer (the one Ltd-Mesorasi hoists).
    pub fn first_layer(&self) -> &Linear {
        &self.layers[0]
    }

    /// Mutable access to the final layer (e.g. to seed output priors).
    pub fn last_layer_mut(&mut self) -> &mut Linear {
        self.layers.last_mut().expect("at least one layer")
    }

    /// Full forward pass over every row of `x`.
    pub fn forward(&self, g: &mut Graph, x: VarId) -> VarId {
        let mut h = x;
        let n = self.layers.len();
        for (i, (layer, norm)) in self.layers.iter().zip(&self.norms).enumerate() {
            h = layer.forward(g, h);
            if let Some(norm) = norm {
                h = norm.forward(g, h);
            }
            if i + 1 < n || self.relu_last {
                h = g.relu(h);
            }
        }
        h
    }

    /// Forward pass skipping the first layer's linear part — the tail used
    /// by Ltd-Mesorasi after it hoisted `x · W₁` before aggregation. The
    /// input here is the already-multiplied (and aggregated) activation.
    pub fn forward_after_first_linear(&self, g: &mut Graph, x_w1: VarId) -> VarId {
        let n = self.layers.len();
        let mut h = self.layers[0].forward_bias_only(g, x_w1);
        if let Some(norm) = &self.norms[0] {
            h = norm.forward(g, h);
        }
        if n > 1 || self.relu_last {
            h = g.relu(h);
        }
        for (i, (layer, norm)) in self.layers.iter().zip(&self.norms).enumerate().skip(1) {
            h = layer.forward(g, h);
            if let Some(norm) = norm {
                h = norm.forward(g, h);
            }
            if i + 1 < n || self.relu_last {
                h = g.relu(h);
            }
        }
        h
    }

    /// Collects all parameters for an optimizer step.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        for (layer, norm) in self.layers.iter_mut().zip(&mut self.norms) {
            out.extend(layer.params_mut());
            if let Some(norm) = norm {
                out.extend(norm.params_mut());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Optimizer, Sgd};

    #[test]
    fn linear_forward_shape_and_value() {
        let mut rng = mesorasi_pointcloud::seeded_rng(0);
        let layer = Linear::new(3, 2, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(5, 3));
        let y = layer.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (5, 2));
        // zero input → output equals bias (zero)
        assert_eq!(g.value(y).max_abs(), 0.0);
    }

    #[test]
    fn hadamard_value_and_gradient_match_product_rule() {
        let a0 = Matrix::from_rows(&[&[2.0, -3.0]]);
        let b0 = Matrix::from_rows(&[&[5.0, 7.0]]);
        let mut g = Graph::new();
        let a = g.input(a0.clone());
        let b = g.input(b0.clone());
        let y = g.hadamard(a, b);
        assert_eq!(g.value(y), &Matrix::from_rows(&[&[10.0, -21.0]]));
        let t = g.input(Matrix::zeros(1, 2));
        let loss = g.mse(y, t);
        g.backward(loss);
        // dL/dy = 2y/n = y; dL/da = y ⊙ b, dL/db = y ⊙ a (n = 2)
        let gy = g.grad(y).unwrap().clone();
        let ga = g.grad(a).unwrap().clone();
        let gb = g.grad(b).unwrap().clone();
        for c in 0..2 {
            assert!((ga[(0, c)] - gy[(0, c)] * b0[(0, c)]).abs() < 1e-5);
            assert!((gb[(0, c)] - gy[(0, c)] * a0[(0, c)]).abs() < 1e-5);
        }
    }

    #[test]
    fn shared_mlp_widths_round_trip() {
        let mut rng = mesorasi_pointcloud::seeded_rng(1);
        let mlp = SharedMlp::new(&[3, 64, 64, 128], NormMode::None, true, &mut rng);
        assert_eq!(mlp.depth(), 3);
        assert_eq!(mlp.widths(), vec![3, 64, 64, 128]);
    }

    #[test]
    fn relu_last_controls_output_sign() {
        let mut rng = mesorasi_pointcloud::seeded_rng(2);
        let mlp = SharedMlp::new(&[4, 8], NormMode::None, true, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(16, 4, |r, c| ((r * c) as f32).sin()));
        let y = mlp.forward(&mut g, x);
        assert!(g.value(y).as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn ltd_split_equals_full_forward() {
        // forward == first_linear_only → tail, exactly (no aggregation in
        // between here, so the split must be lossless).
        let mut rng = mesorasi_pointcloud::seeded_rng(3);
        let mlp = SharedMlp::new(&[3, 8, 5], NormMode::None, true, &mut rng);
        let x0 = Matrix::from_fn(10, 3, |r, c| ((r + c) as f32 * 0.7).cos());

        let mut g1 = Graph::new();
        let x1 = g1.input(x0.clone());
        let full = mlp.forward(&mut g1, x1);

        let mut g2 = Graph::new();
        let x2 = g2.input(x0);
        let lin = mlp.first_layer().forward_linear_only(&mut g2, x2);
        let split = mlp.forward_after_first_linear(&mut g2, lin);

        let diff = mesorasi_tensor::ops::sub(g1.value(full), g2.value(split)).max_abs();
        assert!(diff < 1e-5);
    }

    #[test]
    fn feature_norm_learns_scale() {
        // One FeatureNorm should be able to fit y = 3·standardize(x) + 1.
        let mut norm = FeatureNorm::new(2);
        let mut opt = Sgd::new(0.5, 0.0);
        let x0 = Matrix::from_fn(32, 2, |r, c| (r as f32 * 0.37 + c as f32).sin());
        for _ in 0..200 {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let std = g.standardize(x);
            let target_val = {
                let mut t = g.value(std).clone();
                t.map_inplace(|v| 3.0 * v + 1.0);
                t
            };
            let y = norm.forward(&mut g, x);
            let t = g.input(target_val);
            let loss = g.mse(y, t);
            g.backward(loss);
            opt.step(&mut norm.params_mut(), &g);
        }
        assert!((norm.gamma.value[(0, 0)] - 3.0).abs() < 0.05);
        assert!((norm.beta.value[(0, 0)] - 1.0).abs() < 0.05);
    }

    #[test]
    fn mlp_trains_on_xor_like_task() {
        let mut rng = mesorasi_pointcloud::seeded_rng(4);
        let mut mlp = SharedMlp::new(&[2, 16, 2], NormMode::None, false, &mut rng);
        let x0 = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let labels = vec![0u32, 1, 1, 0];
        let mut opt = Sgd::new(0.3, 0.9);
        let mut final_loss = f32::INFINITY;
        for _ in 0..400 {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let logits = mlp.forward(&mut g, x);
            let loss = g.softmax_cross_entropy(logits, labels.clone());
            final_loss = g.value(loss)[(0, 0)];
            g.backward(loss);
            opt.step(&mut mlp.params_mut(), &g);
        }
        assert!(final_loss < 0.1, "XOR should be learnable, loss = {final_loss}");
    }
}
