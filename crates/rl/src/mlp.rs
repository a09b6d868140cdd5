//! Minimal dense MLP with backpropagation and Adam.
//!
//! Deliberately simple — row-major `f64` matrices and explicit loops —
//! because the policy networks are small and the point is a faithful,
//! dependency-free baseline, not a deep-learning framework.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A fully-connected network with `tanh` hidden activations and a
/// linear output layer (policy/value heads are applied by the caller).
///
/// # Example
///
/// ```
/// use e3_rl::Mlp;
///
/// let net = Mlp::new(&[3, 8, 2], 1);
/// let out = net.forward(&[0.1, -0.2, 0.3]);
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    sizes: Vec<usize>,
    /// Per layer: `out × in` row-major weights.
    weights: Vec<Vec<f64>>,
    biases: Vec<Vec<f64>>,
}

/// Cached per-layer values from [`Mlp::forward_cached`], needed by the
/// backward pass.
#[derive(Debug, Clone)]
pub(crate) struct ForwardCache {
    /// Layer inputs: `activations[0]` is the network input,
    /// `activations[l]` the post-activation output of layer `l-1`.
    activations: Vec<Vec<f64>>,
    /// Pre-activation sums per layer.
    pre_activations: Vec<Vec<f64>>,
}

/// Gradients with the same shapes as the network parameters.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Gradients {
    /// Weight gradients per layer (row-major, like [`Mlp`]'s weights).
    pub weights: Vec<Vec<f64>>,
    /// Bias gradients per layer.
    pub biases: Vec<Vec<f64>>,
}

impl Gradients {
    /// Zero gradients shaped for `net`.
    pub(crate) fn zeros_like(net: &Mlp) -> Self {
        Gradients {
            weights: net.weights.iter().map(|w| vec![0.0; w.len()]).collect(),
            biases: net.biases.iter().map(|b| vec![0.0; b.len()]).collect(),
        }
    }

    /// Accumulates `other` into `self`.
    pub(crate) fn accumulate(&mut self, other: &Gradients) {
        for (a, b) in self.weights.iter_mut().zip(&other.weights) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        for (a, b) in self.biases.iter_mut().zip(&other.biases) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }

    /// Scales every gradient by `factor` (e.g. `1/batch`).
    pub(crate) fn scale(&mut self, factor: f64) {
        for w in &mut self.weights {
            for x in w {
                *x *= factor;
            }
        }
        for b in &mut self.biases {
            for x in b {
                *x *= factor;
            }
        }
    }
}

impl Mlp {
    /// Creates a network with the given layer sizes (first = input,
    /// last = output) and Xavier-style initialization.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = Vec::with_capacity(sizes.len() - 1);
        let mut biases = Vec::with_capacity(sizes.len() - 1);
        for w in sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let scale = (2.0 / (fan_in + fan_out) as f64).sqrt();
            weights.push(
                (0..fan_in * fan_out)
                    .map(|_| rng.gen_range(-scale..scale))
                    .collect(),
            );
            biases.push(vec![0.0; fan_out]);
        }
        Mlp {
            sizes: sizes.to_vec(),
            weights,
            biases,
        }
    }

    /// Number of layers with parameters.
    pub(crate) fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// Total parameter count (weights + biases).
    pub(crate) fn num_params(&self) -> usize {
        self.weights.iter().map(Vec::len).sum::<usize>()
            + self.biases.iter().map(Vec::len).sum::<usize>()
    }

    /// Total connection count (Table V's "connections": weights only).
    pub(crate) fn num_connections(&self) -> usize {
        self.weights.iter().map(Vec::len).sum()
    }

    /// Total node count including inputs (Table V's "nodes").
    pub(crate) fn num_nodes(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// Forward pass without caching.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.forward_cached(input).0
    }

    /// Forward pass, returning the output and a cache for
    /// [`Mlp::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the input size.
    pub(crate) fn forward_cached(&self, input: &[f64]) -> (Vec<f64>, ForwardCache) {
        assert_eq!(input.len(), self.sizes[0], "input size mismatch");
        let mut activations = vec![input.to_vec()];
        let mut pre_activations = Vec::with_capacity(self.num_layers());
        for layer in 0..self.num_layers() {
            let (fan_in, fan_out) = (self.sizes[layer], self.sizes[layer + 1]);
            let x = &activations[layer];
            let mut z = self.biases[layer].clone();
            for (row, z_row) in z.iter_mut().enumerate() {
                let base = row * fan_in;
                let mut sum = 0.0;
                for (i, xi) in x.iter().enumerate() {
                    sum += self.weights[layer][base + i] * xi;
                }
                *z_row += sum;
            }
            let last = layer + 1 == self.num_layers();
            let a: Vec<f64> = if last {
                z.clone()
            } else {
                z.iter().map(|v| v.tanh()).collect()
            };
            pre_activations.push(z);
            activations.push(a);
            let _ = fan_out;
        }
        (
            activations.last().expect("at least one layer").clone(),
            ForwardCache {
                activations,
                pre_activations,
            },
        )
    }

    /// Backward pass: given `grad_output = dL/d(output)`, computes
    /// parameter gradients (and discards the input gradient).
    pub(crate) fn backward(&self, cache: &ForwardCache, grad_output: &[f64]) -> Gradients {
        assert_eq!(
            grad_output.len(),
            *self.sizes.last().expect("non-empty"),
            "grad size"
        );
        let mut grads = Gradients::zeros_like(self);
        let mut delta = grad_output.to_vec();
        for layer in (0..self.num_layers()).rev() {
            let fan_in = self.sizes[layer];
            // Non-final layers pass through tanh': 1 - tanh(z)^2.
            if layer + 1 != self.num_layers() {
                for (d, z) in delta.iter_mut().zip(&cache.pre_activations[layer]) {
                    let t = z.tanh();
                    *d *= 1.0 - t * t;
                }
            }
            let x = &cache.activations[layer];
            for (row, d) in delta.iter().enumerate() {
                let base = row * fan_in;
                for (i, xi) in x.iter().enumerate() {
                    grads.weights[layer][base + i] += d * xi;
                }
                grads.biases[layer][row] += d;
            }
            if layer > 0 {
                let mut prev = vec![0.0; fan_in];
                for (row, d) in delta.iter().enumerate() {
                    let base = row * fan_in;
                    for (i, p) in prev.iter_mut().enumerate() {
                        *p += self.weights[layer][base + i] * d;
                    }
                }
                delta = prev;
            }
        }
        grads
    }
}

/// Adam optimizer state for one [`Mlp`].
#[derive(Debug, Clone)]
pub(crate) struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Gradients,
    v: Gradients,
}

impl Adam {
    /// Creates an optimizer for `net` with the given learning rate.
    pub(crate) fn new(net: &Mlp, lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Gradients::zeros_like(net),
            v: Gradients::zeros_like(net),
        }
    }

    /// Applies one Adam update of `grads` to `net`.
    pub(crate) fn step(&mut self, net: &mut Mlp, grads: &Gradients) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let update = |param: &mut [f64], grad: &[f64], m: &mut [f64], v: &mut [f64]| {
            for i in 0..param.len() {
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * grad[i];
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
                let m_hat = m[i] / bc1;
                let v_hat = v[i] / bc2;
                param[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        };
        for layer in 0..net.weights.len() {
            update(
                &mut net.weights[layer],
                &grads.weights[layer],
                &mut self.m.weights[layer],
                &mut self.v.weights[layer],
            );
            update(
                &mut net.biases[layer],
                &grads.biases[layer],
                &mut self.m.biases[layer],
                &mut self.v.biases[layer],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plain gradient descent, the baseline the optimizer tests train
    /// with.
    fn apply_sgd(net: &mut Mlp, grads: &Gradients, lr: f64) {
        for (w, g) in net.weights.iter_mut().zip(&grads.weights) {
            for (x, y) in w.iter_mut().zip(g) {
                *x -= lr * y;
            }
        }
        for (b, g) in net.biases.iter_mut().zip(&grads.biases) {
            for (x, y) in b.iter_mut().zip(g) {
                *x -= lr * y;
            }
        }
    }

    #[test]
    fn shapes_and_param_counts() {
        let net = Mlp::new(&[4, 64, 64, 2], 1);
        assert_eq!(net.num_connections(), 4 * 64 + 64 * 64 + 64 * 2);
        assert_eq!(net.num_params(), net.num_connections() + 64 + 64 + 2);
        assert_eq!(net.num_nodes(), 4 + 64 + 64 + 2);
        assert_eq!(net.forward(&[0.0; 4]).len(), 2);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut net = Mlp::new(&[3, 5, 2], 42);
        let input = [0.3, -0.7, 0.5];
        // Loss = sum of outputs; dL/dout = 1.
        let (out0, cache) = net.forward_cached(&input);
        let grads = net.backward(&cache, &[1.0, 1.0]);
        let loss = |n: &Mlp| n.forward(&input).iter().sum::<f64>();
        let base = loss(&net);
        let _ = out0;
        let eps = 1e-6;
        // Check a sample of weight gradients in every layer.
        for layer in 0..net.num_layers() {
            for &idx in &[0usize, net.weights[layer].len() / 2] {
                let orig = net.weights[layer][idx];
                net.weights[layer][idx] = orig + eps;
                let plus = loss(&net);
                net.weights[layer][idx] = orig;
                let numeric = (plus - base) / eps;
                let analytic = grads.weights[layer][idx];
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "layer {layer} idx {idx}: numeric {numeric} vs analytic {analytic}"
                );
            }
            let orig = net.biases[layer][0];
            net.biases[layer][0] = orig + eps;
            let plus = loss(&net);
            net.biases[layer][0] = orig;
            let numeric = (plus - base) / eps;
            assert!((numeric - grads.biases[layer][0]).abs() < 1e-4);
        }
    }

    #[test]
    fn sgd_reduces_regression_loss() {
        let mut net = Mlp::new(&[2, 16, 1], 3);
        let data = [
            ([0.0, 0.0], 0.0),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        let loss_of = |n: &Mlp| -> f64 {
            data.iter()
                .map(|(x, y)| (n.forward(x)[0] - y).powi(2))
                .sum()
        };
        let before = loss_of(&net);
        for _ in 0..2000 {
            let mut grads = Gradients::zeros_like(&net);
            for (x, y) in &data {
                let (out, cache) = net.forward_cached(x);
                let g = net.backward(&cache, &[2.0 * (out[0] - y)]);
                grads.accumulate(&g);
            }
            grads.scale(1.0 / data.len() as f64);
            apply_sgd(&mut net, &grads, 0.1);
        }
        let after = loss_of(&net);
        assert!(after < before * 0.2, "XOR loss {before} -> {after}");
    }

    #[test]
    fn adam_converges_faster_than_tiny_sgd() {
        let train = |use_adam: bool| -> f64 {
            let mut net = Mlp::new(&[1, 8, 1], 5);
            let mut adam = Adam::new(&net, 0.01);
            for _ in 0..200 {
                let mut grads = Gradients::zeros_like(&net);
                for i in 0..8 {
                    let x = i as f64 / 8.0;
                    let (out, cache) = net.forward_cached(&[x]);
                    let g = net.backward(&cache, &[2.0 * (out[0] - (2.0 * x - 1.0))]);
                    grads.accumulate(&g);
                }
                grads.scale(1.0 / 8.0);
                if use_adam {
                    adam.step(&mut net, &grads);
                } else {
                    apply_sgd(&mut net, &grads, 0.0001);
                }
            }
            (0..8)
                .map(|i| {
                    let x = i as f64 / 8.0;
                    (net.forward(&[x])[0] - (2.0 * x - 1.0)).powi(2)
                })
                .sum()
        };
        assert!(train(true) < train(false));
    }

    #[test]
    fn gradient_accumulate_and_scale() {
        let net = Mlp::new(&[2, 2], 1);
        let mut a = Gradients::zeros_like(&net);
        let mut b = Gradients::zeros_like(&net);
        b.weights[0][0] = 4.0;
        a.accumulate(&b);
        a.accumulate(&b);
        a.scale(0.5);
        assert_eq!(a.weights[0][0], 4.0);
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn wrong_input_panics() {
        let net = Mlp::new(&[3, 2], 1);
        let _ = net.forward(&[1.0]);
    }
}
