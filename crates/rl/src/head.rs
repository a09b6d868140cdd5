//! Policy heads: categorical (discrete actions) and Gaussian
//! (continuous actions), with closed-form gradients with respect to
//! the network's raw outputs.

use e3_envs::{Action, ActionSpace};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A stochastic policy head over an environment's action space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum PolicyHead {
    /// Softmax over `n` logits.
    Categorical {
        /// Number of actions.
        n: usize,
    },
    /// Independent Gaussians: the network outputs the means; a fixed
    /// exploration stddev is used (common for small control tasks).
    Gaussian {
        /// Per-dimension bounds, used to rescale the tanh-squashed
        /// mean.
        low: Vec<f64>,
        /// Upper bounds.
        high: Vec<f64>,
        /// Exploration standard deviation in squashed units.
        sigma: f64,
    },
}

/// A sampled action together with the statistics the losses need.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SampledAction {
    /// The environment action.
    pub action: Action,
    /// `log π(a | s)`.
    pub log_prob: f64,
    /// Raw sample in head-space (the action index, or the unsquashed
    /// Gaussian sample), needed to re-evaluate log-probs in PPO.
    pub raw: Vec<f64>,
}

impl PolicyHead {
    /// Builds the natural head for an action space.
    pub(crate) fn for_space(space: &ActionSpace) -> Self {
        match space {
            ActionSpace::Discrete(n) => PolicyHead::Categorical { n: *n },
            ActionSpace::Continuous { low, high } => PolicyHead::Gaussian {
                low: low.clone(),
                high: high.clone(),
                sigma: 0.3,
            },
        }
    }

    /// Number of network outputs the head consumes.
    pub(crate) fn input_size(&self) -> usize {
        match self {
            PolicyHead::Categorical { n } => *n,
            PolicyHead::Gaussian { low, .. } => low.len(),
        }
    }

    /// Samples an action from the head applied to `outputs`.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, outputs: &[f64], rng: &mut R) -> SampledAction {
        match self {
            PolicyHead::Categorical { n } => {
                let probs = softmax(outputs);
                debug_assert_eq!(probs.len(), *n);
                let u: f64 = rng.gen();
                let mut acc = 0.0;
                let mut pick = n - 1;
                for (i, p) in probs.iter().enumerate() {
                    acc += p;
                    if u <= acc {
                        pick = i;
                        break;
                    }
                }
                SampledAction {
                    action: Action::Discrete(pick),
                    log_prob: probs[pick].max(1e-12).ln(),
                    raw: vec![pick as f64],
                }
            }
            PolicyHead::Gaussian { low, high, sigma } => {
                let mut raw = Vec::with_capacity(outputs.len());
                let mut log_prob = 0.0;
                let mut values = Vec::with_capacity(outputs.len());
                for (i, &mean) in outputs.iter().enumerate() {
                    let z = sample_normal(rng);
                    let x = mean + sigma * z;
                    log_prob += gaussian_log_pdf(x, mean, *sigma);
                    raw.push(x);
                    let unit = x.tanh();
                    values.push(low[i] + (unit + 1.0) / 2.0 * (high[i] - low[i]));
                }
                SampledAction {
                    action: Action::Continuous(values),
                    log_prob,
                    raw,
                }
            }
        }
    }

    /// `log π(raw | outputs)` for a previously sampled raw action.
    pub(crate) fn log_prob(&self, outputs: &[f64], raw: &[f64]) -> f64 {
        match self {
            PolicyHead::Categorical { .. } => {
                let probs = softmax(outputs);
                probs[raw[0] as usize].max(1e-12).ln()
            }
            PolicyHead::Gaussian { sigma, .. } => raw
                .iter()
                .zip(outputs)
                .map(|(&x, &mean)| gaussian_log_pdf(x, mean, *sigma))
                .sum(),
        }
    }

    /// Gradient of `log π(raw)` with respect to the network outputs.
    pub(crate) fn grad_log_prob(&self, outputs: &[f64], raw: &[f64]) -> Vec<f64> {
        match self {
            PolicyHead::Categorical { .. } => {
                // d log π(a) / d logit_i = 1[i == a] - π_i.
                let probs = softmax(outputs);
                let a = raw[0] as usize;
                probs
                    .iter()
                    .enumerate()
                    .map(|(i, p)| if i == a { 1.0 - p } else { -p })
                    .collect()
            }
            PolicyHead::Gaussian { sigma, .. } => {
                // d log N(x; μ, σ) / dμ = (x - μ) / σ².
                raw.iter()
                    .zip(outputs)
                    .map(|(&x, &mean)| (x - mean) / (sigma * sigma))
                    .collect()
            }
        }
    }

    /// Gradient of the entropy with respect to the network outputs
    /// (zero for the fixed-σ Gaussian head).
    pub(crate) fn grad_entropy(&self, outputs: &[f64]) -> Vec<f64> {
        match self {
            PolicyHead::Categorical { .. } => {
                // dH/dlogit_i = -π_i (log π_i + H).
                let probs = softmax(outputs);
                let h = -probs.iter().map(|p| p * p.max(1e-12).ln()).sum::<f64>();
                probs
                    .iter()
                    .map(|&p| -p * (p.max(1e-12).ln() + h))
                    .collect()
            }
            PolicyHead::Gaussian { low, .. } => vec![0.0; low.len()],
        }
    }
}

/// Numerically stable softmax.
pub(crate) fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

fn gaussian_log_pdf(x: f64, mean: f64, sigma: f64) -> f64 {
    let z = (x - mean) / sigma;
    -0.5 * z * z - sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
}

fn sample_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Stability under large logits.
        let q = softmax(&[1000.0, 1001.0]);
        assert!(q.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn categorical_sampling_tracks_probabilities() {
        let head = PolicyHead::Categorical { n: 3 };
        let logits = [0.0, 2.0, 0.0];
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            if let Action::Discrete(a) = head.sample(&logits, &mut rng).action {
                counts[a] += 1;
            }
        }
        let probs = softmax(&logits);
        for (c, p) in counts.iter().zip(&probs) {
            let freq = *c as f64 / 3000.0;
            assert!((freq - p).abs() < 0.05, "freq {freq} vs prob {p}");
        }
    }

    #[test]
    fn categorical_grad_log_prob_matches_finite_difference() {
        let head = PolicyHead::Categorical { n: 3 };
        let logits = [0.3, -0.2, 0.9];
        let raw = [2.0];
        let grad = head.grad_log_prob(&logits, &raw);
        let eps = 1e-6;
        for i in 0..3 {
            let mut plus = logits;
            plus[i] += eps;
            let numeric = (head.log_prob(&plus, &raw) - head.log_prob(&logits, &raw)) / eps;
            assert!(
                (numeric - grad[i]).abs() < 1e-5,
                "dim {i}: {numeric} vs {}",
                grad[i]
            );
        }
    }

    #[test]
    fn categorical_grad_entropy_matches_finite_difference() {
        let head = PolicyHead::Categorical { n: 3 };
        let logits = [0.1, 0.5, -0.4];
        let grad = head.grad_entropy(&logits);
        let entropy = |x: &[f64]| -> f64 {
            let probs = softmax(x);
            -probs.iter().map(|p| p * p.max(1e-12).ln()).sum::<f64>()
        };
        let eps = 1e-6;
        for i in 0..3 {
            let mut plus = logits;
            plus[i] += eps;
            let numeric = (entropy(&plus) - entropy(&logits)) / eps;
            assert!((numeric - grad[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn gaussian_grad_log_prob_matches_finite_difference() {
        let head = PolicyHead::Gaussian {
            low: vec![-2.0, -2.0],
            high: vec![2.0, 2.0],
            sigma: 0.5,
        };
        let means = [0.2, -0.6];
        let raw = [0.5, -0.1];
        let grad = head.grad_log_prob(&means, &raw);
        let eps = 1e-6;
        for i in 0..2 {
            let mut plus = means;
            plus[i] += eps;
            let numeric = (head.log_prob(&plus, &raw) - head.log_prob(&means, &raw)) / eps;
            assert!((numeric - grad[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn gaussian_actions_respect_bounds() {
        let head = PolicyHead::Gaussian {
            low: vec![-2.0],
            high: vec![2.0],
            sigma: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            if let Action::Continuous(v) = head.sample(&[10.0], &mut rng).action {
                assert!((-2.0..=2.0).contains(&v[0]));
            }
        }
    }

    #[test]
    fn head_for_space_picks_matching_variant() {
        assert_eq!(
            PolicyHead::for_space(&ActionSpace::Discrete(4)).input_size(),
            4
        );
        let space = ActionSpace::Continuous {
            low: vec![-1.0; 3],
            high: vec![1.0; 3],
        };
        assert_eq!(PolicyHead::for_space(&space).input_size(), 3);
    }
}
