//! Proximal Policy Optimization (PPO2), as profiled in paper §III.
//!
//! Clipped-surrogate PPO with GAE(λ) advantages, minibatch epochs, and
//! separate actor/critic MLPs — a from-scratch equivalent of the
//! stable-baselines PPO2 the paper profiles.

use crate::agent::{Agent, Sample};
use crate::mlp::Gradients;
use crate::NetworkSize;
use e3_envs::EnvId;
use rand::seq::SliceRandom;
use std::time::Instant;

/// PPO hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PpoConfig {
    /// Task environment.
    pub env: EnvId,
    /// Policy/critic network size.
    pub size: NetworkSize,
    /// Rollout horizon between updates.
    pub horizon: usize,
    /// Discount factor.
    pub gamma: f64,
    /// GAE smoothing factor λ.
    pub gae_lambda: f64,
    /// Surrogate clip range ε.
    pub clip: f64,
    /// Optimization epochs per rollout.
    pub epochs: usize,
    /// Minibatch size.
    pub minibatch: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Critic loss weight.
    pub value_coef: f64,
    /// Entropy bonus weight.
    pub entropy_coef: f64,
}

impl PpoConfig {
    /// Stable-baselines-like defaults.
    pub fn new(env: EnvId, size: NetworkSize) -> Self {
        PpoConfig {
            env,
            size,
            horizon: 128,
            gamma: 0.99,
            gae_lambda: 0.95,
            clip: 0.2,
            epochs: 4,
            minibatch: 32,
            learning_rate: 3e-4,
            value_coef: 0.5,
            entropy_coef: 0.01,
        }
    }
}

/// A PPO agent bound to one environment.
///
/// # Example
///
/// ```
/// use e3_rl::{Ppo, PpoConfig, NetworkSize};
/// use e3_envs::EnvId;
///
/// let mut agent = Ppo::new(PpoConfig::new(EnvId::CartPole, NetworkSize::Small), 3);
/// agent.train_steps(128);
/// assert!(agent.total_env_steps() >= 128);
/// ```
pub type Ppo = Agent<PpoConfig>;

impl Agent<PpoConfig> {
    /// Creates an agent with deterministic initialization.
    pub fn new(config: PpoConfig, seed: u64) -> Self {
        let (env, size, learning_rate) = (config.env, config.size, config.learning_rate);
        Agent::build(config, env, size, learning_rate, seed, 3)
    }

    /// Trains for at least `env_steps` environment steps (whole
    /// rollouts) and returns [`Agent::recent_reward`].
    pub fn train_steps(&mut self, env_steps: u64) -> f64 {
        let target = self.total_env_steps + env_steps;
        while self.total_env_steps < target {
            let (samples, bootstrap) = self.rollout(self.config.horizon);
            self.update(&samples, bootstrap);
        }
        self.recent_reward()
    }

    fn update(&mut self, samples: &[Sample], bootstrap: f64) {
        let start = Instant::now();
        // GAE(λ) advantages.
        let n = samples.len();
        let mut advantages = vec![0.0; n];
        let mut next_value = bootstrap;
        let mut gae = 0.0;
        for i in (0..n).rev() {
            let s = &samples[i];
            let not_done = if s.done { 0.0 } else { 1.0 };
            let delta = s.reward + self.config.gamma * next_value * not_done - s.value;
            gae = delta + self.config.gamma * self.config.gae_lambda * not_done * gae;
            advantages[i] = gae;
            next_value = s.value;
        }
        let returns: Vec<f64> = advantages
            .iter()
            .zip(samples)
            .map(|(a, s)| a + s.value)
            .collect();
        // Normalize advantages.
        let mean = advantages.iter().sum::<f64>() / n as f64;
        let var = advantages
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f64>()
            / n as f64;
        let std = var.sqrt().max(1e-8);
        for a in &mut advantages {
            *a = (*a - mean) / std;
        }

        let mut indices: Vec<usize> = (0..n).collect();
        for _ in 0..self.config.epochs {
            indices.shuffle(&mut self.rng);
            for chunk in indices.chunks(self.config.minibatch) {
                let mut actor_grads = Gradients::zeros_like(&self.actor);
                let mut critic_grads = Gradients::zeros_like(&self.critic);
                for &i in chunk {
                    let s = &samples[i];
                    let adv = advantages[i];
                    let (logits, actor_cache) = self.actor.forward_cached(&s.obs);
                    let log_prob = self.head.log_prob(&logits, &s.raw);
                    let ratio = (log_prob - s.log_prob_old).exp();
                    // Clipped surrogate: gradient is zero where the
                    // clipped branch is active.
                    let clipped = (adv > 0.0 && ratio > 1.0 + self.config.clip)
                        || (adv < 0.0 && ratio < 1.0 - self.config.clip);
                    let glp = self.head.grad_log_prob(&logits, &s.raw);
                    let gent = self.head.grad_entropy(&logits);
                    let grad_out: Vec<f64> = glp
                        .iter()
                        .zip(&gent)
                        .map(|(g, e)| {
                            let policy = if clipped { 0.0 } else { -adv * ratio * g };
                            policy - self.config.entropy_coef * e
                        })
                        .collect();
                    actor_grads.accumulate(&self.actor.backward(&actor_cache, &grad_out));

                    let (value, critic_cache) = self.critic.forward_cached(&s.obs);
                    let grad_v = 2.0 * self.config.value_coef * (value[0] - returns[i]);
                    critic_grads.accumulate(&self.critic.backward(&critic_cache, &[grad_v]));
                }
                let scale = 1.0 / chunk.len() as f64;
                actor_grads.scale(scale);
                critic_grads.scale(scale);
                self.actor_opt.step(&mut self.actor, &actor_grads);
                self.critic_opt.step(&mut self.critic, &critic_grads);
            }
        }
        self.profile.add_training(start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_profiles_both_phases() {
        let mut agent = Ppo::new(PpoConfig::new(EnvId::CartPole, NetworkSize::Small), 4);
        agent.train_steps(128);
        let (forward, training) = agent.profile().fractions();
        assert!(forward > 0.0 && training > 0.0);
    }

    #[test]
    fn training_dominates_runtime_as_in_fig3() {
        // Paper Fig. 3: Training ≈ 60% of RL runtime. With 4 epochs of
        // reuse the backward work must outweigh the rollout.
        let mut agent = Ppo::new(PpoConfig::new(EnvId::CartPole, NetworkSize::Small), 6);
        agent.train_steps(1024);
        let (_, training) = agent.profile().fractions();
        assert!(
            training > 0.5,
            "training fraction {training} should dominate"
        );
    }

    #[test]
    fn cartpole_reward_improves_with_training() {
        let mut agent = Ppo::new(PpoConfig::new(EnvId::CartPole, NetworkSize::Small), 8);
        agent.train_steps(1_000);
        let early = agent.recent_reward();
        agent.train_steps(25_000);
        let late = agent.recent_reward();
        assert!(
            late > early + 10.0 || late > 150.0,
            "PPO should improve on CartPole: {early} -> {late}"
        );
    }

    #[test]
    fn continuous_envs_are_supported() {
        let mut agent = Ppo::new(PpoConfig::new(EnvId::Pendulum, NetworkSize::Small), 2);
        agent.train_steps(256);
        assert!(agent.total_env_steps() >= 256);
    }

    #[test]
    fn determinism_across_identical_seeds() {
        let run = |seed| {
            let mut a = Ppo::new(PpoConfig::new(EnvId::CartPole, NetworkSize::Small), seed);
            a.train_steps(256);
            a.recent_reward()
        };
        assert_eq!(run(12), run(12));
    }
}
