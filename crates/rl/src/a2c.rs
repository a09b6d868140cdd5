//! Advantage Actor-Critic (A2C), as profiled in paper §III.
//!
//! Synchronous n-step A2C with separate actor and critic MLPs:
//! rollouts of `n_steps` transitions, bootstrapped discounted returns,
//! advantage-weighted policy gradient with an entropy bonus, and an
//! MSE critic loss, optimized with Adam.

use crate::agent::{Agent, Sample};
use crate::mlp::Gradients;
use crate::NetworkSize;
use e3_envs::EnvId;
use std::time::Instant;

/// A2C hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct A2cConfig {
    /// Task environment.
    pub env: EnvId,
    /// Policy/critic network size (paper: Small or Large).
    pub size: NetworkSize,
    /// Rollout length between updates.
    pub n_steps: usize,
    /// Discount factor.
    pub gamma: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Critic loss weight.
    pub value_coef: f64,
    /// Entropy bonus weight.
    pub entropy_coef: f64,
}

impl A2cConfig {
    /// Stable-baselines-like defaults for the given task and size.
    pub fn new(env: EnvId, size: NetworkSize) -> Self {
        A2cConfig {
            env,
            size,
            n_steps: 8,
            gamma: 0.99,
            learning_rate: 7e-4,
            value_coef: 0.5,
            entropy_coef: 0.01,
        }
    }
}

/// An A2C agent bound to one environment.
///
/// # Example
///
/// ```
/// use e3_rl::{A2c, A2cConfig, NetworkSize};
/// use e3_envs::EnvId;
///
/// let mut agent = A2c::new(A2cConfig::new(EnvId::CartPole, NetworkSize::Small), 3);
/// agent.train_steps(64);
/// assert!(agent.total_env_steps() >= 64);
/// ```
pub type A2c = Agent<A2cConfig>;

impl Agent<A2cConfig> {
    /// Creates an agent with deterministic initialization.
    pub fn new(config: A2cConfig, seed: u64) -> Self {
        let (env, size, learning_rate) = (config.env, config.size, config.learning_rate);
        Agent::build(config, env, size, learning_rate, seed, 2)
    }

    /// Trains for at least `env_steps` environment steps (whole
    /// rollouts) and returns [`Agent::recent_reward`].
    pub fn train_steps(&mut self, env_steps: u64) -> f64 {
        let target = self.total_env_steps + env_steps;
        while self.total_env_steps < target {
            let (transitions, bootstrap) = self.rollout(self.config.n_steps);
            self.update(&transitions, bootstrap);
        }
        self.recent_reward()
    }

    fn update(&mut self, transitions: &[Sample], bootstrap: f64) {
        let start = Instant::now();
        // Discounted bootstrapped returns, walked backwards.
        let mut returns = vec![0.0; transitions.len()];
        let mut ret = bootstrap;
        for (i, t) in transitions.iter().enumerate().rev() {
            if t.done {
                ret = 0.0;
            }
            ret = t.reward + self.config.gamma * ret;
            returns[i] = ret;
        }

        let mut actor_grads = Gradients::zeros_like(&self.actor);
        let mut critic_grads = Gradients::zeros_like(&self.critic);
        for (t, &ret) in transitions.iter().zip(&returns) {
            let advantage = ret - t.value;
            let (logits, actor_cache) = self.actor.forward_cached(&t.obs);
            // L = -logπ(a)·A - β·H ⇒ dL/dout = -A·∇logπ - β·∇H.
            let glp = self.head.grad_log_prob(&logits, &t.raw);
            let gent = self.head.grad_entropy(&logits);
            let grad_out: Vec<f64> = glp
                .iter()
                .zip(&gent)
                .map(|(g, e)| -advantage * g - self.config.entropy_coef * e)
                .collect();
            actor_grads.accumulate(&self.actor.backward(&actor_cache, &grad_out));

            let (value, critic_cache) = self.critic.forward_cached(&t.obs);
            let grad_v = 2.0 * self.config.value_coef * (value[0] - ret);
            critic_grads.accumulate(&self.critic.backward(&critic_cache, &[grad_v]));
        }
        let scale = 1.0 / transitions.len().max(1) as f64;
        actor_grads.scale(scale);
        critic_grads.scale(scale);
        self.actor_opt.step(&mut self.actor, &actor_grads);
        self.critic_opt.step(&mut self.critic, &critic_grads);
        self.profile.add_training(start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_accumulates_steps_and_profiles_both_phases() {
        let mut agent = A2c::new(A2cConfig::new(EnvId::CartPole, NetworkSize::Small), 5);
        agent.train_steps(256);
        assert!(agent.total_env_steps() >= 256);
        let (forward, training) = agent.profile().fractions();
        assert!(forward > 0.0 && training > 0.0);
    }

    #[test]
    fn cartpole_reward_improves_with_training() {
        let mut agent = A2c::new(A2cConfig::new(EnvId::CartPole, NetworkSize::Small), 11);
        agent.train_steps(2_000);
        let early = agent.recent_reward();
        agent.train_steps(30_000);
        let late = agent.recent_reward();
        assert!(
            late > early + 10.0 || late > 100.0,
            "A2C should improve on CartPole: {early} -> {late}"
        );
    }

    #[test]
    fn continuous_envs_are_supported() {
        let mut agent = A2c::new(A2cConfig::new(EnvId::Pendulum, NetworkSize::Small), 2);
        let reward = agent.train_steps(600);
        assert!(reward.is_finite() || reward == f64::NEG_INFINITY);
        assert!(agent.total_env_steps() >= 600);
    }

    #[test]
    fn network_sizes_follow_paper_table5() {
        let agent = A2c::new(A2cConfig::new(EnvId::Acrobot, NetworkSize::Small), 1);
        // Acrobot small actor: 6 inputs, 64, 64, 3 outputs.
        assert_eq!(agent.actor.num_nodes(), 6 + 64 + 64 + 3);
        let large = A2c::new(A2cConfig::new(EnvId::Bipedal, NetworkSize::Large), 1);
        assert_eq!(large.actor.num_nodes(), 24 + 256 * 3 + 4);
    }

    #[test]
    fn determinism_across_identical_seeds() {
        let run = |seed| {
            let mut a = A2c::new(A2cConfig::new(EnvId::CartPole, NetworkSize::Small), seed);
            a.train_steps(200);
            a.recent_reward()
        };
        assert_eq!(run(9), run(9));
    }
}
