//! The actor-critic agent A2C and PPO share: both are one agent — an
//! environment, actor and critic MLPs with their optimizers, a policy
//! head, an RNG, episode bookkeeping and the rollout — around two
//! update rules. The algorithm is [`Agent`]'s config type, whose
//! module adds the constructor, `train_steps` and the update.

use crate::head::PolicyHead;
use crate::mlp::{Adam, Mlp};
use crate::profile::RlProfile;
use crate::NetworkSize;
use e3_envs::{EnvId, Environment};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One stored transition of a rollout.
#[derive(Debug, Clone)]
pub(crate) struct Sample {
    pub obs: Vec<f64>,
    pub raw: Vec<f64>,
    /// Log-probability of the action under the policy that sampled it.
    pub log_prob_old: f64,
    pub reward: f64,
    pub done: bool,
    pub value: f64,
}

/// An actor-critic agent bound to one environment, trained by the
/// update rule of its config type: [`crate::A2c`] or [`crate::Ppo`].
pub struct Agent<C> {
    pub(crate) config: C,
    pub(crate) actor: Mlp,
    pub(crate) critic: Mlp,
    pub(crate) actor_opt: Adam,
    pub(crate) critic_opt: Adam,
    pub(crate) head: PolicyHead,
    env: Box<dyn Environment>,
    obs: Vec<f64>,
    pub(crate) rng: StdRng,
    pub(crate) profile: RlProfile,
    episode_reward: f64,
    recent_rewards: Vec<f64>,
    episode_seed: u64,
    pub(crate) total_env_steps: u64,
}

impl<C: std::fmt::Debug> std::fmt::Debug for Agent<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Agent")
            .field("env", &self.env.name())
            .field("config", &self.config)
            .field("total_env_steps", &self.total_env_steps)
            .finish_non_exhaustive()
    }
}

impl<C> Agent<C> {
    /// Builds the agent with deterministic initialization: the actor is
    /// seeded `seed · seed_stride + 1` and the critic `+ 2`, so the two
    /// algorithms never share initial weights at one seed.
    pub(crate) fn build(
        config: C,
        env_id: EnvId,
        size: NetworkSize,
        learning_rate: f64,
        seed: u64,
        seed_stride: u64,
    ) -> Self {
        let mut env = env_id.make();
        let head = PolicyHead::for_space(&env.action_space());
        let inputs = env_id.observation_size();
        let layers = |outputs: usize| [&[inputs], size.hidden_layers(), &[outputs]].concat();
        let network_seed = seed.wrapping_mul(seed_stride);
        let actor = Mlp::new(&layers(head.input_size()), network_seed.wrapping_add(1));
        let critic = Mlp::new(&layers(1), network_seed.wrapping_add(2));
        let actor_opt = Adam::new(&actor, learning_rate);
        let critic_opt = Adam::new(&critic, learning_rate);
        let obs = env.reset(seed);
        Agent {
            config,
            actor,
            critic,
            actor_opt,
            critic_opt,
            head,
            env,
            obs,
            rng: StdRng::seed_from_u64(seed),
            profile: RlProfile::new(),
            episode_reward: 0.0,
            recent_rewards: Vec::new(),
            episode_seed: seed,
            total_env_steps: 0,
        }
    }

    /// Accumulated Forward/Training runtime split.
    pub fn profile(&self) -> RlProfile {
        self.profile
    }

    /// Environment steps taken so far.
    pub fn total_env_steps(&self) -> u64 {
        self.total_env_steps
    }

    /// Mean reward of the most recent completed episodes (up to 20);
    /// NaN-free, `NEG_INFINITY` before any episode finishes.
    pub(crate) fn recent_reward(&self) -> f64 {
        if self.recent_rewards.is_empty() {
            return f64::NEG_INFINITY;
        }
        let tail = &self.recent_rewards[self.recent_rewards.len().saturating_sub(20)..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }

    /// Acts for `horizon` environment steps under the current policy
    /// and returns the transitions with the critic's bootstrap value
    /// for the state after the last one (zero if it ended an episode).
    pub(crate) fn rollout(&mut self, horizon: usize) -> (Vec<Sample>, f64) {
        let start = Instant::now();
        let mut samples = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let logits = self.actor.forward(&self.obs);
            let value = self.critic.forward(&self.obs)[0];
            let sampled = self.head.sample(&logits, &mut self.rng);
            let step = self.env.step(&sampled.action);
            self.episode_reward += step.reward;
            self.total_env_steps += 1;
            let done = step.terminated || step.truncated;
            samples.push(Sample {
                obs: std::mem::replace(&mut self.obs, step.observation),
                raw: sampled.raw,
                log_prob_old: sampled.log_prob,
                reward: step.reward,
                done,
                value,
            });
            if done {
                self.recent_rewards.push(self.episode_reward);
                self.episode_reward = 0.0;
                self.episode_seed += 1;
                self.obs = self.env.reset(self.episode_seed);
            }
        }
        let bootstrap = if samples.last().is_some_and(|s| s.done) {
            0.0
        } else {
            self.critic.forward(&self.obs)[0]
        };
        self.profile.add_forward(start.elapsed());
        (samples, bootstrap)
    }
}
