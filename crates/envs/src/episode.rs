//! Policy-environment rollout helpers.
//!
//! The E3 "evaluate" phase is exactly this loop: feed the observation
//! through a network, decode the output into an action, step the
//! environment, repeat until the episode ends, and report the summed
//! reward as the genome's fitness.

use crate::env::{Action, ActionSpace, Environment, Transition};

/// Anything that maps observations to raw network outputs.
///
/// Implemented for closures, so a decoded NEAT network plugs in as
/// `|obs: &[f64]| net.activate(obs)`.
pub trait Policy {
    /// Produces the raw output vector for one observation.
    fn act(&mut self, observation: &[f64]) -> Vec<f64>;
}

impl<F: FnMut(&[f64]) -> Vec<f64>> Policy for F {
    fn act(&mut self, observation: &[f64]) -> Vec<f64> {
        self(observation)
    }
}

/// Summary of one episode rollout.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeResult {
    /// Sum of rewards (the genome's fitness).
    pub total_reward: f64,
    /// Number of environment steps taken.
    pub steps: usize,
    /// Whether the episode ended by termination (vs truncation).
    pub terminated: bool,
}

/// Decodes raw policy outputs into an environment action:
/// argmax for discrete spaces; for continuous spaces each output is
/// interpreted in `[-1, 1]` and rescaled to the per-dimension bounds.
///
/// # Panics
///
/// Panics if `outputs.len()` differs from
/// `ActionSpace::policy_outputs`.
pub fn decode_action(outputs: &[f64], space: &ActionSpace) -> Action {
    let mut action = Action::Discrete(0);
    decode_action_into(outputs, space, &mut action);
    action
}

/// [`decode_action`] into an existing action. A continuous action
/// reuses its vector, so decoding allocates only the first time it
/// meets a continuous space.
///
/// # Panics
///
/// As [`decode_action`].
pub(crate) fn decode_action_into(outputs: &[f64], space: &ActionSpace, action: &mut Action) {
    assert_eq!(
        outputs.len(),
        space.policy_outputs(),
        "policy produced {} outputs for a space needing {}",
        outputs.len(),
        space.policy_outputs()
    );
    match space {
        ActionSpace::Discrete(_) => {
            let best = outputs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("policy_outputs >= 1");
            *action = Action::Discrete(best);
        }
        ActionSpace::Continuous { low, high } => {
            let values = outputs
                .iter()
                .zip(low.iter().zip(high))
                .map(|(&x, (&lo, &hi))| {
                    let unit = x.clamp(-1.0, 1.0);
                    lo + (unit + 1.0) / 2.0 * (hi - lo)
                });
            match action {
                Action::Continuous(reused) => {
                    reused.clear();
                    reused.extend(values);
                }
                other => *other = Action::Continuous(values.collect()),
            }
        }
    }
}

/// The per-environment state an episode loop keeps outside the
/// environment — its action space, read once, the observation row and
/// the decoded action — reused across steps and episodes, so that a step
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct Episode {
    space: ActionSpace,
    observation: Vec<f64>,
    action: Action,
}

impl Episode {
    /// Buffers sized for `env`.
    pub fn new(env: &dyn Environment) -> Self {
        Episode {
            space: env.action_space(),
            observation: vec![0.0; env.observation_size()],
            action: Action::Discrete(0),
        }
    }

    /// Starts an episode of `env` from `seed`; its first observation is
    /// [`Episode::observation`].
    ///
    /// # Panics
    ///
    /// Panics if `env`'s observation size is not the one the buffers
    /// were built for.
    pub fn reset(&mut self, env: &mut dyn Environment, seed: u64) {
        env.reset_into(seed, &mut self.observation);
    }

    /// The current observation.
    pub fn observation(&self) -> &[f64] {
        &self.observation
    }

    /// Decodes `outputs` into an action and steps `env` with it.
    ///
    /// # Panics
    ///
    /// As [`decode_action`] and [`Environment::step_into`].
    pub fn step(&mut self, env: &mut dyn Environment, outputs: &[f64]) -> Transition {
        decode_action_into(outputs, &self.space, &mut self.action);
        env.step_into(&self.action, &mut self.observation)
    }
}

/// Runs one full episode of `policy` in `env` from `seed` and returns
/// the rollout summary.
pub fn run_episode<P: Policy + ?Sized>(
    env: &mut dyn Environment,
    policy: &mut P,
    seed: u64,
) -> EpisodeResult {
    let mut episode = Episode::new(env);
    episode.reset(env, seed);
    let mut total_reward = 0.0;
    let mut steps = 0;
    loop {
        let outputs = policy.act(episode.observation());
        let transition = episode.step(env, &outputs);
        total_reward += transition.reward;
        steps += 1;
        if transition.done() {
            return EpisodeResult {
                total_reward,
                steps,
                terminated: transition.terminated,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cartpole::CartPole;
    use crate::pendulum::Pendulum;

    #[test]
    fn decode_discrete_takes_argmax() {
        let a = decode_action(&[0.1, 0.9, -0.5], &ActionSpace::Discrete(3));
        assert_eq!(a, Action::Discrete(1));
    }

    #[test]
    fn decode_continuous_rescales_to_bounds() {
        let space = ActionSpace::Continuous {
            low: vec![-2.0],
            high: vec![2.0],
        };
        assert_eq!(decode_action(&[0.0], &space), Action::Continuous(vec![0.0]));
        assert_eq!(decode_action(&[1.0], &space), Action::Continuous(vec![2.0]));
        assert_eq!(
            decode_action(&[-1.0], &space),
            Action::Continuous(vec![-2.0])
        );
        // Out-of-range outputs are clamped first.
        assert_eq!(decode_action(&[7.0], &space), Action::Continuous(vec![2.0]));
    }

    #[test]
    #[should_panic(expected = "policy produced")]
    fn decode_checks_output_count() {
        let _ = decode_action(&[0.1], &ActionSpace::Discrete(3));
    }

    #[test]
    fn decode_into_reuses_a_continuous_vector() {
        let space = ActionSpace::symmetric(2, 2.0);
        let mut action = Action::Discrete(0);
        decode_action_into(&[0.5, -0.5], &space, &mut action);
        let Action::Continuous(first) = &action else {
            panic!("decoded {action:?}");
        };
        let buffer = first.as_ptr();
        decode_action_into(&[1.0, 7.0], &space, &mut action);
        assert_eq!(action, Action::Continuous(vec![2.0, 2.0]));
        let Action::Continuous(second) = &action else {
            unreachable!()
        };
        assert_eq!(second.as_ptr(), buffer, "the vector was reallocated");
        decode_action_into(&[0.1, 0.9, -0.5], &ActionSpace::Discrete(3), &mut action);
        assert_eq!(action, Action::Discrete(1));
    }

    #[test]
    fn rollout_accumulates_reward_and_steps() {
        let mut env = CartPole::new();
        let mut policy = |obs: &[f64]| vec![-(obs[2] + obs[3]), obs[2] + obs[3]];
        let result = run_episode(&mut env, &mut policy, 3);
        assert_eq!(
            result.total_reward, result.steps as f64,
            "cartpole pays 1 per step"
        );
        assert!(result.steps >= 400, "feedback policy survives long");
    }

    #[test]
    fn rollout_works_for_continuous_spaces() {
        let mut env = Pendulum::new();
        let mut policy = |_: &[f64]| vec![0.0];
        let result = run_episode(&mut env, &mut policy, 1);
        assert_eq!(result.steps, 200);
        assert!(!result.terminated);
        assert!(result.total_reward < 0.0);
    }
}
