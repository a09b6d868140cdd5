//! Policy-environment rollout helpers.
//!
//! The E3 "evaluate" phase is exactly this loop: feed the observation
//! through a network, decode the output into an action, step the
//! environment, repeat until the episode ends, and report the summed
//! reward as the genome's fitness.

use crate::env::{Action, ActionSpace, Environment};

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
/// [`ActionSpace::policy_outputs`].
pub fn decode_action(outputs: &[f64], space: &ActionSpace) -> Action {
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
            Action::Discrete(best)
        }
        ActionSpace::Continuous { low, high } => {
            let values = outputs
                .iter()
                .zip(low.iter().zip(high))
                .map(|(&x, (&lo, &hi))| {
                    let unit = x.clamp(-1.0, 1.0);
                    lo + (unit + 1.0) / 2.0 * (hi - lo)
                })
                .collect();
            Action::Continuous(values)
        }
    }
}

/// Runs one full episode of `policy` in `env` from `seed` and returns
/// the rollout summary.
pub fn run_episode<P: Policy + ?Sized>(
    env: &mut dyn Environment,
    policy: &mut P,
    seed: u64,
) -> EpisodeResult {
    let space = env.action_space();
    let mut obs = env.reset(seed);
    let mut total_reward = 0.0;
    let mut steps = 0;
    loop {
        let outputs = policy.act(&obs);
        let action = decode_action(&outputs, &space);
        let transition = env.step_into(&action, &mut obs);
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
