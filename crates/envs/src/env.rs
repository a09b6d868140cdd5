//! The [`Environment`] trait and action/step types.

use serde::{Deserialize, Serialize};

/// The action space an environment accepts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ActionSpace {
    /// `n` mutually exclusive actions, selected by index.
    Discrete(usize),
    /// A box of continuous actions with per-dimension bounds.
    Continuous {
        /// Lower bound per action dimension.
        low: Vec<f64>,
        /// Upper bound per action dimension.
        high: Vec<f64>,
    },
}

impl ActionSpace {
    /// Convenience constructor for a symmetric continuous box
    /// `[-bound, bound]^dims`.
    pub fn symmetric(dims: usize, bound: f64) -> Self {
        ActionSpace::Continuous {
            low: vec![-bound; dims],
            high: vec![bound; dims],
        }
    }

    /// Number of values a policy network must output to drive this
    /// space: the action count for discrete spaces (one logit per
    /// action), the dimension count for continuous spaces.
    pub fn policy_outputs(&self) -> usize {
        match self {
            ActionSpace::Discrete(n) => *n,
            ActionSpace::Continuous { low, .. } => low.len(),
        }
    }
}

/// An action submitted to [`Environment::step_into`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Action {
    /// Index into a discrete action space.
    Discrete(usize),
    /// Value vector for a continuous action space.
    Continuous(Vec<f64>),
}

/// The result of one allocating [`Environment::step`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Step {
    /// Observation after the transition.
    pub observation: Vec<f64>,
    /// Reward earned by the transition.
    pub reward: f64,
    /// The episode reached a terminal state (success or failure).
    pub terminated: bool,
    /// The episode hit the step limit without terminating.
    pub truncated: bool,
}

impl Step {
    /// Whether the episode is over for either reason.
    pub fn done(&self) -> bool {
        self.terminated || self.truncated
    }
}

/// What one transition reports besides the observation, which
/// [`Environment::step_into`] writes into the caller's row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Reward earned by the transition.
    pub reward: f64,
    /// The episode reached a terminal state (success or failure).
    pub terminated: bool,
    /// The episode hit the step limit without terminating.
    pub truncated: bool,
}

impl Transition {
    /// Whether the episode is over for either reason.
    pub fn done(&self) -> bool {
        self.terminated || self.truncated
    }
}

/// A sequential decision environment in the OpenAI-gym mould.
///
/// Implementations must be deterministic: the trajectory is a pure
/// function of the reset seed and the action sequence. This is what
/// makes E3's experiments reproducible and lets the INAX and CPU
/// backends be compared on identical episodes.
///
/// An environment implements the non-allocating pair
/// [`reset_into`](Environment::reset_into) /
/// [`step_into`](Environment::step_into), which write the observation
/// into a row the caller owns (a [`crate::StepBatch`] lane, for
/// [`crate::ScalarBatch`]). The allocating
/// [`reset`](Environment::reset) / [`step`](Environment::step) are
/// provided on top of that pair and are not meant to be overridden, so
/// each task has exactly one copy of its physics.
pub trait Environment {
    /// Length of the observation vector.
    fn observation_size(&self) -> usize;

    /// The action space.
    fn action_space(&self) -> ActionSpace;

    /// Resets to an initial state drawn deterministically from `seed`
    /// and writes the first observation into `obs`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `obs.len()` differs from
    /// [`Environment::observation_size`].
    fn reset_into(&mut self, seed: u64, obs: &mut [f64]);

    /// Advances one timestep and writes the next observation into
    /// `obs`.
    ///
    /// # Panics
    ///
    /// Implementations panic if the action variant or dimensionality
    /// does not match [`Environment::action_space`], if called after
    /// the episode finished without an intervening reset, or if
    /// `obs.len()` differs from [`Environment::observation_size`].
    fn step_into(&mut self, action: &Action, obs: &mut [f64]) -> Transition;

    /// [`Environment::reset_into`] a freshly allocated observation.
    fn reset(&mut self, seed: u64) -> Vec<f64> {
        let mut observation = vec![0.0; self.observation_size()];
        self.reset_into(seed, &mut observation);
        observation
    }

    /// [`Environment::step_into`] a freshly allocated observation.
    ///
    /// # Panics
    ///
    /// As [`Environment::step_into`].
    fn step(&mut self, action: &Action) -> Step {
        let mut observation = vec![0.0; self.observation_size()];
        let Transition {
            reward,
            terminated,
            truncated,
        } = self.step_into(action, &mut observation);
        Step {
            observation,
            reward,
            terminated,
            truncated,
        }
    }

    /// Maximum steps per episode before truncation.
    fn max_episode_steps(&self) -> usize;

    /// Short name (e.g. `"cartpole"`).
    fn name(&self) -> &'static str;
}

impl<E: Environment + ?Sized> Environment for Box<E> {
    fn observation_size(&self) -> usize {
        (**self).observation_size()
    }

    fn action_space(&self) -> ActionSpace {
        (**self).action_space()
    }

    fn reset_into(&mut self, seed: u64, obs: &mut [f64]) {
        (**self).reset_into(seed, obs)
    }

    fn step_into(&mut self, action: &Action, obs: &mut [f64]) -> Transition {
        (**self).step_into(action, obs)
    }

    // Forwarded too, so a `Box<dyn Environment>` pays one dispatch per
    // call instead of the provided body's two.
    fn reset(&mut self, seed: u64) -> Vec<f64> {
        (**self).reset(seed)
    }

    fn step(&mut self, action: &Action) -> Step {
        (**self).step(action)
    }

    fn max_episode_steps(&self) -> usize {
        (**self).max_episode_steps()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Helper shared by implementations: validates and extracts a discrete
/// action index.
///
/// # Panics
///
/// Panics when the action is continuous or out of range.
pub(crate) fn expect_discrete(action: &Action, n: usize, env: &str) -> usize {
    match action {
        Action::Discrete(i) if *i < n => *i,
        Action::Discrete(i) => panic!("{env}: discrete action {i} out of range 0..{n}"),
        Action::Continuous(_) => panic!("{env}: expected a discrete action"),
    }
}

/// Helper shared by implementations: validates and extracts a
/// continuous action vector, clamped to the bounds.
///
/// # Panics
///
/// Panics when the action is discrete or has the wrong dimension.
pub(crate) fn expect_continuous<const N: usize>(
    action: &Action,
    low: &[f64; N],
    high: &[f64; N],
    env: &str,
) -> [f64; N] {
    match action {
        Action::Continuous(v) if v.len() == N => {
            std::array::from_fn(|i| v[i].clamp(low[i], high[i]))
        }
        Action::Continuous(v) => {
            panic!("{env}: expected {N} action dims, got {}", v.len())
        }
        Action::Discrete(_) => panic!("{env}: expected a continuous action"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_outputs_counts_logits_and_dims() {
        assert_eq!(ActionSpace::Discrete(3).policy_outputs(), 3);
        assert_eq!(ActionSpace::symmetric(4, 1.0).policy_outputs(), 4);
    }

    #[test]
    fn step_done_combines_flags() {
        let mut s = Step {
            observation: vec![],
            reward: 0.0,
            terminated: false,
            truncated: false,
        };
        assert!(!s.done());
        s.terminated = true;
        assert!(s.done());
        s.terminated = false;
        s.truncated = true;
        assert!(s.done());
    }

    #[test]
    fn expect_continuous_clamps_to_bounds() {
        let a = Action::Continuous(vec![5.0, -5.0]);
        let v = expect_continuous(&a, &[-1.0, -1.0], &[1.0, 1.0], "test");
        assert_eq!(v, [1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn expect_discrete_checks_range() {
        expect_discrete(&Action::Discrete(9), 3, "test");
    }
}
