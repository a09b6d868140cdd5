//! Environment wrappers: composable modifiers for deployment studies.
//!
//! The paper's *model-tuning* use case is an agent meeting a shifted
//! version of its training environment ("a robot trained to walk on
//! grass but now encounters sand"). These wrappers produce such shifts
//! deterministically: sensor noise, action repetition (slower control
//! loops), and tighter time limits — without touching the underlying
//! physics implementations.

use crate::env::{Action, ActionSpace, Environment, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Adds deterministic Gaussian noise to every observation.
///
/// The noise stream is seeded from the episode seed, so wrapped
/// environments remain fully reproducible.
///
/// # Example
///
/// ```
/// use e3_envs::{CartPole, Environment};
/// use e3_envs::wrappers::ObservationNoise;
///
/// let mut clean = CartPole::new();
/// let mut noisy = ObservationNoise::new(CartPole::new(), 0.05);
/// let a = clean.reset(3);
/// let b = noisy.reset(3);
/// assert_ne!(a, b, "observations are perturbed");
/// ```
#[derive(Debug, Clone)]
pub struct ObservationNoise<E> {
    inner: E,
    sigma: f64,
    rng: StdRng,
}

impl<E: Environment> ObservationNoise<E> {
    /// Wraps `inner`, adding zero-mean Gaussian noise with standard
    /// deviation `sigma` to every observation component.
    pub fn new(inner: E, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "noise sigma must be non-negative");
        ObservationNoise {
            inner,
            sigma,
            rng: StdRng::seed_from_u64(0),
        }
    }

    fn perturb(&mut self, obs: &mut [f64]) {
        for v in obs {
            let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = self.rng.gen_range(0.0..1.0);
            *v += self.sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

impl<E: Environment> Environment for ObservationNoise<E> {
    fn observation_size(&self) -> usize {
        self.inner.observation_size()
    }

    fn action_space(&self) -> ActionSpace {
        self.inner.action_space()
    }

    fn reset_into(&mut self, seed: u64, obs: &mut [f64]) {
        self.rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        self.inner.reset_into(seed, obs);
        self.perturb(obs);
    }

    fn step_into(&mut self, action: &Action, obs: &mut [f64]) -> Transition {
        let transition = self.inner.step_into(action, obs);
        self.perturb(obs);
        transition
    }

    fn max_episode_steps(&self) -> usize {
        self.inner.max_episode_steps()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Repeats each action for `k` physics steps (a slower control loop),
/// summing the rewards — the standard frame-skip wrapper.
#[derive(Debug, Clone)]
pub struct ActionRepeat<E> {
    inner: E,
    repeat: usize,
}

impl<E: Environment> ActionRepeat<E> {
    /// Wraps `inner`, repeating each submitted action `repeat` times.
    ///
    /// # Panics
    ///
    /// Panics if `repeat == 0`.
    pub fn new(inner: E, repeat: usize) -> Self {
        assert!(repeat > 0, "action repeat must be at least 1");
        ActionRepeat { inner, repeat }
    }
}

impl<E: Environment> Environment for ActionRepeat<E> {
    fn observation_size(&self) -> usize {
        self.inner.observation_size()
    }

    fn action_space(&self) -> ActionSpace {
        self.inner.action_space()
    }

    fn reset_into(&mut self, seed: u64, obs: &mut [f64]) {
        self.inner.reset_into(seed, obs)
    }

    fn step_into(&mut self, action: &Action, obs: &mut [f64]) -> Transition {
        let mut total_reward = 0.0;
        let mut last = None;
        for _ in 0..self.repeat {
            let transition = self.inner.step_into(action, obs);
            total_reward += transition.reward;
            last = Some(transition);
            if transition.done() {
                break;
            }
        }
        let mut transition = last.expect("repeat >= 1");
        transition.reward = total_reward;
        transition
    }

    fn max_episode_steps(&self) -> usize {
        self.inner.max_episode_steps().div_ceil(self.repeat)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Overrides the episode step limit with a tighter one.
#[derive(Debug, Clone)]
pub struct TimeLimit<E> {
    inner: E,
    limit: usize,
    steps: usize,
    done: bool,
}

impl<E: Environment> TimeLimit<E> {
    /// Wraps `inner` with a (typically tighter) step limit.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`.
    pub fn new(inner: E, limit: usize) -> Self {
        assert!(limit > 0, "time limit must be positive");
        TimeLimit {
            inner,
            limit,
            steps: 0,
            done: true,
        }
    }
}

impl<E: Environment> Environment for TimeLimit<E> {
    fn observation_size(&self) -> usize {
        self.inner.observation_size()
    }

    fn action_space(&self) -> ActionSpace {
        self.inner.action_space()
    }

    fn reset_into(&mut self, seed: u64, obs: &mut [f64]) {
        self.steps = 0;
        self.done = false;
        self.inner.reset_into(seed, obs)
    }

    /// # Panics
    ///
    /// Panics if called after the episode finished — including after
    /// the wrapper's *own* truncation, when the inner environment
    /// would still accept steps. This keeps the uniform post-done
    /// contract of [`Environment::step_into`] intact under wrapping.
    fn step_into(&mut self, action: &Action, obs: &mut [f64]) -> Transition {
        assert!(
            !self.done,
            "{}: step() called on a finished episode (time limit)",
            self.inner.name()
        );
        let mut transition = self.inner.step_into(action, obs);
        self.steps += 1;
        if !transition.terminated && self.steps >= self.limit {
            transition.truncated = true;
        }
        self.done = transition.done();
        transition
    }

    fn max_episode_steps(&self) -> usize {
        self.limit.min(self.inner.max_episode_steps())
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cartpole::CartPole;
    use crate::pendulum::Pendulum;

    #[test]
    fn observation_noise_is_deterministic_per_seed() {
        let mut a = ObservationNoise::new(CartPole::new(), 0.1);
        let mut b = ObservationNoise::new(CartPole::new(), 0.1);
        assert_eq!(a.reset(5), b.reset(5));
        let step_a = a.step(&Action::Discrete(1));
        let step_b = b.step(&Action::Discrete(1));
        assert_eq!(step_a, step_b);
    }

    #[test]
    fn zero_noise_is_transparent() {
        let mut clean = CartPole::new();
        let mut wrapped = ObservationNoise::new(CartPole::new(), 0.0);
        assert_eq!(clean.reset(2), wrapped.reset(2));
        assert_eq!(
            clean.step(&Action::Discrete(0)),
            wrapped.step(&Action::Discrete(0))
        );
    }

    #[test]
    fn action_repeat_sums_rewards_and_shortens_episodes() {
        let mut plain = Pendulum::new();
        let mut skipped = ActionRepeat::new(Pendulum::new(), 4);
        plain.reset(1);
        skipped.reset(1);
        assert_eq!(skipped.max_episode_steps(), 50);
        // One wrapped step == 4 plain steps, rewards summed.
        let wrapped = skipped.step(&Action::Continuous(vec![1.0]));
        let mut total = 0.0;
        let mut last_obs = Vec::new();
        for _ in 0..4 {
            let s = plain.step(&Action::Continuous(vec![1.0]));
            total += s.reward;
            last_obs = s.observation;
        }
        assert!((wrapped.reward - total).abs() < 1e-12);
        assert_eq!(wrapped.observation, last_obs);
    }

    #[test]
    fn action_repeat_stops_at_termination() {
        let mut env = ActionRepeat::new(CartPole::new(), 10);
        env.reset(1);
        let mut steps = 0;
        loop {
            let s = env.step(&Action::Discrete(1));
            steps += 1;
            if s.done() {
                assert!(s.terminated);
                break;
            }
            assert!(steps < 100);
        }
    }

    #[test]
    fn time_limit_truncates_early() {
        let mut env = TimeLimit::new(Pendulum::new(), 10);
        env.reset(3);
        for i in 0..10 {
            let s = env.step(&Action::Continuous(vec![0.0]));
            assert_eq!(s.truncated, i == 9, "truncate exactly at the new limit");
        }
        assert_eq!(env.max_episode_steps(), 10);
    }

    #[test]
    #[should_panic(expected = "finished episode")]
    fn time_limit_panics_after_its_own_truncation() {
        // The inner pendulum would happily keep stepping (its own
        // limit is 200); the wrapper must still enforce the uniform
        // post-done panic contract after truncating at 5.
        let mut env = TimeLimit::new(Pendulum::new(), 5);
        env.reset(3);
        for _ in 0..5 {
            env.step(&Action::Continuous(vec![0.0]));
        }
        let _ = env.step(&Action::Continuous(vec![0.0]));
    }

    #[test]
    fn time_limit_reset_clears_the_done_latch() {
        let mut env = TimeLimit::new(Pendulum::new(), 2);
        env.reset(1);
        env.step(&Action::Continuous(vec![0.0]));
        env.step(&Action::Continuous(vec![0.0]));
        env.reset(1);
        let s = env.step(&Action::Continuous(vec![0.0]));
        assert!(!s.done());
    }

    #[test]
    fn wrappers_propagate_inner_name() {
        assert_eq!(
            ObservationNoise::new(CartPole::new(), 0.1).name(),
            "cartpole"
        );
        assert_eq!(ActionRepeat::new(Pendulum::new(), 2).name(), "pendulum");
        assert_eq!(TimeLimit::new(CartPole::new(), 5).name(), "cartpole");
        // Stacked wrappers still surface the innermost env's name.
        let stacked = TimeLimit::new(ActionRepeat::new(CartPole::new(), 2), 5);
        assert_eq!(stacked.name(), "cartpole");
    }
}
