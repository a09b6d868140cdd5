//! CartPole (Gym `CartPole-v1`): balance a pole on a force-controlled
//! cart. This is the paper's **Env1**.
//!
//! The physics constants can be perturbed per scenario via
//! [`ScenarioParams`] — pole mass/length, gravity, push force, and a
//! lateral wind disturbance — while the default parameter set
//! reproduces the classic Gym constants bit-identically.

use crate::env::{expect_discrete, Action, ActionSpace, Environment, Transition};
use crate::scenario::ScenarioParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRAVITY: f64 = 9.8;
const MASS_CART: f64 = 1.0;
const MASS_POLE: f64 = 0.1;
const HALF_POLE_LENGTH: f64 = 0.5;
const FORCE_MAG: f64 = 10.0;
const TAU: f64 = 0.02;
const THETA_THRESHOLD: f64 = 12.0 * std::f64::consts::PI / 180.0;
const X_THRESHOLD: f64 = 2.4;

/// Scenario-resolved physics. Built once per episode from
/// [`ScenarioParams`]; the default parameters produce exactly the
/// classic constants (scales multiply by `1.0`, which is IEEE-exact,
/// and zero wind skips the disturbance branch entirely).
#[derive(Debug, Clone, Copy, PartialEq)]
struct CartPolePhys {
    gravity: f64,
    mass_pole: f64,
    total_mass: f64,
    half_pole_length: f64,
    pole_mass_length: f64,
    force_mag: f64,
    wind: f64,
}

impl CartPolePhys {
    fn from_params(params: &ScenarioParams) -> Self {
        let mass_pole = MASS_POLE * params.mass_scale;
        let half_pole_length = HALF_POLE_LENGTH * params.length_scale;
        CartPolePhys {
            gravity: GRAVITY * params.gravity_scale,
            mass_pole,
            total_mass: MASS_CART + mass_pole,
            half_pole_length,
            pole_mass_length: mass_pole * half_pole_length,
            force_mag: FORCE_MAG * params.force_scale,
            wind: params.wind,
        }
    }

    /// One Euler step of the cart-pole dynamics.
    fn advance(&self, state: [f64; 4], a: usize) -> [f64; 4] {
        let force = if a == 1 {
            self.force_mag
        } else {
            -self.force_mag
        };
        let [x, x_dot, theta, theta_dot] = state;
        let (sin_t, cos_t) = theta.sin_cos();
        let temp =
            (force + self.pole_mass_length * theta_dot * theta_dot * sin_t) / self.total_mass;
        let theta_acc = (self.gravity * sin_t - cos_t * temp)
            / (self.half_pole_length
                * (4.0 / 3.0 - self.mass_pole * cos_t * cos_t / self.total_mass));
        let mut x_acc = temp - self.pole_mass_length * theta_acc * cos_t / self.total_mass;
        if self.wind != 0.0 {
            x_acc += self.wind;
        }
        [
            x + TAU * x_dot,
            x_dot + TAU * x_acc,
            theta + TAU * theta_dot,
            theta_dot + TAU * theta_acc,
        ]
    }
}

/// The CartPole balancing task.
///
/// Observation: `[x, x_dot, theta, theta_dot]`. Actions: 0 push left,
/// 1 push right. Reward: +1 per surviving step. Terminates when the
/// pole tips past ±12° or the cart leaves ±2.4.
///
/// # Example
///
/// ```
/// use e3_envs::{CartPole, Environment, Action};
///
/// let mut env = CartPole::new();
/// env.reset(0);
/// let step = env.step(&Action::Discrete(0));
/// assert!(!step.truncated);
/// ```
#[derive(Debug, Clone)]
pub struct CartPole {
    phys: CartPolePhys,
    state: [f64; 4],
    steps: usize,
    done: bool,
    max_steps: usize,
}

impl CartPole {
    /// Creates the environment with the Gym v1 step limit (500).
    pub fn new() -> Self {
        Self::with_max_steps(500)
    }

    /// Creates the environment with a custom step limit.
    pub fn with_max_steps(max_steps: usize) -> Self {
        Self::with_scenario_max_steps(&ScenarioParams::default(), max_steps)
    }

    /// Creates the environment with scenario physics and the Gym v1
    /// step limit (500).
    pub fn with_scenario(params: &ScenarioParams) -> Self {
        Self::with_scenario_max_steps(params, 500)
    }

    /// Creates the environment with scenario physics and a custom step
    /// limit.
    pub fn with_scenario_max_steps(params: &ScenarioParams, max_steps: usize) -> Self {
        CartPole {
            phys: CartPolePhys::from_params(params),
            state: [0.0; 4],
            steps: 0,
            done: true,
            max_steps,
        }
    }

    /// Raw state `[x, x_dot, theta, theta_dot]` (for tests/tools).
    pub fn state(&self) -> [f64; 4] {
        self.state
    }
}

impl Default for CartPole {
    fn default() -> Self {
        Self::new()
    }
}

impl Environment for CartPole {
    fn observation_size(&self) -> usize {
        4
    }

    fn action_space(&self) -> ActionSpace {
        ActionSpace::Discrete(2)
    }

    fn reset_into(&mut self, seed: u64, obs: &mut [f64]) {
        let mut rng = StdRng::seed_from_u64(seed);
        for s in &mut self.state {
            *s = rng.gen_range(-0.05..0.05);
        }
        self.steps = 0;
        self.done = false;
        obs.copy_from_slice(&self.state);
    }

    /// # Panics
    ///
    /// Panics if called after the episode finished (terminated or
    /// truncated) without an intervening reset, or if the action is
    /// not `Discrete(0|1)`.
    fn step_into(&mut self, action: &Action, obs: &mut [f64]) -> Transition {
        assert!(!self.done, "cartpole: step() called on a finished episode");
        let a = expect_discrete(action, 2, "cartpole");
        self.state = self.phys.advance(self.state, a);
        self.steps += 1;
        let terminated = self.state[0].abs() > X_THRESHOLD || self.state[2].abs() > THETA_THRESHOLD;
        let truncated = !terminated && self.steps >= self.max_steps;
        self.done = terminated || truncated;
        obs.copy_from_slice(&self.state);
        Transition {
            reward: 1.0,
            terminated,
            truncated,
        }
    }

    fn max_episode_steps(&self) -> usize {
        self.max_steps
    }

    fn name(&self) -> &'static str {
        "cartpole"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_starts_near_upright() {
        let mut env = CartPole::new();
        let obs = env.reset(1);
        for v in obs {
            assert!(v.abs() < 0.05);
        }
    }

    #[test]
    fn constant_push_terminates_quickly() {
        let mut env = CartPole::new();
        env.reset(1);
        let mut steps = 0;
        loop {
            let s = env.step(&Action::Discrete(1));
            steps += 1;
            if s.done() {
                assert!(
                    s.terminated,
                    "constant force must tip the pole, not time out"
                );
                break;
            }
            assert!(steps < 500);
        }
        assert!(steps < 150, "pole tipped in {steps} steps");
    }

    #[test]
    fn bang_bang_controller_balances_longer_than_random() {
        // Simple feedback: push in the direction the pole is falling.
        let run = |controller: &dyn Fn(&[f64], usize) -> usize| {
            let mut env = CartPole::new();
            let mut obs = env.reset(3);
            let mut steps = 0usize;
            loop {
                let a = controller(&obs, steps);
                let s = env.step(&Action::Discrete(a));
                obs = s.observation.clone();
                steps += 1;
                if s.done() {
                    break;
                }
            }
            steps
        };
        let feedback = run(&|obs, _| usize::from(obs[2] + obs[3] > 0.0));
        let alternating = run(&|_, t| t % 2);
        assert!(feedback >= 400, "feedback controller lasted {feedback}");
        assert!(feedback > alternating);
    }

    #[test]
    fn truncates_at_step_limit() {
        let mut env = CartPole::with_max_steps(10);
        let mut obs = env.reset(3);
        for i in 0..10 {
            let a = usize::from(obs[2] + obs[3] > 0.0);
            let s = env.step(&Action::Discrete(a));
            obs = s.observation.clone();
            if i == 9 {
                assert!(s.truncated);
            } else {
                assert!(!s.done());
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = CartPole::new();
        let mut b = CartPole::new();
        assert_eq!(a.reset(42), b.reset(42));
        for _ in 0..50 {
            let sa = a.step(&Action::Discrete(1));
            let sb = b.step(&Action::Discrete(1));
            assert_eq!(sa, sb);
            if sa.done() {
                break;
            }
        }
    }

    #[test]
    fn default_scenario_matches_legacy_physics_bitwise() {
        let mut legacy = CartPole::new();
        let mut scenario = CartPole::with_scenario(&ScenarioParams::default());
        assert_eq!(legacy.reset(42), scenario.reset(42));
        for _ in 0..100 {
            let a = legacy.step(&Action::Discrete(1));
            let b = scenario.step(&Action::Discrete(1));
            for (x, y) in a.observation.iter().zip(&b.observation) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(a.terminated, b.terminated);
            if a.done() {
                break;
            }
        }
    }

    #[test]
    fn scenario_physics_change_the_trajectory() {
        let params = ScenarioParams {
            length_scale: 1.5,
            ..ScenarioParams::default()
        };
        let mut base = CartPole::new();
        let mut long = CartPole::with_scenario(&params);
        base.reset(7);
        long.reset(7);
        let a = base.step(&Action::Discrete(1));
        let b = long.step(&Action::Discrete(1));
        assert_ne!(
            a.observation[3].to_bits(),
            b.observation[3].to_bits(),
            "a longer pole must change theta_dot"
        );
    }

    #[test]
    fn wind_pushes_the_cart() {
        let params = ScenarioParams {
            wind: 0.5,
            ..ScenarioParams::default()
        };
        let mut calm = CartPole::new();
        let mut windy = CartPole::with_scenario(&params);
        calm.reset(7);
        windy.reset(7);
        let a = calm.step(&Action::Discrete(1));
        let b = windy.step(&Action::Discrete(1));
        assert!(b.observation[1] > a.observation[1], "wind adds x velocity");
    }

    #[test]
    #[should_panic(expected = "finished episode")]
    fn step_after_done_panics() {
        let mut env = CartPole::new();
        env.reset(1);
        loop {
            if env.step(&Action::Discrete(1)).done() {
                break;
            }
        }
        let _ = env.step(&Action::Discrete(1));
    }
}
