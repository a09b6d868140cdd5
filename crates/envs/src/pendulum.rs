//! Pendulum (Gym `Pendulum-v1`): swing a torque-limited pendulum
//! upright and hold it. The paper's **Env6** and its only classic
//! continuous-action task.
//!
//! Scenario physics ([`ScenarioParams`]) can scale gravity, bob mass,
//! rod length, and torque gain, and add a constant angular wind; the
//! default parameters reproduce the classic constants bit-identically.

use crate::env::{expect_continuous, Action, ActionSpace, Environment, Transition};
use crate::scenario::ScenarioParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

const MAX_SPEED: f64 = 8.0;
const MAX_TORQUE: f64 = 2.0;
const DT: f64 = 0.05;
const GRAVITY: f64 = 10.0;
const MASS: f64 = 1.0;
const LENGTH: f64 = 1.0;

/// Scenario-resolved physics (defaults are IEEE-exact against the
/// classic constants). The *action space* stays `[-2, 2]` regardless
/// of scenario — `torque_gain` scales the applied torque, not the
/// policy's output bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendulumPhys {
    gravity: f64,
    mass: f64,
    length: f64,
    torque_gain: f64,
    wind: f64,
}

impl PendulumPhys {
    fn from_params(params: &ScenarioParams) -> Self {
        PendulumPhys {
            gravity: GRAVITY * params.gravity_scale,
            mass: MASS * params.mass_scale,
            length: LENGTH * params.length_scale,
            torque_gain: params.force_scale,
            wind: params.wind,
        }
    }
}

/// The Pendulum swing-up task.
///
/// Observation: `[cos θ, sin θ, θ̇]`. Action: one torque in
/// `[-2, 2]`. Reward: `-(θ² + 0.1·θ̇² + 0.001·u²)` with θ normalized
/// to `[-π, π]`; the episode never terminates, only truncates.
#[derive(Debug, Clone)]
pub struct Pendulum {
    phys: PendulumPhys,
    theta: f64,
    theta_dot: f64,
    steps: usize,
    done: bool,
    max_steps: usize,
}

impl Pendulum {
    /// Creates the environment with the Gym step limit (200).
    pub fn new() -> Self {
        Self::with_max_steps(200)
    }

    /// Creates the environment with a custom step limit.
    pub fn with_max_steps(max_steps: usize) -> Self {
        Self::with_scenario_max_steps(&ScenarioParams::default(), max_steps)
    }

    /// Creates the environment with scenario physics and the Gym step
    /// limit (200).
    pub fn with_scenario(params: &ScenarioParams) -> Self {
        Self::with_scenario_max_steps(params, 200)
    }

    /// Creates the environment with scenario physics and a custom step
    /// limit.
    pub fn with_scenario_max_steps(params: &ScenarioParams, max_steps: usize) -> Self {
        Pendulum {
            phys: PendulumPhys::from_params(params),
            theta: 0.0,
            theta_dot: 0.0,
            steps: 0,
            done: true,
            max_steps,
        }
    }

    fn write_observation(&self, obs: &mut [f64]) {
        obs.copy_from_slice(&[self.theta.cos(), self.theta.sin(), self.theta_dot]);
    }

    /// Angle normalized to `[-π, π]` (0 = upright).
    pub fn normalized_angle(&self) -> f64 {
        let mut a = (self.theta + PI) % (2.0 * PI);
        if a < 0.0 {
            a += 2.0 * PI;
        }
        a - PI
    }
}

impl Default for Pendulum {
    fn default() -> Self {
        Self::new()
    }
}

impl Environment for Pendulum {
    fn observation_size(&self) -> usize {
        3
    }

    fn action_space(&self) -> ActionSpace {
        ActionSpace::Continuous {
            low: vec![-MAX_TORQUE],
            high: vec![MAX_TORQUE],
        }
    }

    fn reset_into(&mut self, seed: u64, obs: &mut [f64]) {
        let mut rng = StdRng::seed_from_u64(seed);
        self.theta = rng.gen_range(-PI..PI);
        self.theta_dot = rng.gen_range(-1.0..1.0);
        self.steps = 0;
        self.done = false;
        self.write_observation(obs);
    }

    /// # Panics
    ///
    /// Panics if called after the episode finished (truncated; this
    /// environment never terminates) without an intervening reset, or
    /// if the action is not a one-dimensional `Continuous` torque.
    fn step_into(&mut self, action: &Action, obs: &mut [f64]) -> Transition {
        assert!(!self.done, "pendulum: step() called on a finished episode");
        let u = expect_continuous(action, &[-MAX_TORQUE], &[MAX_TORQUE], "pendulum")[0];
        let u = u * self.phys.torque_gain;
        let angle = self.normalized_angle();
        let cost = angle * angle + 0.1 * self.theta_dot * self.theta_dot + 0.001 * u * u;
        self.theta_dot += (3.0 * self.phys.gravity / (2.0 * self.phys.length) * self.theta.sin()
            + 3.0 / (self.phys.mass * self.phys.length * self.phys.length) * u)
            * DT;
        if self.phys.wind != 0.0 {
            self.theta_dot += self.phys.wind * DT;
        }
        self.theta_dot = self.theta_dot.clamp(-MAX_SPEED, MAX_SPEED);
        self.theta += self.theta_dot * DT;
        self.steps += 1;
        let truncated = self.steps >= self.max_steps;
        self.done = truncated;
        self.write_observation(obs);
        Transition {
            reward: -cost,
            terminated: false,
            truncated,
        }
    }

    fn max_episode_steps(&self) -> usize {
        self.max_steps
    }

    fn name(&self) -> &'static str {
        "pendulum"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Gym's convention: θ is measured from upright, sin θ positive
    // counter-clockwise; gravity torque is +1.5·g·sin θ, i.e. upright
    // (θ = 0) is an unstable equilibrium.

    #[test]
    fn reward_is_never_positive_and_bounded() {
        let mut env = Pendulum::new();
        env.reset(1);
        let worst = -(PI * PI + 0.1 * MAX_SPEED * MAX_SPEED + 0.001 * MAX_TORQUE * MAX_TORQUE);
        for _ in 0..200 {
            let s = env.step(&Action::Continuous(vec![2.0]));
            assert!(s.reward <= 0.0);
            assert!(s.reward >= worst - 1e-9);
            if s.done() {
                break;
            }
        }
    }

    #[test]
    fn never_terminates_only_truncates() {
        let mut env = Pendulum::new();
        env.reset(3);
        for i in 0..200 {
            let s = env.step(&Action::Continuous(vec![0.0]));
            assert!(!s.terminated);
            assert_eq!(s.truncated, i == 199);
        }
    }

    #[test]
    fn gravity_pulls_away_from_upright() {
        let mut env = Pendulum::new();
        env.reset(1);
        // Force state slightly off upright, no torque.
        env.theta = 0.1;
        env.theta_dot = 0.0;
        let before = env.normalized_angle().abs();
        for _ in 0..10 {
            env.step(&Action::Continuous(vec![0.0]));
        }
        assert!(env.normalized_angle().abs() > before, "upright is unstable");
    }

    #[test]
    fn torque_is_clamped_to_bounds() {
        let mut a = Pendulum::new();
        let mut b = Pendulum::new();
        a.reset(5);
        b.reset(5);
        for _ in 0..20 {
            let sa = a.step(&Action::Continuous(vec![100.0]));
            let sb = b.step(&Action::Continuous(vec![MAX_TORQUE]));
            assert_eq!(sa.observation, sb.observation);
        }
    }

    #[test]
    fn speed_is_clamped() {
        let mut env = Pendulum::new();
        env.reset(6);
        for _ in 0..200 {
            let s = env.step(&Action::Continuous(vec![2.0]));
            assert!(s.observation[2].abs() <= MAX_SPEED + 1e-12);
            if s.done() {
                break;
            }
        }
    }

    #[test]
    fn default_scenario_matches_legacy_physics_bitwise() {
        let mut legacy = Pendulum::new();
        let mut scenario = Pendulum::with_scenario(&ScenarioParams::default());
        assert_eq!(legacy.reset(9), scenario.reset(9));
        for _ in 0..50 {
            let a = legacy.step(&Action::Continuous(vec![1.0]));
            let b = scenario.step(&Action::Continuous(vec![1.0]));
            for (x, y) in a.observation.iter().zip(&b.observation) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(a.reward.to_bits(), b.reward.to_bits());
        }
    }

    #[test]
    fn weaker_motor_swings_slower() {
        let weak = ScenarioParams {
            force_scale: 0.5,
            ..ScenarioParams::default()
        };
        let mut full = Pendulum::new();
        let mut half = Pendulum::with_scenario(&weak);
        full.reset(11);
        half.reset(11);
        let a = full.step(&Action::Continuous(vec![2.0]));
        let b = half.step(&Action::Continuous(vec![2.0]));
        assert_ne!(a.observation[2].to_bits(), b.observation[2].to_bits());
    }
}
