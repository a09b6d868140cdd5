//! MountainCar (Gym `MountainCar-v0`): drive an under-powered car out
//! of a valley by building momentum. The paper's **Env3**.
//!
//! Scenario physics ([`ScenarioParams`]) can scale motor force and
//! hill gravity and add a constant lateral wind; the default
//! parameters reproduce the classic constants bit-identically.

use crate::env::{expect_discrete, Action, ActionSpace, Environment, Transition};
use crate::scenario::ScenarioParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MIN_POSITION: f64 = -1.2;
const MAX_POSITION: f64 = 0.6;
const MAX_SPEED: f64 = 0.07;
const GOAL_POSITION: f64 = 0.5;
const FORCE: f64 = 0.001;
const GRAVITY: f64 = 0.0025;

/// Scenario-resolved physics (defaults are IEEE-exact against the
/// classic constants).
#[derive(Debug, Clone, Copy, PartialEq)]
struct MountainCarPhys {
    force: f64,
    gravity: f64,
    wind: f64,
}

impl MountainCarPhys {
    fn from_params(params: &ScenarioParams) -> Self {
        MountainCarPhys {
            force: FORCE * params.force_scale,
            gravity: GRAVITY * params.gravity_scale,
            wind: params.wind,
        }
    }
}

/// The MountainCar task.
///
/// Observation: `[position, velocity]`. Actions: 0 push left, 1 coast,
/// 2 push right. Reward −1 per step; terminates at the goal position.
#[derive(Debug, Clone)]
pub struct MountainCar {
    phys: MountainCarPhys,
    position: f64,
    velocity: f64,
    steps: usize,
    done: bool,
    max_steps: usize,
}

impl MountainCar {
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
        MountainCar {
            phys: MountainCarPhys::from_params(params),
            position: 0.0,
            velocity: 0.0,
            steps: 0,
            done: true,
            max_steps,
        }
    }

    /// Current position (for tests/tools).
    pub fn position(&self) -> f64 {
        self.position
    }
}

impl Default for MountainCar {
    fn default() -> Self {
        Self::new()
    }
}

impl Environment for MountainCar {
    fn observation_size(&self) -> usize {
        2
    }

    fn action_space(&self) -> ActionSpace {
        ActionSpace::Discrete(3)
    }

    fn reset_into(&mut self, seed: u64, obs: &mut [f64]) {
        let mut rng = StdRng::seed_from_u64(seed);
        self.position = rng.gen_range(-0.6..-0.4);
        self.velocity = 0.0;
        self.steps = 0;
        self.done = false;
        obs.copy_from_slice(&[self.position, self.velocity]);
    }

    /// # Panics
    ///
    /// Panics if called after the episode finished (terminated or
    /// truncated) without an intervening reset, or if the action is
    /// not `Discrete(0..=2)`.
    fn step_into(&mut self, action: &Action, obs: &mut [f64]) -> Transition {
        assert!(
            !self.done,
            "mountain_car: step() called on a finished episode"
        );
        let a = expect_discrete(action, 3, "mountain_car") as f64;
        self.velocity +=
            (a - 1.0) * self.phys.force + (3.0 * self.position).cos() * (-self.phys.gravity);
        if self.phys.wind != 0.0 {
            self.velocity += self.phys.wind;
        }
        self.velocity = self.velocity.clamp(-MAX_SPEED, MAX_SPEED);
        self.position = (self.position + self.velocity).clamp(MIN_POSITION, MAX_POSITION);
        if self.position <= MIN_POSITION && self.velocity < 0.0 {
            self.velocity = 0.0;
        }
        self.steps += 1;
        let terminated = self.position >= GOAL_POSITION;
        let truncated = !terminated && self.steps >= self.max_steps;
        self.done = terminated || truncated;
        obs.copy_from_slice(&[self.position, self.velocity]);
        Transition {
            reward: -1.0,
            terminated,
            truncated,
        }
    }

    fn max_episode_steps(&self) -> usize {
        self.max_steps
    }

    fn name(&self) -> &'static str {
        "mountain_car"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_push_right_cannot_climb() {
        let mut env = MountainCar::new();
        env.reset(1);
        for _ in 0..200 {
            let s = env.step(&Action::Discrete(2));
            assert!(!s.terminated, "underpowered car must not climb directly");
            if s.done() {
                return;
            }
        }
        panic!("episode should have truncated");
    }

    #[test]
    fn momentum_policy_reaches_goal() {
        // Push in the direction of motion: the classic energy-pumping
        // solution.
        let mut env = MountainCar::with_max_steps(300);
        let mut obs = env.reset(1);
        for _ in 0..300 {
            let a = if obs[1] >= 0.0 { 2 } else { 0 };
            let s = env.step(&Action::Discrete(a));
            obs = s.observation.clone();
            if s.terminated {
                return; // reached the flag
            }
            assert!(
                !s.truncated,
                "momentum policy should solve within 300 steps"
            );
        }
    }

    #[test]
    fn position_and_velocity_stay_bounded() {
        let mut env = MountainCar::new();
        env.reset(4);
        for i in 0..200 {
            let s = env.step(&Action::Discrete(i % 3));
            assert!((MIN_POSITION..=MAX_POSITION).contains(&s.observation[0]));
            assert!(s.observation[1].abs() <= MAX_SPEED + 1e-12);
            if s.done() {
                break;
            }
        }
    }

    #[test]
    fn default_scenario_matches_legacy_physics_bitwise() {
        let mut legacy = MountainCar::new();
        let mut scenario = MountainCar::with_scenario(&ScenarioParams::default());
        assert_eq!(legacy.reset(5), scenario.reset(5));
        for i in 0..200 {
            let a = Action::Discrete(i % 3);
            let sa = legacy.step(&a);
            let sb = scenario.step(&a);
            assert_eq!(sa.observation[0].to_bits(), sb.observation[0].to_bits());
            assert_eq!(sa.observation[1].to_bits(), sb.observation[1].to_bits());
            if sa.done() {
                break;
            }
        }
    }

    #[test]
    fn stronger_motor_climbs_where_stock_cannot() {
        let strong = ScenarioParams {
            force_scale: 4.0,
            ..ScenarioParams::default()
        };
        let mut env = MountainCar::with_scenario(&strong);
        env.reset(1);
        for _ in 0..200 {
            let s = env.step(&Action::Discrete(2));
            if s.terminated {
                return; // a 4x motor drives straight up
            }
        }
        panic!("4x motor should reach the goal directly");
    }

    #[test]
    fn left_wall_is_inelastic() {
        let mut env = MountainCar::new();
        env.reset(2);
        // Drive hard left until pinned at the wall.
        for _ in 0..200 {
            let s = env.step(&Action::Discrete(0));
            if s.observation[0] <= MIN_POSITION {
                assert!(s.observation[1] >= 0.0, "velocity zeroed at the wall");
                return;
            }
            if s.done() {
                break;
            }
        }
        // Some seeds may not reach the wall in time; that's fine.
    }
}
