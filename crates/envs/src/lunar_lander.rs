//! LunarLander (substitute for Gym `LunarLander-v2`): land a rocket on
//! a pad with a main engine and two side thrusters. The paper's
//! **Env5**.
//!
//! Gym implements this with Box2D; this port is a simplified planar
//! rigid-body simulation with the **same observation and action
//! spaces** (8 observations, 4 discrete actions) and the same reward
//! shaping structure, which is what the evolved controllers and the
//! accelerator actually see (see DESIGN.md, substitutions).

use crate::env::{expect_discrete, Action, ActionSpace, Environment, Transition};
use crate::scenario::ScenarioParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DT: f64 = 0.02;
const GRAVITY: f64 = 0.6;
const MAIN_ACCEL: f64 = 1.3;
const SIDE_ACCEL: f64 = 0.18;
const SIDE_TORQUE: f64 = 1.8;
const ANGULAR_DAMPING: f64 = 0.4;
const SAFE_VY: f64 = 0.35;
const SAFE_VX: f64 = 0.35;
const SAFE_ANGLE: f64 = 0.35;
const X_LIMIT: f64 = 1.0;

/// Scenario-resolved physics (defaults are IEEE-exact against the
/// classic constants). Thruster accelerations scale with engine force
/// and inversely with hull mass; wind is a constant lateral
/// acceleration.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LanderPhys {
    gravity: f64,
    main_accel: f64,
    side_accel: f64,
    side_torque: f64,
    wind: f64,
}

impl LanderPhys {
    fn from_params(params: &ScenarioParams) -> Self {
        LanderPhys {
            gravity: GRAVITY * params.gravity_scale,
            main_accel: MAIN_ACCEL * params.force_scale / params.mass_scale,
            side_accel: SIDE_ACCEL * params.force_scale / params.mass_scale,
            side_torque: SIDE_TORQUE * params.force_scale / params.mass_scale,
            wind: params.wind,
        }
    }
}

/// The lunar landing task.
///
/// Observation: `[x, y, vx, vy, angle, angular_velocity,
/// left_leg_contact, right_leg_contact]`. Actions: 0 coast, 1 fire
/// left thruster, 2 fire main engine, 3 fire right thruster.
///
/// Reward follows Gym's potential shaping: progress toward the pad,
/// low speed and level attitude are rewarded each step; engines cost
/// fuel; touchdown ends the episode with +100 (gentle, upright, on
/// pad) or −100 (crash or drifting off-screen).
#[derive(Debug, Clone)]
pub struct LunarLander {
    phys: LanderPhys,
    x: f64,
    y: f64,
    vx: f64,
    vy: f64,
    angle: f64,
    omega: f64,
    prev_shaping: Option<f64>,
    steps: usize,
    done: bool,
    max_steps: usize,
}

impl LunarLander {
    /// Creates the environment with the Gym step limit (1000).
    pub fn new() -> Self {
        Self::with_max_steps(1000)
    }

    /// Creates the environment with scenario physics and the Gym step
    /// limit (1000).
    pub fn with_scenario(params: &ScenarioParams) -> Self {
        Self::with_scenario_max_steps(params, 1000)
    }

    /// Creates the environment with a custom step limit.
    pub fn with_max_steps(max_steps: usize) -> Self {
        Self::with_scenario_max_steps(&ScenarioParams::default(), max_steps)
    }

    /// Creates the environment with scenario physics and a custom step
    /// limit.
    pub fn with_scenario_max_steps(params: &ScenarioParams, max_steps: usize) -> Self {
        LunarLander {
            phys: LanderPhys::from_params(params),
            x: 0.0,
            y: 0.0,
            vx: 0.0,
            vy: 0.0,
            angle: 0.0,
            omega: 0.0,
            prev_shaping: None,
            steps: 0,
            done: true,
            max_steps,
        }
    }

    fn write_observation(&self, obs: &mut [f64]) {
        let (left, right) = self.leg_contacts();
        obs.copy_from_slice(&[
            self.x,
            self.y,
            self.vx,
            self.vy,
            self.angle,
            self.omega,
            f64::from(left),
            f64::from(right),
        ]);
    }

    fn leg_contacts(&self) -> (bool, bool) {
        // Legs touch when the hull is essentially on the ground and
        // roughly level; a tilted hull touches one leg first.
        if self.y > 0.02 {
            return (false, false);
        }
        (self.angle <= 0.1, self.angle >= -0.1)
    }

    fn shaping(&self) -> f64 {
        let (left, right) = self.leg_contacts();
        -100.0 * (self.x * self.x + self.y * self.y).sqrt()
            - 100.0 * (self.vx * self.vx + self.vy * self.vy).sqrt()
            - 100.0 * self.angle.abs()
            + 10.0 * f64::from(left)
            + 10.0 * f64::from(right)
    }
}

impl Default for LunarLander {
    fn default() -> Self {
        Self::new()
    }
}

impl Environment for LunarLander {
    fn observation_size(&self) -> usize {
        8
    }

    fn action_space(&self) -> ActionSpace {
        ActionSpace::Discrete(4)
    }

    fn reset_into(&mut self, seed: u64, obs: &mut [f64]) {
        let mut rng = StdRng::seed_from_u64(seed);
        self.x = rng.gen_range(-0.3..0.3);
        self.y = 1.4;
        self.vx = rng.gen_range(-0.3..0.3);
        self.vy = rng.gen_range(-0.2..0.0);
        self.angle = rng.gen_range(-0.15..0.15);
        self.omega = rng.gen_range(-0.1..0.1);
        self.prev_shaping = None;
        self.steps = 0;
        self.done = false;
        self.write_observation(obs);
    }

    /// # Panics
    ///
    /// Panics if called after the episode finished (terminated or
    /// truncated) without an intervening reset, or if the action is
    /// not `Discrete(0..=3)`.
    fn step_into(&mut self, action: &Action, obs: &mut [f64]) -> Transition {
        assert!(
            !self.done,
            "lunar_lander: step() called on a finished episode"
        );
        let a = expect_discrete(action, 4, "lunar_lander");

        // Thrust: main engine pushes along the body's up axis; side
        // thrusters push laterally and spin the hull.
        let (sin_a, cos_a) = self.angle.sin_cos();
        let mut fuel_cost = 0.0;
        let (mut ax, mut ay, mut alpha) = (0.0, -self.phys.gravity, -ANGULAR_DAMPING * self.omega);
        if self.phys.wind != 0.0 {
            ax += self.phys.wind;
        }
        match a {
            0 => {}
            1 => {
                // Left thruster fires rightward and yaws one way.
                ax += self.phys.side_accel * cos_a;
                ay += self.phys.side_accel * sin_a;
                alpha += self.phys.side_torque;
                fuel_cost = 0.03;
            }
            2 => {
                ax += -self.phys.main_accel * sin_a;
                ay += self.phys.main_accel * cos_a;
                fuel_cost = 0.3;
            }
            3 => {
                ax += -self.phys.side_accel * cos_a;
                ay += -self.phys.side_accel * sin_a;
                alpha += -self.phys.side_torque;
                fuel_cost = 0.03;
            }
            _ => unreachable!("validated by expect_discrete"),
        }
        self.vx += ax * DT;
        self.vy += ay * DT;
        self.omega += alpha * DT;
        self.x += self.vx * DT;
        self.y += self.vy * DT;
        self.angle += self.omega * DT;
        self.steps += 1;

        // Potential-based shaping reward.
        let shaping = self.shaping();
        let mut reward = match self.prev_shaping {
            Some(prev) => shaping - prev,
            None => 0.0,
        } - fuel_cost;
        self.prev_shaping = Some(shaping);

        // Terminal outcomes.
        let mut terminated = false;
        if self.x.abs() > X_LIMIT {
            terminated = true;
            reward += -100.0;
        } else if self.y <= 0.0 {
            terminated = true;
            self.y = 0.0;
            let gentle = self.vy.abs() <= SAFE_VY
                && self.vx.abs() <= SAFE_VX
                && self.angle.abs() <= SAFE_ANGLE;
            let on_pad = self.x.abs() <= 0.25;
            reward += if gentle && on_pad { 100.0 } else { -100.0 };
        }
        let truncated = !terminated && self.steps >= self.max_steps;
        self.done = terminated || truncated;
        self.write_observation(obs);
        Transition {
            reward,
            terminated,
            truncated,
        }
    }

    fn max_episode_steps(&self) -> usize {
        self.max_steps
    }

    fn name(&self) -> &'static str {
        "lunar_lander"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_policy(seed: u64, policy: impl Fn(&[f64]) -> usize) -> (f64, bool, Vec<f64>) {
        let mut env = LunarLander::new();
        let mut obs = env.reset(seed);
        let mut total = 0.0;
        loop {
            let s = env.step(&Action::Discrete(policy(&obs)));
            total += s.reward;
            obs = s.observation.clone();
            if s.done() {
                return (total, s.terminated, obs);
            }
        }
    }

    #[test]
    fn free_fall_crashes() {
        let (total, terminated, obs) = run_policy(1, |_| 0);
        assert!(terminated, "gravity must bring the lander down");
        assert!(obs[1] <= 0.0);
        assert!(total < 0.0, "crash landing is penalized, got {total}");
    }

    #[test]
    fn suicide_burn_beats_free_fall() {
        // Fire the main engine when descending too fast, correct tilt
        // with side thrusters.
        let controller = |obs: &[f64]| -> usize {
            if obs[4] > 0.15 || obs[5] > 0.2 {
                1
            } else if obs[4] < -0.15 || obs[5] < -0.2 {
                3
            } else if obs[3] < -0.3 {
                2
            } else {
                0
            }
        };
        let (burn, _, _) = run_policy(2, controller);
        let (fall, _, _) = run_policy(2, |_| 0);
        assert!(
            burn > fall,
            "controlled descent ({burn}) must beat free fall ({fall})"
        );
    }

    #[test]
    fn main_engine_decelerates_descent() {
        let mut free = LunarLander::new();
        let mut thrust = LunarLander::new();
        free.reset(3);
        thrust.reset(3);
        for _ in 0..50 {
            free.step(&Action::Discrete(0));
            thrust.step(&Action::Discrete(2));
        }
        assert!(thrust.vy > free.vy, "main engine must fight gravity");
    }

    #[test]
    fn side_thrusters_rotate_opposite_ways() {
        let mut left = LunarLander::new();
        let mut right = LunarLander::new();
        left.reset(4);
        right.reset(4);
        for _ in 0..20 {
            left.step(&Action::Discrete(1));
            right.step(&Action::Discrete(3));
        }
        assert!(left.omega > right.omega);
    }

    #[test]
    fn observation_has_eight_dims_with_contact_flags() {
        let mut env = LunarLander::new();
        let obs = env.reset(5);
        assert_eq!(obs.len(), 8);
        assert_eq!(obs[6], 0.0, "airborne: no leg contact");
        assert_eq!(obs[7], 0.0);
    }

    #[test]
    fn drifting_off_screen_terminates() {
        let mut env = LunarLander::new();
        env.reset(6);
        env.vx = 3.0; // force a fast drift
        let mut steps = 0;
        loop {
            let s = env.step(&Action::Discrete(0));
            steps += 1;
            if s.terminated {
                assert!(s.observation[0].abs() > X_LIMIT || s.observation[1] <= 0.0);
                break;
            }
            assert!(steps < 200, "drift must terminate quickly");
        }
    }
}
