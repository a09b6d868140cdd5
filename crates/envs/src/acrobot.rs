//! Acrobot (Gym `Acrobot-v1`): swing a two-link pendulum's tip above a
//! target height by torquing the middle joint. The paper's **Env2**.
//!
//! Scenario physics ([`ScenarioParams`]) can scale gravity, link
//! masses/lengths, and torque gain, and add a constant tip torque
//! (wind); the default parameters reproduce the classic constants
//! bit-identically.

use crate::env::{expect_discrete, Action, ActionSpace, Environment, Transition};
use crate::scenario::ScenarioParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

const LINK_LENGTH_1: f64 = 1.0;
const LINK_MASS_1: f64 = 1.0;
const LINK_MASS_2: f64 = 1.0;
const LINK_COM_1: f64 = 0.5;
const LINK_COM_2: f64 = 0.5;
const LINK_MOI: f64 = 1.0;
const MAX_VEL_1: f64 = 4.0 * PI;
const MAX_VEL_2: f64 = 9.0 * PI;
const DT: f64 = 0.2;
const TORQUES: [f64; 3] = [-1.0, 0.0, 1.0];
const GRAVITY: f64 = 9.8;

/// Scenario-resolved physics (defaults are IEEE-exact against the
/// classic constants).
#[derive(Debug, Clone, Copy, PartialEq)]
struct AcrobotPhys {
    gravity: f64,
    m1: f64,
    m2: f64,
    l1: f64,
    lc1: f64,
    lc2: f64,
    torque_gain: f64,
    wind: f64,
}

impl AcrobotPhys {
    fn from_params(params: &ScenarioParams) -> Self {
        AcrobotPhys {
            gravity: GRAVITY * params.gravity_scale,
            m1: LINK_MASS_1 * params.mass_scale,
            m2: LINK_MASS_2 * params.mass_scale,
            l1: LINK_LENGTH_1 * params.length_scale,
            lc1: LINK_COM_1 * params.length_scale,
            lc2: LINK_COM_2 * params.length_scale,
            torque_gain: params.force_scale,
            wind: params.wind,
        }
    }
}

/// The Acrobot swing-up task.
///
/// Observation: `[cos θ1, sin θ1, cos θ2, sin θ2, ω1, ω2]`. Actions:
/// three torque levels on the middle joint. Reward −1 per step until
/// the tip crosses the target height. Uses the "book" dynamics with
/// RK4 integration like Gym.
#[derive(Debug, Clone)]
pub struct Acrobot {
    phys: AcrobotPhys,
    /// `[θ1, θ2, ω1, ω2]`
    state: [f64; 4],
    steps: usize,
    done: bool,
    max_steps: usize,
}

impl Acrobot {
    /// Creates the environment with the Gym step limit (500).
    pub fn new() -> Self {
        Self::with_max_steps(500)
    }

    /// Creates the environment with a custom step limit.
    pub fn with_max_steps(max_steps: usize) -> Self {
        Self::with_scenario_max_steps(&ScenarioParams::default(), max_steps)
    }

    /// Creates the environment with scenario physics and the Gym step
    /// limit (500).
    pub fn with_scenario(params: &ScenarioParams) -> Self {
        Self::with_scenario_max_steps(params, 500)
    }

    /// Creates the environment with scenario physics and a custom step
    /// limit.
    pub fn with_scenario_max_steps(params: &ScenarioParams, max_steps: usize) -> Self {
        Acrobot {
            phys: AcrobotPhys::from_params(params),
            state: [0.0; 4],
            steps: 0,
            done: true,
            max_steps,
        }
    }

    fn write_observation(&self, obs: &mut [f64]) {
        let [t1, t2, w1, w2] = self.state;
        obs.copy_from_slice(&[t1.cos(), t1.sin(), t2.cos(), t2.sin(), w1, w2]);
    }

    /// Height of the tip above the pivot: `-cos θ1 - cos(θ1 + θ2)`.
    pub fn tip_height(&self) -> f64 {
        -self.state[0].cos() - (self.state[0] + self.state[1]).cos()
    }

    fn dynamics(phys: &AcrobotPhys, state: [f64; 4], torque: f64) -> [f64; 4] {
        let (m1, m2) = (phys.m1, phys.m2);
        let (l1, lc1, lc2) = (phys.l1, phys.lc1, phys.lc2);
        let (i1, i2) = (LINK_MOI, LINK_MOI);
        let gravity = phys.gravity;
        let [t1, t2, w1, w2] = state;
        let d1 = m1 * lc1 * lc1 + m2 * (l1 * l1 + lc2 * lc2 + 2.0 * l1 * lc2 * t2.cos()) + i1 + i2;
        let d2 = m2 * (lc2 * lc2 + l1 * lc2 * t2.cos()) + i2;
        let phi2 = m2 * lc2 * gravity * (t1 + t2 - PI / 2.0).cos();
        let phi1 = -m2 * l1 * lc2 * w2 * w2 * t2.sin() - 2.0 * m2 * l1 * lc2 * w2 * w1 * t2.sin()
            + (m1 * lc1 + m2 * l1) * gravity * (t1 - PI / 2.0).cos()
            + phi2;
        // "Book" (Sutton & Barto) formulation, as in Gym.
        let ddt2 = (torque + d2 / d1 * phi1 - m2 * l1 * lc2 * w1 * w1 * t2.sin() - phi2)
            / (m2 * lc2 * lc2 + i2 - d2 * d2 / d1);
        let ddt1 = -(d2 * ddt2 + phi1) / d1;
        [w1, w2, ddt1, ddt2]
    }

    fn rk4(phys: &AcrobotPhys, state: [f64; 4], torque: f64, dt: f64) -> [f64; 4] {
        let add = |a: [f64; 4], b: [f64; 4], s: f64| {
            [
                a[0] + b[0] * s,
                a[1] + b[1] * s,
                a[2] + b[2] * s,
                a[3] + b[3] * s,
            ]
        };
        let k1 = Self::dynamics(phys, state, torque);
        let k2 = Self::dynamics(phys, add(state, k1, dt / 2.0), torque);
        let k3 = Self::dynamics(phys, add(state, k2, dt / 2.0), torque);
        let k4 = Self::dynamics(phys, add(state, k3, dt), torque);
        let mut out = state;
        for i in 0..4 {
            out[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        out
    }
}

impl Default for Acrobot {
    fn default() -> Self {
        Self::new()
    }
}

fn wrap_angle(x: f64) -> f64 {
    let mut x = (x + PI) % (2.0 * PI);
    if x < 0.0 {
        x += 2.0 * PI;
    }
    x - PI
}

impl Environment for Acrobot {
    fn observation_size(&self) -> usize {
        6
    }

    fn action_space(&self) -> ActionSpace {
        ActionSpace::Discrete(3)
    }

    fn reset_into(&mut self, seed: u64, obs: &mut [f64]) {
        let mut rng = StdRng::seed_from_u64(seed);
        for s in &mut self.state {
            *s = rng.gen_range(-0.1..0.1);
        }
        self.steps = 0;
        self.done = false;
        self.write_observation(obs);
    }

    /// # Panics
    ///
    /// Panics if called after the episode finished (terminated or
    /// truncated) without an intervening reset, or if the action is
    /// not `Discrete(0..=2)`.
    fn step_into(&mut self, action: &Action, obs: &mut [f64]) -> Transition {
        assert!(!self.done, "acrobot: step() called on a finished episode");
        let torque = TORQUES[expect_discrete(action, 3, "acrobot")] * self.phys.torque_gain;
        let mut next = Self::rk4(&self.phys, self.state, torque, DT);
        if self.phys.wind != 0.0 {
            next[3] += self.phys.wind * DT;
        }
        self.state = [
            wrap_angle(next[0]),
            wrap_angle(next[1]),
            next[2].clamp(-MAX_VEL_1, MAX_VEL_1),
            next[3].clamp(-MAX_VEL_2, MAX_VEL_2),
        ];
        self.steps += 1;
        let terminated = self.tip_height() > 1.0;
        let truncated = !terminated && self.steps >= self.max_steps;
        self.done = terminated || truncated;
        self.write_observation(obs);
        Transition {
            reward: if terminated { 0.0 } else { -1.0 },
            terminated,
            truncated,
        }
    }

    fn max_episode_steps(&self) -> usize {
        self.max_steps
    }

    fn name(&self) -> &'static str {
        "acrobot"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hangs_near_bottom_without_torque() {
        let mut env = Acrobot::new();
        env.reset(0);
        for _ in 0..100 {
            let s = env.step(&Action::Discrete(1)); // zero torque
            assert!(!s.terminated, "no torque cannot reach the target height");
            assert!(env.tip_height() < 1.0);
        }
    }

    #[test]
    fn energy_pumping_swings_higher_than_idle() {
        // Torque in the direction of ω1 pumps energy into the swing.
        let mut env = Acrobot::new();
        env.reset(5);
        let mut best = f64::NEG_INFINITY;
        for _ in 0..400 {
            let a = if env.state[2] > 0.0 { 2 } else { 0 };
            let s = env.step(&Action::Discrete(a));
            best = best.max(env.tip_height());
            if s.done() {
                break;
            }
        }
        // Idle hangs near -2.0; resonant pumping must lift the tip far
        // above that even if this crude heuristic does not fully solve
        // the task.
        let mut idle = Acrobot::new();
        idle.reset(5);
        let mut idle_best = f64::NEG_INFINITY;
        for _ in 0..400 {
            let s = idle.step(&Action::Discrete(1));
            idle_best = idle_best.max(idle.tip_height());
            if s.done() {
                break;
            }
        }
        assert!(
            best > idle_best + 1.0,
            "pumping reached {best}, idle reached {idle_best}"
        );
    }

    #[test]
    fn velocities_stay_clamped() {
        let mut env = Acrobot::new();
        env.reset(9);
        for i in 0..300 {
            let s = env.step(&Action::Discrete(if i % 7 < 4 { 0 } else { 2 }));
            assert!(s.observation[4].abs() <= MAX_VEL_1 + 1e-9);
            assert!(s.observation[5].abs() <= MAX_VEL_2 + 1e-9);
            if s.done() {
                break;
            }
        }
    }

    #[test]
    fn observation_is_trig_encoded() {
        let mut env = Acrobot::new();
        let obs = env.reset(1);
        assert_eq!(obs.len(), 6);
        // cos² + sin² = 1 for both angles.
        assert!((obs[0] * obs[0] + obs[1] * obs[1] - 1.0).abs() < 1e-12);
        assert!((obs[2] * obs[2] + obs[3] * obs[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reward_is_minus_one_until_goal() {
        let mut env = Acrobot::new();
        env.reset(2);
        let s = env.step(&Action::Discrete(0));
        assert_eq!(s.reward, -1.0);
    }

    #[test]
    fn default_scenario_matches_legacy_physics_bitwise() {
        let mut legacy = Acrobot::new();
        let mut scenario = Acrobot::with_scenario(&ScenarioParams::default());
        assert_eq!(legacy.reset(13), scenario.reset(13));
        for i in 0..100 {
            let a = Action::Discrete(i % 3);
            let sa = legacy.step(&a);
            let sb = scenario.step(&a);
            for (x, y) in sa.observation.iter().zip(&sb.observation) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            if sa.done() {
                break;
            }
        }
    }

    #[test]
    fn heavier_links_change_the_swing() {
        let heavy = ScenarioParams {
            mass_scale: 1.5,
            ..ScenarioParams::default()
        };
        let mut base = Acrobot::new();
        let mut scenario = Acrobot::with_scenario(&heavy);
        base.reset(13);
        scenario.reset(13);
        let a = base.step(&Action::Discrete(2));
        let b = scenario.step(&Action::Discrete(2));
        assert_ne!(a.observation[5].to_bits(), b.observation[5].to_bits());
    }

    #[test]
    fn wrap_angle_stays_in_pi_range() {
        for x in [-10.0, -3.2, 0.0, 3.2, 10.0, 100.0] {
            let w = wrap_angle(x);
            assert!((-PI..=PI).contains(&w), "{x} wrapped to {w}");
        }
    }
}
