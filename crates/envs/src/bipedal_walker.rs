//! BipedalWalker (substitute for Gym `BipedalWalker-v3`): drive a
//! two-legged hull forward with four torque-controlled joints. The
//! paper's **Env4** and its hardest task (NEAT evolves its largest
//! networks here — Table V).
//!
//! Gym implements this with Box2D. This port is a simplified planar
//! gait model with the **same observation and action spaces**
//! (24 observations, 4 continuous torques in `[-1, 1]`) and the same
//! reward structure (forward progress minus torque cost, −100 on a
//! fall). Joints are spring-damper second-order systems; forward
//! propulsion comes from stance-leg hip retraction, so progress
//! requires the alternating, phase-coordinated gait the real task
//! demands (see DESIGN.md, substitutions).

use crate::env::{expect_continuous, Action, ActionSpace, Environment, Transition};
use crate::scenario::ScenarioParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DT: f64 = 0.02;
const TORQUE_GAIN: f64 = 6.0;
const JOINT_DAMPING: f64 = 3.0;
const JOINT_SPRING: f64 = 1.0;
const HIP_LIMIT: f64 = 1.1;
const KNEE_LIMIT: f64 = 1.1;
const HULL_SPRING: f64 = 4.0;
const HULL_DAMPING: f64 = 1.5;
const PUSH_GAIN: f64 = 0.9;
const DRAG: f64 = 0.8;
const FALL_ANGLE: f64 = 0.9;
const TRACK_LENGTH: f64 = 60.0;
const LIDAR_RAYS: usize = 10;

/// Scenario-resolved physics (defaults are IEEE-exact against the
/// classic constants). `roughness` adds surface drag and `wind` is a
/// constant headwind (negative) or tailwind (positive) on the hull.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WalkerPhys {
    torque_gain: f64,
    drag: f64,
    wind: f64,
}

impl WalkerPhys {
    fn from_params(params: &ScenarioParams) -> Self {
        WalkerPhys {
            torque_gain: TORQUE_GAIN * params.force_scale,
            drag: if params.roughness != 0.0 {
                DRAG + params.roughness
            } else {
                DRAG
            },
            wind: params.wind,
        }
    }
}

/// The bipedal walking task.
///
/// Observation (24): hull angle & angular velocity, hull x/y velocity,
/// per-leg hip angle/speed and knee angle/speed, per-leg ground
/// contact, and 10 lidar distances to the (flat) terrain. Actions (4):
/// hip and knee torques for both legs in `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct BipedalWalker {
    phys: WalkerPhys,
    hull_angle: f64,
    hull_omega: f64,
    /// Forward velocity of the hull.
    vx: f64,
    vy: f64,
    position: f64,
    /// `[hip0, knee0, hip1, knee1]` joint angles.
    joints: [f64; 4],
    joint_speeds: [f64; 4],
    steps: usize,
    done: bool,
    max_steps: usize,
}

impl BipedalWalker {
    /// Creates the environment with the Gym step limit (1600).
    pub fn new() -> Self {
        Self::with_max_steps(1600)
    }

    /// Creates the environment with a custom step limit.
    pub fn with_max_steps(max_steps: usize) -> Self {
        Self::with_scenario_max_steps(&ScenarioParams::default(), max_steps)
    }

    /// Creates the environment with scenario physics and the Gym step
    /// limit (1600).
    pub fn with_scenario(params: &ScenarioParams) -> Self {
        Self::with_scenario_max_steps(params, 1600)
    }

    /// Creates the environment with scenario physics and a custom step
    /// limit.
    pub fn with_scenario_max_steps(params: &ScenarioParams, max_steps: usize) -> Self {
        BipedalWalker {
            phys: WalkerPhys::from_params(params),
            hull_angle: 0.0,
            hull_omega: 0.0,
            vx: 0.0,
            vy: 0.0,
            position: 0.0,
            joints: [0.0; 4],
            joint_speeds: [0.0; 4],
            steps: 0,
            done: true,
            max_steps,
        }
    }

    /// Distance travelled so far (for tests/tools).
    pub fn position(&self) -> f64 {
        self.position
    }

    /// Leg extension toward the ground: larger = foot lower. The foot
    /// of the more extended leg carries the stance.
    fn leg_extension(&self, leg: usize) -> f64 {
        let hip = self.joints[2 * leg];
        let knee = self.joints[2 * leg + 1];
        (hip + self.hull_angle).cos() + 0.8 * (hip + knee + self.hull_angle).cos()
    }

    fn contacts(&self) -> (bool, bool) {
        let e0 = self.leg_extension(0);
        let e1 = self.leg_extension(1);
        let max = e0.max(e1);
        (e0 >= max - 0.08, e1 >= max - 0.08)
    }

    fn write_observation(&self, obs: &mut [f64]) {
        let (c0, c1) = self.contacts();
        let (body, lidar) = obs.split_at_mut(14);
        body.copy_from_slice(&[
            self.hull_angle,
            self.hull_omega,
            self.vx * 0.3, // Gym scales hull velocity
            self.vy * 0.3,
            self.joints[0],
            self.joint_speeds[0],
            self.joints[1],
            self.joint_speeds[1],
            f64::from(c0),
            self.joints[2],
            self.joint_speeds[2],
            self.joints[3],
            self.joint_speeds[3],
            f64::from(c1),
        ]);
        // Lidar over flat terrain: distance to ground along rays fanned
        // from the hull. Deterministic in hull attitude.
        assert_eq!(lidar.len(), LIDAR_RAYS, "bipedal_walker: observation row");
        let hull_height = 1.2;
        for (i, ray) in lidar.iter_mut().enumerate() {
            let ray_angle = self.hull_angle + 0.15 * i as f64;
            let dist = hull_height / ray_angle.cos().max(0.2);
            *ray = dist.min(2.0) / 2.0;
        }
    }
}

impl Default for BipedalWalker {
    fn default() -> Self {
        Self::new()
    }
}

impl Environment for BipedalWalker {
    fn observation_size(&self) -> usize {
        24
    }

    fn action_space(&self) -> ActionSpace {
        ActionSpace::symmetric(4, 1.0)
    }

    fn reset_into(&mut self, seed: u64, obs: &mut [f64]) {
        let mut rng = StdRng::seed_from_u64(seed);
        self.hull_angle = rng.gen_range(-0.05..0.05);
        self.hull_omega = 0.0;
        self.vx = 0.0;
        self.vy = 0.0;
        self.position = 0.0;
        for (i, j) in self.joints.iter_mut().enumerate() {
            // Legs start slightly split so a gait can bootstrap.
            *j = if i == 0 { 0.2 } else { -0.1 } * (1.0 + rng.gen_range(-0.2..0.2));
        }
        self.joint_speeds = [0.0; 4];
        self.steps = 0;
        self.done = false;
        self.write_observation(obs);
    }

    /// # Panics
    ///
    /// Panics if called after the episode finished (terminated or
    /// truncated) without an intervening reset, or if the action is
    /// not a four-dimensional `Continuous` torque vector.
    fn step_into(&mut self, action: &Action, obs: &mut [f64]) -> Transition {
        assert!(
            !self.done,
            "bipedal_walker: step() called on a finished episode"
        );
        let torques = expect_continuous(action, &[-1.0; 4], &[1.0; 4], "bipedal_walker");

        // Joint dynamics: torque-driven spring-damper, clamped range.
        let limits = [HIP_LIMIT, KNEE_LIMIT, HIP_LIMIT, KNEE_LIMIT];
        for i in 0..4 {
            let accel = self.phys.torque_gain * torques[i]
                - JOINT_DAMPING * self.joint_speeds[i]
                - JOINT_SPRING * self.joints[i];
            self.joint_speeds[i] += accel * DT;
            self.joints[i] += self.joint_speeds[i] * DT;
            if self.joints[i].abs() > limits[i] {
                self.joints[i] = self.joints[i].clamp(-limits[i], limits[i]);
                self.joint_speeds[i] = 0.0;
            }
        }

        // Propulsion: a stance leg whose hip swings backward pushes the
        // hull forward (ground reaction). A swing leg contributes
        // nothing; simultaneous stance pushes fight each other through
        // the drag term.
        let (c0, c1) = self.contacts();
        let mut push = 0.0;
        if c0 {
            push += PUSH_GAIN * (-self.joint_speeds[0]).max(0.0);
        }
        if c1 {
            push += PUSH_GAIN * (-self.joint_speeds[2]).max(0.0);
        }
        if self.phys.wind != 0.0 {
            push += self.phys.wind;
        }
        self.vx += (push - self.phys.drag * self.vx) * DT / 0.3;
        self.position += self.vx * DT;
        // Vertical bounce from gait (cosmetic but feeds obs[3]).
        self.vy = 0.3 * (self.joint_speeds[0] + self.joint_speeds[2]);

        // Hull attitude: reaction torque from hip drives pitch; spring
        // models the legs catching the hull.
        let reaction = -0.35 * (torques[0] + torques[2]);
        self.hull_omega +=
            (reaction - HULL_SPRING * self.hull_angle - HULL_DAMPING * self.hull_omega) * DT / 0.25;
        self.hull_angle += self.hull_omega * DT;

        self.steps += 1;
        let fell = self.hull_angle.abs() > FALL_ANGLE;
        let finished = self.position >= TRACK_LENGTH;
        let terminated = fell || finished;
        let truncated = !terminated && self.steps >= self.max_steps;
        self.done = terminated || truncated;

        // Gym-style reward: forward progress dominates, torque costs a
        // little, falling costs -100. Scaled so completing the full
        // track earns ~300 (the Gym solved threshold): 300 / TRACK_LENGTH
        // per unit of progress.
        let torque_cost: f64 = torques.iter().map(|t| t.abs()).sum::<f64>() * 0.0035;
        let mut reward =
            (300.0 / TRACK_LENGTH) * self.vx * DT - torque_cost - 5.0 * self.hull_angle.abs() * DT;
        if fell {
            reward -= 100.0;
        }
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
        "bipedal_walker"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_reward(policy: impl Fn(usize, &[f64]) -> [f64; 4], steps: usize) -> (f64, f64) {
        let mut env = BipedalWalker::with_max_steps(steps);
        let mut obs = env.reset(1);
        let mut total = 0.0;
        let mut t = 0;
        loop {
            let a = policy(t, &obs);
            let s = env.step(&Action::Continuous(a.to_vec()));
            total += s.reward;
            obs = s.observation.clone();
            t += 1;
            if s.done() {
                break;
            }
        }
        (total, env.position())
    }

    #[test]
    fn observation_is_24_dimensional() {
        let mut env = BipedalWalker::new();
        assert_eq!(env.reset(0).len(), 24);
        assert_eq!(env.observation_size(), 24);
    }

    #[test]
    fn idle_walker_goes_nowhere() {
        let (_, pos) = total_reward(|_, _| [0.0; 4], 300);
        assert!(pos.abs() < 0.5, "no torque, no progress: {pos}");
    }

    #[test]
    fn alternating_gait_moves_forward() {
        // Out-of-phase sinusoidal hips: the canonical open-loop gait.
        let gait = |t: usize, _: &[f64]| {
            let phase = t as f64 * 0.15;
            [
                phase.sin(),
                0.3 * phase.cos(),
                -phase.sin(),
                -0.3 * phase.cos(),
            ]
        };
        let (reward, pos) = total_reward(gait, 600);
        assert!(pos > 1.0, "gait should make progress, got {pos}");
        let (idle_reward, _) = total_reward(|_, _| [0.0; 4], 600);
        assert!(reward > idle_reward);
    }

    #[test]
    fn symmetric_torques_beat_no_stance_alternation() {
        // Both hips pushed identically: legs move together, contacts
        // stay shared, and drag limits speed versus alternating gait.
        let together = |t: usize, _: &[f64]| {
            let phase = (t as f64 * 0.15).sin();
            [phase, 0.0, phase, 0.0]
        };
        let alternating = |t: usize, _: &[f64]| {
            let phase = t as f64 * 0.15;
            [phase.sin(), 0.0, -phase.sin(), 0.0]
        };
        let (_, pos_together) = total_reward(together, 600);
        let (_, pos_alt) = total_reward(alternating, 600);
        assert!(
            pos_alt > pos_together,
            "alternating ({pos_alt}) must beat in-phase ({pos_together})"
        );
    }

    #[test]
    fn joints_respect_limits() {
        let mut env = BipedalWalker::new();
        env.reset(2);
        for _ in 0..500 {
            let s = env.step(&Action::Continuous(vec![1.0, 1.0, 1.0, 1.0]));
            for &idx in &[4usize, 6, 9, 11] {
                assert!(s.observation[idx].abs() <= HIP_LIMIT + 1e-9);
            }
            if s.done() {
                break;
            }
        }
    }

    #[test]
    fn at_least_one_leg_always_in_contact() {
        let mut env = BipedalWalker::new();
        env.reset(3);
        for t in 0..200 {
            let phase = t as f64 * 0.2;
            let s = env.step(&Action::Continuous(vec![
                phase.sin(),
                0.0,
                -phase.sin(),
                0.0,
            ]));
            assert!(s.observation[8] + s.observation[13] >= 1.0);
            if s.done() {
                break;
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = BipedalWalker::new();
        let mut b = BipedalWalker::new();
        assert_eq!(a.reset(9), b.reset(9));
        for t in 0..100 {
            let act = Action::Continuous(vec![(t as f64 * 0.1).sin(), 0.1, -0.2, 0.0]);
            assert_eq!(a.step(&act), b.step(&act));
        }
    }

    #[test]
    fn default_scenario_matches_legacy_physics_bitwise() {
        let mut legacy = BipedalWalker::new();
        let mut scenario = BipedalWalker::with_scenario(&ScenarioParams::default());
        assert_eq!(legacy.reset(9), scenario.reset(9));
        for t in 0..200 {
            let act = Action::Continuous(vec![(t as f64 * 0.15).sin(), 0.1, -0.2, 0.0]);
            let sa = legacy.step(&act);
            let sb = scenario.step(&act);
            for (x, y) in sa.observation.iter().zip(&sb.observation) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(sa.reward.to_bits(), sb.reward.to_bits());
        }
    }

    #[test]
    fn rough_terrain_slows_the_gait() {
        let rough = ScenarioParams {
            roughness: 1.5,
            ..ScenarioParams::default()
        };
        let gait = |t: usize| {
            let phase = t as f64 * 0.15;
            Action::Continuous(vec![
                phase.sin(),
                0.3 * phase.cos(),
                -phase.sin(),
                -0.3 * phase.cos(),
            ])
        };
        let run = |params: &ScenarioParams| {
            let mut env = BipedalWalker::with_scenario_max_steps(params, 600);
            env.reset(1);
            for t in 0..600 {
                if env.step(&gait(t)).done() {
                    break;
                }
            }
            env.position()
        };
        let smooth_pos = run(&ScenarioParams::default());
        let rough_pos = run(&rough);
        assert!(
            rough_pos < smooth_pos,
            "roughness must slow progress: {rough_pos} vs {smooth_pos}"
        );
    }
}
