//! Pong (Atari-class benchmark): the paper's evaluation mentions "a
//! mix of control benchmarks and Atari games", and its Fig. 11 caption
//! averages over "Env1–Env7". This is the seventh environment: a
//! from-scratch planar Pong against a tracking opponent.
//!
//! Unlike ALE this is a state-based (RAM-like) observation — 6 floats —
//! which is what a NEAT-evolved network would consume on an edge
//! device (pixel stacks are out of scope for 10-node networks).

use crate::env::{expect_discrete, Action, ActionSpace, Environment, Transition};
use crate::scenario::ScenarioParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DT: f64 = 1.0;
const PADDLE_SPEED: f64 = 0.04;
const OPPONENT_SPEED: f64 = 0.02;
const PADDLE_HALF: f64 = 0.1;
const COURT_HALF: f64 = 0.5;
const BALL_SPEED: f64 = 0.03;
const WIN_SCORE: i32 = 5;

/// Scenario-resolved physics (defaults are IEEE-exact against the
/// classic constants). `force_scale` scales the player's paddle speed;
/// `wind` is a constant vertical drift on the ball.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PongPhys {
    paddle_speed: f64,
    wind: f64,
}

impl PongPhys {
    fn from_params(params: &ScenarioParams) -> Self {
        PongPhys {
            paddle_speed: PADDLE_SPEED * params.force_scale,
            wind: params.wind,
        }
    }
}

/// A planar Pong rally against a built-in tracking opponent.
///
/// Observation: `[ball_x, ball_y, ball_vx, ball_vy, own_paddle_y,
/// opponent_paddle_y]`. Actions: 0 stay, 1 up, 2 down. Reward: +1 per
/// point scored, −1 per point conceded, +0.01 per own-paddle hit
/// (shaping). The episode ends at 5 points either way.
#[derive(Debug, Clone)]
pub(crate) struct Pong {
    phys: PongPhys,
    ball: [f64; 4],
    own_y: f64,
    opp_y: f64,
    own_score: i32,
    opp_score: i32,
    steps: usize,
    done: bool,
    max_steps: usize,
    rng: StdRng,
}

impl Pong {
    /// Creates the environment with a 3000-step limit.
    pub(crate) fn new() -> Self {
        Self::with_max_steps(3000)
    }

    /// Creates the environment with a custom step limit.
    pub(crate) fn with_max_steps(max_steps: usize) -> Self {
        Self::with_scenario_max_steps(&ScenarioParams::default(), max_steps)
    }

    /// Creates the environment with scenario physics and the default
    /// 3000-step limit.
    pub(crate) fn with_scenario(params: &ScenarioParams) -> Self {
        Self::with_scenario_max_steps(params, 3000)
    }

    /// Creates the environment with scenario physics and a custom step
    /// limit.
    pub(crate) fn with_scenario_max_steps(params: &ScenarioParams, max_steps: usize) -> Self {
        Pong {
            phys: PongPhys::from_params(params),
            ball: [0.0; 4],
            own_y: 0.0,
            opp_y: 0.0,
            own_score: 0,
            opp_score: 0,
            steps: 0,
            done: true,
            max_steps,
            rng: StdRng::seed_from_u64(0),
        }
    }

    fn write_observation(&self, obs: &mut [f64]) {
        obs.copy_from_slice(&[
            self.ball[0],
            self.ball[1],
            self.ball[2] / BALL_SPEED,
            self.ball[3] / BALL_SPEED,
            self.own_y,
            self.opp_y,
        ]);
    }

    fn serve(&mut self, toward_own: bool) {
        let angle: f64 = self.rng.gen_range(-0.7..0.7);
        let dir = if toward_own { 1.0 } else { -1.0 };
        self.ball = [
            0.0,
            self.rng.gen_range(-0.2..0.2),
            dir * BALL_SPEED * angle.cos(),
            BALL_SPEED * angle.sin(),
        ];
    }
}

impl Default for Pong {
    fn default() -> Self {
        Self::new()
    }
}

impl Environment for Pong {
    fn observation_size(&self) -> usize {
        6
    }

    fn action_space(&self) -> ActionSpace {
        ActionSpace::Discrete(3)
    }

    fn reset_into(&mut self, seed: u64, obs: &mut [f64]) {
        self.rng = StdRng::seed_from_u64(seed);
        self.own_y = 0.0;
        self.opp_y = 0.0;
        self.own_score = 0;
        self.opp_score = 0;
        self.steps = 0;
        self.done = false;
        self.serve(true);
        self.write_observation(obs);
    }

    /// # Panics
    ///
    /// Panics if called after the episode finished (terminated or
    /// truncated) without an intervening reset, or if the action is
    /// not `Discrete(0..=2)`.
    fn step_into(&mut self, action: &Action, obs: &mut [f64]) -> Transition {
        assert!(!self.done, "pong: step() called on a finished episode");
        let a = expect_discrete(action, 3, "pong");
        match a {
            1 => self.own_y = (self.own_y + self.phys.paddle_speed * DT).min(COURT_HALF),
            2 => self.own_y = (self.own_y - self.phys.paddle_speed * DT).max(-COURT_HALF),
            _ => {}
        }
        // Opponent: slow tracker of the ball (beatable).
        let target = self.ball[1];
        let delta = (target - self.opp_y).clamp(-OPPONENT_SPEED * DT, OPPONENT_SPEED * DT);
        self.opp_y = (self.opp_y + delta).clamp(-COURT_HALF, COURT_HALF);

        // Ball physics: own paddle lives at x = +0.5, opponent at -0.5.
        if self.phys.wind != 0.0 {
            self.ball[3] += self.phys.wind * BALL_SPEED * DT;
        }
        self.ball[0] += self.ball[2] * DT;
        self.ball[1] += self.ball[3] * DT;
        if self.ball[1].abs() > COURT_HALF {
            self.ball[1] = self.ball[1].clamp(-COURT_HALF, COURT_HALF);
            self.ball[3] = -self.ball[3];
        }
        let mut reward = 0.0;
        if self.ball[0] >= COURT_HALF {
            if (self.ball[1] - self.own_y).abs() <= PADDLE_HALF {
                // Returned: reflect with english from the hit offset.
                self.ball[0] = COURT_HALF;
                self.ball[2] = -self.ball[2].abs();
                self.ball[3] += 0.5 * BALL_SPEED * (self.ball[1] - self.own_y) / PADDLE_HALF;
                reward += 0.01;
            } else {
                self.opp_score += 1;
                reward -= 1.0;
                self.serve(true);
            }
        } else if self.ball[0] <= -COURT_HALF {
            if (self.ball[1] - self.opp_y).abs() <= PADDLE_HALF {
                self.ball[0] = -COURT_HALF;
                self.ball[2] = self.ball[2].abs();
                self.ball[3] += 0.5 * BALL_SPEED * (self.ball[1] - self.opp_y) / PADDLE_HALF;
            } else {
                self.own_score += 1;
                reward += 1.0;
                self.serve(false);
            }
        }

        self.steps += 1;
        let terminated = self.own_score >= WIN_SCORE || self.opp_score >= WIN_SCORE;
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
        "pong"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn play(policy: impl Fn(&[f64]) -> usize, seed: u64) -> (f64, i32, i32) {
        let mut env = Pong::new();
        let mut obs = env.reset(seed);
        let mut total = 0.0;
        loop {
            let s = env.step(&Action::Discrete(policy(&obs)));
            total += s.reward;
            obs = s.observation.clone();
            if s.done() {
                let (own, opp) = (env.own_score, env.opp_score);
                return (total, own, opp);
            }
        }
    }

    #[test]
    fn idle_paddle_loses() {
        let (total, own, opp) = play(|_| 0, 1);
        assert_eq!(opp, WIN_SCORE, "the tracker wins against a frozen paddle");
        assert!(own < WIN_SCORE);
        assert!(total < 0.0);
    }

    #[test]
    fn ball_tracking_beats_idling() {
        let tracker = |obs: &[f64]| {
            if obs[1] > obs[4] + 0.02 {
                1
            } else if obs[1] < obs[4] - 0.02 {
                2
            } else {
                0
            }
        };
        let (track_reward, own, _) = play(tracker, 2);
        let (idle_reward, _, _) = play(|_| 0, 2);
        assert!(track_reward > idle_reward);
        assert!(own >= 1, "a perfect tracker should score at least once");
    }

    #[test]
    fn observation_shape_and_bounds() {
        let mut env = Pong::new();
        let obs = env.reset(3);
        assert_eq!(obs.len(), 6);
        for _ in 0..500 {
            let s = env.step(&Action::Discrete(1));
            assert!(
                s.observation[1].abs() <= COURT_HALF + 1e-9,
                "ball stays in court"
            );
            assert!(
                s.observation[4].abs() <= COURT_HALF + 1e-9,
                "paddle stays in court"
            );
            if s.done() {
                break;
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = play(|obs| usize::from(obs[1] > obs[4]), 7);
        let b = play(|obs| usize::from(obs[1] > obs[4]), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn episode_terminates_at_win_score() {
        let (_, own, opp) = play(|_| 0, 9);
        assert!(own == WIN_SCORE || opp == WIN_SCORE);
    }

    #[test]
    fn default_scenario_matches_legacy_physics_bitwise() {
        let mut legacy = Pong::new();
        let mut scenario = Pong::with_scenario(&ScenarioParams::default());
        assert_eq!(legacy.reset(7), scenario.reset(7));
        for _ in 0..300 {
            let sa = legacy.step(&Action::Discrete(1));
            let sb = scenario.step(&Action::Discrete(1));
            for (x, y) in sa.observation.iter().zip(&sb.observation) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            if sa.done() {
                break;
            }
        }
    }

    #[test]
    fn slower_paddle_changes_the_rally() {
        let slow = ScenarioParams {
            force_scale: 0.25,
            ..ScenarioParams::default()
        };
        let mut full = Pong::new();
        let mut crippled = Pong::with_scenario(&slow);
        full.reset(7);
        crippled.reset(7);
        let a = full.step(&Action::Discrete(1));
        let b = crippled.step(&Action::Discrete(1));
        assert!(
            b.observation[4] < a.observation[4],
            "slower paddle moves less"
        );
    }
}
