//! Batch-first environment stepping: many episodes in lockstep.
//!
//! An early thread-scaling sweep showed the per-individual eval API
//! defeating the thread pool — sub-microsecond work items drown in scheduling
//! overhead. The fix (the TensorNEAT insight) is to restructure the
//! eval loop population-major: a [`BatchEnv`] advances a whole *batch*
//! of episodes per call, reading and writing struct-of-arrays buffers
//! ([`StepBatch`]) so the per-step cost is one virtual dispatch and a
//! tight loop over lanes instead of one dispatch, one `Vec` allocation
//! and one `Step` struct per individual. [`ScalarBatch`] is the
//! implementation: one scalar environment per lane, held by value,
//! each writing its observation straight into its [`StepBatch`] row
//! through [`Environment::step_into`].
//!
//! # Lanes and parking
//!
//! A batch has a fixed number of **lanes**, one episode per lane.
//! Episodes end at different times; a finished lane is **parked**
//! (`active[lane] = false`) and skipped by every subsequent
//! [`BatchEnv::step_batch`] instead of stalling the batch or panicking
//! the way a scalar [`Environment::step`] on a finished episode would.
//! The [`StepBatch`] carries the authoritative lane state: callers
//! must not flip `active` back on without a fresh
//! [`BatchEnv::reset_batch`].
//!
//! # Determinism contract
//!
//! Lane `i` of a batch reproduces, **bit for bit**, the trajectory the
//! scalar environment produces from the same reset seed and action
//! sequence — by construction: a lane *is* that scalar environment,
//! running the task's one copy of its physics. Lanes share no state,
//! so batch composition and lane count never affect a lane's
//! trajectory.

use crate::env::{Action, ActionSpace, Environment, Transition};

/// Struct-of-arrays step buffers for one batch of episodes.
///
/// All vectors are lane-indexed; `observations` is lane-major flat
/// storage (`lanes × obs_size`). The buffer is caller-owned and reused
/// across steps — no per-step allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct StepBatch {
    obs_size: usize,
    /// Lane-major observations: lane `i` occupies
    /// `observations[i*obs_size .. (i+1)*obs_size]`. Rows of parked
    /// lanes keep their final (terminal) observation.
    pub observations: Vec<f64>,
    /// Reward earned by each lane's last transition; `0.0` for lanes
    /// that were parked when the step ran.
    pub rewards: Vec<f64>,
    /// Whether each lane's episode reached a terminal state. Sticky
    /// once set (until the next reset).
    pub terminated: Vec<bool>,
    /// Whether each lane's episode hit the step limit. Sticky once set
    /// (until the next reset).
    pub truncated: Vec<bool>,
    /// The active-lane mask: `true` while the lane's episode is still
    /// running, `false` once parked.
    pub active: Vec<bool>,
}

impl StepBatch {
    /// Creates zeroed buffers for `lanes` episodes of `obs_size`
    /// observations. All lanes start parked; [`BatchEnv::reset_batch`]
    /// activates them.
    pub fn new(lanes: usize, obs_size: usize) -> Self {
        StepBatch {
            obs_size,
            observations: vec![0.0; lanes * obs_size],
            rewards: vec![0.0; lanes],
            terminated: vec![false; lanes],
            truncated: vec![false; lanes],
            active: vec![false; lanes],
        }
    }

    /// Number of lanes.
    pub(crate) fn lanes(&self) -> usize {
        self.rewards.len()
    }

    /// The observation row of `lane`.
    pub fn obs_row(&self, lane: usize) -> &[f64] {
        &self.observations[lane * self.obs_size..(lane + 1) * self.obs_size]
    }

    /// The mutable observation row of `lane` (for [`BatchEnv`]
    /// implementations).
    pub(crate) fn obs_row_mut(&mut self, lane: usize) -> &mut [f64] {
        &mut self.observations[lane * self.obs_size..(lane + 1) * self.obs_size]
    }

    /// Number of lanes still running.
    pub fn active_lanes(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Whether every lane has parked (the batch loop's exit test).
    pub fn all_parked(&self) -> bool {
        !self.active.iter().any(|&a| a)
    }

    fn assert_lanes(&self, lanes: usize, what: &str) {
        assert_eq!(
            self.lanes(),
            lanes,
            "{what}: batch has {} lanes, environment has {lanes}",
            self.lanes()
        );
    }
}

/// A batch of environments stepped in lockstep.
///
/// Mirrors [`Environment`], lifted to a fixed number of lanes. See the
/// module docs for lane parking and the determinism contract.
pub trait BatchEnv {
    /// Number of lanes (episodes per batch).
    fn lanes(&self) -> usize;

    /// Length of one lane's observation vector.
    fn observation_size(&self) -> usize;

    /// The per-lane action space (identical across lanes).
    fn action_space(&self) -> ActionSpace;

    /// Maximum steps per episode before truncation (per lane).
    fn max_episode_steps(&self) -> usize;

    /// Short name of the underlying environment (e.g. `"cartpole"`).
    fn name(&self) -> &'static str;

    /// Resets every lane: lane `i` is seeded with `seeds[i]` exactly
    /// like [`Environment::reset`], its observation row is filled, and
    /// the lane is marked active with cleared reward/done flags.
    ///
    /// # Panics
    ///
    /// Panics if `seeds.len()` or the batch's lane count differ from
    /// [`BatchEnv::lanes`].
    fn reset_batch(&mut self, seeds: &[u64], batch: &mut StepBatch);

    /// Advances every **active** lane one timestep with its action;
    /// parked lanes are skipped (reward set to `0.0`, observation and
    /// done flags untouched). A lane whose episode ends this step has
    /// its terminal observation, reward and flags recorded, then parks.
    ///
    /// # Panics
    ///
    /// Panics if `actions.len()` or the batch's lane count differ from
    /// [`BatchEnv::lanes`], or if an active lane's action does not
    /// match [`BatchEnv::action_space`] (same validation as the scalar
    /// [`Environment::step`]). Actions of parked lanes are ignored.
    fn step_batch(&mut self, actions: &[Action], batch: &mut StepBatch);
}

/// The [`BatchEnv`] over `N` scalar environments of one type, and what
/// [`crate::EnvId::make_batch`] builds for every task. It adds lane
/// bookkeeping (parking, flags) around [`Environment::reset_into`] and
/// [`Environment::step_into`]; a parked lane's environment is never
/// touched.
///
/// # Example
///
/// ```
/// use e3_envs::{Action, BatchEnv, CartPole, ScalarBatch, StepBatch};
///
/// let mut env = ScalarBatch::from_fn(3, |_| CartPole::new());
/// let mut batch = StepBatch::new(3, env.observation_size());
/// env.reset_batch(&[7, 8, 9], &mut batch);
/// let actions = vec![Action::Discrete(1); 3];
/// env.step_batch(&actions, &mut batch);
/// assert_eq!(batch.active_lanes(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ScalarBatch<E> {
    envs: Vec<E>,
}

impl<E: Environment> ScalarBatch<E> {
    /// Wraps one pre-built scalar environment per lane.
    ///
    /// # Panics
    ///
    /// Panics if `envs` is empty.
    pub(crate) fn new(envs: Vec<E>) -> Self {
        assert!(!envs.is_empty(), "a batch needs at least one lane");
        ScalarBatch { envs }
    }

    /// Builds `lanes` environments with a per-lane constructor.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn from_fn(lanes: usize, make: impl FnMut(usize) -> E) -> Self {
        ScalarBatch::new((0..lanes).map(make).collect())
    }
}

impl<E: Environment> BatchEnv for ScalarBatch<E> {
    fn lanes(&self) -> usize {
        self.envs.len()
    }

    fn observation_size(&self) -> usize {
        self.envs[0].observation_size()
    }

    fn action_space(&self) -> ActionSpace {
        self.envs[0].action_space()
    }

    fn max_episode_steps(&self) -> usize {
        self.envs[0].max_episode_steps()
    }

    fn name(&self) -> &'static str {
        self.envs[0].name()
    }

    fn reset_batch(&mut self, seeds: &[u64], batch: &mut StepBatch) {
        assert_eq!(seeds.len(), self.envs.len(), "one seed per lane");
        batch.assert_lanes(self.envs.len(), "reset_batch");
        for (lane, env) in self.envs.iter_mut().enumerate() {
            env.reset_into(seeds[lane], batch.obs_row_mut(lane));
            batch.rewards[lane] = 0.0;
            batch.terminated[lane] = false;
            batch.truncated[lane] = false;
            batch.active[lane] = true;
        }
    }

    fn step_batch(&mut self, actions: &[Action], batch: &mut StepBatch) {
        assert_eq!(actions.len(), self.envs.len(), "one action per lane");
        batch.assert_lanes(self.envs.len(), "step_batch");
        for (lane, env) in self.envs.iter_mut().enumerate() {
            if !batch.active[lane] {
                batch.rewards[lane] = 0.0;
                continue;
            }
            let Transition {
                reward,
                terminated,
                truncated,
            } = env.step_into(&actions[lane], batch.obs_row_mut(lane));
            batch.rewards[lane] = reward;
            batch.terminated[lane] = terminated;
            batch.truncated[lane] = truncated;
            if terminated || truncated {
                batch.active[lane] = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cartpole::CartPole;
    use crate::pendulum::Pendulum;

    #[test]
    fn scalar_batch_matches_independent_scalar_envs() {
        let lanes = 4;
        let mut batch_env = ScalarBatch::from_fn(lanes, |_| CartPole::new());
        let mut batch = StepBatch::new(lanes, batch_env.observation_size());
        let seeds: Vec<u64> = (0..lanes as u64).map(|s| s * 31 + 5).collect();
        batch_env.reset_batch(&seeds, &mut batch);

        let mut scalars: Vec<CartPole> = (0..lanes).map(|_| CartPole::new()).collect();
        for (lane, env) in scalars.iter_mut().enumerate() {
            let obs = env.reset(seeds[lane]);
            assert_eq!(batch.obs_row(lane), obs.as_slice(), "reset lane {lane}");
        }

        let mut done = vec![false; lanes];
        let actions: Vec<Action> = (0..lanes).map(|l| Action::Discrete(l % 2)).collect();
        for _ in 0..200 {
            batch_env.step_batch(&actions, &mut batch);
            for (lane, env) in scalars.iter_mut().enumerate() {
                if done[lane] {
                    assert_eq!(batch.rewards[lane], 0.0, "parked lane pays nothing");
                    continue;
                }
                let step = env.step(&actions[lane]);
                assert_eq!(batch.obs_row(lane), step.observation.as_slice());
                assert_eq!(batch.rewards[lane].to_bits(), step.reward.to_bits());
                assert_eq!(batch.terminated[lane], step.terminated);
                assert_eq!(batch.truncated[lane], step.truncated);
                done[lane] = step.done();
                assert_eq!(batch.active[lane], !done[lane]);
            }
            if batch.all_parked() {
                break;
            }
        }
        assert!(batch.all_parked(), "constant policies tip every pole");
    }

    #[test]
    fn early_finishers_park_without_stalling_the_batch() {
        // Lane 0 gets a 5-step limit; lane 1 runs the full pendulum
        // horizon. The batch must keep stepping lane 1 after lane 0
        // parks.
        let mut env = ScalarBatch::new(vec![
            Pendulum::with_max_steps(5),
            Pendulum::with_max_steps(20),
        ]);
        let mut batch = StepBatch::new(2, env.observation_size());
        env.reset_batch(&[1, 2], &mut batch);
        let actions = vec![Action::Continuous(vec![0.0]); 2];
        for step in 0..20 {
            env.step_batch(&actions, &mut batch);
            if step >= 5 {
                assert!(!batch.active[0], "lane 0 parked at its limit");
                assert!(batch.truncated[0], "truncation flag is sticky");
            }
        }
        assert!(batch.all_parked());
        assert_eq!(batch.active_lanes(), 0);
    }

    #[test]
    fn reset_reactivates_parked_lanes() {
        let mut env = ScalarBatch::from_fn(2, |_| Pendulum::with_max_steps(1));
        let mut batch = StepBatch::new(2, env.observation_size());
        env.reset_batch(&[3, 4], &mut batch);
        env.step_batch(&vec![Action::Continuous(vec![0.0]); 2], &mut batch);
        assert!(batch.all_parked());
        env.reset_batch(&[3, 4], &mut batch);
        assert_eq!(batch.active_lanes(), 2);
        assert!(!batch.terminated[0] && !batch.truncated[0]);
    }

    #[test]
    #[should_panic(expected = "one seed per lane")]
    fn seed_count_must_match_lanes() {
        let mut env = ScalarBatch::from_fn(2, |_| CartPole::new());
        let mut batch = StepBatch::new(2, env.observation_size());
        env.reset_batch(&[1], &mut batch);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_batch_rejected() {
        let _ = ScalarBatch::<CartPole>::new(Vec::new());
    }

    #[test]
    fn step_batch_rows_index_lane_major() {
        let batch = StepBatch::new(3, 4);
        assert_eq!(batch.lanes(), 3);
        assert_eq!(batch.obs_row(2).len(), 4);
        assert_eq!(batch.observations.len(), 12);
        assert!(batch.all_parked(), "lanes start parked until reset");
    }
}
