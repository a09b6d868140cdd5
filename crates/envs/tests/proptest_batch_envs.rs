//! Property tests for the batched environment API.
//!
//! A lane of [`EnvId::make_batch`] / [`EnvId::make_batch_scenarios`] is
//! the scalar environment of [`EnvId::make`] / [`EnvId::make_scenario`]
//! held inside a `ScalarBatch`, so lane and solo share one physics and
//! what these tests guard is the adapter around it: lane `i` gets
//! `seeds[i]`, `actions[i]` and `params[i]`, its observation lands in
//! row `i`, reward and flags are copied **bit for bit**, and an
//! early-finished lane is parked (reward `0.0`, observation and flags
//! frozen, environment never stepped again) while the rest keep going.
//! All seven environments, default and heterogeneous per-lane physics.

use e3_envs::{
    Action, ActionSpace, BatchEnv, EnvId, Environment, ScenarioDistribution, ScenarioParams,
    StepBatch,
};
use proptest::prelude::*;

/// Builds a valid action for a space from two raw values.
fn action_for(space: &ActionSpace, a: usize, x: f64) -> Action {
    match space {
        ActionSpace::Discrete(n) => Action::Discrete(a % n),
        ActionSpace::Continuous { low, high } => Action::Continuous(
            low.iter()
                .zip(high)
                .map(|(&lo, &hi)| lo + (x.clamp(0.0, 1.0)) * (hi - lo))
                .collect(),
        ),
    }
}

/// Steps `batch_env` with per-lane seeds and action streams and holds
/// every lane against `solos[lane]` stepped on its own: reset row,
/// per-step row, reward bits, both flags, and the parking protocol once
/// lanes finish at different times.
fn assert_lanes_match_solos(
    id: EnvId,
    mut batch_env: Box<dyn BatchEnv>,
    mut solos: Vec<Box<dyn Environment>>,
    seed: u64,
    actions: &[(usize, f64)],
) {
    let lanes = solos.len();
    let mut sb = StepBatch::new(lanes, batch_env.observation_size());
    let seeds: Vec<u64> = (0..lanes as u64).map(|i| seed.wrapping_add(i)).collect();
    batch_env.reset_batch(&seeds, &mut sb);
    let space = batch_env.action_space();
    prop_assert_eq!(batch_env.lanes(), lanes);
    prop_assert_eq!(batch_env.name(), solos[0].name(), "{} name propagates", id);
    for (b, env) in solos.iter_mut().enumerate() {
        let obs = env.reset(seeds[b]);
        prop_assert_eq!(sb.obs_row(b), &obs[..], "{} lane {} reset obs", id, b);
        prop_assert!(sb.active[b], "{} lane {} starts active", id, b);
    }
    let mut done = vec![false; lanes];
    for (step_idx, &(a, x)) in actions.iter().enumerate() {
        if sb.all_parked() {
            break;
        }
        let acts: Vec<Action> = (0..lanes)
            .map(|b| action_for(&space, a.wrapping_add(b * 7 + step_idx), x))
            .collect();
        let frozen: Vec<Vec<f64>> = (0..lanes).map(|b| sb.obs_row(b).to_vec()).collect();
        batch_env.step_batch(&acts, &mut sb);
        for b in 0..lanes {
            if done[b] {
                // Parked lane: zero reward, frozen observation
                // and sticky done flags, never reactivated.
                prop_assert_eq!(
                    sb.rewards[b].to_bits(),
                    0.0f64.to_bits(),
                    "{} parked lane {} reward",
                    id,
                    b
                );
                prop_assert_eq!(sb.obs_row(b), &frozen[b][..]);
                prop_assert!(!sb.active[b]);
                prop_assert!(sb.terminated[b] || sb.truncated[b]);
                continue;
            }
            let s = solos[b].step(&acts[b]);
            prop_assert_eq!(
                sb.obs_row(b),
                &s.observation[..],
                "{} lane {} obs at step {}",
                id,
                b,
                step_idx
            );
            prop_assert_eq!(
                sb.rewards[b].to_bits(),
                s.reward.to_bits(),
                "{} lane {} reward at step {}",
                id,
                b,
                step_idx
            );
            prop_assert_eq!(sb.terminated[b], s.terminated);
            prop_assert_eq!(sb.truncated[b], s.truncated);
            done[b] = s.terminated || s.truncated;
            prop_assert_eq!(sb.active[b], !done[b]);
        }
    }
}

/// Three CartPole lanes with different action streams: one balanced
/// to the 500-step limit, two tipped early. The early finishers park
/// while the batch keeps stepping — were a parked lane's environment
/// stepped again, the scalar post-done `assert!` would fire — and the
/// survivor is truncated, not terminated, on exactly step 500.
#[test]
fn cartpole_lanes_park_early_and_truncate_at_the_step_limit() {
    let mut batch_env = EnvId::CartPole.make_batch(3);
    let mut sb = StepBatch::new(3, 4);
    batch_env.reset_batch(&[3, 4, 5], &mut sb);
    let mut parked_at = [None; 3];
    for step in 1..=500 {
        let balance = {
            let o = sb.obs_row(0);
            usize::from(o[2] + 0.5 * o[3] + 0.02 * o[0] + 0.1 * o[1] > 0.0)
        };
        let acts = [
            Action::Discrete(balance),
            Action::Discrete(1),
            Action::Discrete(usize::from(step % 3 == 0)),
        ];
        let frozen: Vec<Vec<f64>> = (0..3).map(|b| sb.obs_row(b).to_vec()).collect();
        batch_env.step_batch(&acts, &mut sb);
        for b in 0..3 {
            if parked_at[b].is_some() {
                assert_eq!(sb.obs_row(b), &frozen[b][..], "parked lane {b} row frozen");
                assert_eq!(sb.rewards[b], 0.0);
            } else if !sb.active[b] {
                parked_at[b] = Some(step);
            }
        }
    }
    assert_eq!(parked_at[0], Some(500), "lane 0 runs to the limit");
    assert!(sb.truncated[0] && !sb.terminated[0]);
    for (b, parked) in parked_at.iter().enumerate().skip(1) {
        assert!(parked.unwrap() < 200, "lane {b} tips early");
        assert!(sb.terminated[b] && !sb.truncated[b]);
    }
    assert!(sb.all_parked());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every environment's batch, stepped with arbitrary per-lane
    /// action sequences and per-lane seeds, matches `lanes`
    /// independent scalar environments bitwise — with default physics,
    /// and with a different `moderate()` parameter draw per lane.
    #[test]
    fn batched_suite_matches_scalar_lanes(
        seed in any::<u64>(),
        lanes in 1usize..5,
        actions in proptest::collection::vec((any::<usize>(), 0.0f64..1.0), 1..40),
    ) {
        let params: Vec<ScenarioParams> = (0..lanes as u64)
            .map(|i| ScenarioDistribution::moderate().sample(seed.wrapping_mul(31).wrapping_add(i)))
            .collect();
        for id in EnvId::ALL_WITH_ATARI {
            assert_lanes_match_solos(
                id,
                id.make_batch(lanes),
                (0..lanes).map(|_| id.make()).collect(),
                seed,
                &actions,
            );
            assert_lanes_match_solos(
                id,
                id.make_batch_scenarios(&params),
                params.iter().map(|p| id.make_scenario(p)).collect(),
                seed,
                &actions,
            );
        }
    }

    /// `reset_batch` after a (partially) finished batch reproduces a
    /// fresh batch exactly: reseeded observations, all lanes active,
    /// flags and rewards cleared.
    #[test]
    fn reset_batch_reactivates_every_lane(
        seed in any::<u64>(),
        lanes in 1usize..4,
        warmup in 1usize..30,
    ) {
        for id in EnvId::ALL {
            let mut batch_env = id.make_batch(lanes);
            let mut sb = StepBatch::new(lanes, batch_env.observation_size());
            let seeds: Vec<u64> = (0..lanes as u64).map(|i| seed.wrapping_add(i)).collect();
            batch_env.reset_batch(&seeds, &mut sb);
            let space = batch_env.action_space();
            for step_idx in 0..warmup {
                if sb.all_parked() {
                    break;
                }
                let acts: Vec<Action> = (0..lanes)
                    .map(|b| action_for(&space, b + step_idx, 0.4))
                    .collect();
                batch_env.step_batch(&acts, &mut sb);
            }
            let reseeds: Vec<u64> = seeds.iter().map(|s| s.wrapping_mul(31)).collect();
            batch_env.reset_batch(&reseeds, &mut sb);
            let mut fresh_env = id.make_batch(lanes);
            let mut fresh = StepBatch::new(lanes, fresh_env.observation_size());
            fresh_env.reset_batch(&reseeds, &mut fresh);
            for b in 0..lanes {
                prop_assert_eq!(sb.obs_row(b), fresh.obs_row(b), "{} lane {}", id, b);
                prop_assert!(sb.active[b]);
                prop_assert!(!sb.terminated[b] && !sb.truncated[b]);
                prop_assert_eq!(sb.rewards[b].to_bits(), 0.0f64.to_bits());
            }
        }
    }
}
