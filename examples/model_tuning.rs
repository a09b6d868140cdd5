//! Model-tuning scenario (paper §I): a model trained on a *generic*
//! environment keeps training on the *target* environment it actually
//! encounters (the robot trained on grass now walks on sand).
//!
//! Here a pendulum controller is evolved against one set of episode
//! conditions, then the environment shifts (different reset
//! distribution). Continuing evolution from the adapted population
//! re-converges far faster than starting from scratch — the case for
//! on-device continuous learning.
//!
//! ```text
//! cargo run --release --example model_tuning
//! ```

use e3::envs::{run_episode, EnvId};
use e3::neat::{NeatConfig, Population};

/// Generation cap of every phase.
const CAP: usize = 80;
/// A phase's target is the untrained (generation-0) best under its
/// condition with this fraction of the cost removed: a scale a
/// 100-genome population reaches within the cap, where an absolute
/// Pendulum score (say −400) is not.
const IMPROVEMENT: f64 = 0.15;

/// Evaluate a population on one episode condition, returning the best
/// fitness of the generation.
fn evaluate(population: &mut Population, env_id: EnvId, episode_seed: u64) -> f64 {
    let mut env = env_id.make();
    population.evaluate(|genome| {
        let mut net = genome.decode().expect("feed-forward");
        let mut policy = |obs: &[f64]| net.activate(obs);
        run_episode(env.as_mut(), &mut policy, episode_seed).total_reward
    });
    population
        .fitnesses()
        .iter()
        .flatten()
        .fold(f64::NEG_INFINITY, |a, &b| a.max(b))
}

/// Generations until the population's best fitness clears `target`
/// under the given episode condition (capped at [`CAP`]).
fn generations_to_reach(
    population: &mut Population,
    env_id: EnvId,
    episode_seed: u64,
    target: f64,
) -> Option<usize> {
    for generation in 0..CAP {
        let best = evaluate(population, env_id, episode_seed);
        if best >= target {
            return Some(generation);
        }
        population.evolve();
    }
    None
}

/// How a capped phase ended, for printing: an evolutionary outcome is
/// reported, never assumed.
fn describe(generations: Option<usize>) -> String {
    match generations {
        Some(g) => format!("reached in {g} generations"),
        None => format!("not reached within the {CAP}-generation cap"),
    }
}

fn main() {
    let env_id = EnvId::Pendulum;
    let config = NeatConfig::builder(env_id.observation_size(), env_id.policy_outputs())
        .population_size(100)
        .build();
    let target_from = |untrained_best: f64| untrained_best + IMPROVEMENT * untrained_best.abs();

    println!("E3 model tuning on {env_id}\n");

    // Phase 1: learn under the "generic" condition.
    let generic_condition = 100u64;
    let mut tuned = Population::new(config.clone(), 5);
    let target = target_from(evaluate(&mut tuned, env_id, generic_condition));
    let pretrain = generations_to_reach(&mut tuned, env_id, generic_condition, target);
    println!(
        "pre-training on the generic condition (target {target:.0}): {}",
        describe(pretrain)
    );

    // Phase 2: the environment shifts. The target comes from what an
    // untrained population scores under the new condition; the tuned
    // population and a fresh one both chase it.
    let shifted_condition = 900u64;
    let mut scratch = Population::new(config, 6);
    let target = target_from(evaluate(&mut scratch, env_id, shifted_condition));
    println!("shifted condition (target {target:.0}):");
    let tune = generations_to_reach(&mut tuned, env_id, shifted_condition, target);
    let from_scratch = generations_to_reach(&mut scratch, env_id, shifted_condition, target);
    println!("  adapting the tuned population : {}", describe(tune));
    println!(
        "  learning from scratch         : {}",
        describe(from_scratch)
    );

    match (tune, from_scratch) {
        (Some(t), Some(s)) if t <= s => {
            println!("\nmodel tuning wins: the evolved structure transfers across conditions.");
        }
        (Some(_), None) => println!("\nmodel tuning wins: only the tuned population got there."),
        (None, None) => println!("\nneither population reached the target within the cap."),
        _ => println!(
            "\n(this seed favored scratch — rerun with another seed; on average tuning wins)"
        ),
    }
}
