//! Counts, not clocks: integers the platform's cost rests on, pinned
//! exactly so that changing one is a visible edit to this file rather
//! than a drift a benchmark may or may not resolve.

use e3::envs::{EnvId, ScenarioDistribution};
use e3::platform::{
    fingerprint, BackendKind, CheckpointPolicy, E3Config, E3Platform, FitnessAggregation,
    HoldoutConfig, JitConfig, ScenarioConfig,
};
use e3::telemetry::{MemoryCollector, Tracer};

/// Shards of one evaluation of `n` genomes on `workers` workers: four
/// per worker, each `⌈n / 4w⌉` genomes long, the last one shorter.
fn shards(n: usize, workers: usize) -> usize {
    n.div_ceil(n.div_ceil(4 * workers))
}

#[test]
fn an_evaluation_splits_into_four_shards_per_worker() {
    for workers in [1, 2, 4] {
        for n in [7, 50, 200] {
            let config = E3Config::builder(EnvId::CartPole)
                .population_size(n)
                .threads(workers)
                .build();
            let mut collector = MemoryCollector::new();
            E3Platform::new(config, BackendKind::Cpu, 1)
                .step_with(&mut collector)
                .expect("a fresh population evaluates");
            let exec = collector.execs().next().expect("one Exec record");
            assert_eq!(exec.shards, shards(n, workers), "N = {n}, w = {workers}");
        }
    }
    // 50 genomes on 4 workers: shards of ⌈50/16⌉ = 4, so 13, not 16.
    assert_eq!(shards(50, 4), 13);
}

#[test]
fn a_traced_generation_records_a_span_per_phase_shard_and_episode() {
    // generation, eval and evolve, then one per shard and one per
    // (genome, scenario) episode; no checkpoint is configured.
    let spans_of_one_generation = |config: E3Config| {
        let tracer = Tracer::enabled();
        let mut platform = E3Platform::new(config, BackendKind::Cpu, 1);
        platform.set_tracer(tracer.clone());
        platform
            .step_generation()
            .expect("a fresh population evaluates");
        tracer.spans().len()
    };
    // `lander_observed`'s shape: LunarLander, N = 200, K = 1, one worker.
    let lander = E3Config::builder(EnvId::LunarLander)
        .population_size(200)
        .threads(1)
        .build();
    assert_eq!(spans_of_one_generation(lander), 3 + shards(200, 1) + 200);
    assert_eq!(3 + shards(200, 1) + 200, 207);
    // K = 3 sampled worlds on two workers.
    let scenarios = E3Config::builder(EnvId::CartPole)
        .population_size(30)
        .threads(2)
        .scenario(
            ScenarioConfig::default()
                .train(ScenarioDistribution::moderate())
                .scenarios_per_eval(3),
        )
        .build();
    assert_eq!(
        spans_of_one_generation(scenarios),
        3 + shards(30, 2) + 30 * 3
    );
}

#[test]
fn the_run_fingerprint_of_a_config_is_pinned() {
    // A checkpoint directory is bound to the hash of its run's
    // canonical config JSON; a drift in how any part of `E3Config`
    // serializes would orphan every existing directory with
    // `FingerprintMismatch`.
    let config_hash = |config: E3Config| fingerprint(&config, BackendKind::Cpu, 7).config_hash;
    assert_eq!(
        config_hash(E3Config::builder(EnvId::CartPole).build()),
        0x705e_864b_f514_3013
    );
    let scenarios = E3Config::builder(EnvId::LunarLander)
        .population_size(24)
        .scenario(
            ScenarioConfig::default()
                .train(ScenarioDistribution::moderate())
                .scenarios_per_eval(4)
                .aggregation(FitnessAggregation::CVaR { alpha: 0.5 })
                .holdout(HoldoutConfig::new(ScenarioDistribution::shifted()).scenarios(3)),
        )
        .build();
    assert_eq!(config_hash(scenarios), 0xea32_24fb_7756_bd60);
    // The tier and the checkpoint policy never change results, so they
    // are neutralized before hashing.
    let tiered = E3Config::builder(EnvId::LunarLander)
        .jit(JitConfig {
            enabled: true,
            hot_threshold: 1,
        })
        .checkpoint(CheckpointPolicy::new("runs/lander").every(5))
        .build();
    assert_eq!(config_hash(tiered), 0x031b_cc7e_ebb9_2131);
}
