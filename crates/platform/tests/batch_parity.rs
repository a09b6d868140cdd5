//! The determinism contract of the software backend's two routes: for
//! either pricing, any seed, environment, scenario spec and
//! worker-thread count, `Route::Lockstep` is bit-identical to the
//! serial `Route::PerGenome` — same fitness vectors, same episode
//! lengths, same modeled seconds. The population-major kernel
//! (`PlanBatch` + `BatchEnv` lockstep stepping with lane parking) is a
//! pure execution-layout change; results must never depend on batch
//! composition or sharding.

use e3_envs::{EnvId, ScenarioDistribution};
use e3_neat::{Genome, NeatConfig, Population};
use e3_platform::{
    BackendKind, E3Config, E3Platform, EvalOutcome, GpuCostModel, Route, ScenarioConfig,
    ScenarioSpec, SoftwareBackend, SwCostModel,
};
use proptest::prelude::*;

const ENVS: [EnvId; 3] = [EnvId::CartPole, EnvId::LunarLander, EnvId::Pendulum];
const THREADS: [usize; 3] = [1, 4, 8];

/// An evolved population (a few generations under a cheap structural
/// fitness) so the batch packs heterogeneous topologies, not just the
/// uniform generation-0 shapes.
fn evolved_population(env: EnvId, size: usize, seed: u64, generations: usize) -> Vec<Genome> {
    let config = NeatConfig::builder(env.observation_size(), env.policy_outputs())
        .population_size(size)
        .build();
    let mut pop = Population::new(config, seed);
    for _ in 0..generations {
        pop.evaluate(|g| (g.num_enabled_connections() + g.nodes().len()) as f64);
        pop.evolve();
    }
    pop.genomes().to_vec()
}

fn assert_outcomes_bit_identical(a: &EvalOutcome, b: &EvalOutcome, what: &str) {
    assert_eq!(a.fitnesses.len(), b.fitnesses.len(), "{what}: row count");
    for (i, (x, y)) in a.fitnesses.iter().zip(&b.fitnesses).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: fitness {i}: {x} vs {y}");
    }
    assert_eq!(a.steps_per_genome, b.steps_per_genome, "{what}: steps");
    assert_eq!(
        a.eval_seconds.to_bits(),
        b.eval_seconds.to_bits(),
        "{what}: modeled eval seconds"
    );
    assert_eq!(
        a.env_seconds.to_bits(),
        b.env_seconds.to_bits(),
        "{what}: modeled env seconds"
    );
    assert_eq!(a.total_steps, b.total_steps, "{what}: total steps");
}

/// The two requests the platform issues: the fixed-env schedule (one
/// default world, one shared seed) and a sampled K = 3 generation.
fn specs(seed: u64, population: usize) -> [ScenarioSpec; 2] {
    let sampled = ScenarioConfig::default()
        .train(ScenarioDistribution::moderate())
        .scenarios_per_eval(3);
    [
        ScenarioSpec::fixed(seed, population),
        ScenarioSpec::for_generation(&sampled, seed, 0, population),
    ]
}

/// Checks `Route::Lockstep` at every thread count against the serial
/// `Route::PerGenome` reference, for every spec.
fn assert_lockstep_matches_per_genome(
    make: fn() -> SoftwareBackend,
    genomes: &[Genome],
    env: EnvId,
    seed: u64,
) {
    for spec in specs(seed, genomes.len()) {
        let reference = make()
            .evaluate_via(Route::PerGenome, genomes, env, &spec)
            .expect("evolved populations are feed-forward");
        for threads in THREADS {
            let mut backend = make().with_threads(threads);
            let outcome = backend
                .evaluate_via(Route::Lockstep, genomes, env, &spec)
                .expect("lockstep eval succeeds");
            let what = format!("{env} K={} lockstep@{threads}", spec.scenarios());
            assert_outcomes_bit_identical(&reference, &outcome, &what);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// E3-CPU: the lockstep kernel at 1/4/8 workers reproduces the
    /// per-genome serial evaluation bit for bit on heterogeneous
    /// evolved populations, for arbitrary seeds and odd population
    /// sizes.
    #[test]
    fn cpu_lockstep_matches_per_genome_serial(
        seed in any::<u64>(),
        pop_size in 5usize..20,
        generations in 0usize..4,
    ) {
        for env in ENVS {
            let genomes = evolved_population(env, pop_size, seed, generations);
            assert_lockstep_matches_per_genome(
                || SoftwareBackend::cpu(SwCostModel::default()),
                &genomes,
                env,
                seed,
            );
        }
    }

    /// E3-GPU: same contract under the launch-bound cost model.
    #[test]
    fn gpu_lockstep_matches_per_genome_serial(
        seed in any::<u64>(),
        pop_size in 4usize..12,
    ) {
        let genomes = evolved_population(EnvId::CartPole, pop_size, seed, 2);
        assert_lockstep_matches_per_genome(
            || SoftwareBackend::gpu(SwCostModel::default(), GpuCostModel::default()),
            &genomes,
            EnvId::CartPole,
            seed,
        );
    }
}

/// The whole platform loop — whose software backends take the lockstep
/// route by default — stays bit-identical across worker-thread counts
/// on every backend kind, including INAX and its wave loop.
#[test]
fn platform_runs_are_thread_invariant_through_the_default_route() {
    for kind in BackendKind::ALL {
        let mut reference = None;
        for threads in THREADS {
            let config = E3Config::builder(EnvId::CartPole)
                .population_size(24)
                .max_generations(3)
                .threads(threads)
                .build();
            let outcome = E3Platform::new(config, kind, 11)
                .run()
                .expect("quick populations are feed-forward");
            let key = (
                outcome.best_fitness.to_bits(),
                outcome.generations_run,
                outcome.solved,
            );
            match reference {
                None => reference = Some(key),
                Some(want) => assert_eq!(
                    key, want,
                    "{kind} at {threads} threads diverged from serial"
                ),
            }
        }
    }
}
