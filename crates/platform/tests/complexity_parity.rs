//! `RunOutcome.complexity` comes from the plans the evaluation kernels
//! compiled, reported per genome and folded in population order — so
//! it must not depend on which kernel compiled them, how the
//! population was sharded, or how many scenarios ran each plan.
//! Every backend/tier/thread-count/K combination is held to one
//! independent reference: `ComplexityStats::record_generation` replayed
//! over the same populations, which compiles every genome itself.

use e3_envs::{EnvId, ScenarioDistribution};
use e3_neat::stats::ComplexityStats;
use e3_platform::telemetry::NullCollector;
use e3_platform::{BackendKind, E3Config, E3Platform, JitConfig, ScenarioConfig};

const GENERATIONS: usize = 5;
const SEED: u64 = 11;

/// Population 26 leaves a remainder at 4, 8 and 16 software shards
/// (1, 2 and 4 threads) and 6-PU INAX waves alike.
fn config(threads: usize, scenarios: usize, jit: bool) -> E3Config {
    let mut builder = E3Config::builder(EnvId::CartPole)
        .population_size(26)
        .max_generations(GENERATIONS)
        .threads(threads);
    if scenarios > 1 {
        builder = builder.scenario(
            ScenarioConfig::default()
                .train(ScenarioDistribution::moderate())
                .scenarios_per_eval(scenarios),
        );
    }
    if jit {
        // An enabled tier puts the software backend's plans behind its
        // cache (and, past the threshold, onto native code).
        builder = builder.jit(JitConfig {
            enabled: true,
            hot_threshold: 2,
        });
    }
    builder.build()
}

/// Runs `GENERATIONS` steps and returns the platform's complexity
/// beside a replay that compiles every generation's genomes itself.
fn run(config: E3Config, kind: BackendKind) -> (ComplexityStats, ComplexityStats) {
    let mut platform = E3Platform::new(config, kind, SEED);
    let mut replay = ComplexityStats::new();
    for _ in 0..GENERATIONS {
        replay
            .record_generation(platform.population().genomes())
            .expect("NEAT populations are feed-forward");
        platform
            .step_with(&mut NullCollector)
            .expect("evaluation succeeds");
    }
    (platform.capture_state().complexity, replay)
}

fn density_bits(stats: &ComplexityStats) -> Vec<u64> {
    stats.density_trace().iter().map(|d| d.to_bits()).collect()
}

#[test]
fn complexity_is_identical_on_every_backend_tier_thread_count_and_k() {
    for scenarios in [1usize, 4] {
        let (reference, replay) = run(config(1, scenarios, false), BackendKind::Cpu);
        assert_eq!(reference.generations(), GENERATIONS);
        assert!(reference.degree_histogram().total() > 0);
        assert_eq!(reference, replay, "K={scenarios}: platform vs replay");
        assert_eq!(density_bits(&reference), density_bits(&replay));
        let variants = [
            ("cpu tier off", BackendKind::Cpu, false),
            ("cpu tier on", BackendKind::Cpu, true),
            ("gpu", BackendKind::Gpu, false),
            ("inax", BackendKind::Inax, false),
        ];
        for (label, kind, jit) in variants {
            for threads in [1usize, 2, 4] {
                let (stats, _) = run(config(threads, scenarios, jit), kind);
                let what = format!("K={scenarios} {label} threads={threads}");
                assert_eq!(stats, reference, "{what}");
                assert_eq!(density_bits(&stats), density_bits(&reference), "{what}");
            }
        }
    }
}
