//! The determinism contract of the parallel evaluation engine: for any
//! backend, seed, and environment, a run sharded across N worker
//! threads is bit-identical to the serial reference — same fitness
//! vectors, same telemetry fitness statistics, same final champion.
//!
//! Per-individual RNG streams are derived from
//! `(run_seed, generation, genome_index)` and reduction is
//! index-ordered, so worker count and steal schedule can never leak
//! into results (the software analogue of the paper's claim that PU
//! count only changes wave latency, not episode outcomes).

use e3_envs::EnvId;
use e3_platform::exec::SharedExecutor;
use e3_platform::telemetry::MemoryCollector;
use e3_platform::{BackendKind, E3Config, E3Platform, JitConfig, RunOutcome};
use proptest::prelude::*;

const ENVS: [EnvId; 3] = [EnvId::CartPole, EnvId::MountainCar, EnvId::Pendulum];

fn config(env: EnvId, threads: usize) -> E3Config {
    E3Config::builder(env)
        .population_size(24)
        .max_generations(3)
        .threads(threads)
        .build()
}

fn run(env: EnvId, kind: BackendKind, seed: u64, threads: usize) -> (RunOutcome, MemoryCollector) {
    let mut telemetry = MemoryCollector::new();
    let outcome = E3Platform::new(config(env, threads), kind, seed)
        .run_with(&mut telemetry)
        .expect("quick populations are feed-forward");
    (outcome, telemetry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// ThreadPoolExecutor at 2/4/8 workers reproduces the serial run
    /// bit for bit on every backend.
    #[test]
    fn threaded_runs_are_bit_identical_to_serial(
        env_index in 0usize..3,
        backend_index in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let env = ENVS[env_index];
        let kind = BackendKind::ALL[backend_index];
        let (reference, ref_telemetry) = run(env, kind, seed, 1);
        let ref_fitness: Vec<(f64, f64)> = ref_telemetry
            .evals()
            .map(|e| (e.best_fitness, e.mean_fitness))
            .collect();
        for threads in [2usize, 4, 8] {
            let (outcome, telemetry) = run(env, kind, seed, threads);
            // The full outcome — fitness trajectory, modeled seconds,
            // hardware counters, complexity stats — is bit-identical.
            prop_assert_eq!(&outcome, &reference, "threads={}", threads);
            let fitness: Vec<(f64, f64)> = telemetry
                .evals()
                .map(|e| (e.best_fitness, e.mean_fitness))
                .collect();
            prop_assert_eq!(&fitness, &ref_fitness, "threads={}", threads);
            // Observability is write-only but must still describe the
            // pool that actually ran.
            prop_assert!(telemetry.execs().count() > 0);
            prop_assert!(telemetry.execs().all(|x| x.workers == threads));
        }
    }
}

/// The whole platform loop stays bit-identical across worker-thread
/// counts on every backend kind, including INAX and its wave loop.
#[test]
fn platform_runs_are_thread_invariant_through_the_default_route() {
    for kind in BackendKind::ALL {
        let mut reference = None;
        for threads in [1usize, 4, 8] {
            let outcome = E3Platform::new(config(EnvId::CartPole, threads), kind, 11)
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

/// The evolved champion genome (not just its fitness) is identical
/// whichever executor evaluated the population.
#[test]
fn final_champion_is_identical_across_worker_counts() {
    for kind in BackendKind::ALL {
        let mut serial = E3Platform::new(config(EnvId::CartPole, 1), kind, 42);
        let mut pooled = E3Platform::new(config(EnvId::CartPole, 4), kind, 42);
        for _ in 0..3 {
            serial.step_generation().expect("serial step");
            pooled.step_generation().expect("pooled step");
        }
        let a = serial.population().best().expect("champion exists");
        let b = pooled.population().best().expect("champion exists");
        assert_eq!(a.fitness, b.fitness, "{kind:?}");
        assert_eq!(a.genome, b.genome, "{kind:?}");
        assert_eq!(
            serial.population().genomes(),
            pooled.population().genomes(),
            "{kind:?}: whole population evolves identically"
        );
    }
}

/// The tier reports what it did, and nothing when it did nothing. A
/// disabled tier emits zero `Jit` records. Enabled at `hot_threshold`
/// 1 every plan promotes on its first decode, so on x86-64 Linux the
/// run serves native activations; anywhere else it counts the failed
/// compiles as fallbacks and compiles nothing — never a silent skip.
/// The outcome is the same in all three cases, on every environment
/// of the suite, Atari-class Pong included.
#[test]
fn an_enabled_tier_engages_and_a_disabled_one_is_silent() {
    let run = |env: EnvId, threads: usize, jit: JitConfig| {
        let config = E3Config {
            jit,
            ..config(env, threads)
        };
        let mut telemetry = MemoryCollector::new();
        let outcome = E3Platform::new(config, BackendKind::Cpu, 42)
            .run_with(&mut telemetry)
            .expect("quick populations are feed-forward");
        (outcome, telemetry)
    };
    let hot = JitConfig {
        enabled: true,
        hot_threshold: 1,
    };
    for env in EnvId::ALL_WITH_ATARI {
        for threads in [1usize, 4] {
            let what = format!("{env} threads={threads}");
            let (oracle, silent) = run(env, threads, JitConfig::default());
            assert_eq!(silent.jits().count(), 0, "{what}");
            let (tiered, telemetry) = run(env, threads, hot);
            assert_eq!(tiered, oracle, "{what}");
            let (compiled, activations, fallbacks) = telemetry.jits().fold((0, 0, 0), |acc, r| {
                (
                    acc.0 + r.compiled,
                    acc.1 + r.activations,
                    acc.2 + r.fallbacks,
                )
            });
            if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
                assert!(compiled > 0 && activations > 0, "{what}");
            } else {
                assert!(fallbacks > 0, "{what}");
                assert_eq!((compiled, activations), (0, 0), "{what}");
            }
        }
    }
}

/// Runs that share one pool keep their own hot plans. A tier belongs
/// to its backend, so its epoch turns once per *this run's*
/// generation however many other runs interleave jobs on the pool:
/// elites that survive a generation hit, and entries that stay hot
/// promote — exactly as when the run has the pool to itself. (Hung off
/// the pool's workers, a cache sees every run's job as an epoch, and
/// two alternating runs evict each other's entries before either can
/// hit: zero hits, nothing ever promoted.) One worker, so a survivor
/// always meets the cache that decoded it — with more, which worker
/// steals its shard is up to the schedule.
#[test]
fn runs_sharing_a_pool_keep_their_own_hot_plans() {
    const GENERATIONS: usize = 4;
    let config = E3Config {
        jit: JitConfig {
            enabled: true,
            hot_threshold: 2,
        },
        ..config(EnvId::MountainCar, 1)
    };
    /// What a run computed: per-step best fitness bits, modeled
    /// seconds bits, and the final population.
    fn fingerprint(platform: &E3Platform, bests: &[f64]) -> (Vec<u64>, u64, Vec<e3_neat::Genome>) {
        (
            bests.iter().map(|b| b.to_bits()).collect(),
            platform.profile().total().to_bits(),
            platform.population().genomes().to_vec(),
        )
    }
    let seeds = [42u64, 43];
    let pool = SharedExecutor::new(1);
    let mut shared: Vec<(E3Platform, MemoryCollector, Vec<f64>)> = seeds
        .iter()
        .map(|&seed| {
            let platform =
                E3Platform::new_with_executor(config.clone(), BackendKind::Cpu, seed, pool.clone());
            (platform, MemoryCollector::new(), Vec::new())
        })
        .collect();
    for _ in 0..GENERATIONS {
        for (platform, telemetry, bests) in &mut shared {
            bests.push(platform.step_with(telemetry).expect("shared step"));
        }
    }
    for ((platform, telemetry, bests), &seed) in shared.iter().zip(&seeds) {
        let hits: Vec<u64> = telemetry.execs().map(|x| x.cache_hits).collect();
        assert_eq!(hits.len(), GENERATIONS, "seed {seed}");
        assert!(
            hits[1..].iter().all(|&h| h > 0),
            "seed {seed}: survivors hit from the second generation on, got {hits:?}"
        );
        let (compiled, fallbacks) = telemetry
            .jits()
            .fold((0, 0), |acc, r| (acc.0 + r.compiled, acc.1 + r.fallbacks));
        if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
            assert!(compiled > 0, "seed {seed}: hot survivors promote");
        } else {
            assert!(fallbacks > 0, "seed {seed}: promotion was attempted");
        }
        let mut alone = E3Platform::new(config.clone(), BackendKind::Cpu, seed);
        let alone_bests: Vec<f64> = (0..GENERATIONS)
            .map(|_| alone.step_generation().expect("exclusive step"))
            .collect();
        assert_eq!(
            fingerprint(platform, bests),
            fingerprint(&alone, &alone_bests),
            "seed {seed}: sharing a pool never changes a run"
        );
    }
}
