//! The scenario-distribution compatibility and determinism contract.
//!
//! Two families of guarantees:
//!
//! 1. **Fixture parity** — a default config (K = 1, default
//!    [`e3_envs::ScenarioParams`]) reproduces the pre-scenario
//!    platform bit for bit. The constants below (population 24, seed
//!    42, five stepped generations) were captured while a separate
//!    fixed-env kernel still existed and must never drift: they are
//!    the proof that the K-scenario kernels under
//!    [`e3_platform::ScenarioSpec::fixed`] subsume it.
//! 2. **Scenario determinism** — multi-scenario training is a pure
//!    function of the config: sampled parameters and final
//!    populations are bit-identical across thread counts (1/4/8) and
//!    with the tier off or on, and each island of an archipelago
//!    trains on its own deterministic distribution.

use e3_envs::{EnvId, ScenarioDistribution};
use e3_islands::island_seed;
use e3_islands::scheduler::population_fingerprint;
use e3_platform::telemetry::NullCollector;
use e3_platform::{
    BackendKind, E3Config, E3Platform, FitnessAggregation, JitConfig, ScenarioConfig, ScenarioSpec,
};
use proptest::prelude::*;

/// Golden fixtures for population 24, seed 42, five stepped
/// generations of a default (K = 1, default-params, mean) config.
///
/// The rows were first captured before scenario distributions existed
/// (CartPole, Pendulum) and on the last commit with a separate
/// fixed-env kernel (LunarLander, every `profile`): they pin that the
/// one K-scenario kernel under [`e3_platform::ScenarioSpec::fixed`]
/// *is* that kernel, down to the pricing fold behind the
/// modeled-seconds total. All three rows were re-captured, once, on the
/// commit after `661c3d1`, which moved `Sigmoid`, `Tanh` and `Gauss`
/// from the host's libm onto the in-repo exponential core: two Pendulum
/// best-fitness values moved, by 1 and 2 ulp (the continuous torques
/// carry every output bit into the reward); every fingerprint, every
/// other best and every profile total read as before.
struct Golden {
    env: EnvId,
    /// Final population fingerprint (identical on every backend, tier
    /// and thread count).
    fingerprint: u64,
    /// Best-fitness bits per generation.
    bests: [u64; 5],
    /// `profile().total()` bits after the five generations, per
    /// backend in [`BackendKind::ALL`] order (the backends differ only
    /// in how inference is priced).
    profile: [u64; 3],
}

const GOLDEN: &[Golden] = &[
    Golden {
        env: EnvId::CartPole,
        fingerprint: 0xc976_7a05_eaca_6125,
        bests: [
            0x406c_4000_0000_0000,
            0x407f_4000_0000_0000,
            0x407f_4000_0000_0000,
            0x407f_4000_0000_0000,
            0x407f_4000_0000_0000,
        ],
        profile: [
            0x4005_1779_e9d0_e994,
            0x4055_d729_111f_a6d4,
            0x3fbd_7c32_1526_01f1,
        ],
    },
    Golden {
        env: EnvId::Pendulum,
        fingerprint: 0x6ab9_57cf_a69f_90d1,
        bests: [
            0xc08b_fc73_e4d4_825e,
            0xc08e_56b2_dd48_53b0,
            0xc08e_560c_08e7_8603,
            0xc093_a02c_5a4c_6ec1,
            0xc08c_3ed7_8450_ce1e,
        ],
        profile: [
            0x4004_a29e_9079_5f68,
            0x405d_3bf9_46a8_5aff,
            0x3fc1_a69c_ed0b_30b6,
        ],
    },
    Golden {
        env: EnvId::LunarLander,
        fingerprint: 0x192a_18e5_1f12_0ecc,
        bests: [
            0xc050_8c37_bf4e_61c0,
            0xc043_03e3_38c0_69a4,
            0x4064_cf9a_d2df_eb97,
            0xc03b_c1f0_fc7c_6260,
            0xc04d_21c4_48eb_a43d,
        ],
        profile: [
            0x400a_b7c8_8e79_aae7,
            0x404d_779c_9fda_0bb6,
            0x3fb7_6ae1_b5bd_10c3,
        ],
    },
];

/// Golden fixtures for K > 1: population 24, seed 42, five stepped
/// generations on worlds drawn from the moderate distribution, under
/// the scenario count and aggregation beside each row. Captured on
/// `a4c1dbf`, whose kernel ran a genome's K episodes back to back;
/// they pin that walking the K episodes together in lanes — four wide,
/// three live lanes with one idle, narrowing as episodes finish —
/// changes no result.
const SCENARIO_GOLDEN: &[(usize, FitnessAggregation, Golden)] = &[
    (
        4,
        FitnessAggregation::CVaR { alpha: 0.5 },
        Golden {
            env: EnvId::LunarLander,
            fingerprint: 0xbc55_811e_840f_8873,
            bests: [
                0xc055_db14_d7f4_f202,
                0xc054_716d_4d4d_4342,
                0xc054_6744_e2c0_9cf8,
                0xc051_3d8c_937c_c1fa,
                0xc050_2b85_46dd_3f01,
            ],
            profile: [
                0x402c_f92c_f0f9_d2bf,
                0x4070_2d46_84ee_b420,
                0x3fd5_054e_839b_ab6d,
            ],
        },
    ),
    (
        3,
        FitnessAggregation::Mean,
        Golden {
            env: EnvId::CartPole,
            fingerprint: 0xce28_31f3_10e0_b6ff,
            bests: [
                0x406b_d555_5555_5555,
                0x407d_f555_5555_5555,
                0x407f_4000_0000_0000,
                0x407f_4000_0000_0000,
                0x407f_4000_0000_0000,
            ],
            profile: [
                0x4020_03fa_6def_c7a4,
                0x406f_02b7_830c_6cfe,
                0x3fd5_09a5_352e_351d,
            ],
        },
    ),
];

/// One fixture run; returns the population fingerprint, the
/// per-generation best-fitness bits and the modeled-seconds total bits.
fn fixture_run(
    env: EnvId,
    scenario: ScenarioConfig,
    backend: BackendKind,
    threads: usize,
    jit: JitConfig,
) -> (u64, Vec<u64>, u64) {
    let config = E3Config::builder(env)
        .population_size(24)
        .max_generations(5)
        .threads(threads)
        .jit(jit)
        .scenario(scenario)
        .build();
    let mut platform = E3Platform::new(config, backend, 42);
    let mut bests = Vec::new();
    for _ in 0..5 {
        let best = platform
            .step_with(&mut NullCollector)
            .expect("fixture step succeeds");
        bests.push(best.to_bits());
    }
    (
        population_fingerprint(platform.population()),
        bests,
        platform.profile().total().to_bits(),
    )
}

/// Runs `golden`'s fixture on every backend, at 1 and 4 threads, and
/// with the tier off and on, and asserts every run reproduces it.
///
/// A tier policy at `hot_threshold` 1 puts the software backends'
/// plans behind the tiered cache (and promotes every one to native
/// code on first use); without one the same kernel decodes afresh.
/// INAX has no software inference to tier, so it runs once per thread
/// count.
fn assert_fixture(golden: &Golden, scenario: &ScenarioConfig) {
    let tier_off = JitConfig::default();
    let tier_on = JitConfig {
        enabled: true,
        hot_threshold: 1,
    };
    for (backend, profile) in BackendKind::ALL.into_iter().zip(golden.profile) {
        let tiers: &[JitConfig] = match backend {
            BackendKind::Inax => &[tier_off],
            _ => &[tier_off, tier_on],
        };
        for threads in [1usize, 4] {
            for &jit in tiers {
                let env = golden.env;
                let label = format!("{env:?}/{backend:?}@{threads} jit={}", jit.enabled);
                let (pop, bests, total) = fixture_run(env, scenario.clone(), backend, threads, jit);
                assert_eq!(
                    pop, golden.fingerprint,
                    "{label}: population diverged from the fixture"
                );
                assert_eq!(
                    bests,
                    golden.bests.to_vec(),
                    "{label}: fitness trajectory diverged"
                );
                assert_eq!(total, profile, "{label}: modeled seconds diverged");
            }
        }
    }
}

#[test]
fn default_config_matches_pre_scenario_fixtures() {
    for golden in GOLDEN {
        assert_fixture(golden, &ScenarioConfig::default());
    }
}

#[test]
fn multi_scenario_configs_match_their_fixtures() {
    for (k, aggregation, golden) in SCENARIO_GOLDEN {
        let scenario = ScenarioConfig::default()
            .train(ScenarioDistribution::moderate())
            .scenarios_per_eval(*k)
            .aggregation(*aggregation);
        assert_fixture(golden, &scenario);
    }
}

fn scenario_config(env: EnvId, threads: usize, k: usize) -> E3Config {
    E3Config::builder(env)
        .population_size(14)
        .max_generations(3)
        .target_fitness(f64::INFINITY)
        .threads(threads)
        .scenario(
            ScenarioConfig::default()
                .train(ScenarioDistribution::moderate())
                .scenarios_per_eval(k),
        )
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sampled scenario parameters are a pure function of the seeding
    /// coordinates: identical for any thread count and identical when
    /// resolved twice.
    #[test]
    fn sampled_scenario_params_are_reproducible(
        run_seed in 0u64..1000,
        generation in 0u64..50,
        k in 1usize..8,
        population in 1usize..40,
    ) {
        let config = ScenarioConfig::default()
            .train(ScenarioDistribution::moderate())
            .scenarios_per_eval(k);
        let a = ScenarioSpec::for_generation(&config, run_seed, generation, population);
        let b = ScenarioSpec::for_generation(&config, run_seed, generation, population);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.scenarios(), k);
        prop_assert_eq!(a.population(), population);
        prop_assert_eq!(a.episode_seeds(0..population).len(), k * population);
    }

    /// Final populations of a multi-scenario training run are
    /// bit-identical across thread counts and backends (the batched
    /// software kernel, threaded software kernel, and INAX wave loop
    /// all reduce in genome order).
    #[test]
    fn scenario_populations_are_bit_identical_across_threads(
        seed in 0u64..100,
        k in 2usize..5,
    ) {
        let reference = {
            let mut p = E3Platform::new(
                scenario_config(EnvId::CartPole, 1, k),
                BackendKind::Cpu,
                seed,
            );
            for _ in 0..3 {
                p.step_with(&mut NullCollector).unwrap();
            }
            population_fingerprint(p.population())
        };
        for threads in [4usize, 8] {
            let mut p = E3Platform::new(
                scenario_config(EnvId::CartPole, threads, k),
                BackendKind::Cpu,
                seed,
            );
            for _ in 0..3 {
                p.step_with(&mut NullCollector).unwrap();
            }
            prop_assert_eq!(
                population_fingerprint(p.population()),
                reference,
                "threads={} diverged", threads
            );
        }
        let mut inax = E3Platform::new(
            scenario_config(EnvId::CartPole, 1, k),
            BackendKind::Inax,
            seed,
        );
        for _ in 0..3 {
            inax.step_with(&mut NullCollector).unwrap();
        }
        prop_assert_eq!(
            population_fingerprint(inax.population()),
            reference,
            "INAX diverged from CPU"
        );
    }
}

#[test]
fn cvar_aggregation_is_deterministic_and_differs_from_mean() {
    let mean_cfg = scenario_config(EnvId::CartPole, 1, 4);
    let mut cvar_cfg = mean_cfg.clone();
    cvar_cfg.scenario = cvar_cfg
        .scenario
        .aggregation(FitnessAggregation::CVaR { alpha: 0.25 });
    let run = |config: E3Config| {
        let mut p = E3Platform::new(config, BackendKind::Cpu, 9);
        for _ in 0..3 {
            p.step_with(&mut NullCollector).unwrap();
        }
        population_fingerprint(p.population())
    };
    let mean_a = run(mean_cfg.clone());
    let mean_b = run(mean_cfg);
    assert_eq!(mean_a, mean_b);
    let cvar_a = run(cvar_cfg.clone());
    let cvar_b = run(cvar_cfg);
    assert_eq!(cvar_a, cvar_b);
    assert_ne!(mean_a, cvar_a, "CVaR must select differently from mean");
}

/// Each island trains on its own deterministic scenario stream: the
/// per-island run seed ([`island_seed`]) feeds the scenario sampler,
/// so different islands face different worlds while re-running an
/// island reproduces its worlds exactly.
#[test]
fn islands_draw_distinct_deterministic_scenario_distributions() {
    let config = ScenarioConfig::default()
        .train(ScenarioDistribution::moderate())
        .scenarios_per_eval(4);
    let base_seed = 42;
    let mut specs = Vec::new();
    for island in 0..3 {
        let seed = island_seed(base_seed, island);
        let spec = ScenarioSpec::for_generation(&config, seed, 0, 10);
        let again = ScenarioSpec::for_generation(&config, seed, 0, 10);
        assert_eq!(
            spec, again,
            "island {island} scenarios must be reproducible"
        );
        specs.push(spec);
    }
    assert_ne!(specs[0].params(), specs[1].params());
    assert_ne!(specs[1].params(), specs[2].params());
    assert_ne!(specs[0].params(), specs[2].params());
}
