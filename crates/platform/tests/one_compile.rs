//! CreateNet runs exactly once per genome per generation, on every
//! route. The guard reads `NetPlan`'s debug-build compile counter around
//! serial-executor steps — the kernels' lowerings and any the driver
//! thread might grow back (a stats pass, a pre-decode) all happen on the
//! test's thread — and the `ExecRecord` beside it says whether a plan
//! cache was consulted at all: only a backend built with an enabled tier
//! has one, and it is asked once about each compiled plan.
#![cfg(debug_assertions)]

use e3_envs::{EnvId, ScenarioDistribution};
use e3_neat::NetPlan;
use e3_platform::telemetry::{ExecRecord, MemoryCollector};
use e3_platform::{BackendKind, E3Config, E3Platform, JitConfig, ScenarioConfig};

const POPULATION: u64 = 20;
const GENERATIONS: usize = 4;

fn builder() -> e3_platform::E3ConfigBuilder {
    E3Config::builder(EnvId::CartPole)
        .population_size(POPULATION as usize)
        .max_generations(GENERATIONS)
}

/// Steps `GENERATIONS` times on one thread; per generation, the number
/// of `NetPlan::compile` calls and the executor's record.
fn compiles_per_step(config: E3Config, kind: BackendKind) -> Vec<(u64, ExecRecord)> {
    let mut platform = E3Platform::new(config, kind, 3);
    (0..GENERATIONS)
        .map(|_| {
            let mut telemetry = MemoryCollector::new();
            let before = NetPlan::compiles_on_this_thread();
            platform
                .step_with(&mut telemetry)
                .expect("evaluation succeeds");
            let compiles = NetPlan::compiles_on_this_thread() - before;
            let exec = telemetry.execs().next().expect("one Exec record per step");
            (compiles, exec.clone())
        })
        .collect()
}

#[test]
fn a_tier_less_backend_compiles_each_genome_once_and_never_asks_the_cache() {
    // The software kernel with the tier off and the INAX wave kernel
    // alike: `NetPlan::compile` once per genome, and no cache owned.
    let k4 = ScenarioConfig::default()
        .train(ScenarioDistribution::moderate())
        .scenarios_per_eval(4);
    for (label, config) in [
        ("fixed env", builder().build()),
        ("K=4", builder().scenario(k4).build()),
    ] {
        for kind in BackendKind::ALL {
            for (generation, (compiles, exec)) in compiles_per_step(config.clone(), kind)
                .into_iter()
                .enumerate()
            {
                let what = format!("{label} {kind} generation {generation}");
                assert_eq!(compiles, POPULATION, "{what}: one compile per genome");
                assert_eq!(
                    (
                        exec.cache_hits,
                        exec.cache_misses,
                        exec.cache_entries,
                        exec.cache_evictions
                    ),
                    (0, 0, 0, 0),
                    "{what}: no cache traffic"
                );
            }
        }
    }
}

#[test]
fn a_tiered_backend_compiles_each_genome_once_and_looks_each_plan_up_once() {
    let jit = JitConfig {
        enabled: true,
        hot_threshold: 2,
    };
    let steps = compiles_per_step(builder().jit(jit).build(), BackendKind::Cpu);
    for (generation, (compiles, exec)) in steps.iter().enumerate() {
        let what = format!("tiered generation {generation}");
        assert_eq!(*compiles, POPULATION, "{what}: one compile per genome");
        assert_eq!(
            exec.cache_hits + exec.cache_misses,
            POPULATION,
            "{what}: one lookup per compiled plan"
        );
    }
    assert!(
        steps.iter().skip(1).any(|(_, exec)| exec.cache_hits > 0),
        "tiered: surviving elites hit the cache"
    );
}
