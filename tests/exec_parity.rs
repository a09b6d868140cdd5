//! Fast root smoke of the exec-parity family
//! (`crates/platform/tests/exec_parity.rs`): a LunarLander run's whole
//! `RunOutcome` — fitness trace, modeled seconds, complexity — is the
//! same at one and two worker threads, both where a worker walks two
//! genomes' plans fused (K = 1) and where a genome's four episodes walk
//! its plan in lanes (K = 4). Either walk leaves the output sums, and
//! the actions are decided from them.

use e3::envs::{EnvId, ScenarioDistribution};
use e3::platform::{BackendKind, E3Config, E3Platform, FitnessAggregation, ScenarioConfig};

#[test]
fn lunar_lander_outcomes_match_across_threads_at_k1_and_k4() {
    // The shapes of `lander_default` (the fixed env) and `lander_k4`
    // (four moderate scenarios, CVaR) at a quick scale.
    let k4 = ScenarioConfig::default()
        .train(ScenarioDistribution::moderate())
        .scenarios_per_eval(4)
        .aggregation(FitnessAggregation::CVaR { alpha: 0.5 });
    for scenario in [ScenarioConfig::default(), k4] {
        let k = scenario.scenarios_per_eval;
        let run = |threads| {
            let config = E3Config::builder(EnvId::LunarLander)
                .population_size(100)
                .max_generations(4)
                .target_fitness(f64::INFINITY)
                .threads(threads)
                .scenario(scenario.clone())
                .build();
            E3Platform::new(config, BackendKind::Cpu, 5)
                .run()
                .expect("feed-forward populations")
        };
        let serial = run(1);
        assert_eq!(serial.generations_run, 4, "K = {k}");
        assert_eq!(run(2), serial, "K = {k}: threads 2 against 1");
    }
}
