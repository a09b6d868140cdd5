//! Scenario-distribution evaluation: the contract that turns "one env
//! per [`EnvId`]" into "a seeded distribution of envs per [`EnvId`]".
//!
//! A [`ScenarioConfig`] describes how a run samples environment
//! physics: a *training* [`ScenarioDistribution`] evaluated on `K`
//! scenarios per genome per generation (aggregated by a
//! [`FitnessAggregation`]), and optionally a *held-out* distribution
//! the incumbent best genome is probed against to measure
//! generalization (emitted as `TelemetryEvent::Generalization`).
//!
//! ## Seeding scheme
//!
//! Everything derives from [`e3_exec::scenario_seed`], the
//! four-coordinate mix `hash(run_seed, generation, genome_index,
//! scenario_index)`:
//!
//! * **Training scenario parameters** are shared across the population
//!   (every genome faces the same K worlds, so fitnesses are
//!   comparable): the genome coordinate is pinned to the reserved
//!   [`PARAM_STREAM`] salt —
//!   `sample(scenario_seed(run_seed, generation, PARAM_STREAM, s))`.
//! * **Training episode seeds** are per `(genome, scenario)`:
//!   `scenario_seed(run_seed, generation, genome_index, s)`.
//! * **Held-out scenario parameters** pin the genome coordinate to
//!   [`HOLDOUT_PARAM_STREAM`] and **held-out episode seeds** to
//!   [`HOLDOUT_EPISODE_STREAM`], so the held-out worlds never collide
//!   with training worlds at any coordinate.
//!
//! The three salts sit at the top of the `u64` range, far above any
//! real genome index, so reserved streams and per-genome streams can
//! never alias.
//!
//! ## Two seed schedules, one kernel
//!
//! Every evaluation — fixed-env or distributional — is a
//! [`ScenarioSpec`] handed to `Backend::evaluate`; there is no
//! separate fixed-env kernel. What a config chooses is only *which
//! spec* a generation resolves to ([`ScenarioConfig::spec_for`]):
//!
//! * A **vanilla** config ([`ScenarioConfig::is_vanilla`]: one
//!   scenario, default train parameters, mean aggregation) resolves to
//!   [`ScenarioSpec::fixed`]: one default world and the platform's
//!   per-generation episode-seed counter shared by every genome. This
//!   is the schedule every run used before scenario distributions
//!   existed, so old configs, checkpoints and golden fixtures keep
//!   reproducing bit for bit (`crates/islands/tests/scenario_parity.rs`
//!   pins it).
//! * Anything else resolves to [`ScenarioSpec::for_generation`]: K
//!   sampled worlds and per-`(genome, scenario)` seeds from the scheme
//!   above.
//!
//! The held-out pass is deliberately **not** part of the choice: it is
//! read-only (it never touches the population, the episode-seed
//! counter, or the modeled-time profile), so enabling holdout alone
//! leaves training on the fixed schedule.

use e3_envs::{ScenarioDistribution, ScenarioParams};
use e3_exec::rng::scenario_seed;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Genome-coordinate salt for sampling *training* scenario parameters
/// (shared by the whole population).
pub(crate) const PARAM_STREAM: u64 = u64::MAX;

/// Genome-coordinate salt for sampling *held-out* scenario parameters.
pub(crate) const HOLDOUT_PARAM_STREAM: u64 = u64::MAX - 1;

/// Genome-coordinate salt for *held-out* episode seeds.
pub(crate) const HOLDOUT_EPISODE_STREAM: u64 = u64::MAX - 2;

/// How per-scenario fitnesses collapse into one genome fitness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum FitnessAggregation {
    /// Arithmetic mean over the K scenarios (summed in scenario
    /// order).
    #[default]
    Mean,
    /// Conditional value-at-risk: the mean of the worst
    /// `ceil(alpha * K)` scenarios — optimizes for robustness under
    /// the hardest sampled worlds instead of the average one.
    CVaR {
        /// Tail fraction in `(0, 1]`; `1.0` degenerates to the mean.
        alpha: f64,
    },
}

/// Collapses per-scenario fitnesses into one value.
///
/// `Mean` sums in scenario order (the exact FP sequence every
/// kernel produces). `CVaR` sorts `per_scenario` in place, ascending
/// by `total_cmp` (a caller's scratch row, so no aggregation
/// allocates), and averages the worst `ceil(alpha * K)` entries (at
/// least one). A lone fitness (`K = 1`) is returned as is under
/// either aggregation — bit for bit, which is what lets a
/// [`ScenarioSpec::fixed`] evaluation stand in for a fixed-env one.
///
/// # Panics
///
/// Panics if `per_scenario` is empty.
pub(crate) fn aggregate_fitness(per_scenario: &mut [f64], aggregation: FitnessAggregation) -> f64 {
    assert!(
        !per_scenario.is_empty(),
        "cannot aggregate zero scenario fitnesses"
    );
    if let [only] = per_scenario {
        return *only;
    }
    match aggregation {
        FitnessAggregation::Mean => per_scenario.iter().sum::<f64>() / per_scenario.len() as f64,
        FitnessAggregation::CVaR { alpha } => {
            per_scenario.sort_by(f64::total_cmp);
            let tail =
                ((alpha * per_scenario.len() as f64).ceil() as usize).clamp(1, per_scenario.len());
            per_scenario[..tail].iter().sum::<f64>() / tail as f64
        }
    }
}

/// Held-out generalization probing: every `every` generations the
/// incumbent best genome is evaluated on `scenarios` worlds sampled
/// from a distribution the training loop never sees.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HoldoutConfig {
    /// The held-out scenario distribution.
    pub distribution: ScenarioDistribution,
    /// Worlds sampled per pass.
    pub scenarios: usize,
    /// Generation cadence (a pass runs when `generation % every == 0`;
    /// `0` is treated as `1`).
    pub every: usize,
}

// Manual impl: `scenarios` and `every` fall back to their defaults
// when omitted (the derive has no notion of field defaults).
impl serde::Deserialize for HoldoutConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        if !matches!(value, serde::Value::Object(_)) {
            return Err(serde::DeError::expected("object (HoldoutConfig)", value));
        }
        let mut config = HoldoutConfig::new(serde::Deserialize::from_value(serde::field_or_null(
            value,
            "distribution",
        ))?);
        let scenarios = serde::field_or_null(value, "scenarios");
        if !matches!(scenarios, serde::Value::Null) {
            config.scenarios = serde::Deserialize::from_value(scenarios)?;
        }
        let every = serde::field_or_null(value, "every");
        if !matches!(every, serde::Value::Null) {
            config.every = serde::Deserialize::from_value(every)?;
        }
        Ok(config)
    }
}

fn default_holdout_scenarios() -> usize {
    8
}

fn default_holdout_every() -> usize {
    1
}

impl HoldoutConfig {
    /// A pass over `distribution` with the default cadence (8 worlds,
    /// every generation).
    pub fn new(distribution: ScenarioDistribution) -> Self {
        HoldoutConfig {
            distribution,
            scenarios: default_holdout_scenarios(),
            every: default_holdout_every(),
        }
    }

    /// Sets the number of worlds sampled per pass.
    pub fn scenarios(mut self, scenarios: usize) -> Self {
        self.scenarios = scenarios;
        self
    }
}

/// Scenario-distribution configuration of one run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioConfig {
    /// The training distribution scenario parameters are sampled from.
    pub train: ScenarioDistribution,
    /// Scenarios evaluated per genome per generation (`K`).
    pub scenarios_per_eval: usize,
    /// How per-scenario fitnesses collapse into one genome fitness.
    pub aggregation: FitnessAggregation,
    /// Optional held-out generalization probing.
    pub holdout: Option<HoldoutConfig>,
}

// Manual impl: every field falls back to its vanilla default when
// omitted, and `Null` (a containing struct that predates scenario
// distributions, e.g. an old `E3Config` JSON) deserializes to the
// vanilla default wholesale — old configs load unchanged.
impl serde::Deserialize for ScenarioConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        if matches!(value, serde::Value::Null) {
            return Ok(ScenarioConfig::default());
        }
        if !matches!(value, serde::Value::Object(_)) {
            return Err(serde::DeError::expected("object (ScenarioConfig)", value));
        }
        let mut config = ScenarioConfig::default();
        let train = serde::field_or_null(value, "train");
        if !matches!(train, serde::Value::Null) {
            config.train = serde::Deserialize::from_value(train)?;
        }
        let k = serde::field_or_null(value, "scenarios_per_eval");
        if !matches!(k, serde::Value::Null) {
            config.scenarios_per_eval = serde::Deserialize::from_value(k)?;
        }
        let aggregation = serde::field_or_null(value, "aggregation");
        if !matches!(aggregation, serde::Value::Null) {
            config.aggregation = serde::Deserialize::from_value(aggregation)?;
        }
        config.holdout = serde::Deserialize::from_value(serde::field_or_null(value, "holdout"))?;
        Ok(config)
    }
}

fn default_scenarios_per_eval() -> usize {
    1
}

impl Default for ScenarioConfig {
    /// The vanilla contract: one scenario, default train parameters,
    /// mean aggregation, no holdout (matches the serde field
    /// defaults, so `{}` deserializes to this).
    fn default() -> Self {
        ScenarioConfig {
            train: ScenarioDistribution::default(),
            scenarios_per_eval: default_scenarios_per_eval(),
            aggregation: FitnessAggregation::default(),
            holdout: None,
        }
    }
}

impl ScenarioConfig {
    /// The fixed-env contract: one scenario, default train
    /// parameters, mean aggregation. Such a config evaluates under
    /// [`ScenarioSpec::fixed`] (see [`ScenarioConfig::spec_for`]).
    /// Holdout is deliberately not consulted: the held-out pass is
    /// read-only, so it never moves training off the fixed schedule.
    pub(crate) fn is_vanilla(&self) -> bool {
        self.scenarios_per_eval <= 1
            && self.train.is_default()
            && self.aggregation == FitnessAggregation::Mean
    }

    /// Resolves one generation's evaluation plan. This is the only
    /// place the two seed schedules fork: a vanilla config replays
    /// `episode_seed` (the platform's per-generation counter) for every
    /// genome in the default world; any other config samples its worlds
    /// and seeds from `(run_seed, generation)`.
    pub(crate) fn spec_for(
        &self,
        run_seed: u64,
        generation: u64,
        episode_seed: u64,
        population: usize,
    ) -> ScenarioSpec {
        if self.is_vanilla() {
            ScenarioSpec::fixed(episode_seed, population)
        } else {
            ScenarioSpec::for_generation(self, run_seed, generation, population)
        }
    }

    /// Sets the training distribution.
    pub fn train(mut self, train: ScenarioDistribution) -> Self {
        self.train = train;
        self
    }

    /// Sets the number of scenarios per evaluation (`K`, must be ≥ 1
    /// by the time the config is built into an `E3Config`).
    pub fn scenarios_per_eval(mut self, k: usize) -> Self {
        self.scenarios_per_eval = k;
        self
    }

    /// Sets the fitness aggregation.
    pub fn aggregation(mut self, aggregation: FitnessAggregation) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Installs a held-out generalization pass.
    pub fn holdout(mut self, holdout: HoldoutConfig) -> Self {
        self.holdout = Some(holdout);
        self
    }
}

impl ScenarioConfig {
    /// Sampled training parameters for one generation: K worlds shared
    /// by every genome, drawn from the reserved [`PARAM_STREAM`].
    pub(crate) fn train_params(&self, run_seed: u64, generation: u64) -> Vec<ScenarioParams> {
        (0..self.scenarios_per_eval.max(1))
            .map(|s| {
                self.train
                    .sample(scenario_seed(run_seed, generation, PARAM_STREAM, s as u64))
            })
            .collect()
    }
}

/// One fully resolved evaluation request: the K worlds every genome
/// faces, the genome-major episode-seed matrix, and the aggregation —
/// everything a backend needs to evaluate a population
/// deterministically. The invariant `K ≥ 1` and
/// `episode_seeds.len() == population × K` holds by construction, and
/// the spec is cheap to clone (shard tasks on every worker share it).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    params: Arc<[ScenarioParams]>,
    episode_seeds: Arc<[u64]>,
    aggregation: FitnessAggregation,
}

impl ScenarioSpec {
    /// The fixed-env request: every one of `population` genomes runs a
    /// single episode of the default world from `episode_seed`.
    pub fn fixed(episode_seed: u64, population: usize) -> Self {
        ScenarioSpec {
            params: vec![ScenarioParams::default()].into(),
            episode_seeds: vec![episode_seed; population].into(),
            aggregation: FitnessAggregation::Mean,
        }
    }

    /// Resolves `config` for one generation of a `population`-sized
    /// run: samples the K training worlds and derives every
    /// `(genome, scenario)` episode seed. Identical inputs produce an
    /// identical spec regardless of thread count or backend.
    pub fn for_generation(
        config: &ScenarioConfig,
        run_seed: u64,
        generation: u64,
        population: usize,
    ) -> Self {
        let k = config.scenarios_per_eval.max(1);
        let params = config.train_params(run_seed, generation);
        let mut episode_seeds = Vec::with_capacity(population * k);
        for genome in 0..population {
            for s in 0..k {
                episode_seeds.push(scenario_seed(run_seed, generation, genome as u64, s as u64));
            }
        }
        ScenarioSpec {
            params: params.into(),
            episode_seeds: episode_seeds.into(),
            aggregation: config.aggregation,
        }
    }

    /// Number of scenarios per genome (`K ≥ 1`).
    pub fn scenarios(&self) -> usize {
        self.params.len()
    }

    /// Number of genomes the seed matrix covers.
    pub fn population(&self) -> usize {
        self.episode_seeds.len() / self.params.len()
    }

    /// The sampled worlds, one per scenario (shared across genomes).
    pub fn params(&self) -> &[ScenarioParams] {
        &self.params
    }

    /// Episode seeds of `genomes` (a range of population indices),
    /// genome-major: `K` consecutive seeds per genome.
    pub fn episode_seeds(&self, genomes: std::ops::Range<usize>) -> &[u64] {
        let k = self.scenarios();
        &self.episode_seeds[genomes.start * k..genomes.end * k]
    }

    /// How per-scenario fitnesses collapse per genome.
    pub(crate) fn aggregation(&self) -> FitnessAggregation {
        self.aggregation
    }
}

/// Sampled held-out worlds and episode seeds for one generalization
/// pass, from the reserved holdout streams.
pub(crate) fn holdout_plan(
    holdout: &HoldoutConfig,
    run_seed: u64,
    generation: u64,
) -> Vec<(ScenarioParams, u64)> {
    (0..holdout.scenarios)
        .map(|s| {
            let params = holdout.distribution.sample(scenario_seed(
                run_seed,
                generation,
                HOLDOUT_PARAM_STREAM,
                s as u64,
            ));
            let seed = scenario_seed(run_seed, generation, HOLDOUT_EPISODE_STREAM, s as u64);
            (params, seed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_vanilla_and_matches_serde_defaults() {
        let config = ScenarioConfig::default();
        assert!(config.is_vanilla());
        assert_eq!(config.scenarios_per_eval, 1);
        assert_eq!(config.aggregation, FitnessAggregation::Mean);
        assert!(config.holdout.is_none());
        // An empty JSON object deserializes to the same config, so
        // pre-scenario configs load unchanged.
        let from_empty: ScenarioConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(from_empty, config);
    }

    #[test]
    fn non_default_knobs_leave_vanilla() {
        let k4 = ScenarioConfig::default().scenarios_per_eval(4);
        assert!(!k4.is_vanilla());
        let shifted = ScenarioConfig::default().train(ScenarioDistribution::moderate());
        assert!(!shifted.is_vanilla());
        let cvar = ScenarioConfig::default().aggregation(FitnessAggregation::CVaR { alpha: 0.5 });
        assert!(!cvar.is_vanilla());
        // Holdout alone stays vanilla: the pass is read-only.
        let holdout =
            ScenarioConfig::default().holdout(HoldoutConfig::new(ScenarioDistribution::shifted()));
        assert!(holdout.is_vanilla());
    }

    #[test]
    fn mean_aggregation_is_the_scenario_order_sum() {
        let fits = [3.0, 1.0, 2.0];
        let expected: f64 = (3.0 + 1.0 + 2.0) / 3.0;
        assert_eq!(
            aggregate_fitness(&mut fits.clone(), FitnessAggregation::Mean).to_bits(),
            expected.to_bits()
        );
    }

    #[test]
    fn cvar_averages_the_worst_tail() {
        let fits = [10.0, -5.0, 3.0, 0.0];
        // alpha 0.5 ⇒ worst 2 of 4: -5 and 0.
        let half = aggregate_fitness(&mut fits.clone(), FitnessAggregation::CVaR { alpha: 0.5 });
        assert_eq!(half, -2.5);
        // alpha 0.1 ⇒ ceil(0.4) = 1: the single worst.
        let worst = aggregate_fitness(&mut fits.clone(), FitnessAggregation::CVaR { alpha: 0.1 });
        assert_eq!(worst, -5.0);
        // alpha 1.0 degenerates to the mean.
        let all = aggregate_fitness(&mut fits.clone(), FitnessAggregation::CVaR { alpha: 1.0 });
        assert_eq!(all, fits.iter().sum::<f64>() / 4.0);
    }

    #[test]
    fn spec_is_deterministic_and_genome_major() {
        let config = ScenarioConfig::default()
            .train(ScenarioDistribution::moderate())
            .scenarios_per_eval(3);
        let a = ScenarioSpec::for_generation(&config, 42, 7, 5);
        let b = ScenarioSpec::for_generation(&config, 42, 7, 5);
        assert_eq!(a, b);
        assert_eq!(a.scenarios(), 3);
        assert_eq!(a.population(), 5);
        assert_eq!(a.episode_seeds(2..3), &a.episode_seeds(0..5)[6..9]);
        // Every (genome, scenario) cell is distinct.
        let mut seeds = a.episode_seeds(0..5).to_vec();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 15, "episode seeds collide");
        // Different generation ⇒ different worlds and seeds.
        let c = ScenarioSpec::for_generation(&config, 42, 8, 5);
        assert_ne!(a.params(), c.params());
        assert_ne!(a.episode_seeds(0..5), c.episode_seeds(0..5));
    }

    #[test]
    fn fixed_spec_is_one_default_world_with_a_shared_seed() {
        let spec = ScenarioSpec::fixed(7, 4);
        assert_eq!(spec.params(), &[ScenarioParams::default()]);
        assert_eq!(spec.episode_seeds(0..4), &[7; 4]);
        assert_eq!(spec.aggregation(), FitnessAggregation::Mean);
        // Only a vanilla config resolves to it; holdout does not count.
        let vanilla =
            ScenarioConfig::default().holdout(HoldoutConfig::new(ScenarioDistribution::shifted()));
        assert_eq!(vanilla.spec_for(42, 3, 7, 4), ScenarioSpec::fixed(7, 4));
        let k2 = ScenarioConfig::default().scenarios_per_eval(2);
        assert_eq!(
            k2.spec_for(42, 3, 7, 4),
            ScenarioSpec::for_generation(&k2, 42, 3, 4)
        );
    }

    #[test]
    fn a_lone_scenario_fitness_aggregates_to_itself_bitwise() {
        for fitness in [-0.0f64, 0.1 + 0.2, -123.456, f64::MIN_POSITIVE] {
            for aggregation in [
                FitnessAggregation::Mean,
                FitnessAggregation::CVaR { alpha: 0.25 },
            ] {
                assert_eq!(
                    aggregate_fitness(&mut [fitness], aggregation).to_bits(),
                    fitness.to_bits()
                );
            }
        }
    }

    #[test]
    fn train_and_holdout_streams_never_alias() {
        let config = ScenarioConfig::default()
            .train(ScenarioDistribution::moderate())
            .scenarios_per_eval(4);
        let spec = ScenarioSpec::for_generation(&config, 42, 3, 8);
        let holdout = HoldoutConfig::new(ScenarioDistribution::moderate()).scenarios(4);
        let plan = holdout_plan(&holdout, 42, 3);
        for (_, holdout_seed) in &plan {
            assert!(
                !spec.episode_seeds(0..8).contains(holdout_seed),
                "holdout episode seed collided with a training seed"
            );
        }
    }

    #[test]
    fn holdout_plan_is_deterministic() {
        let holdout = HoldoutConfig {
            every: 3,
            ..HoldoutConfig::new(ScenarioDistribution::shifted()).scenarios(6)
        };
        let a = holdout_plan(&holdout, 1, 2);
        let b = holdout_plan(&holdout, 1, 2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        let other_gen = holdout_plan(&holdout, 1, 3);
        assert_ne!(a, other_gen);
    }

    #[test]
    fn scenario_config_round_trips_through_json() {
        let config = ScenarioConfig::default()
            .train(ScenarioDistribution::moderate())
            .scenarios_per_eval(4)
            .aggregation(FitnessAggregation::CVaR { alpha: 0.25 })
            .holdout(HoldoutConfig::new(ScenarioDistribution::shifted()).scenarios(12));
        let json = serde_json::to_string(&config).unwrap();
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }
}
