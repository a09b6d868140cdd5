//! generalize — train vs held-out fitness across scenario batch sizes.
//!
//! Reproduction-specific companion to the scenario-distribution
//! refactor: evolves CartPole controllers on a *sampled* training
//! distribution ([`ScenarioDistribution::moderate`]) at K ∈ {1, 4, 8}
//! scenarios per evaluation, scores every generation's champion on a
//! held-out shifted distribution, and reports the train-vs-held-out
//! fitness gap per K — the GeneSys-style generalization story the
//! fixed-env contract could not express.
//!
//! Two gates ride along (`parity_ok`):
//!
//! * **determinism** — every configuration is re-run at 4 worker
//!   threads and must reproduce the single-threaded run's outcome and
//!   modeled telemetry stream bit for bit (everything except the
//!   wall-clock `Exec` records; scenario sampling is seeded by
//!   `(run_seed, generation, genome, scenario)`, never by thread
//!   schedule);
//! * **coverage** — every run must emit one `Generalization` record
//!   per generation with a sane scenario count.

use crate::experiments::Scale;
use crate::platform::RunError;
use crate::scenario::{HoldoutConfig, ScenarioConfig};
use crate::{BackendKind, E3Config, E3Platform};
use e3_envs::{EnvId, ScenarioDistribution};
use e3_telemetry::{Collector, GeneralizationRecord, MemoryCollector, TelemetryEvent};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Scenarios-per-evaluation counts the sweep visits.
pub const K_SWEEP: [usize; 3] = [1, 4, 8];

/// Held-out scenarios scored per generalization pass.
pub const HOLDOUT_SCENARIOS: usize = 8;

/// One `K` configuration's generalization report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneralizeRow {
    /// Scenarios sampled per fitness evaluation.
    pub k: usize,
    /// Generations the run executed.
    pub generations: usize,
    /// Final champion's training fitness (mean over its K scenarios).
    pub train_fitness: f64,
    /// Final champion's mean fitness on the held-out distribution.
    pub holdout_fitness: f64,
    /// `train_fitness - holdout_fitness` at the final generation; the
    /// number the sweep exists to compare across K.
    pub gap: f64,
    /// Per-scenario fitness spread (std) on the final held-out pass.
    pub holdout_std: f64,
    /// Worst held-out scenario of the final pass.
    pub holdout_min: f64,
    /// Generalization records observed (one per generation at the
    /// default cadence).
    pub generalization_passes: usize,
    /// The 4-thread re-run reproduced outcome and telemetry bit for
    /// bit.
    pub deterministic: bool,
}

/// The generalization sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneralizeResult {
    /// Environment under test.
    pub env: EnvId,
    /// Population size per run.
    pub population: usize,
    /// Generation cap per run.
    pub max_generations: usize,
    /// Held-out scenarios per generalization pass.
    pub holdout_scenarios: usize,
    /// One row per K in [`K_SWEEP`].
    pub rows: Vec<GeneralizeRow>,
    /// Every row was deterministic across thread counts and emitted
    /// the expected generalization telemetry.
    pub parity_ok: bool,
}

/// The scenario configuration one sweep row evolves under.
fn scenario_config(k: usize) -> ScenarioConfig {
    ScenarioConfig::default()
        .train(ScenarioDistribution::moderate())
        .scenarios_per_eval(k)
        .holdout(HoldoutConfig::new(ScenarioDistribution::shifted()).scenarios(HOLDOUT_SCENARIOS))
}

fn config(env: EnvId, scale: Scale, k: usize, threads: usize) -> E3Config {
    E3Config::builder(env)
        .population_size(scale.population())
        .max_generations(scale.max_generations())
        .target_fitness(f64::INFINITY)
        .threads(threads)
        .scenario(scenario_config(k))
        .build()
}

/// Runs the K sweep on `env`, forwarding every telemetry record of the
/// single-threaded reference runs to `collector` (so `--telemetry`
/// captures the `Generalization` stream).
///
/// # Errors
///
/// Returns [`RunError`] if an evaluation fails (seeded populations are
/// feed-forward, so this only fires on executor loss).
pub fn run_on(
    env: EnvId,
    scale: Scale,
    seed: u64,
    collector: &mut dyn Collector,
) -> Result<GeneralizeResult, RunError> {
    let mut rows = Vec::with_capacity(K_SWEEP.len());
    let mut parity_ok = true;
    for k in K_SWEEP {
        let mut reference = MemoryCollector::new();
        let outcome = E3Platform::new(config(env, scale, k, 1), BackendKind::Cpu, seed)
            .run_with(&mut reference)?;

        // Determinism gate: 4 worker threads, bit-identical outcome
        // and telemetry. Exec records carry measured wall-clock times
        // and worker counts, so they (and only they) are excluded.
        let mut threaded = MemoryCollector::new();
        let outcome4 = E3Platform::new(config(env, scale, k, 4), BackendKind::Cpu, seed)
            .run_with(&mut threaded)?;
        let modeled = |collector: &MemoryCollector| -> Vec<TelemetryEvent> {
            collector
                .events()
                .iter()
                .filter(|e| !matches!(e, TelemetryEvent::Exec(_)))
                .cloned()
                .collect()
        };
        let deterministic = outcome == outcome4 && modeled(&reference) == modeled(&threaded);

        for event in reference.events() {
            collector.record(event).map_err(RunError::from)?;
        }
        let passes: Vec<&GeneralizationRecord> = reference.generalizations().collect();
        let covered = passes.len() == outcome.generations_run
            && passes.iter().all(|g| {
                g.holdout_scenarios == HOLDOUT_SCENARIOS
                    && g.holdout_fitness.is_finite()
                    && g.train_fitness.is_finite()
            });
        let last = passes.last().copied().cloned().unwrap_or_default();
        parity_ok &= deterministic && covered;
        rows.push(GeneralizeRow {
            k,
            generations: outcome.generations_run,
            train_fitness: last.train_fitness,
            holdout_fitness: last.holdout_fitness,
            gap: last.gap,
            holdout_std: last.holdout_std,
            holdout_min: last.holdout_min,
            generalization_passes: passes.len(),
            deterministic,
        });
    }
    Ok(GeneralizeResult {
        env,
        population: scale.population(),
        max_generations: scale.max_generations(),
        holdout_scenarios: HOLDOUT_SCENARIOS,
        rows,
        parity_ok,
    })
}

/// Runs on the pinned workload: CartPole under the moderate training
/// distribution against the shifted held-out distribution.
///
/// # Errors
///
/// See [`run_on`].
pub fn run(
    scale: Scale,
    seed: u64,
    collector: &mut dyn Collector,
) -> Result<GeneralizeResult, RunError> {
    run_on(EnvId::CartPole, scale, seed, collector)
}

impl fmt::Display for GeneralizeResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "generalize — train vs held-out fitness on {} (population {}, \
             {} generations, {} held-out scenarios/pass, CPU backend)",
            self.env, self.population, self.max_generations, self.holdout_scenarios
        )?;
        writeln!(
            f,
            "  {:>2} {:>5} {:>10} {:>10} {:>9} {:>9} {:>9} {:>7} {:>5}",
            "K", "gens", "train", "held-out", "gap", "std", "min", "passes", "det"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "  {:>2} {:>5} {:>10.3} {:>10.3} {:>9.3} {:>9.3} {:>9.3} {:>7} {:>5}",
                row.k,
                row.generations,
                row.train_fitness,
                row.holdout_fitness,
                row.gap,
                row.holdout_std,
                row.holdout_min,
                row.generalization_passes,
                if row.deterministic { "ok" } else { "DRIFT" }
            )?;
        }
        writeln!(
            f,
            "  parity {} — scenario sampling must be thread-schedule-free and \
             every generation must emit a Generalization record",
            if self.parity_ok { "OK" } else { "FAILED" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_telemetry::NullCollector;

    #[test]
    fn sweep_covers_every_k_and_passes_its_gates() {
        let result = run(Scale::Quick, 42, &mut NullCollector).expect("sweep runs");
        assert_eq!(
            result.rows.iter().map(|r| r.k).collect::<Vec<_>>(),
            K_SWEEP.to_vec()
        );
        assert!(result.parity_ok, "generalize gates failed: {result}");
        for row in &result.rows {
            assert_eq!(row.generalization_passes, row.generations);
            assert!(row.train_fitness.is_finite());
            assert!(row.holdout_fitness.is_finite());
            assert!((row.gap - (row.train_fitness - row.holdout_fitness)).abs() < 1e-12);
        }
    }

    #[test]
    fn telemetry_forwarding_streams_generalization_records() {
        let mut memory = MemoryCollector::new();
        let result = run(Scale::Quick, 7, &mut memory).expect("sweep runs");
        let streamed = memory.generalizations().count();
        let expected: usize = result.rows.iter().map(|r| r.generalization_passes).sum();
        assert_eq!(streamed, expected, "every pass reaches the collector");
        assert!(memory
            .events()
            .iter()
            .any(|e| matches!(e, TelemetryEvent::Generalization(_))));
    }
}
