//! Fig. 1(b) — the NEAT timing profile that motivates E3.
//!
//! Runs software-only NEAT (E3-CPU) and reports the per-function time
//! share. The paper's observation: "evaluate" dominates (~90%+) while
//! "evolve" (mutate/crossover/speciate) is only ~3% — the exact
//! opposite of RL's profile (Fig. 3), which is why E3 offloads
//! "evaluate" to hardware.

use crate::backend::BackendKind;
use crate::experiments::Scale;
use crate::platform::{E3Config, E3Platform, FunctionProfile, RunError};
use e3_envs::EnvId;
use e3_telemetry::{Collector, MemoryCollector, NullCollector};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-environment timing profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1bRow {
    /// Environment.
    pub env: EnvId,
    /// The modeled per-function profile of the CPU-only run.
    pub profile: FunctionProfile,
}

/// Fig. 1(b) result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1bResult {
    /// One row per environment.
    pub rows: Vec<Fig1bRow>,
}

impl Fig1bResult {
    /// Suite-average evaluate share (inference + env interaction, the
    /// paper's "evaluate" phase).
    pub fn mean_evaluate_fraction(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| (r.profile.evaluate + r.profile.env + r.profile.createnet) / r.profile.total())
            .sum::<f64>()
            / self.rows.len() as f64
    }

    /// Suite-average evolve share (mutate + crossover + speciate).
    pub fn mean_evolve_fraction(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| {
                (r.profile.mutate + r.profile.crossover + r.profile.speciate) / r.profile.total()
            })
            .sum::<f64>()
            / self.rows.len() as f64
    }
}

/// Runs software-only NEAT on the chosen environments, forwarding
/// every telemetry event to `collector`. The figure itself is
/// assembled from the emitted `RunSummary` records.
///
/// # Errors
///
/// Returns [`RunError`] if a run or the collector fails.
pub fn run_with(
    envs: &[EnvId],
    scale: Scale,
    seed: u64,
    collector: &mut dyn Collector,
) -> Result<Fig1bResult, RunError> {
    let mut rows = Vec::with_capacity(envs.len());
    for &env in envs {
        let config = E3Config::builder(env)
            .population_size(scale.population())
            .max_generations(scale.max_generations())
            .build();
        let mut capture = MemoryCollector::new();
        E3Platform::new(config, BackendKind::Cpu, seed).run_with(&mut capture)?;
        let summary = capture.summaries().last().expect("run emits a summary");
        rows.push(Fig1bRow {
            env,
            profile: summary.split,
        });
        for event in capture.events() {
            collector.record(event)?;
        }
    }
    collector.flush()?;
    Ok(Fig1bResult { rows })
}

/// Runs software-only NEAT on the chosen environments.
pub fn run_on(envs: &[EnvId], scale: Scale, seed: u64) -> Fig1bResult {
    run_with(envs, scale, seed, &mut NullCollector).expect("suite populations are feed-forward")
}

/// Runs the full suite.
pub fn run(scale: Scale, seed: u64) -> Fig1bResult {
    run_on(&EnvId::ALL, scale, seed)
}

impl fmt::Display for Fig1bResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 1(b) — NEAT timing profile on CPU")?;
        writeln!(
            f,
            "  {:<22} {:>9} {:>7} {:>10} {:>8} {:>10} {:>9}",
            "env", "evaluate", "env", "createnet", "mutate", "crossover", "speciate"
        )?;
        for row in &self.rows {
            let p = &row.profile;
            let t = p.total();
            writeln!(
                f,
                "  {:<22} {:>9} {:>7} {:>10} {:>8} {:>10} {:>9}",
                row.env.to_string(),
                crate::experiments::pct(p.evaluate / t),
                crate::experiments::pct(p.env / t),
                crate::experiments::pct(p.createnet / t),
                crate::experiments::pct(p.mutate / t),
                crate::experiments::pct(p.crossover / t),
                crate::experiments::pct(p.speciate / t)
            )?;
        }
        writeln!(
            f,
            "  suite mean: evaluate-phase {} | evolve {} (paper: ~97% / ~3%)",
            crate::experiments::pct(self.mean_evaluate_fraction()),
            crate::experiments::pct(self.mean_evolve_fraction())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_dominates_and_evolve_is_light() {
        let result = run_on(&[EnvId::CartPole, EnvId::Pendulum], Scale::Quick, 2);
        assert!(
            result.mean_evaluate_fraction() > 0.85,
            "evaluate phase {} should dominate",
            result.mean_evaluate_fraction()
        );
        assert!(
            result.mean_evolve_fraction() < 0.1,
            "evolve {} should be light",
            result.mean_evolve_fraction()
        );
    }
}
