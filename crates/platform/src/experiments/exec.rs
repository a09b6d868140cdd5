//! Host-side evaluation scaling — the software analogue of Fig. 7.
//!
//! Sweeps the worker-thread count of the parallel evaluation engine
//! (`e3-exec`) over the same evolve/evaluate workload and reports, per
//! environment and thread count, the measured evaluation wall time,
//! the speedup over the serial reference, and the pool's observability
//! counters (steals, worker utilization — the host-side `U(r)`
//! analogue; no decode-cache column, because the CPU backend's lockstep
//! route compiles each plan once and never consults the cache).
//! Because the engine is deterministic by construction, the sweep also
//! re-checks that every thread count reproduces the serial run's
//! fitness bit for bit.

use crate::backend::BackendKind;
use crate::experiments::Scale;
use crate::platform::{E3Config, E3Platform, RunError};
use e3_envs::EnvId;
use e3_telemetry::MemoryCollector;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Worker counts the scaling sweep visits.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One `(environment, thread count)` measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecScalingRow {
    /// Environment.
    pub env: EnvId,
    /// Worker threads ("virtual PUs").
    pub threads: usize,
    /// Measured wall-clock seconds spent inside the evaluation engine,
    /// summed over all generations.
    pub eval_wall_seconds: f64,
    /// Serial wall time divided by this row's wall time.
    pub speedup_vs_serial: f64,
    /// Shards executed by a non-home worker, summed over generations.
    pub steal_count: u64,
    /// Mean fraction of pool wall time the workers were busy.
    pub worker_utilization: f64,
    /// Best fitness of the run (bit-identical across thread counts).
    pub best_fitness: f64,
}

/// The scaling sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecScalingResult {
    /// One row per `(environment, thread count)`, thread-minor order.
    pub rows: Vec<ExecScalingRow>,
}

impl ExecScalingResult {
    /// The speedup at `threads` averaged over environments.
    pub fn mean_speedup(&self, threads: usize) -> f64 {
        let rows: Vec<&ExecScalingRow> =
            self.rows.iter().filter(|r| r.threads == threads).collect();
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().map(|r| r.speedup_vs_serial).sum::<f64>() / rows.len() as f64
    }
}

/// Runs the thread-count sweep on `envs` with the CPU backend.
///
/// # Errors
///
/// Returns [`RunError`] if a run fails (quick-scale populations are
/// feed-forward, so this only fires on executor loss).
pub fn run_on(envs: &[EnvId], scale: Scale, seed: u64) -> Result<ExecScalingResult, RunError> {
    let mut rows = Vec::with_capacity(envs.len() * THREAD_SWEEP.len());
    for &env in envs {
        let mut serial_wall = 0.0f64;
        let mut serial_best = f64::NEG_INFINITY;
        for threads in THREAD_SWEEP {
            let config = E3Config::builder(env)
                .population_size(scale.population().max(64))
                .max_generations(scale.max_generations())
                .threads(threads)
                .build();
            let mut telemetry = MemoryCollector::new();
            let outcome =
                E3Platform::new(config, BackendKind::Cpu, seed).run_with(&mut telemetry)?;
            let wall: f64 = telemetry.execs().map(|x| x.wall_seconds).sum();
            let steal_count: u64 = telemetry.execs().map(|x| x.steal_count).sum();
            let records = telemetry.execs().count().max(1) as f64;
            let utilization: f64 =
                telemetry.execs().map(|x| x.worker_utilization).sum::<f64>() / records;
            if threads == 1 {
                serial_wall = wall;
                serial_best = outcome.best_fitness;
            } else {
                assert_eq!(
                    outcome.best_fitness, serial_best,
                    "determinism contract: thread count must not change results"
                );
            }
            rows.push(ExecScalingRow {
                env,
                threads,
                eval_wall_seconds: wall,
                speedup_vs_serial: if wall > 0.0 { serial_wall / wall } else { 1.0 },
                steal_count,
                worker_utilization: utilization,
                best_fitness: outcome.best_fitness,
            });
        }
    }
    Ok(ExecScalingResult { rows })
}

/// Runs the sweep on the two scaling workloads (CartPole and
/// LunarLander — the cheapest and the heaviest non-visual episodes).
pub fn run(scale: Scale, seed: u64) -> Result<ExecScalingResult, RunError> {
    run_on(&[EnvId::CartPole, EnvId::LunarLander], scale, seed)
}

impl fmt::Display for ExecScalingResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "exec — evaluation-engine scaling (CPU backend)")?;
        writeln!(
            f,
            "  {:<22} {:>7} {:>10} {:>8} {:>7} {:>7}",
            "env", "threads", "eval wall", "speedup", "steals", "util"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "  {:<22} {:>7} {:>9.3}s {:>7.2}x {:>7} {:>7}",
                row.env.to_string(),
                row.threads,
                row.eval_wall_seconds,
                row.speedup_vs_serial,
                row.steal_count,
                crate::experiments::pct(row.worker_utilization)
            )?;
        }
        writeln!(
            f,
            "  note: wall-clock speedup requires free cores; results are \
             bit-identical at every thread count by construction"
        )?;
        writeln!(
            f,
            "  note: no cache-reuse column — these CPU rows run the lockstep \
             route, which compiles each plan once and never consults the \
             decode cache (see `benchmark/`'s exec.cache_hit_rate on the \
             tiered and INAX workloads)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_every_thread_count_and_identical_fitness() {
        let result = run_on(&[EnvId::CartPole], Scale::Quick, 3).expect("sweep runs");
        assert_eq!(result.rows.len(), THREAD_SWEEP.len());
        let best: Vec<f64> = result.rows.iter().map(|r| r.best_fitness).collect();
        assert!(
            best.iter().all(|b| *b == best[0]),
            "thread count must not change fitness: {best:?}"
        );
        for row in &result.rows {
            assert!(row.eval_wall_seconds > 0.0);
            assert!(row.speedup_vs_serial > 0.0);
        }
        assert!(result.mean_speedup(1) >= 0.99);
    }
}
