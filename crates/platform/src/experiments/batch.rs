//! batch — population-major batched evaluation throughput and parity.
//!
//! Reproduction-specific companion to [`crate::experiments::exec`]:
//! measures the software backend's [`Route::Lockstep`] kernel
//! (`PlanBatch` + `BatchEnv`) against its [`Route::PerGenome`] kernel
//! on E3-CPU, across worker-thread counts, and re-checks that every
//! run reproduces the per-genome serial run's fitnesses and episode
//! lengths bit for bit (the determinism contract both routes share).
//!
//! The workload is the generation-0 population the platform actually
//! evaluates first: small dense genomes whose per-step cost is
//! dominated by the per-individual overheads (episode scaffolding,
//! per-step observation allocation, dynamic dispatch) that the batched
//! kernel amortizes across lanes.

use crate::backend::{EvalOutcome, Route, SoftwareBackend};
use crate::experiments::Scale;
use crate::platform::RunError;
use crate::scenario::ScenarioSpec;
use crate::timing::SwCostModel;
use e3_envs::EnvId;
use e3_neat::{Genome, NeatConfig, Population};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// Worker counts the batched sweep visits.
pub const THREAD_SWEEP: [usize; 3] = [1, 4, 8];

/// One `(environment, mode, thread count)` measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchBenchRow {
    /// Environment.
    pub env: EnvId,
    /// Which evaluation route was timed.
    pub mode: Route,
    /// Worker threads ("virtual PUs").
    pub threads: usize,
    /// Minimum wall-clock seconds of one generation evaluation over
    /// the measurement rounds.
    pub eval_wall_seconds: f64,
    /// Environment steps of the generation (identical across rows of
    /// one environment by the determinism contract).
    pub total_steps: u64,
    /// `total_steps / eval_wall_seconds`.
    pub steps_per_second: f64,
    /// Scalar-serial wall time divided by this row's wall time.
    pub speedup_vs_scalar_serial: f64,
    /// Fitnesses and episode lengths are bit-identical to the scalar
    /// serial reference.
    pub matches_scalar_serial: bool,
}

/// The batched-evaluation benchmark result (`BENCH_batch.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchBenchResult {
    /// Population size of the evaluated generation.
    pub population: usize,
    /// Timing rounds per row (each row reports its minimum).
    pub rounds: usize,
    /// Host cores available to the harness when the numbers were
    /// taken: wall-clock scaling beyond this is impossible, whatever
    /// the thread count says.
    pub host_cores: usize,
    /// One row per `(environment, mode, thread count)`.
    pub rows: Vec<BatchBenchRow>,
    /// Every row reproduced the scalar serial fitnesses and episode
    /// lengths bit for bit.
    pub parity_ok: bool,
}

impl BatchBenchResult {
    /// The batched speedup over scalar serial for `env` at `threads`
    /// (0.0 if the row is missing).
    pub fn batched_speedup(&self, env: EnvId, threads: usize) -> f64 {
        self.rows
            .iter()
            .find(|r| r.env == env && r.mode == Route::Lockstep && r.threads == threads)
            .map_or(0.0, |r| r.speedup_vs_scalar_serial)
    }

    /// The headline number the issue pins: batched CartPole throughput
    /// at 8 worker threads vs the scalar serial path.
    pub fn cartpole_batched_speedup_at_8(&self) -> f64 {
        self.batched_speedup(EnvId::CartPole, 8)
    }
}

/// The generation-0 population the platform evaluates on `env`.
fn generation_zero(env: EnvId, population: usize, seed: u64) -> Vec<Genome> {
    let config = NeatConfig::builder(env.observation_size(), env.policy_outputs())
        .population_size(population)
        .build();
    Population::new(config, seed).genomes().to_vec()
}

/// Times one evaluation route: a warm call first (decode caches,
/// page-in), then `rounds` timed calls keeping the minimum — the
/// robust estimator against scheduler noise. Returns the outcome (for
/// parity) and the minimum wall seconds.
fn time_eval(
    backend: &mut SoftwareBackend,
    mode: Route,
    genomes: &[Genome],
    env: EnvId,
    seed: u64,
    rounds: usize,
) -> Result<(EvalOutcome, f64), RunError> {
    let spec = ScenarioSpec::fixed(seed, genomes.len());
    let call = |backend: &mut SoftwareBackend| backend.evaluate_via(mode, genomes, env, &spec);
    let outcome = call(backend)?;
    let mut wall = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        let timed = call(backend)?;
        wall = wall.min(start.elapsed().as_secs_f64());
        debug_assert_eq!(timed, outcome, "evaluation must be deterministic");
    }
    Ok((outcome, wall))
}

/// Runs the mode × thread-count sweep on `envs` with the CPU backend.
///
/// # Errors
///
/// Returns [`RunError`] if an evaluation fails (generation-0
/// populations are feed-forward, so this only fires on executor loss).
pub fn run_on(envs: &[EnvId], scale: Scale, seed: u64) -> Result<BatchBenchResult, RunError> {
    let population = scale.population();
    let rounds = match scale {
        Scale::Quick => 3,
        Scale::Full => 8,
    };
    let mut rows = Vec::with_capacity(envs.len() * 2 * THREAD_SWEEP.len());
    let mut parity_ok = true;
    for &env in envs {
        let genomes = generation_zero(env, population, seed);
        // Scalar serial is the reference both for speedups and for the
        // bitwise parity check.
        let mut serial = SoftwareBackend::cpu(SwCostModel::default());
        let (reference, serial_wall) =
            time_eval(&mut serial, Route::PerGenome, &genomes, env, seed, rounds)?;
        for mode in [Route::PerGenome, Route::Lockstep] {
            for threads in THREAD_SWEEP {
                let mut backend =
                    SoftwareBackend::cpu(SwCostModel::default()).with_threads(threads);
                let (outcome, wall) = time_eval(&mut backend, mode, &genomes, env, seed, rounds)?;
                let matches = outcome.fitnesses.len() == reference.fitnesses.len()
                    && outcome
                        .fitnesses
                        .iter()
                        .zip(&reference.fitnesses)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                    && outcome.steps_per_genome == reference.steps_per_genome;
                parity_ok &= matches;
                rows.push(BatchBenchRow {
                    env,
                    mode,
                    threads,
                    eval_wall_seconds: wall,
                    total_steps: outcome.total_steps,
                    steps_per_second: if wall > 0.0 {
                        outcome.total_steps as f64 / wall
                    } else {
                        0.0
                    },
                    speedup_vs_scalar_serial: if wall > 0.0 { serial_wall / wall } else { 1.0 },
                    matches_scalar_serial: matches,
                });
            }
        }
    }
    Ok(BatchBenchResult {
        population,
        rounds,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows,
        parity_ok,
    })
}

/// Runs on the issue's pinned workloads: CartPole (the headline
/// number) and LunarLander (the heaviest non-visual episode, with a
/// hand-vectorized SoA port of its own).
pub fn run(scale: Scale, seed: u64) -> Result<BatchBenchResult, RunError> {
    run_on(&[EnvId::CartPole, EnvId::LunarLander], scale, seed)
}

impl fmt::Display for BatchBenchResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "batch — lockstep vs per-genome software eval (CPU backend, \
             population {}, min of {} rounds)",
            self.population, self.rounds
        )?;
        writeln!(
            f,
            "  {:<22} {:>10} {:>7} {:>11} {:>9} {:>11} {:>8} {:>5}",
            "env", "mode", "threads", "eval wall", "steps", "steps/s", "speedup", "bits"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "  {:<22} {:>10} {:>7} {:>10.4}s {:>9} {:>11.0} {:>7.2}x {:>5}",
                row.env.to_string(),
                row.mode.to_string(),
                row.threads,
                row.eval_wall_seconds,
                row.total_steps,
                row.steps_per_second,
                row.speedup_vs_scalar_serial,
                if row.matches_scalar_serial {
                    "ok"
                } else {
                    "DRIFT"
                }
            )?;
        }
        writeln!(
            f,
            "  parity {} — CartPole batched@8 = {:.2}x vs scalar serial \
             (target ≥4x); host has {} core(s): speedup beyond the kernel's \
             own gain additionally requires free cores",
            if self.parity_ok { "OK" } else { "FAILED" },
            self.cartpole_batched_speedup_at_8(),
            self.host_cores
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_every_row_and_bitwise_parity() {
        let result = run_on(&[EnvId::CartPole], Scale::Quick, 42).expect("sweep runs");
        assert_eq!(result.rows.len(), 2 * THREAD_SWEEP.len());
        assert!(result.parity_ok, "batched eval drifted: {result}");
        for row in &result.rows {
            assert!(row.eval_wall_seconds > 0.0);
            assert!(row.total_steps > 0);
        }
        let steps: Vec<u64> = result.rows.iter().map(|r| r.total_steps).collect();
        assert!(
            steps.iter().all(|s| *s == steps[0]),
            "mode/threads must not change trajectories: {steps:?}"
        );
    }

    #[test]
    fn speedup_accessor_finds_the_headline_row() {
        let result = run_on(&[EnvId::CartPole], Scale::Quick, 42).expect("sweep runs");
        assert!(result.cartpole_batched_speedup_at_8() > 0.0);
        assert_eq!(result.batched_speedup(EnvId::LunarLander, 8), 0.0);
    }
}
