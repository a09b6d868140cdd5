//! Fig. 9 — INAX runtime analysis and the three-platform comparison.
//!
//! * **(a)** runtime breakdown (set-up / PE-active / evaluate-control)
//!   across network sizes (hidden-node sweep, paper defaults);
//! * **(b)** end-to-end runtime of E3-CPU / E3-GPU / E3-INAX on the
//!   six-environment suite;
//! * **(c)** the same runs normalized, with the per-function
//!   breakdown;
//! * **(d)** E3-INAX's balanced timing profile (contrast Fig. 1(b)).

use crate::backend::BackendKind;
use crate::experiments::Scale;
use crate::platform::{E3Config, E3Platform, FunctionProfile, RunError};
use e3_envs::EnvId;
use e3_inax::synthetic::synthetic_population;
use e3_inax::{InaxAccelerator, InaxConfig};
use e3_telemetry::{Collector, MemoryCollector, NullCollector, TelemetryEvent};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One point of the Fig. 9(a) sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig9aPoint {
    /// Hidden nodes in the synthetic networks.
    pub hidden_nodes: usize,
    /// Fraction of cycles in the set-up phase.
    pub setup_fraction: f64,
    /// Fraction of cycles with PEs doing useful work (= U(PE) over the
    /// whole offload, paper §VI-B).
    pub pe_active_fraction: f64,
    /// Fraction of cycles in evaluate-control (idle + overheads).
    pub control_fraction: f64,
}

/// Fig. 9(a): normalized runtime breakdown vs network size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9aResult {
    /// Sweep points, increasing hidden-node count.
    pub points: Vec<Fig9aPoint>,
}

/// Runs Fig. 9(a): populations with the paper's default shape, hidden
/// nodes swept, evaluated for 100 steps on the default 1-PU/1-PE
/// configuration (paper footnote 3).
pub fn run_fig9a() -> Fig9aResult {
    run_fig9a_with(&mut NullCollector).expect("null collector cannot fail")
}

/// Runs Fig. 9(a), emitting one telemetry `EvalRecord` per sweep point
/// (synthetic workload: fitness fields are zero, the interesting part
/// is the accelerator counters).
///
/// # Errors
///
/// Returns [`RunError::Telemetry`] if the collector rejects a record.
pub fn run_fig9a_with(collector: &mut dyn Collector) -> Result<Fig9aResult, RunError> {
    let mut points = Vec::new();
    for (index, hidden) in [5usize, 10, 20, 30, 40, 60].into_iter().enumerate() {
        let config = InaxConfig::default();
        let nets = synthetic_population(8, 8, 4, hidden, 0.2, 31 + hidden as u64);
        let population = nets.len();
        let mut acc = InaxAccelerator::new(config);
        for net in nets {
            acc.load_batch(vec![net]);
            acc.run_episodes(&[100]);
            acc.unload_batch();
        }
        let report = acc.report();
        collector
            .record(&e3_telemetry::TelemetryEvent::Eval(
                e3_telemetry::EvalRecord {
                    generation: index,
                    backend: BackendKind::Inax.name().to_string(),
                    env: format!("synthetic_h{hidden}"),
                    population,
                    eval_seconds: acc.config().cycles_to_seconds(report.total_cycles),
                    env_seconds: 0.0,
                    total_steps: report.steps,
                    best_fitness: 0.0,
                    mean_fitness: 0.0,
                    hw: Some((&report).into()),
                },
            ))
            .map_err(RunError::from)?;
        let (setup, active, control) = report.breakdown.fractions();
        points.push(Fig9aPoint {
            hidden_nodes: hidden,
            setup_fraction: setup,
            pe_active_fraction: active,
            control_fraction: control,
        });
    }
    collector.flush()?;
    Ok(Fig9aResult { points })
}

impl fmt::Display for Fig9aResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 9(a) — INAX runtime breakdown vs hidden nodes")?;
        writeln!(
            f,
            "  {:>7} {:>8} {:>10} {:>10}",
            "hidden", "setup", "PE-active", "control"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "  {:>7} {:>8} {:>10} {:>10}",
                p.hidden_nodes,
                crate::experiments::pct(p.setup_fraction),
                crate::experiments::pct(p.pe_active_fraction),
                crate::experiments::pct(p.control_fraction)
            )?;
        }
        Ok(())
    }
}

/// One environment's row of Fig. 9(b–d).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9bRow {
    /// Environment.
    pub env: EnvId,
    /// Modeled runtime per backend, paper order `[CPU, GPU, INAX]`.
    pub runtime_seconds: [f64; 3],
    /// Per-function profile per backend, same order.
    pub profiles: [FunctionProfile; 3],
    /// Generations each backend ran (identical across backends by
    /// construction).
    pub generations: usize,
    /// Best fitness achieved.
    pub best_fitness: f64,
}

impl Fig9bRow {
    /// INAX speedup over the CPU baseline.
    pub fn inax_speedup(&self) -> f64 {
        self.runtime_seconds[0] / self.runtime_seconds[2]
    }

    /// GPU slowdown relative to the CPU baseline (> 1 = slower).
    pub fn gpu_slowdown(&self) -> f64 {
        self.runtime_seconds[1] / self.runtime_seconds[0]
    }
}

/// Fig. 9(b–d): the three-platform suite comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9bResult {
    /// One row per environment (paper order Env1..Env6).
    pub rows: Vec<Fig9bRow>,
}

impl Fig9bResult {
    /// Geometric-mean INAX speedup across the suite (the paper's
    /// headline "averaged 30×").
    pub fn mean_inax_speedup(&self) -> f64 {
        let product: f64 = self.rows.iter().map(Fig9bRow::inax_speedup).product();
        product.powf(1.0 / self.rows.len() as f64)
    }
}

/// Runs the comparison on a chosen subset of environments.
pub fn run_fig9b_on(envs: &[EnvId], scale: Scale, seed: u64) -> Fig9bResult {
    run_fig9b_with(envs, scale, seed, &mut NullCollector)
        .expect("suite populations are feed-forward")
}

/// Runs the comparison, forwarding every telemetry event of every run
/// to `collector`. Forwarded `RunSummary` records carry
/// `speedup_vs_cpu` (the CPU backend runs first, so its runtime is
/// known when the GPU/INAX summaries are re-emitted); the figure rows
/// themselves are assembled from those summaries.
///
/// # Errors
///
/// Returns [`RunError`] if a run or the collector fails.
pub fn run_fig9b_with(
    envs: &[EnvId],
    scale: Scale,
    seed: u64,
    collector: &mut dyn Collector,
) -> Result<Fig9bResult, RunError> {
    let mut rows = Vec::with_capacity(envs.len());
    for &env in envs {
        let mut runtime = [0.0f64; 3];
        let mut profiles = [FunctionProfile::default(); 3];
        let mut generations = 0;
        let mut best = f64::NEG_INFINITY;
        let mut cpu_runtime = None;
        for (i, kind) in BackendKind::ALL.into_iter().enumerate() {
            let config = E3Config::builder(env)
                .population_size(scale.population())
                .max_generations(scale.max_generations())
                .build();
            let mut capture = MemoryCollector::new();
            E3Platform::new(config, kind, seed).run_with(&mut capture)?;
            let summary = capture.summaries().last().expect("run emits a summary");
            runtime[i] = summary.modeled_seconds;
            profiles[i] = summary.split;
            generations = summary.generations;
            best = best.max(summary.best_fitness);
            if kind == BackendKind::Cpu {
                cpu_runtime = Some(summary.modeled_seconds);
            }
            for event in capture.events() {
                match event {
                    TelemetryEvent::Summary(summary) => {
                        let mut summary = summary.clone();
                        summary.speedup_vs_cpu =
                            cpu_runtime.map(|cpu| cpu / summary.modeled_seconds);
                        collector.record(&TelemetryEvent::Summary(summary))?;
                    }
                    other => collector.record(other)?,
                }
            }
        }
        rows.push(Fig9bRow {
            env,
            runtime_seconds: runtime,
            profiles,
            generations,
            best_fitness: best,
        });
    }
    collector.flush()?;
    Ok(Fig9bResult { rows })
}

impl fmt::Display for Fig9bResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 9(b) — runtime comparison (modeled seconds)")?;
        writeln!(
            f,
            "  {:<22} {:>10} {:>10} {:>10} {:>9} {:>9}",
            "env", "E3-CPU", "E3-GPU", "E3-INAX", "speedup", "gens"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "  {:<22} {:>10.3} {:>10.3} {:>10.3} {:>8.1}x {:>9}",
                row.env.to_string(),
                row.runtime_seconds[0],
                row.runtime_seconds[1],
                row.runtime_seconds[2],
                row.inax_speedup(),
                row.generations
            )?;
        }
        writeln!(
            f,
            "  mean INAX speedup: {:.1}x (paper: ~30x)",
            self.mean_inax_speedup()
        )?;
        writeln!(f)?;
        writeln!(f, "Fig. 9(c) — normalized runtime and function breakdown")?;
        for row in &self.rows {
            let base = row.runtime_seconds[0];
            writeln!(f, "  {}:", row.env)?;
            for (i, kind) in BackendKind::ALL.into_iter().enumerate() {
                let profile = &row.profiles[i];
                let entries: Vec<String> = profile
                    .entries()
                    .iter()
                    .map(|(name, s)| {
                        format!("{name} {}", crate::experiments::pct(s / profile.total()))
                    })
                    .collect();
                writeln!(
                    f,
                    "    {:<8} {:>8.4} (norm {:.3}) [{}]",
                    kind.name(),
                    row.runtime_seconds[i],
                    row.runtime_seconds[i] / base,
                    entries.join(", ")
                )?;
            }
        }
        writeln!(f)?;
        writeln!(
            f,
            "Fig. 9(d) — E3-INAX timing profile (balanced vs Fig. 1(b))"
        )?;
        for row in &self.rows {
            let p = &row.profiles[2];
            writeln!(
                f,
                "  {:<22} evaluate {} | env {} | evolve {}",
                row.env.to_string(),
                crate::experiments::pct(p.evaluate_fraction()),
                crate::experiments::pct(p.env / p.total()),
                crate::experiments::pct(p.evolve_fraction())
            )?;
        }
        Ok(())
    }
}
