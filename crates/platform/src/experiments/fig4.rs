//! Fig. 4(e,f,g) — the irregularity statistics that motivate INAX.
//!
//! Runs NEAT across the suite and aggregates, over all generations:
//! the node in-degree distribution (e), the nodes-per-layer histogram
//! (f), and the per-generation population density trace (g). These are
//! the properties — variable degree, narrow variable layers, drifting
//! density — that make evolved networks hostile to regular
//! accelerators.

use crate::backend::BackendKind;
use crate::experiments::Scale;
use crate::platform::{E3Config, E3Platform};
use e3_envs::EnvId;
use e3_neat::stats::Histogram;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-environment density trace (Fig. 4(g)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DensityTrace {
    /// Environment.
    pub env: EnvId,
    /// Mean population density per generation.
    pub trace: Vec<f64>,
}

/// Fig. 4 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Result {
    /// In-degree histogram across the suite and all generations (e).
    pub degree_histogram: Histogram,
    /// Nodes-per-layer histogram across the suite (f).
    pub layer_histogram: Histogram,
    /// Density traces per environment (g).
    pub density: Vec<DensityTrace>,
}

/// Runs NEAT on the chosen environments and aggregates the statistics.
pub fn run_on(envs: &[EnvId], scale: Scale, seed: u64) -> Fig4Result {
    let mut degree_histogram = Histogram::new();
    let mut layer_histogram = Histogram::new();
    let mut density = Vec::new();
    for &env in envs {
        let config = E3Config::builder(env)
            .population_size(scale.population())
            .max_generations(scale.max_generations())
            .target_fitness(f64::INFINITY) // run all generations: the trace is the point
            .build();
        let outcome = E3Platform::new(config, BackendKind::Cpu, seed)
            .run()
            .expect("suite populations are feed-forward");
        let stats = outcome.complexity;
        for (value, count) in stats.degree_histogram().buckets() {
            for _ in 0..count {
                degree_histogram.record(value);
            }
        }
        for (value, count) in stats.layer_width_histogram().buckets() {
            for _ in 0..count {
                layer_histogram.record(value);
            }
        }
        density.push(DensityTrace {
            env,
            trace: stats.density_trace().to_vec(),
        });
    }
    Fig4Result {
        degree_histogram,
        layer_histogram,
        density,
    }
}

impl fmt::Display for Fig4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 4(e) — node in-degree distribution")?;
        for (value, count) in self.degree_histogram.buckets() {
            writeln!(
                f,
                "  degree {:>3}: {:>7} ({})",
                value,
                count,
                crate::experiments::pct(self.degree_histogram.fraction(value))
            )?;
        }
        writeln!(f, "Fig. 4(f) — nodes-per-layer histogram")?;
        for (value, count) in self.layer_histogram.buckets() {
            writeln!(
                f,
                "  width {:>3}: {:>7} ({})",
                value,
                count,
                crate::experiments::pct(self.layer_histogram.fraction(value))
            )?;
        }
        writeln!(f, "Fig. 4(g) — population density across generations")?;
        for d in &self.density {
            let first = d.trace.first().copied().unwrap_or(0.0);
            let last = d.trace.last().copied().unwrap_or(0.0);
            writeln!(
                f,
                "  {:<22} gen0 {:.2} … gen{} {:.2}",
                d.env.to_string(),
                first,
                d.trace.len().saturating_sub(1),
                last
            )?;
        }
        Ok(())
    }
}
