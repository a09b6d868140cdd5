//! Fig. 6 — parallelism across PEs.
//!
//! Sweeps the PE count for synthetic populations whose output layer
//! has `k = 10` and `k = 15` nodes (paper defaults otherwise: 8
//! inputs, 30 hidden, sparsity 0.2). Reports per-inference runtime and
//! `U(PE)`; the paper's observation is local utilization peaks at
//! `k, ⌈k/2⌉, ⌈k/3⌉, …`.

use e3_inax::synthetic::synthetic_population_with_mutations;
use e3_inax::{schedule_inference, InaxConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig6Point {
    /// PEs per PU.
    pub num_pe: usize,
    /// Mean wall cycles per inference across the population.
    pub mean_cycles: f64,
    /// PE utilization `U(PE)` aggregated over the population.
    pub utilization: f64,
}

/// One panel (one output-layer width `k`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Panel {
    /// Output-layer width.
    pub num_outputs: usize,
    /// Sweep over PE counts.
    pub points: Vec<Fig6Point>,
}

impl Fig6Panel {
    /// Whether `U(PE)` has a local peak at `pe` (higher than both
    /// neighbors in the sweep).
    pub fn has_local_peak_at(&self, pe: usize) -> bool {
        let idx = match self.points.iter().position(|p| p.num_pe == pe) {
            Some(i) => i,
            None => return false,
        };
        let u = self.points[idx].utilization;
        let left_ok = idx == 0 || self.points[idx - 1].utilization <= u + 1e-12;
        let right_ok = idx + 1 >= self.points.len() || self.points[idx + 1].utilization < u + 1e-12;
        left_ok && right_ok
    }
}

/// Full Fig. 6 result: panels for k = 10 and k = 15.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Result {
    /// Panels in paper order (a): k=10, (b): k=15.
    pub panels: Vec<Fig6Panel>,
}

/// Runs the sweep. Population and net shape follow paper footnote 3,
/// with the output width overridden per panel.
pub fn run() -> Fig6Result {
    let panels = [10usize, 15]
        .into_iter()
        .map(|k| {
            // Fixed two-level geometry (30 hidden, k outputs, no
            // structural mutations): the PE-alignment study assumes the
            // layer widths of footnote 3, which evolved-net width
            // variance would smear.
            let population =
                synthetic_population_with_mutations(40, 8, k, 30, 0.2, 0, 60 + k as u64);
            let points = (1..=20)
                .map(|num_pe| {
                    let config = InaxConfig::builder().num_pe(num_pe).build();
                    let mut cycles_sum = 0u64;
                    let mut active = 0u64;
                    let mut total = 0u64;
                    for net in &population {
                        let p = schedule_inference(&config, net);
                        cycles_sum += p.wall_cycles;
                        active += p.pe_active_cycles;
                        total += p.pe_total_cycles;
                    }
                    Fig6Point {
                        num_pe,
                        mean_cycles: cycles_sum as f64 / population.len() as f64,
                        utilization: active as f64 / total as f64,
                    }
                })
                .collect();
            Fig6Panel {
                num_outputs: k,
                points,
            }
        })
        .collect();
    Fig6Result { panels }
}

impl fmt::Display for Fig6Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 6 — parallelism across PEs (runtime + U(PE))")?;
        for panel in &self.panels {
            writeln!(f, "  output nodes k = {}", panel.num_outputs)?;
            writeln!(f, "  {:>5} {:>14} {:>8}", "#PE", "cycles/infer", "U(PE)")?;
            for p in &panel.points {
                writeln!(
                    f,
                    "  {:>5} {:>14.1} {:>8}",
                    p.num_pe,
                    p.mean_cycles,
                    crate::experiments::pct(p.utilization)
                )?;
            }
        }
        Ok(())
    }
}
