//! Fig. 7 — parallelism across PUs.
//!
//! Sweeps the PU count for populations of `p = 200` and `p = 300`
//! individuals and reports total runtime and `U(PU)`. The paper's
//! observation: utilization peaks at PU counts of `⌈p/2⌉, ⌈p/3⌉, …`
//! because those divide the population into full batches (its worked
//! example: 100 PUs finish 200 individuals in two batches; 99 PUs need
//! three, the last one 98% idle).

use e3_inax::cluster::{analyze_pu_parallelism, EpisodeWork};
use e3_inax::synthetic::synthetic_net;
use e3_inax::{schedule_inference, InaxConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig7Point {
    /// PU count.
    pub num_pu: usize,
    /// Total wall cycles to evaluate the population.
    pub total_cycles: u64,
    /// `U(PU)`.
    pub utilization: f64,
}

/// One panel (one population size).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Panel {
    /// Population size `p`.
    pub num_individuals: usize,
    /// Sweep over PU counts.
    pub points: Vec<Fig7Point>,
}

impl Fig7Panel {
    /// Utilization at a PU count, if swept.
    pub fn utilization_at(&self, num_pu: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.num_pu == num_pu)
            .map(|p| p.utilization)
    }
}

/// Full Fig. 7 result: panels for p = 200 and p = 300.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Result {
    /// Panels in paper order (a): 200, (b): 300.
    pub panels: Vec<Fig7Panel>,
}

/// Runs the sweep with the paper's default net shape (8 inputs, 4
/// outputs, 30 hidden, sparsity 0.2) and uniform 100-step episodes.
/// Work is uniform across individuals — footnote 3 fixes one shape —
/// which isolates the batch-count effect the figure demonstrates;
/// NN/env variance (paper §V-B issues 1–2) lowers the whole curve
/// without moving the divisor peaks, and is exercised separately by
/// [`e3_inax::cluster`]'s tests.
pub fn run() -> Fig7Result {
    let panels = [200usize, 300]
        .into_iter()
        .map(|p| {
            let net = synthetic_net(8, 4, 30, 0.2, 7);
            let config = InaxConfig::builder().num_pe(4).build();
            let work = EpisodeWork {
                inference_cycles: schedule_inference(&config, &net).wall_cycles,
                steps: 100,
            };
            let episodes: Vec<EpisodeWork> = vec![work; p];
            let sweep: Vec<usize> = (1..=p)
                .filter(|n| n % 2 == 1 || n % 10 == 0 || p % n == 0)
                .collect();
            let points = sweep
                .into_iter()
                .map(|num_pu| {
                    let (total_cycles, util) = analyze_pu_parallelism(num_pu, &episodes);
                    Fig7Point {
                        num_pu,
                        total_cycles,
                        utilization: util.rate(),
                    }
                })
                .collect();
            Fig7Panel {
                num_individuals: p,
                points,
            }
        })
        .collect();
    Fig7Result { panels }
}

impl fmt::Display for Fig7Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 7 — parallelism across PUs (runtime + U(PU))")?;
        for panel in &self.panels {
            writeln!(f, "  individuals p = {}", panel.num_individuals)?;
            writeln!(f, "  {:>5} {:>14} {:>8}", "#PU", "total cycles", "U(PU)")?;
            for point in &panel.points {
                writeln!(
                    f,
                    "  {:>5} {:>14} {:>8}",
                    point.num_pu,
                    point.total_cycles,
                    crate::experiments::pct(point.utilization)
                )?;
            }
        }
        Ok(())
    }
}
