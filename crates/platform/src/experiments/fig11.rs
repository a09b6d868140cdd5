//! Fig. 11 — INAX vs the systolic-array baseline (GeneSys-style).
//!
//! Compares the required HW cycles of INAX and a PU-parallelized 1-D
//! systolic array across PE counts, on evolved-network populations
//! with each environment's input/output dimensions. The paper's
//! findings: the SA's best point (16 PEs) is still ~3× slower than
//! INAX; across PE counts INAX is 3–12.6× faster; over-provisioning
//! INAX past the output-width heuristic buys nothing.

use e3_envs::EnvId;
use e3_inax::synthetic::synthetic_population;
use e3_inax::{schedule_inference, InaxConfig};
use e3_systolic::{DensePaddedNet, SystolicArray, SystolicConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One PE-count point of the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig11Point {
    /// PEs per accelerator (per PU).
    pub num_pe: usize,
    /// Mean INAX cycles per inference (suite average).
    pub inax_cycles: f64,
    /// Mean systolic-array cycles per inference (suite average).
    pub sa_cycles: f64,
}

impl Fig11Point {
    /// Speedup of INAX over the SA at this PE count.
    pub fn speedup(&self) -> f64 {
        self.sa_cycles / self.inax_cycles
    }
}

/// Fig. 11 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig11Result {
    /// Sweep over PE counts (paper: 1..64).
    pub points: Vec<Fig11Point>,
}

impl Fig11Result {
    /// Best (minimum-cycle) SA point.
    pub fn best_sa(&self) -> &Fig11Point {
        self.points
            .iter()
            .min_by(|a, b| a.sa_cycles.total_cmp(&b.sa_cycles))
            .expect("non-empty sweep")
    }

    /// Best (minimum-cycle) INAX point.
    pub fn best_inax_cycles(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.inax_cycles)
            .fold(f64::INFINITY, f64::min)
    }

    /// The paper's headline: best-SA cycles over best-INAX cycles.
    pub fn best_vs_best_speedup(&self) -> f64 {
        self.best_sa().sa_cycles / self.best_inax_cycles()
    }
}

/// Runs the comparison over populations shaped like the paper's suite
/// — Env1–Env7 per the Fig. 11 caption, so the Atari-class Pong is
/// included — with the default 30 hidden nodes and 0.2 sparsity.
pub fn run() -> Fig11Result {
    let mut populations = Vec::new();
    for env in EnvId::ALL_WITH_ATARI {
        populations.push(synthetic_population(
            20,
            env.observation_size(),
            env.policy_outputs(),
            30,
            0.2,
            env.paper_index() as u64 * 13,
        ));
    }
    let nets: Vec<_> = populations.into_iter().flatten().collect();
    let padded: Vec<DensePaddedNet> = nets.iter().map(DensePaddedNet::from_plan).collect();

    let points = [1usize, 2, 4, 8, 16, 64]
        .into_iter()
        .map(|num_pe| {
            let inax_config = InaxConfig::builder().num_pe(num_pe).build();
            let sa = SystolicArray::new(SystolicConfig::builder().num_pe(num_pe).build());
            let inax_total: u64 = nets
                .iter()
                .map(|n| schedule_inference(&inax_config, n).wall_cycles)
                .sum();
            let sa_total: u64 = padded.iter().map(|p| sa.inference_cycles(p)).sum();
            Fig11Point {
                num_pe,
                inax_cycles: inax_total as f64 / nets.len() as f64,
                sa_cycles: sa_total as f64 / padded.len() as f64,
            }
        })
        .collect();
    Fig11Result { points }
}

impl fmt::Display for Fig11Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 11 — required HW cycles: INAX vs systolic array (SA)"
        )?;
        writeln!(
            f,
            "  {:>5} {:>12} {:>12} {:>9}",
            "#PE", "INAX", "SA", "speedup"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "  {:>5} {:>12.1} {:>12.1} {:>8.1}x",
                p.num_pe,
                p.inax_cycles,
                p.sa_cycles,
                p.speedup()
            )?;
        }
        writeln!(
            f,
            "  best-SA vs best-INAX: {:.1}x (paper: ~3x); per-PE range {:.1}x–{:.1}x (paper: 3x–12.6x)",
            self.best_vs_best_speedup(),
            self.points.iter().map(Fig11Point::speedup).fold(f64::INFINITY, f64::min),
            self.points.iter().map(Fig11Point::speedup).fold(0.0, f64::max)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inax_beats_sa_at_every_pe_count() {
        let result = run();
        for p in &result.points {
            assert!(
                p.speedup() > 1.0,
                "{} PEs: speedup {}",
                p.num_pe,
                p.speedup()
            );
        }
    }

    #[test]
    fn speedup_range_matches_paper_class() {
        let result = run();
        let max = result
            .points
            .iter()
            .map(Fig11Point::speedup)
            .fold(0.0, f64::max);
        let best_vs_best = result.best_vs_best_speedup();
        assert!(max > 3.0, "max speedup {max} (paper up to 12.6x)");
        assert!(
            best_vs_best > 1.5,
            "best-vs-best {best_vs_best} (paper ~3x)"
        );
    }

    #[test]
    fn overprovisioning_inax_past_heuristic_buys_little() {
        // §VI-F: PEs beyond the output width only idle.
        let result = run();
        let at_16 = result
            .points
            .iter()
            .find(|p| p.num_pe == 16)
            .unwrap()
            .inax_cycles;
        let at_64 = result
            .points
            .iter()
            .find(|p| p.num_pe == 64)
            .unwrap()
            .inax_cycles;
        assert!(at_64 > 0.85 * at_16, "64 PEs ({at_64}) ≈ 16 PEs ({at_16})");
    }
}
