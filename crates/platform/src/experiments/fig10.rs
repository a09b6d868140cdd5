//! Fig. 10 — energy comparison and FPGA resource utilization.
//!
//! * **(a)** normalized energy of the three platforms: E3-GPU burns
//!   ~71× the CPU baseline, E3-INAX cuts it by ~97% (paper §VI-D);
//! * **(b)** FPGA utilization of two INAX configurations, the deployed
//!   `E3_a` and a higher-resource `E3_b`.

use crate::backend::BackendKind;
use crate::energy::{EnergyReport, PowerModel};
use crate::experiments::fig9::Fig9bResult;
use crate::fpga::{FpgaBudget, FpgaResources};
use e3_envs::EnvId;
use e3_inax::InaxConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One environment's energy row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10aRow {
    /// Environment.
    pub env: EnvId,
    /// Energy per backend, `[CPU, GPU, INAX]`.
    pub energy: [EnergyReport; 3],
}

impl Fig10aRow {
    /// GPU energy relative to CPU.
    pub fn gpu_ratio(&self) -> f64 {
        self.energy[1].total() / self.energy[0].total()
    }

    /// Fraction of CPU energy saved by INAX.
    pub(crate) fn inax_reduction(&self) -> f64 {
        1.0 - self.energy[2].total() / self.energy[0].total()
    }
}

/// Fig. 10(a) result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10aResult {
    /// One row per environment.
    pub rows: Vec<Fig10aRow>,
}

impl Fig10aResult {
    /// Mean INAX energy reduction across the suite (paper: 97%).
    pub fn mean_inax_reduction(&self) -> f64 {
        self.rows.iter().map(Fig10aRow::inax_reduction).sum::<f64>() / self.rows.len() as f64
    }
}

/// Derives energy from a Fig. 9(b) run (energy = power × the same
/// modeled runtimes).
pub fn run_fig10a(fig9b: &Fig9bResult, power: &PowerModel) -> Fig10aResult {
    let rows = fig9b
        .rows
        .iter()
        .map(|row| {
            let energy = [
                power.energy(BackendKind::Cpu, &row.profiles[0]),
                power.energy(BackendKind::Gpu, &row.profiles[1]),
                power.energy(BackendKind::Inax, &row.profiles[2]),
            ];
            Fig10aRow {
                env: row.env,
                energy,
            }
        })
        .collect();
    Fig10aResult { rows }
}

impl fmt::Display for Fig10aResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 10(a) — energy (joules, normalized to E3-CPU)")?;
        writeln!(
            f,
            "  {:<22} {:>10} {:>12} {:>10} {:>10}",
            "env", "E3-CPU", "E3-GPU", "E3-INAX", "saved"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "  {:<22} {:>10.2} {:>10.2}ˣ {:>10.3} {:>10}",
                row.env.to_string(),
                row.energy[0].total(),
                row.gpu_ratio(),
                row.energy[2].total() / row.energy[0].total(),
                crate::experiments::pct(row.inax_reduction())
            )?;
        }
        writeln!(
            f,
            "  mean INAX energy reduction: {} (paper: 97%)",
            crate::experiments::pct(self.mean_inax_reduction())
        )
    }
}

/// One configuration's FPGA utilization row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10bRow {
    /// Configuration label.
    pub label: String,
    /// PU count.
    pub num_pu: usize,
    /// PE count per PU.
    pub num_pe: usize,
    /// Absolute resources.
    pub resources: FpgaResources,
    /// Utilization fractions `(lut, ff, dsp, bram)` on the ZCU104.
    pub utilization: (f64, f64, f64, f64),
}

/// Fig. 10(b) result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10bResult {
    /// The two configurations, `E3_a` then `E3_b`.
    pub rows: Vec<Fig10bRow>,
}

/// Runs Fig. 10(b): `E3_a` is the deployed configuration (PU=50,
/// PE=4, the §VI-C heuristics), `E3_b` doubles the PE clusters for
/// lower latency at higher area.
pub fn run_fig10b() -> Fig10bResult {
    let budget = FpgaBudget::zcu104();
    let rows = [("E3_a", 50usize, 4usize), ("E3_b", 50, 8)]
        .into_iter()
        .map(|(label, num_pu, num_pe)| {
            let config = InaxConfig::builder().num_pu(num_pu).num_pe(num_pe).build();
            let resources = FpgaResources::of_inax(&config);
            Fig10bRow {
                label: label.to_string(),
                num_pu,
                num_pe,
                utilization: budget.utilization(&resources),
                resources,
            }
        })
        .collect();
    Fig10bResult { rows }
}

impl fmt::Display for Fig10bResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 10(b) — FPGA resource utilization (ZCU104)")?;
        writeln!(
            f,
            "  {:<6} {:>4} {:>4} {:>8} {:>8} {:>8} {:>8}",
            "config", "PU", "PE", "LUT", "FF", "DSP", "BRAM"
        )?;
        for row in &self.rows {
            let (lut, ff, dsp, bram) = row.utilization;
            writeln!(
                f,
                "  {:<6} {:>4} {:>4} {:>8} {:>8} {:>8} {:>8}",
                row.label,
                row.num_pu,
                row.num_pe,
                crate::experiments::pct(lut),
                crate::experiments::pct(ff),
                crate::experiments::pct(dsp),
                crate::experiments::pct(bram)
            )?;
        }
        Ok(())
    }
}
