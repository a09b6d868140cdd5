//! Experiment drivers: one per table and figure of the paper's
//! evaluation (see DESIGN.md §5 for the full index).
//!
//! Every driver is a pure function from a [`Scale`] to a serializable
//! result struct with a `render()` text table, so the same code backs
//! the `repro` CLI and the integration tests. None of them is a speed
//! instrument: wall-clock claims go through `benchmark/`.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Table IV (algorithm overheads) | [`table4`] |
//! | Table V (network complexity) | [`table5`] |
//! | Fig. 1(b) (NEAT timing profile) | [`fig1b`] |
//! | Fig. 2 (convergence traces) | [`fig2`] |
//! | Fig. 3 (RL runtime split) | [`fig3`] |
//! | Fig. 4(e,f,g) (irregularity statistics) | [`fig4`] |
//! | Fig. 6 (PE parallelism) | [`fig6`] |
//! | Fig. 7 (PU parallelism) | [`fig7`] |
//! | Fig. 9(a–d) (INAX breakdown, runtime comparison) | [`fig9`] |
//! | Fig. 10(a,b) (energy, FPGA utilization) | [`fig10`] |
//! | Fig. 11 (INAX vs systolic array) | [`fig11`] |
//!
//! [`generalize`] is reproduction-specific: the scenario-distribution
//! generalization sweep (train vs held-out fitness across K scenarios
//! per evaluation).

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig1b;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig9;
pub mod generalize;
pub mod table4;
pub mod table5;

use serde::{Deserialize, Serialize};

/// Experiment scale: `Quick` keeps populations and step budgets small
/// enough for tests and CI; `Full` approaches the paper's parameters
/// (population 200, full step budgets) and is what EXPERIMENTS.md
/// records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Seconds-scale run for tests.
    Quick,
    /// Paper-scale run for EXPERIMENTS.md.
    Full,
}

impl Scale {
    /// NEAT population size at this scale.
    pub fn population(self) -> usize {
        match self {
            Scale::Quick => 48,
            Scale::Full => 200,
        }
    }

    /// Generation cap at this scale.
    pub fn max_generations(self) -> usize {
        match self {
            Scale::Quick => 8,
            Scale::Full => 40,
        }
    }

    /// RL environment-step budget at this scale. The paper trains the
    /// RL baselines to convergence on a desktop; this reproduction caps
    /// the full-scale budget at 40k env steps per configuration so the
    /// whole suite regenerates on one laptop-class core — enough for
    /// the qualitative Fig. 2/3 claims (which tasks converge, where the
    /// runtime goes).
    pub fn rl_steps(self) -> u64 {
        match self {
            Scale::Quick => 3_000,
            Scale::Full => 40_000,
        }
    }
}

/// Renders a fraction as a percentage with one decimal.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}
