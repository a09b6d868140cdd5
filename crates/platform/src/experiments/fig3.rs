//! Fig. 3 — the RL runtime split: Forward vs Training.
//!
//! The paper profiles A2C and PPO2 with Small and Large networks and
//! finds Training (backprop + update rules) takes ~60% of runtime —
//! the part that is expensive to accelerate, which is why accelerating
//! RL's Forward offers little headroom (§III-B).

use crate::experiments::Scale;
use e3_envs::EnvId;
use e3_rl::{A2c, A2cConfig, NetworkSize, Ppo, PpoConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One profiled configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Row {
    /// Algorithm and size label (e.g. `"A2C-small"`).
    pub label: String,
    /// Environment profiled on.
    pub env: EnvId,
    /// Fraction of runtime in the Forward phase.
    pub forward_fraction: f64,
    /// Fraction of runtime in the Training phase.
    pub training_fraction: f64,
}

/// Fig. 3 result: the four panels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Result {
    /// Rows in paper order: A2C-small, A2C-large, PPO2-small,
    /// PPO2-large.
    pub rows: Vec<Fig3Row>,
}

/// Profiles the four configurations on one environment.
pub(crate) fn run_on(env: EnvId, scale: Scale, seed: u64) -> Fig3Result {
    // The Forward/Training split stabilizes within a few thousand
    // steps; cap the budget so the Large configs stay cheap.
    let steps = scale.rl_steps().min(6_000);
    let mut rows = Vec::with_capacity(4);
    for size in [NetworkSize::Small, NetworkSize::Large] {
        let mut agent = A2c::new(A2cConfig::new(env, size), seed);
        agent.train_steps(steps);
        let (forward, training) = agent.profile().fractions();
        rows.push(Fig3Row {
            label: format!("A2C-{}", size_name(size)),
            env,
            forward_fraction: forward,
            training_fraction: training,
        });
    }
    for size in [NetworkSize::Small, NetworkSize::Large] {
        let mut agent = Ppo::new(PpoConfig::new(env, size), seed);
        agent.train_steps(steps);
        let (forward, training) = agent.profile().fractions();
        rows.push(Fig3Row {
            label: format!("PPO2-{}", size_name(size)),
            env,
            forward_fraction: forward,
            training_fraction: training,
        });
    }
    Fig3Result { rows }
}

/// Profiles on CartPole (a representative env; the split is a
/// property of the algorithms, not the task).
pub fn run(scale: Scale, seed: u64) -> Fig3Result {
    run_on(EnvId::CartPole, scale, seed)
}

fn size_name(size: NetworkSize) -> &'static str {
    match size {
        NetworkSize::Small => "small",
        NetworkSize::Large => "large",
    }
}

impl Fig3Result {
    /// Mean Training fraction across configurations (paper: ~60%).
    pub fn mean_training_fraction(&self) -> f64 {
        self.rows.iter().map(|r| r.training_fraction).sum::<f64>() / self.rows.len() as f64
    }
}

impl fmt::Display for Fig3Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 3 — RL runtime split (measured)")?;
        writeln!(f, "  {:<12} {:>9} {:>10}", "config", "Forward", "Training")?;
        for row in &self.rows {
            writeln!(
                f,
                "  {:<12} {:>9} {:>10}",
                row.label,
                crate::experiments::pct(row.forward_fraction),
                crate::experiments::pct(row.training_fraction)
            )?;
        }
        writeln!(
            f,
            "  mean Training share: {} (paper: ~60%)",
            crate::experiments::pct(self.mean_training_fraction())
        )
    }
}
