//! Table V — network complexity: RL's Small/Large MLPs vs NEAT's
//! evolved networks, per environment.
//!
//! The claim: NEAT reaches comparable task performance with networks
//! two to five orders of magnitude smaller, because "evolve"
//! inherently prunes.

use crate::backend::BackendKind;
use crate::experiments::Scale;
use crate::platform::{E3Config, E3Platform};
use e3_envs::EnvId;
use e3_rl::{NetworkComplexity, NetworkSize};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One environment's row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table5Row {
    /// Environment.
    pub env: EnvId,
    /// Small RL policy network.
    pub small: NetworkComplexity,
    /// Large RL policy network.
    pub large: NetworkComplexity,
    /// NEAT: average nodes over all generations.
    pub neat_avg_nodes: f64,
    /// NEAT: average enabled connections over all generations.
    pub neat_avg_connections: f64,
}

/// Table V result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table5Result {
    /// One row per environment.
    pub rows: Vec<Table5Row>,
}

fn mlp_complexity(env: EnvId, size: NetworkSize) -> NetworkComplexity {
    let mut sizes = vec![env.observation_size()];
    sizes.extend_from_slice(size.hidden_layers());
    sizes.push(env.policy_outputs());
    NetworkComplexity::of_sizes(&sizes)
}

/// Computes the table, running NEAT per environment for the evolved
/// averages.
pub fn run_on(envs: &[EnvId], scale: Scale, seed: u64) -> Table5Result {
    let rows = envs
        .iter()
        .map(|&env| {
            let config = E3Config::builder(env)
                .population_size(scale.population())
                .max_generations(scale.max_generations())
                .build();
            let outcome = E3Platform::new(config, BackendKind::Cpu, seed)
                .run()
                .expect("suite populations are feed-forward");
            Table5Row {
                env,
                small: mlp_complexity(env, NetworkSize::Small),
                large: mlp_complexity(env, NetworkSize::Large),
                neat_avg_nodes: outcome.complexity.avg_nodes(),
                neat_avg_connections: outcome.complexity.avg_connections(),
            }
        })
        .collect();
    Table5Result { rows }
}

impl fmt::Display for Table5Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table V — network complexity (nodes / connections)")?;
        writeln!(
            f,
            "  {:<22} {:>16} {:>20} {:>18}",
            "env", "Small", "Large", "NEAT (avg)"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "  {:<22} {:>6} /{:>9} {:>7} /{:>12} {:>7.1} /{:>9.1}",
                row.env.to_string(),
                row.small.nodes,
                row.small.connections,
                row.large.nodes,
                row.large.connections,
                row.neat_avg_nodes,
                row.neat_avg_connections
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_network_counts_match_paper() {
        // Paper Table V, Small row: Bipedal 156 nodes / 5,888 conns.
        let c = mlp_complexity(EnvId::Bipedal, NetworkSize::Small);
        assert_eq!(c.nodes, 156);
        assert_eq!(c.connections, 5_888);
    }
}
