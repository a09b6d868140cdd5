//! Table IV — per-step compute and memory overheads of RL vs EA vs
//! NEAT.
//!
//! The paper's point is the ordering across three columns: RL (A2C)
//! pays forward *and* backward ops and large local memory; a
//! fixed-topology EA drops the backward pass but keeps the dense
//! forward; NEAT's evolved sparse networks shrink everything by
//! orders of magnitude.

use crate::backend::BackendKind;
use crate::experiments::Scale;
use crate::platform::{E3Config, E3Platform};
use e3_envs::EnvId;
use e3_rl::{AlgorithmOverhead, Mlp, NetworkComplexity, NetworkSize};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three columns of Table IV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Result {
    /// RL (A2C, small actor + critic) overhead, suite-averaged.
    pub rl: AlgorithmOverhead,
    /// Fixed-topology EA (same policy net, no backprop).
    pub ea: AlgorithmOverhead,
    /// NEAT with suite-averaged evolved complexity.
    pub neat: AlgorithmOverhead,
    /// The evolved complexity NEAT's column was computed from.
    pub neat_complexity: NetworkComplexity,
}

/// Computes Table IV, running short NEAT evolutions to measure the
/// evolved network complexity.
pub fn run_on(envs: &[EnvId], scale: Scale, seed: u64) -> Table4Result {
    // RL / EA columns: suite-average over per-env Small networks.
    let mut rl_acc = AlgorithmOverhead {
        ops_forward: 0,
        ops_backward: 0,
        local_memory_bytes: 0,
    };
    let mut ea_acc = rl_acc;
    let mut nodes_sum = 0.0;
    let mut conns_sum = 0.0;
    for &env in envs {
        let mut actor_sizes = vec![env.observation_size()];
        actor_sizes.extend_from_slice(NetworkSize::Small.hidden_layers());
        actor_sizes.push(env.policy_outputs());
        let actor = Mlp::new(&actor_sizes, 1);
        let mut critic_sizes = vec![env.observation_size()];
        critic_sizes.extend_from_slice(NetworkSize::Small.hidden_layers());
        critic_sizes.push(1);
        let critic = Mlp::new(&critic_sizes, 2);
        let rl = AlgorithmOverhead::a2c(&actor, &critic, 8, env.observation_size());
        let ea = AlgorithmOverhead::fixed_topology_ea(&actor);
        rl_acc.ops_forward += rl.ops_forward;
        rl_acc.ops_backward += rl.ops_backward;
        rl_acc.local_memory_bytes += rl.local_memory_bytes;
        ea_acc.ops_forward += ea.ops_forward;
        ea_acc.ops_backward += ea.ops_backward;
        ea_acc.local_memory_bytes += ea.local_memory_bytes;

        let config = E3Config::builder(env)
            .population_size(scale.population())
            .max_generations(scale.max_generations())
            .build();
        let outcome = E3Platform::new(config, BackendKind::Cpu, seed)
            .run()
            .expect("suite populations are feed-forward");
        nodes_sum += outcome.complexity.avg_nodes();
        conns_sum += outcome.complexity.avg_connections();
    }
    let n = envs.len() as u64;
    let average = |acc: AlgorithmOverhead| AlgorithmOverhead {
        ops_forward: acc.ops_forward / n,
        ops_backward: acc.ops_backward / n,
        local_memory_bytes: acc.local_memory_bytes / n,
    };
    let neat_complexity = NetworkComplexity {
        nodes: (nodes_sum / envs.len() as f64).round() as usize,
        connections: (conns_sum / envs.len() as f64).round() as usize,
    };
    Table4Result {
        rl: average(rl_acc),
        ea: average(ea_acc),
        neat: AlgorithmOverhead::neat(neat_complexity),
        neat_complexity,
    }
}

impl fmt::Display for Table4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table IV — analysis of overhead in algorithms (suite average)"
        )?;
        writeln!(
            f,
            "  {:<14} {:>12} {:>12} {:>14}",
            "", "RL (A2C)", "EA (ES/GA)", "NEAT"
        )?;
        writeln!(
            f,
            "  {:<14} {:>11.1}K {:>11.1}K {:>13.2}K   (paper: 33K / 33K / 0.1K)",
            "Op. Forward",
            self.rl.ops_forward as f64 / 1e3,
            self.ea.ops_forward as f64 / 1e3,
            self.neat.ops_forward as f64 / 1e3
        )?;
        writeln!(
            f,
            "  {:<14} {:>11.1}K {:>11.1}K {:>13.2}K   (paper: 32K / 0 / 0)",
            "Op. Backward",
            self.rl.ops_backward as f64 / 1e3,
            self.ea.ops_backward as f64 / 1e3,
            self.neat.ops_backward as f64 / 1e3
        )?;
        writeln!(
            f,
            "  {:<14} {:>11.1}K {:>11.1}K {:>13.2}K   (paper: 268K / 132K / 0.4K bytes)",
            "Local Memory",
            self.rl.local_memory_bytes as f64 / 1e3,
            self.ea.local_memory_bytes as f64 / 1e3,
            self.neat.local_memory_bytes as f64 / 1e3
        )?;
        writeln!(
            f,
            "  (NEAT column from evolved avg: {} nodes, {} connections)",
            self.neat_complexity.nodes, self.neat_complexity.connections
        )
    }
}
