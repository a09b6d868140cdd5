//! Op-count and memory accounting (paper Tables IV and V).
//!
//! Table IV contrasts the per-step compute and memory of RL (A2C), a
//! fixed-topology EA, and NEAT. Table V lists the node/connection
//! counts of the Small/Large RL networks versus NEAT's evolved
//! networks. Both are pure functions of the network shapes, computed
//! here.

use crate::mlp::Mlp;
use serde::{Deserialize, Serialize};

/// Node/connection counts of a network (Table V rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkComplexity {
    /// Total nodes, including inputs.
    pub nodes: usize,
    /// Total connections (weights).
    pub connections: usize,
}

impl NetworkComplexity {
    /// Complexity of a layered MLP described by its sizes (input
    /// first), without building it.
    pub fn of_sizes(sizes: &[usize]) -> Self {
        NetworkComplexity {
            nodes: sizes.iter().sum(),
            connections: sizes.windows(2).map(|w| w[0] * w[1]).sum(),
        }
    }
}

/// Per-environment-step operation and memory overheads (Table IV
/// rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlgorithmOverhead {
    /// Operations in the forward/predict path per env step (MACs
    /// counted as 2 ops).
    pub ops_forward: u64,
    /// Operations in the backward/update path per env step.
    pub ops_backward: u64,
    /// Working memory in bytes: parameters, activations, and any
    /// replay/rollout storage, at 4 bytes per value (deployment
    /// precision).
    pub local_memory_bytes: u64,
}

impl AlgorithmOverhead {
    /// A2C overhead: actor + critic forward each step; one backward
    /// pass (≈ 2× forward ops) amortized per step; memory holds both
    /// networks' parameters + activations + optimizer state (2× params
    /// for Adam) + the n-step rollout buffer.
    pub fn a2c(actor: &Mlp, critic: &Mlp, n_steps: usize, obs_size: usize) -> Self {
        let fwd = 2 * (actor.num_connections() + critic.num_connections()) as u64;
        let bwd = 2 * fwd;
        let params = (actor.num_params() + critic.num_params()) as u64;
        let activations = (actor.num_nodes() + critic.num_nodes()) as u64;
        let rollout = (n_steps * (obs_size + 4)) as u64;
        AlgorithmOverhead {
            ops_forward: fwd,
            ops_backward: bwd,
            local_memory_bytes: 4 * (params * 3 + activations + rollout),
        }
    }

    /// Fixed-topology EA (OpenAI-ES / GA style): same forward inference
    /// as the RL actor (policy only — no critic), no backward pass;
    /// memory holds the parameter vector (and a perturbation copy).
    pub fn fixed_topology_ea(policy: &Mlp) -> Self {
        let fwd = 2 * policy.num_connections() as u64 * 2; // policy + perturbed copy evaluated
        AlgorithmOverhead {
            ops_forward: fwd,
            ops_backward: 0,
            local_memory_bytes: 4 * (2 * policy.num_params() as u64 + policy.num_nodes() as u64),
        }
    }

    /// NEAT overhead for an evolved genome of the given complexity:
    /// forward is the sparse connection count, no backward; memory is
    /// the genome (per connection: endpoints + weight ≈ 3 words; per
    /// node: bias + activation ≈ 2 words) plus the value buffer.
    pub fn neat(complexity: NetworkComplexity) -> Self {
        AlgorithmOverhead {
            ops_forward: 2 * complexity.connections as u64,
            ops_backward: 0,
            local_memory_bytes: 4
                * (3 * complexity.connections as u64 + 3 * complexity.nodes as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkSize;

    #[test]
    fn table5_small_network_counts() {
        // Paper Table V (Small): Acrobot 137 nodes / Bipedal 156 nodes.
        // (The paper counts a single policy head; see EXPERIMENTS.md.)
        let acrobot = NetworkComplexity::of_sizes(&[6, 64, 64, 3]);
        assert_eq!(acrobot.nodes, 137);
        assert_eq!(acrobot.connections, 6 * 64 + 64 * 64 + 64 * 3);
        let bipedal = NetworkComplexity::of_sizes(&[24, 64, 64, 4]);
        assert_eq!(bipedal.nodes, 156);
        assert_eq!(bipedal.connections, 5_888);
    }

    #[test]
    fn table5_large_network_counts() {
        // Paper Table V (Large): Acrobot 5,443 nodes; our 3×256 layout.
        let acrobot = NetworkComplexity::of_sizes(&[6, 256, 256, 256, 3]);
        assert_eq!(acrobot.nodes, 6 + 768 + 3);
        assert!(acrobot.connections > 100_000);
    }

    #[test]
    fn overhead_ordering_matches_table4() {
        // Table IV: A2C ≫ EA ≫ NEAT on every column.
        let sizes = NetworkSize::Small.hidden_layers();
        let mut actor_sizes = vec![8usize];
        actor_sizes.extend_from_slice(sizes);
        actor_sizes.push(4);
        let actor = Mlp::new(&actor_sizes, 1);
        let mut critic_sizes = vec![8usize];
        critic_sizes.extend_from_slice(sizes);
        critic_sizes.push(1);
        let critic = Mlp::new(&critic_sizes, 2);
        let a2c = AlgorithmOverhead::a2c(&actor, &critic, 8, 8);
        let ea = AlgorithmOverhead::fixed_topology_ea(&actor);
        let neat = AlgorithmOverhead::neat(NetworkComplexity {
            nodes: 14,
            connections: 17,
        });
        assert!(a2c.ops_backward > 0 && ea.ops_backward == 0 && neat.ops_backward == 0);
        assert!(a2c.local_memory_bytes > ea.local_memory_bytes);
        assert!(ea.local_memory_bytes > neat.local_memory_bytes);
        assert!(
            a2c.ops_forward > neat.ops_forward * 100,
            "orders of magnitude apart"
        );
        // Magnitude classes from the paper: A2C forward ~33K ops,
        // NEAT ~0.1K, memory ~268KB vs ~0.4KB.
        assert!(a2c.ops_forward > 10_000);
        assert!(neat.ops_forward < 200);
        assert!(neat.local_memory_bytes < 1_024);
    }
}
