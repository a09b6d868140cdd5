//! Synthetic irregular networks for accelerator microbenchmarks.
//!
//! The paper's parallelism studies (Figs. 6, 7, 9(a)) run on synthetic
//! populations with controlled shape: "num individuals: 200, num
//! inputs: 8, num outputs: 4, num hidden nodes: 30, sparsity rate:
//! 0.2" (footnote 3). These helpers build such networks through the
//! same genome machinery evolution uses, then apply structural
//! mutations so connections span levels like real evolved networks.

use e3_neat::{Genome, InnovationTracker, NeatConfig, NetPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds one synthetic irregular network with the requested shape.
///
/// `density` is the paper's sparsity rate: the fraction of candidate
/// feed-forward connections instantiated.
pub fn synthetic_net(
    num_inputs: usize,
    num_outputs: usize,
    hidden_nodes: usize,
    density: f64,
    seed: u64,
) -> NetPlan {
    NetPlan::compile(&synthetic_genome(
        num_inputs,
        num_outputs,
        hidden_nodes,
        density,
        seed,
    ))
    .expect("synthetic genomes are feed-forward by construction")
}

/// Builds the genome behind [`synthetic_net`] (useful when the genome
/// itself is needed, e.g. for weight-channel size accounting).
pub fn synthetic_genome(
    num_inputs: usize,
    num_outputs: usize,
    hidden_nodes: usize,
    density: f64,
    seed: u64,
) -> Genome {
    // A few structural mutations create the multi-level, cross-level
    // irregularity of evolved networks (Fig. 4(c)).
    synthetic_genome_with_mutations(
        num_inputs,
        num_outputs,
        hidden_nodes,
        density,
        hidden_nodes / 5,
        seed,
    )
}

/// Like [`synthetic_genome`] but with an explicit number of structural
/// mutation rounds. `0` keeps the exact two-level shape (`hidden_nodes`
/// wide hidden level, `num_outputs` wide output level) — the fixed
/// geometry the paper's PE-alignment study assumes.
pub fn synthetic_genome_with_mutations(
    num_inputs: usize,
    num_outputs: usize,
    hidden_nodes: usize,
    density: f64,
    mutation_rounds: usize,
    seed: u64,
) -> Genome {
    let config = NeatConfig::builder(num_inputs, num_outputs)
        .initial_hidden_nodes(hidden_nodes)
        .initial_connection_density(density)
        .build();
    let mut tracker = InnovationTracker::with_reserved_nodes(num_inputs + num_outputs);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut genome = Genome::initial(&config, &mut tracker, &mut rng);
    for _ in 0..mutation_rounds {
        genome.mutate_add_node(&config, &mut tracker, &mut rng);
        genome.mutate_add_connection(&config, &mut tracker, &mut rng);
    }
    genome
}

/// Population variant of [`synthetic_genome_with_mutations`], compiled
/// for the accelerator.
pub fn synthetic_population_with_mutations(
    count: usize,
    num_inputs: usize,
    num_outputs: usize,
    hidden_nodes: usize,
    density: f64,
    mutation_rounds: usize,
    seed: u64,
) -> Vec<NetPlan> {
    (0..count)
        .map(|i| {
            let genome = synthetic_genome_with_mutations(
                num_inputs,
                num_outputs,
                hidden_nodes,
                density,
                mutation_rounds,
                seed ^ (i as u64 * 97),
            );
            NetPlan::compile(&genome).expect("feed-forward by construction")
        })
        .collect()
}

/// Builds a population of synthetic networks with per-individual
/// structural variance (different seeds ⇒ different topologies, like a
/// real NEAT generation), each mutated as [`synthetic_genome`] is.
pub fn synthetic_population(
    count: usize,
    num_inputs: usize,
    num_outputs: usize,
    hidden_nodes: usize,
    density: f64,
    seed: u64,
) -> Vec<NetPlan> {
    synthetic_population_with_mutations(
        count,
        num_inputs,
        num_outputs,
        hidden_nodes,
        density,
        hidden_nodes / 5,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_request() {
        let net = synthetic_net(8, 4, 30, 0.2, 1);
        assert_eq!(net.num_inputs(), 8);
        assert_eq!(net.num_outputs(), 4);
        assert!(
            net.num_compute_nodes() >= 34,
            "30 hidden + 4 outputs + splits"
        );
    }

    #[test]
    fn density_controls_connection_count() {
        let sparse = synthetic_net(8, 4, 30, 0.1, 2);
        let dense = synthetic_net(8, 4, 30, 0.9, 2);
        assert!(dense.num_connections() > 2 * sparse.num_connections());
    }

    #[test]
    fn population_members_differ() {
        let pop = synthetic_population(5, 8, 4, 30, 0.2, 3);
        assert_eq!(pop.len(), 5);
        let first_conns = pop[0].num_connections();
        assert!(
            pop.iter().any(|n| n.num_connections() != first_conns),
            "individuals should vary structurally"
        );
    }

    #[test]
    fn nets_have_multiple_levels() {
        let net = synthetic_net(8, 4, 30, 0.2, 4);
        assert!(net.levels().len() >= 2, "mutations should deepen the net");
    }
}
