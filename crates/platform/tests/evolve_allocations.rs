//! Counts, not clocks: the per-genome host work outside the episode
//! loop allocates a fixed number of times, whatever the genome's size.
//!
//! `NetPlan::compile` (CreateNet) allocates its scratch and the plan's
//! own arrays, so a 13-node and a 60-node genome cost the same count.
//! `Population::evolve` allocates per child what copying or crossing
//! the parents and one structural edit need, never per gene: a
//! population whose genomes carry six times the connections allocates
//! no more per child. The counting allocator is process-wide, so the
//! binary holds a single test.

mod common;

use e3_neat::{Genome, InnovationTracker, NeatConfig, NetPlan, Population};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// LunarLander's shape with `hidden` initial hidden nodes, each
/// candidate connection drawn with probability `density`, in one
/// species: what a species costs (its ranking, its representative's
/// copy, its elites) is not per child.
fn lander(hidden: usize, density: f64) -> NeatConfig {
    NeatConfig::builder(8, 4)
        .population_size(200)
        .initial_hidden_nodes(hidden)
        .initial_connection_density(density)
        .compatibility_threshold(f64::INFINITY)
        .build()
}

/// Allocations of one `evolve` per child, after a few generations under
/// a fitness that rewards size, and the population's mean connection
/// count.
fn allocations_per_child(config: NeatConfig) -> (f64, f64) {
    let size = config.population_size as f64;
    let mut population = Population::new(config, 7);
    let fitness = |population: &mut Population| {
        let values = population
            .genomes()
            .iter()
            .enumerate()
            .map(|(i, g)| (g.connections().len() + g.num_hidden()) as f64 + i as f64 * 1e-3)
            .collect();
        population.assign_fitnesses(values);
    };
    for _ in 0..5 {
        fitness(&mut population);
        population.evolve();
    }
    fitness(&mut population);
    let connections = population
        .genomes()
        .iter()
        .map(|g| g.connections().len())
        .sum::<usize>() as f64
        / size;
    let ((), made, _) = common::counted(|| population.evolve());
    (made as f64 / size, connections)
}

#[test]
fn compile_and_evolve_allocate_independently_of_genome_size() {
    let compile_allocations = |hidden| {
        let mut tracker = InnovationTracker::with_reserved_nodes(12);
        let mut rng = StdRng::seed_from_u64(5);
        let genome = Genome::initial(&lander(hidden, 0.5), &mut tracker, &mut rng);
        let (plan, made, _) = common::counted(|| NetPlan::compile(&genome));
        let plan = plan.expect("a feed-forward genome");
        (plan.num_nodes(), plan.num_connections(), made)
    };
    let (small_nodes, small_edges, small) = compile_allocations(1);
    let (large_nodes, large_edges, large) = compile_allocations(48);
    assert_eq!((small_nodes, large_nodes), (13, 60));
    assert!(
        large_edges > 5 * small_edges,
        "{small_edges} vs {large_edges}"
    );
    assert_eq!(small, large, "allocations of one compile, 13 vs 60 nodes");

    let (small, small_connections) = allocations_per_child(lander(0, 1.0));
    let (large, large_connections) = allocations_per_child(lander(30, 0.5));
    assert!(
        large_connections > 5.0 * small_connections,
        "{small_connections} vs {large_connections} connections per genome"
    );
    // A child is a copy (its two gene lists) or a crossover (its gene
    // and node lists, the hidden ids it needs, its reachability rows),
    // then structural mutation: a reachability build for each of the
    // two additions and at most three list growths. Nine at most,
    // whatever the genome carries.
    assert!(
        small <= 9.0 && large <= 9.0,
        "{small} and {large} per child"
    );
    assert!(
        large <= small + 1.0,
        "allocations per child: {small} at {small_connections:.0} connections, \
         {large} at {large_connections:.0}"
    );
}
