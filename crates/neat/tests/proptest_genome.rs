//! Property tests for genome invariants under arbitrary evolution.

use e3_neat::{Genome, InnovationTracker, NeatConfig, Population};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

fn evolved_genome(
    num_inputs: usize,
    num_outputs: usize,
    seed: u64,
    mutations: usize,
) -> (Genome, NeatConfig) {
    let config = NeatConfig::builder(num_inputs, num_outputs)
        .initial_connection_density(0.6)
        .build();
    let mut tracker = InnovationTracker::with_reserved_nodes(num_inputs + num_outputs);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut genome = Genome::initial(&config, &mut tracker, &mut rng);
    for _ in 0..mutations {
        genome.mutate(&config, &mut tracker, &mut rng);
    }
    (genome, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any mutation history leaves the genome decodable (acyclic) with
    /// sorted unique nodes/innovations and at least one enabled
    /// connection.
    #[test]
    fn mutated_genomes_stay_well_formed(
        seed in any::<u64>(),
        num_inputs in 1usize..6,
        num_outputs in 1usize..5,
        mutations in 0usize..60,
    ) {
        let (genome, _) = evolved_genome(num_inputs, num_outputs, seed, mutations);
        let net = genome.decode().expect("mutations must preserve feed-forwardness");
        prop_assert_eq!(net.num_inputs(), num_inputs);
        prop_assert_eq!(net.num_outputs(), num_outputs);
        for pair in genome.nodes().windows(2) {
            prop_assert!(pair[0].id < pair[1].id, "node ids sorted and unique");
        }
        for pair in genome.connections().windows(2) {
            prop_assert!(pair[0].innovation < pair[1].innovation, "innovations sorted/unique");
        }
        prop_assert!(genome.num_enabled_connections() >= 1);
        // Connection endpoints exist and pairs are unique.
        for c in genome.connections() {
            prop_assert!(genome.node(c.from).is_some());
            prop_assert!(genome.node(c.to).is_some());
        }
    }

    /// The two serialization sinks cannot disagree: the binary form a
    /// snapshot streams decodes to exactly the tree JSON is rendered
    /// from (floats by bits), and reads back as the same genome.
    #[test]
    fn binary_stream_decodes_to_the_json_tree(
        seed in any::<u64>(),
        num_inputs in 1usize..6,
        num_outputs in 1usize..5,
        mutations in 0usize..60,
    ) {
        let (genome, config) = evolved_genome(num_inputs, num_outputs, seed, mutations);
        let mut bytes = Vec::new();
        serde::bin::encode_into(&(&genome, &config), &mut bytes).expect("shallow");
        let decoded = serde::bin::decode(&bytes).expect("own output decodes");
        prop_assert!(decoded.same_bits(&(&genome, &config).to_value()));
        let (back, _) = <(Genome, NeatConfig)>::from_value(&decoded).expect("reads back");
        prop_assert_eq!(back, genome);
    }

    /// Decoded networks evaluate every node in topological order:
    /// activation outputs are finite for finite inputs.
    #[test]
    fn activation_is_finite(
        seed in any::<u64>(),
        mutations in 0usize..40,
        inputs in proptest::collection::vec(-10.0f64..10.0, 3),
    ) {
        let (genome, _) = evolved_genome(3, 2, seed, mutations);
        let mut net = genome.decode().expect("decodable");
        let out = net.activate(&inputs);
        prop_assert_eq!(out.len(), 2);
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    /// Crossover children only carry innovations present in a parent,
    /// and remain decodable (for both fitter-parent and equal-fitness
    /// inheritance).
    #[test]
    fn crossover_children_are_parental_and_valid(
        seed in any::<u64>(),
        mutations in 1usize..40,
        equal in any::<bool>(),
    ) {
        let config = NeatConfig::builder(3, 2).initial_connection_density(0.6).build();
        let mut tracker = InnovationTracker::with_reserved_nodes(5);
        let mut rng = StdRng::seed_from_u64(seed);
        let base = Genome::initial(&config, &mut tracker, &mut rng);
        let mut a = base.clone();
        let mut b = base;
        for _ in 0..mutations {
            a.mutate(&config, &mut tracker, &mut rng);
            b.mutate(&config, &mut tracker, &mut rng);
        }
        let child = a.crossover(&b, equal, &config, &mut rng);
        prop_assert!(child.decode().is_ok(), "child must stay feed-forward");
        for c in child.connections() {
            let in_a = a.connections().iter().any(|p| p.innovation == c.innovation);
            let in_b = b.connections().iter().any(|p| p.innovation == c.innovation);
            prop_assert!(in_a || in_b, "innovation {:?} not parental", c.innovation);
        }
    }

    /// Compatibility distance is a symmetric premetric: d(x,x) = 0,
    /// d(x,y) = d(y,x) ≥ 0.
    #[test]
    fn distance_is_symmetric_premetric(
        seed in any::<u64>(),
        mutations in 0usize..30,
    ) {
        let (a, config) = evolved_genome(3, 2, seed, mutations);
        let (b, _) = evolved_genome(3, 2, seed.wrapping_add(1), mutations);
        prop_assert_eq!(a.compatibility_distance(&a, &config), 0.0);
        let d_ab = a.compatibility_distance(&b, &config);
        let d_ba = b.compatibility_distance(&a, &config);
        prop_assert!(d_ab >= 0.0);
        prop_assert!((d_ab - d_ba).abs() < 1e-12);
    }

    /// The population size is exactly preserved by arbitrary
    /// fitness landscapes and the species partition always covers the
    /// population exactly once.
    #[test]
    fn population_invariants_hold(
        seed in any::<u64>(),
        pop_size in 5usize..40,
        fitness_scale in -10.0f64..10.0,
    ) {
        let config = NeatConfig::builder(2, 1).population_size(pop_size).build();
        let mut pop = Population::new(config, seed);
        for gen in 0..4u64 {
            pop.evaluate(|g| fitness_scale * (g.num_enabled_connections() as f64 + gen as f64));
            let members: usize = pop.species().iter().map(|s| s.len()).sum();
            prop_assert_eq!(members, pop_size, "species partition covers population");
            pop.evolve();
            prop_assert_eq!(pop.genomes().len(), pop_size);
        }
    }
}
