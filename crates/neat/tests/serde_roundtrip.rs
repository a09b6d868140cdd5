//! Serialization round-trip properties for the checkpointable types.
//!
//! The crash-safe run store (`e3-store`) persists populations as JSON
//! and compares snapshots by checksum, so two invariants matter beyond
//! plain serde correctness:
//!
//! 1. **Value round-trip** — deserializing a serialized value yields
//!    an equal value (nothing is lost or reinterpreted).
//! 2. **Byte stability** — re-serializing the deserialized value
//!    yields the *same bytes*. Without this, re-saving an untouched
//!    snapshot would change its checksum and defeat torn-write
//!    detection by content comparison.

use e3_neat::{Genome, InnovationTracker, NeatConfig, Population, PopulationSnapshot, Species};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn evolved_population(seed: u64, pop_size: usize, generations: usize) -> Population {
    let config = NeatConfig::builder(3, 2).population_size(pop_size).build();
    let mut pop = Population::new(config, seed);
    for gen in 0..generations {
        pop.evaluate(|g| g.num_enabled_connections() as f64 + (gen % 3) as f64);
        pop.evolve();
    }
    pop.evaluate(|g| g.num_hidden() as f64);
    pop
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Genome JSON is a stable fixed point: serialize → deserialize →
    /// serialize reproduces the bytes, and the value survives intact.
    #[test]
    fn genome_serialization_is_byte_stable(
        seed in any::<u64>(),
        mutations in 0usize..40,
    ) {
        let config = NeatConfig::builder(3, 2).initial_connection_density(0.6).build();
        let mut tracker = InnovationTracker::with_reserved_nodes(5);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut genome = Genome::initial(&config, &mut tracker, &mut rng);
        for _ in 0..mutations {
            genome.mutate(&config, &mut tracker, &mut rng);
        }
        let json = serde_json::to_string(&genome).unwrap();
        let back: Genome = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &genome);
        let json_again = serde_json::to_string(&back).unwrap();
        prop_assert_eq!(json_again, json);
    }

    /// Species records (representative, members, stagnation counters)
    /// round-trip byte-stably.
    #[test]
    fn species_serialization_is_byte_stable(
        seed in any::<u64>(),
        pop_size in 5usize..30,
    ) {
        let pop = evolved_population(seed, pop_size, 3);
        for species in pop.species() {
            let json = serde_json::to_string(species).unwrap();
            let back: Species = serde_json::from_str(&json).unwrap();
            let json_again = serde_json::to_string(&back).unwrap();
            prop_assert_eq!(json_again, json);
        }
    }

    /// Full population snapshots — the exact payload `e3-store`
    /// persists — round-trip byte-stably after arbitrary evolution.
    #[test]
    fn population_snapshot_serialization_is_byte_stable(
        seed in any::<u64>(),
        pop_size in 5usize..25,
        generations in 0usize..5,
    ) {
        let pop = evolved_population(seed, pop_size, generations);
        let snapshot = pop.snapshot();
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: PopulationSnapshot = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back.genomes, &snapshot.genomes);
        prop_assert_eq!(back.generation, snapshot.generation);
        prop_assert_eq!(back.rng_state, snapshot.rng_state);
        let json_again = serde_json::to_string(&back).unwrap();
        prop_assert_eq!(json_again, json);
    }

    /// Byte stability composes with restore: capture → restore →
    /// capture serializes to the identical bytes, so checkpointing is
    /// idempotent at the file level.
    #[test]
    fn capture_restore_capture_is_a_fixed_point(
        seed in any::<u64>(),
        pop_size in 5usize..20,
    ) {
        let pop = evolved_population(seed, pop_size, 2);
        let first = pop.snapshot();
        let json_first = serde_json::to_string(&first).unwrap();
        let restored = Population::from_snapshot(first);
        let second = restored.snapshot();
        let json_second = serde_json::to_string(&second).unwrap();
        prop_assert_eq!(json_second, json_first);
    }
}
