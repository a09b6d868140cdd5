//! Speciation: grouping genomes by topological similarity.
//!
//! NEAT protects structural innovation by making genomes compete only
//! within their species (the paper's "speciate" step, Table III):
//! young topologies get time to optimize their weights before they must
//! beat the incumbent champion.

use crate::genome::Genome;
use serde::{Deserialize, Serialize};

/// One species: a representative genome, its current members (indices
/// into the population), and a stagnation record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Species {
    /// Stable species identifier.
    pub id: usize,
    /// The representative genome new members are compared against
    /// (a member of the species from the previous generation).
    pub representative: Genome,
    /// Indices of member genomes in the current population.
    pub members: Vec<usize>,
    /// Best *raw* fitness the species has ever reached (`None` before
    /// the first evaluation). Kept as an `Option` rather than `-inf`
    /// so snapshots serialize to JSON cleanly.
    pub best_fitness: Option<f64>,
    /// Generations since `best_fitness` last improved.
    pub stagnation: usize,
    /// Sum of the members' adjusted fitness this generation (fitness
    /// shared across the species, used to apportion offspring).
    pub adjusted_fitness_sum: f64,
}

impl Species {
    /// Creates a species seeded from a representative.
    pub(crate) fn new(id: usize, representative: Genome) -> Self {
        Species {
            id,
            representative,
            members: Vec::new(),
            best_fitness: None,
            stagnation: 0,
            adjusted_fitness_sum: 0.0,
        }
    }

    /// Records the generation's best raw member fitness, updating the
    /// stagnation counter.
    pub(crate) fn record_fitness(&mut self, best_member_fitness: f64) {
        if self
            .best_fitness
            .is_none_or(|best| best_member_fitness > best)
        {
            self.best_fitness = Some(best_member_fitness);
            self.stagnation = 0;
        } else {
            self.stagnation += 1;
        }
    }

    /// Whether the species has no members this generation.
    pub(crate) fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stagnation_counts_non_improving_generations() {
        let mut s = Species::new(0, Genome::bare(1, 1));
        s.record_fitness(1.0);
        assert_eq!(s.stagnation, 0);
        s.record_fitness(0.5);
        assert_eq!(s.stagnation, 1);
        s.record_fitness(1.0);
        assert_eq!(s.stagnation, 2, "ties do not reset stagnation");
        s.record_fitness(2.0);
        assert_eq!(s.stagnation, 0);
        assert_eq!(s.best_fitness, Some(2.0));
    }

    #[test]
    fn empty_species_reports_empty() {
        let s = Species::new(3, Genome::bare(1, 1));
        assert!(s.is_empty());
        assert_eq!(s.members.len(), 0);
    }
}
