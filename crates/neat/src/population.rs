//! The evolutionary loop: evaluate → speciate → reproduce.
//!
//! [`Population`] owns the generation of genomes and implements the
//! paper's "evolve" phase (Fig. 1(a)): selection of elites, mutation,
//! crossover, and speciation. The "evaluate" phase is delegated to a
//! caller-supplied fitness function — in E3 this is where the INAX
//! accelerator (or any other backend) plugs in.

use crate::config::NeatConfig;
use crate::genome::Genome;
use crate::innovation::InnovationTracker;
use crate::species::Species;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A genome together with the fitness it achieved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluatedGenome {
    /// The genome.
    pub genome: Genome,
    /// Raw fitness returned by the evaluation function.
    pub fitness: f64,
}

/// Serializable state of a [`Population`] — genomes, species,
/// innovation bookkeeping, generation counter, all-time best *and the
/// evolve-phase RNG stream* — taken by [`Population::snapshot`].
/// Because the RNG state rides along, [`Population::from_snapshot`]
/// continues evolution **bit-identically**; the `e3-store` crash-safe
/// run store builds on this.
///
/// # Example
///
/// ```
/// use e3_neat::{NeatConfig, Population, PopulationSnapshot};
///
/// let mut pop = Population::new(NeatConfig::builder(2, 1).population_size(10).build(), 1);
/// pop.evaluate(|g| g.num_enabled_connections() as f64);
/// let json = serde_json::to_string(&pop.snapshot())?;
/// let restored: PopulationSnapshot = serde_json::from_str(&json)?;
/// let mut resumed = Population::from_snapshot(restored);
/// resumed.evolve();
/// pop.evolve();
/// assert_eq!(resumed.genomes(), pop.genomes());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopulationSnapshot {
    /// The NEAT configuration.
    pub config: NeatConfig,
    /// Current-generation genomes.
    pub genomes: Vec<Genome>,
    /// Fitness values, if the generation was evaluated.
    pub fitnesses: Vec<Option<f64>>,
    /// Species (with representatives and stagnation records).
    pub species: Vec<Species>,
    /// Generation counter.
    pub generation: usize,
    /// Next species id to allocate.
    pub next_species_id: usize,
    /// All-time best genome, if any evaluation happened.
    pub best: Option<EvaluatedGenome>,
    /// Innovation bookkeeping (counters and per-generation caches).
    pub tracker: InnovationTracker,
    /// Evolve-phase RNG state (xoshiro256++ words).
    pub rng_state: [u64; 4],
}

/// A NEAT population: the full state of an evolutionary run.
///
/// # Example
///
/// ```
/// use e3_neat::{NeatConfig, Population};
///
/// let mut pop = Population::new(NeatConfig::builder(2, 1).population_size(20).build(), 1);
/// pop.evaluate(|genome| genome.num_enabled_connections() as f64);
/// pop.evolve();
/// assert_eq!(pop.generation(), 1);
/// assert_eq!(pop.genomes().len(), 20);
/// ```
#[derive(Debug, Clone)]
pub struct Population {
    config: NeatConfig,
    tracker: InnovationTracker,
    rng: StdRng,
    genomes: Vec<Genome>,
    fitnesses: Vec<Option<f64>>,
    species: Vec<Species>,
    generation: usize,
    next_species_id: usize,
    best_ever: Option<EvaluatedGenome>,
}

impl Population {
    /// Creates a generation-0 population from the configuration with a
    /// deterministic seed.
    pub fn new(config: NeatConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tracker =
            InnovationTracker::with_reserved_nodes(config.num_inputs + config.num_outputs);
        let genomes: Vec<Genome> = (0..config.population_size)
            .map(|_| Genome::initial(&config, &mut tracker, &mut rng))
            .collect();
        let fitnesses = vec![None; genomes.len()];
        Population {
            config,
            tracker,
            rng,
            genomes,
            fitnesses,
            species: Vec::new(),
            generation: 0,
            next_species_id: 0,
            best_ever: None,
        }
    }

    /// Current generation number (0 for the initial population).
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// The genomes of the current generation.
    pub fn genomes(&self) -> &[Genome] {
        &self.genomes
    }

    /// The current species partition (valid after an evaluation).
    pub fn species(&self) -> &[Species] {
        &self.species
    }

    /// The best genome seen across all generations, if any evaluation
    /// has happened yet.
    pub fn best(&self) -> Option<&EvaluatedGenome> {
        self.best_ever.as_ref()
    }

    /// Fitness values of the current generation (None before
    /// evaluation).
    pub fn fitnesses(&self) -> &[Option<f64>] {
        &self.fitnesses
    }

    /// Evaluates every genome with the supplied fitness function
    /// (sequentially) and speciates the population.
    pub fn evaluate<F: FnMut(&Genome) -> f64>(&mut self, mut fitness: F) {
        let values: Vec<f64> = self.genomes.iter().map(&mut fitness).collect();
        self.assign_fitnesses(values);
    }

    /// Installs externally computed fitness values and speciates.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.genomes().len()` or any value is
    /// NaN.
    pub fn assign_fitnesses(&mut self, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.genomes.len(),
            "one fitness per genome required"
        );
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "fitness must not be NaN"
        );
        for (slot, v) in self.fitnesses.iter_mut().zip(&values) {
            *slot = Some(*v);
        }
        let best_idx = (0..values.len())
            .max_by(|&a, &b| values[a].total_cmp(&values[b]))
            .expect("population is non-empty");
        let beats_best = self
            .best_ever
            .as_ref()
            .is_none_or(|b| values[best_idx] > b.fitness);
        if beats_best {
            self.best_ever = Some(EvaluatedGenome {
                genome: self.genomes[best_idx].clone(),
                fitness: values[best_idx],
            });
        }
        self.speciate();
    }

    /// Produces the next generation. Requires a prior evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the current generation has not been evaluated.
    pub fn evolve(&mut self) {
        assert!(
            self.fitnesses.iter().all(|f| f.is_some()),
            "evolve() requires every genome to be evaluated first"
        );
        self.tracker.begin_generation();

        // Fitness shift so selection works with negative rewards.
        let raw: Vec<f64> = self
            .fitnesses
            .iter()
            .map(|f| f.expect("checked above"))
            .collect();
        let min = raw.iter().cloned().fold(f64::INFINITY, f64::min);
        let shift = if min < 0.0 { -min } else { 0.0 };

        // Update stagnation and drop stagnant species (keeping at least
        // one so the population never dies out).
        for s in &mut self.species {
            let best = s
                .members
                .iter()
                .map(|&i| raw[i])
                .fold(f64::NEG_INFINITY, f64::max);
            s.record_fitness(best);
        }
        self.species.sort_by(|a, b| {
            b.best_fitness
                .unwrap_or(f64::NEG_INFINITY)
                .total_cmp(&a.best_fitness.unwrap_or(f64::NEG_INFINITY))
        });
        let limit = self.config.stagnation_limit;
        let mut kept: Vec<Species> = Vec::new();
        for (rank, s) in self.species.drain(..).enumerate() {
            if rank == 0 || s.stagnation <= limit {
                kept.push(s);
            }
        }
        self.species = kept;

        // Adjusted (shared) fitness per species.
        let mut total_adjusted = 0.0;
        for s in &mut self.species {
            let size = s.members.len().max(1) as f64;
            s.adjusted_fitness_sum = s
                .members
                .iter()
                .map(|&i| (raw[i] + shift) / size)
                .sum::<f64>();
            total_adjusted += s.adjusted_fitness_sum;
        }

        // Apportion offspring proportionally (largest-remainder style:
        // floor then hand out leftovers to the best species).
        let pop_size = self.config.population_size;
        let mut offspring: Vec<usize> = self
            .species
            .iter()
            .map(|s| {
                if total_adjusted > 0.0 {
                    ((s.adjusted_fitness_sum / total_adjusted) * pop_size as f64).floor() as usize
                } else {
                    pop_size / self.species.len().max(1)
                }
            })
            .collect();
        let mut assigned: usize = offspring.iter().sum();
        let mut i = 0;
        while assigned < pop_size {
            let slot = i % offspring.len();
            offspring[slot] += 1;
            assigned += 1;
            i += 1;
        }
        while assigned > pop_size {
            let max_i = (0..offspring.len())
                .max_by_key(|&k| offspring[k])
                .expect("non-empty species list");
            if offspring[max_i] == 0 {
                break;
            }
            offspring[max_i] -= 1;
            assigned -= 1;
        }

        // Reproduce.
        let mut next: Vec<Genome> = Vec::with_capacity(pop_size);
        for (sp_idx, count) in offspring.iter().copied().enumerate() {
            if count == 0 {
                continue;
            }
            let s = &self.species[sp_idx];
            // Members sorted by descending fitness.
            let mut ranked: Vec<usize> = s.members.clone();
            ranked.sort_by(|&a, &b| raw[b].total_cmp(&raw[a]));
            if ranked.is_empty() {
                continue;
            }
            let mut produced = 0;
            // Elites.
            if ranked.len() >= self.config.min_species_size {
                for &idx in ranked.iter().take(self.config.elitism.min(count)) {
                    next.push(self.genomes[idx].clone());
                    produced += 1;
                }
            }
            // Breeding pool: top survival_threshold fraction.
            let pool_len =
                ((ranked.len() as f64 * self.config.survival_threshold).ceil() as usize).max(1);
            let pool = &ranked[..pool_len.min(ranked.len())];
            while produced < count {
                let a = pool[self.rng.gen_range(0..pool.len())];
                let mut child = if pool.len() > 1 && self.rng.gen_bool(self.config.crossover_rate) {
                    let mut b = pool[self.rng.gen_range(0..pool.len())];
                    if b == a {
                        b = pool[(pool.iter().position(|&x| x == a).expect("a in pool") + 1)
                            % pool.len()];
                    }
                    let (fit, weak, equal) = if raw[a] > raw[b] {
                        (a, b, false)
                    } else if raw[b] > raw[a] {
                        (b, a, false)
                    } else {
                        (a, b, true)
                    };
                    self.genomes[fit].crossover(
                        &self.genomes[weak],
                        equal,
                        &self.config,
                        &mut self.rng,
                    )
                } else {
                    self.genomes[a].clone()
                };
                child.mutate(&self.config, &mut self.tracker, &mut self.rng);
                next.push(child);
                produced += 1;
            }
        }
        // Top up (e.g. if all species were empty) with fresh genomes.
        while next.len() < pop_size {
            next.push(Genome::initial(
                &self.config,
                &mut self.tracker,
                &mut self.rng,
            ));
        }
        next.truncate(pop_size);

        // New representatives: the first current member of each species.
        for s in &mut self.species {
            if let Some(&rep) = s.members.first() {
                s.representative = self.genomes[rep].clone();
            }
            s.members.clear();
        }
        self.genomes = next;
        self.fitnesses = vec![None; self.genomes.len()];
        self.generation += 1;
    }

    /// The current generation's `count` fittest evaluated genomes —
    /// what a migration policy ships to neighboring islands.
    ///
    /// Deterministic: ranked by fitness descending with the genome
    /// index as tie-break, so identical populations always emit
    /// identical emigrant lists regardless of how they were evaluated.
    /// The emigrants are clones; the population is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the current generation has not been evaluated.
    pub fn emigrants(&self, count: usize) -> Vec<EvaluatedGenome> {
        assert!(
            self.fitnesses.iter().all(|f| f.is_some()),
            "emigrants() requires every genome to be evaluated first"
        );
        let fitness = |i: usize| self.fitnesses[i].expect("checked above");
        let mut ranked: Vec<usize> = (0..self.genomes.len()).collect();
        ranked.sort_by(|&a, &b| fitness(b).total_cmp(&fitness(a)).then(a.cmp(&b)));
        ranked.truncate(count.min(self.genomes.len()));
        ranked
            .into_iter()
            .map(|i| EvaluatedGenome {
                genome: self.genomes[i].clone(),
                fitness: fitness(i),
            })
            .collect()
    }

    /// Merges immigrant genomes from another island into this
    /// population, replacing its worst members.
    ///
    /// The merge is an index-ordered, RNG-free procedure so that a
    /// fixed immigrant list always produces a bit-identical result:
    ///
    /// 1. victims are the `immigrants.len()` worst genomes (fitness
    ///    ascending, index ascending on ties);
    /// 2. victim *k* is overwritten by immigrant *k*, keeping the
    ///    immigrant's already-known fitness (it was evaluated on its
    ///    home island under the same deterministic episode schedule);
    /// 3. the innovation tracker absorbs the immigrants' id ranges so
    ///    later mutations here cannot collide with markings minted on
    ///    the source island;
    /// 4. the population is re-speciated (speciation uses no
    ///    randomness) and `best()` is updated.
    ///
    /// The evolve-phase RNG stream is untouched, so evolution after a
    /// migration continues exactly as checkpoint/resume expects.
    ///
    /// # Panics
    ///
    /// Panics if the current generation has not been evaluated, if any
    /// immigrant fitness is NaN, or if more immigrants arrive than the
    /// population holds.
    pub fn integrate_immigrants(&mut self, immigrants: &[EvaluatedGenome]) {
        if immigrants.is_empty() {
            return;
        }
        assert!(
            self.fitnesses.iter().all(|f| f.is_some()),
            "integrate_immigrants() requires every genome to be evaluated first"
        );
        assert!(
            immigrants.iter().all(|im| !im.fitness.is_nan()),
            "immigrant fitness must not be NaN"
        );
        assert!(
            immigrants.len() <= self.genomes.len(),
            "more immigrants ({}) than population slots ({})",
            immigrants.len(),
            self.genomes.len()
        );
        let fitness = |slots: &[Option<f64>], i: usize| slots[i].expect("checked above");
        let mut victims: Vec<usize> = (0..self.genomes.len()).collect();
        victims.sort_by(|&a, &b| {
            fitness(&self.fitnesses, a)
                .total_cmp(&fitness(&self.fitnesses, b))
                .then(a.cmp(&b))
        });
        for (victim, immigrant) in victims.iter().zip(immigrants) {
            self.genomes[*victim] = immigrant.genome.clone();
            self.fitnesses[*victim] = Some(immigrant.fitness);
            let next_node = immigrant
                .genome
                .nodes()
                .iter()
                .map(|n| n.id + 1)
                .max()
                .unwrap_or(0);
            let next_innovation = immigrant
                .genome
                .connections()
                .iter()
                .map(|c| c.innovation.0 + 1)
                .max()
                .unwrap_or(0);
            self.tracker.absorb(next_innovation, next_node);
            let beats_best = self
                .best_ever
                .as_ref()
                .is_none_or(|b| immigrant.fitness > b.fitness);
            if beats_best {
                self.best_ever = Some(immigrant.clone());
            }
        }
        self.speciate();
    }

    /// Captures the population's full state — including the evolve-
    /// phase RNG stream — as a serializable [`PopulationSnapshot`].
    pub fn snapshot(&self) -> PopulationSnapshot {
        PopulationSnapshot {
            config: self.config.clone(),
            genomes: self.genomes.clone(),
            fitnesses: self.fitnesses.clone(),
            species: self.species.clone(),
            generation: self.generation,
            next_species_id: self.next_species_id,
            best: self.best_ever.clone(),
            tracker: self.tracker.clone(),
            rng_state: self.rng.state(),
        }
    }

    /// Rebuilds a population from a snapshot. The restored population
    /// continues the captured RNG stream, so evolution is
    /// bit-identical to an uninterrupted run.
    pub fn from_snapshot(snapshot: PopulationSnapshot) -> Self {
        Population {
            config: snapshot.config,
            tracker: snapshot.tracker,
            rng: StdRng::from_state(snapshot.rng_state),
            genomes: snapshot.genomes,
            fitnesses: snapshot.fitnesses,
            species: snapshot.species,
            generation: snapshot.generation,
            next_species_id: snapshot.next_species_id,
            best_ever: snapshot.best,
        }
    }

    /// Assigns every genome to a species by compatibility distance,
    /// creating new species for unmatched genomes.
    fn speciate(&mut self) {
        for s in &mut self.species {
            s.members.clear();
        }
        for (idx, genome) in self.genomes.iter().enumerate() {
            let found = self
                .species
                .iter_mut()
                .find(|s| genome.is_compatible(&s.representative, &self.config));
            match found {
                Some(s) => s.members.push(idx),
                None => {
                    let mut s = Species::new(self.next_species_id, genome.clone());
                    self.next_species_id += 1;
                    s.members.push(idx);
                    self.species.push(s);
                }
            }
        }
        self.species.retain(|s| !s.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> NeatConfig {
        NeatConfig::builder(2, 1).population_size(30).build()
    }

    #[test]
    fn population_size_is_invariant_across_generations() {
        let mut pop = Population::new(small_config(), 5);
        for _ in 0..10 {
            pop.evaluate(|g| g.num_enabled_connections() as f64);
            pop.evolve();
            assert_eq!(pop.genomes().len(), 30);
        }
        assert_eq!(pop.generation(), 10);
    }

    #[test]
    fn best_tracks_maximum_across_generations() {
        let mut pop = Population::new(small_config(), 7);
        pop.evaluate(|_| 1.0);
        assert_eq!(pop.best().unwrap().fitness, 1.0);
        pop.evolve();
        pop.evaluate(|_| 0.5);
        assert_eq!(pop.best().unwrap().fitness, 1.0, "best is all-time");
        pop.evolve();
        pop.evaluate(|_| 2.0);
        assert_eq!(pop.best().unwrap().fitness, 2.0);
    }

    #[test]
    fn negative_fitness_is_handled() {
        let mut pop = Population::new(small_config(), 9);
        for _ in 0..5 {
            pop.evaluate(|g| -(g.num_enabled_connections() as f64));
            pop.evolve();
            assert_eq!(pop.genomes().len(), 30);
        }
    }

    #[test]
    #[should_panic(expected = "requires every genome to be evaluated")]
    fn evolve_requires_evaluation() {
        let mut pop = Population::new(small_config(), 1);
        pop.evolve();
    }

    #[test]
    #[should_panic(expected = "one fitness per genome")]
    fn fitness_length_is_checked() {
        let mut pop = Population::new(small_config(), 1);
        pop.assign_fitnesses(vec![0.0; 3]);
    }

    #[test]
    fn speciation_separates_diverged_genomes() {
        let mut pop = Population::new(small_config(), 21);
        pop.evaluate(|_| 0.0);
        let initial_species = pop.species().len();
        assert!(initial_species >= 1);
        // After many structural generations, expect more than one
        // species (genomes diverge topologically).
        for _ in 0..20 {
            pop.evolve();
            pop.evaluate(|g| g.num_hidden() as f64);
        }
        assert!(!pop.species().is_empty());
        let total_members: usize = pop.species().iter().map(|s| s.members.len()).sum();
        assert_eq!(
            total_members, 30,
            "every genome belongs to exactly one species"
        );
    }

    #[test]
    fn evolution_is_deterministic_given_seed() {
        let run = |seed| {
            let mut pop = Population::new(small_config(), seed);
            for _ in 0..5 {
                pop.evaluate(|g| g.num_enabled_connections() as f64);
                pop.evolve();
            }
            pop.best().unwrap().fitness
        };
        assert_eq!(run(33), run(33));
    }

    #[test]
    fn emigrants_are_top_k_with_index_tie_break() {
        let mut pop = Population::new(small_config(), 17);
        // Distinct fitnesses: genome index doubles as fitness rank.
        let n = pop.genomes().len();
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        pop.assign_fitnesses(values);
        let top = pop.emigrants(3);
        let fits: Vec<f64> = top.iter().map(|e| e.fitness).collect();
        assert_eq!(fits, vec![(n - 1) as f64, (n - 2) as f64, (n - 3) as f64]);

        // All-equal fitness: ties break by ascending genome index.
        let mut flat = Population::new(small_config(), 17);
        flat.assign_fitnesses(vec![1.0; n]);
        let picked = flat.emigrants(2);
        assert_eq!(
            picked[0].genome.fingerprint(),
            flat.genomes()[0].fingerprint()
        );
        assert_eq!(
            picked[1].genome.fingerprint(),
            flat.genomes()[1].fingerprint()
        );
    }

    #[test]
    #[should_panic(expected = "requires every genome to be evaluated")]
    fn emigrants_require_evaluation() {
        let pop = Population::new(small_config(), 1);
        let _ = pop.emigrants(1);
    }

    #[test]
    fn integrate_immigrants_replaces_worst_and_updates_best() {
        let mut source = Population::new(small_config(), 3);
        source.evaluate(|g| g.num_enabled_connections() as f64);
        let mut immigrants = source.emigrants(2);
        immigrants[0].fitness = 1000.0; // clearly beats everything local

        let mut dest = Population::new(small_config(), 4);
        let n = dest.genomes().len();
        dest.assign_fitnesses((0..n).map(|i| i as f64).collect());
        let worst_before = dest.genomes()[0].fingerprint();
        dest.integrate_immigrants(&immigrants);
        // Victims are the worst slots: indices 0 and 1 held fitness 0 and 1.
        assert_ne!(dest.genomes()[0].fingerprint(), worst_before);
        assert_eq!(dest.fitnesses()[0], Some(1000.0));
        assert_eq!(dest.fitnesses()[1], Some(immigrants[1].fitness));
        assert_eq!(dest.best().unwrap().fitness, 1000.0);
        assert_eq!(dest.genomes().len(), n, "population size is preserved");
        // Still evaluated: evolve proceeds normally.
        dest.evolve();
        assert_eq!(dest.genomes().len(), n);
    }

    #[test]
    fn integrating_no_immigrants_is_a_no_op() {
        let mut pop = Population::new(small_config(), 8);
        pop.evaluate(|g| g.num_enabled_connections() as f64);
        let before: Vec<u64> = pop.genomes().iter().map(|g| g.fingerprint()).collect();
        pop.integrate_immigrants(&[]);
        let after: Vec<u64> = pop.genomes().iter().map(|g| g.fingerprint()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn migration_merge_is_deterministic_and_rng_neutral() {
        let mut source = Population::new(small_config(), 23);
        source.evaluate(|g| g.num_enabled_connections() as f64);
        let immigrants = source.emigrants(3);

        let run = |mut pop: Population| {
            pop.evaluate(|g| g.num_enabled_connections() as f64);
            pop.integrate_immigrants(&immigrants);
            pop.evolve();
            pop.evaluate(|g| g.num_hidden() as f64);
            pop.evolve();
            pop.genomes()
                .iter()
                .map(|g| g.fingerprint())
                .collect::<Vec<u64>>()
        };
        // Two clones, identical immigrant lists: bit-identical futures.
        let template = Population::new(small_config(), 29);
        assert_eq!(run(template.clone()), run(template));
    }

    fn evolved() -> Population {
        let mut pop = Population::new(NeatConfig::builder(3, 2).population_size(20).build(), 5);
        for _ in 0..5 {
            pop.evaluate(|g| g.num_enabled_connections() as f64);
            pop.evolve();
        }
        pop.evaluate(|g| g.num_hidden() as f64);
        pop
    }

    #[test]
    fn restored_population_continues_bit_identically() {
        // The captured RNG state makes the snapshot+restore path
        // indistinguishable from never snapshotting: every subsequent
        // generation is genome-for-genome identical.
        let mut pop = evolved();
        let mut resumed = Population::from_snapshot(pop.snapshot());
        for _ in 0..4 {
            pop.evolve();
            resumed.evolve();
            assert_eq!(pop.genomes(), resumed.genomes());
            pop.evaluate(|g| g.num_hidden() as f64);
            resumed.evaluate(|g| g.num_hidden() as f64);
            assert_eq!(pop.fitnesses(), resumed.fitnesses());
        }
        assert_eq!(
            pop.best().map(|b| b.fitness),
            resumed.best().map(|b| b.fitness)
        );
    }
}
