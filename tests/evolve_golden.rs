//! Evolve, pinned: what `Population::evolve` and `NetPlan::compile`
//! produce for fixed seeds, captured before either was rewritten for
//! speed and never edited since.
//!
//! No environment runs here: a synthetic fitness drives each case for a
//! few dozen generations, and each row pins the population fingerprint
//! (every gene of every genome), the best fitness's bits and the species
//! count at the end. The cases reach every branch the reproduction
//! operators take — distinct and all-equal fitness (the second sends
//! every crossover down the equal-fitness merge), immigrants from a
//! separately seeded population (their innovation numbers collide with
//! the local ones, so genes that match by innovation can disagree on
//! their endpoints), a parent made cyclic by hand, and negative
//! compatibility coefficients (speciation cannot stop a distance early).
//! A change that moves any RNG draw, any accepted gene or any species
//! assignment moves a row.

use e3::islands::population_fingerprint;
use e3::neat::{DecodeError, Genome, InnovationTracker, NeatConfig, NetPlan, Population};

/// Population fingerprint, best-ever fitness bits, species count.
type Row = (u64, u64, usize);

/// LunarLander's shape: 8 observations, 4 actions.
fn lander(population: usize) -> NeatConfig {
    NeatConfig::builder(8, 4)
        .population_size(population)
        .build()
}

/// CartPole's shape: 4 observations, 2 actions, and a threshold low
/// enough to split the population into many species. Its genomes stay
/// under the 20 genes below which excess and disjoint counts are not
/// normalised.
fn cartpole(population: usize) -> NeatConfig {
    NeatConfig::builder(4, 2)
        .population_size(population)
        .compatibility_threshold(1.0)
        .build()
}

/// A fitness that rewards growth and is distinct for every slot:
/// structure in the integer part, then 10 bits of the fingerprint, then
/// the slot index below those.
fn distinct(index: usize, genome: &Genome) -> f64 {
    let structure = (genome.num_hidden() * 8 + genome.num_enabled_connections()) as f64;
    structure + (genome.fingerprint() % 1024) as f64 / 1024.0 + index as f64 / 1_048_576.0
}

fn assign(population: &mut Population, fitness: fn(usize, &Genome) -> f64) {
    let values = population
        .genomes()
        .iter()
        .enumerate()
        .map(|(i, genome)| fitness(i, genome))
        .collect();
    population.assign_fitnesses(values);
}

fn row(population: &Population) -> Row {
    (
        population_fingerprint(population),
        population.best().expect("evaluated").fitness.to_bits(),
        population.species().len(),
    )
}

/// Evaluates and evolves `generations` times, then evaluates once more.
fn evolve_for(
    mut population: Population,
    generations: usize,
    fitness: fn(usize, &Genome) -> f64,
) -> Row {
    for _ in 0..generations {
        assign(&mut population, fitness);
        population.evolve();
    }
    assign(&mut population, fitness);
    row(&population)
}

#[test]
fn distinct_fitness_on_the_lander_shape() {
    let row = evolve_for(Population::new(lander(60), 7), 30, distinct);
    assert_eq!(row, (13143535229253426901, 4643093707325702144, 1));
}

#[test]
fn distinct_fitness_on_the_cartpole_shape() {
    let row = evolve_for(Population::new(cartpole(80), 21), 30, distinct);
    assert_eq!(row, (11792719929537608135, 4635741408831995904, 40));
}

#[test]
fn all_equal_fitness_merges_both_parents_in_every_crossover() {
    let row = evolve_for(Population::new(lander(60), 3), 20, |_, _| 1.0);
    assert_eq!(row, (501789885749090006, 4607182418800017408, 1));
}

#[test]
fn immigrants_with_colliding_innovations() {
    let mut home = Population::new(lander(40), 11);
    let mut away = Population::new(lander(40), 12);
    for generation in 0..24 {
        assign(&mut home, distinct);
        assign(&mut away, distinct);
        if generation % 3 == 2 {
            home.integrate_immigrants(&away.emigrants(6));
        }
        home.evolve();
        away.evolve();
    }
    assign(&mut home, distinct);
    assert_eq!(row(&home), (878134546057176549, 4641948496407035904, 1));
}

#[test]
fn a_cyclic_parent_passes_only_acyclic_genes_on() {
    let mut population = Population::new(lander(40), 5);
    for _ in 0..6 {
        assign(&mut population, distinct);
        population.evolve();
    }
    // Close a loop through the first genome's first hidden node and an
    // output it feeds, and make that genome the fittest.
    let mut snapshot = population.snapshot();
    let genome = &mut snapshot.genomes[0];
    let (hidden, output) = genome
        .connections()
        .iter()
        .find(|c| c.from >= 12 && (8..12).contains(&c.to))
        .map(|c| (c.from, c.to))
        .expect("a hidden node feeding an output");
    genome
        .add_connection_unchecked(output, hidden, 0.5, &mut snapshot.tracker)
        .expect("output -> hidden is new");
    assert!(matches!(
        NetPlan::compile(genome),
        Err(DecodeError::Cycle(_))
    ));
    let mut population = Population::from_snapshot(snapshot);
    let values = (0..40)
        .map(|i| if i == 0 { 1e6 } else { i as f64 })
        .collect();
    population.assign_fitnesses(values);
    population.evolve();
    assert_eq!(
        evolve_for(population, 8, distinct),
        (3555477973187621645, 4696837146684686336, 1)
    );
}

#[test]
fn a_negative_coefficient_speciates_on_the_full_distance() {
    let mut config = cartpole(80);
    config.disjoint_coefficient = -0.5;
    let row = evolve_for(Population::new(config, 9), 20, distinct);
    assert_eq!(row, (12102642221069644706, 4639009845020721152, 10));
}

/// A negative weight coefficient: the structural terms alone can pass
/// the threshold while the full distance, weight term included, stays
/// under it.
#[test]
fn a_negative_weight_coefficient_speciates_on_the_full_distance() {
    let mut config = cartpole(80);
    config.weight_coefficient = -0.5;
    let row = evolve_for(Population::new(config, 13), 20, distinct);
    assert_eq!(row, (3879735734429330249, 4639394227145408512, 1));
}

/// Inputs 0–2, outputs 3–4, hidden 5–7: two cycles (5 ⇄ 6 and a
/// self-loop on output 4) and output 3 downstream of the first.
#[test]
fn compile_reports_the_first_stuck_node_of_a_cyclic_genome() {
    let mut tracker = InnovationTracker::with_reserved_nodes(5);
    let mut genome = Genome::bare(3, 2);
    let a = genome.add_connection(0, 3, 0.5, &mut tracker).unwrap();
    genome.add_connection(1, 3, -0.5, &mut tracker).unwrap();
    let b = genome.add_connection(2, 4, 0.25, &mut tracker).unwrap();
    genome.add_connection(0, 4, 1.0, &mut tracker).unwrap();
    let activation = e3::neat::Activation::Tanh;
    let h5 = genome
        .split_connection(a, activation, &mut tracker)
        .unwrap();
    let h6 = genome
        .split_connection(b, activation, &mut tracker)
        .unwrap();
    let c = genome.connection_between(1, 3).unwrap().innovation;
    genome
        .split_connection(c, activation, &mut tracker)
        .unwrap();
    genome.add_connection(h5, h6, 0.75, &mut tracker).unwrap();
    genome
        .add_connection_unchecked(h6, h5, -0.75, &mut tracker)
        .unwrap();
    genome
        .add_connection_unchecked(4, 4, 0.1, &mut tracker)
        .unwrap();
    assert_eq!(NetPlan::compile(&genome), Err(DecodeError::Cycle(3)));
}

/// Three connections name missing nodes; the first of them is disabled
/// and so does not count.
#[test]
fn compile_reports_the_first_enabled_dangling_gene() {
    let mut tracker = InnovationTracker::with_reserved_nodes(5);
    let mut genome = Genome::bare(3, 2);
    for (from, to) in [(0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4)] {
        genome.add_connection(from, to, 0.5, &mut tracker).unwrap();
    }
    // Innovations 0..6 in insertion order; each edit names one gene.
    let json = serde_json::to_string(&genome)
        .unwrap()
        .replace(
            r#""innovation":1,"from":1,"to":3,"weight":0.5,"enabled":true"#,
            r#""innovation":1,"from":1,"to":41,"weight":0.5,"enabled":false"#,
        )
        .replace(
            r#""innovation":3,"from":0,"#,
            r#""innovation":3,"from":42,"#,
        )
        .replace(
            r#""innovation":4,"from":1,"to":4,"#,
            r#""innovation":4,"from":1,"to":43,"#,
        );
    for edit in [r#""to":41"#, r#""from":42"#, r#""to":43"#] {
        assert!(json.contains(edit), "{edit} applied");
    }
    let genome: Genome = serde_json::from_str(&json).unwrap();
    assert_eq!(
        NetPlan::compile(&genome),
        Err(DecodeError::DanglingConnection { from: 42, to: 4 })
    );
}
