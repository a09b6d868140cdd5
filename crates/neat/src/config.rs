//! NEAT hyperparameter configuration.
//!
//! [`NeatConfig`] gathers every knob of the evolutionary loop. The
//! defaults follow the values used in the E3 paper's evaluation
//! (population 200, mutation and crossover rate 0.5, start with no
//! hidden nodes) with the remaining structural coefficients taken from
//! the NEAT paper and `neat-python` defaults.

use crate::activation::Activation;
use serde::{Deserialize, Serialize};

/// Full hyperparameter set for a NEAT run.
///
/// Construct with [`NeatConfig::builder`] which validates parameters,
/// or use [`NeatConfig::new`] for the paper defaults.
///
/// # Example
///
/// ```
/// use e3_neat::NeatConfig;
///
/// let config = NeatConfig::builder(8, 4)
///     .population_size(200)
///     .initial_hidden_nodes(30)
///     .initial_connection_density(0.2)
///     .build();
/// assert_eq!(config.num_inputs, 8);
/// assert_eq!(config.population_size, 200);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeatConfig {
    /// Number of input (sensor) nodes; fixed by the environment's
    /// observation size and constant across generations.
    pub num_inputs: usize,
    /// Number of output (action) nodes; fixed by the environment's
    /// action space and constant across generations.
    pub num_outputs: usize,
    /// Number of genomes per generation (the paper uses 200).
    pub population_size: usize,
    /// Hidden nodes present in generation-0 genomes. The paper starts
    /// learning runs with 0 and uses 30 for accelerator microbenchmarks.
    pub initial_hidden_nodes: usize,
    /// Fraction of all possible feed-forward connections instantiated in
    /// generation-0 genomes (the paper's "sparsity rate", default 0.2 for
    /// microbenchmarks; learning runs use fully-connected input→output).
    pub initial_connection_density: f64,

    /// Probability that a child is produced by crossover of two parents
    /// (otherwise it is a mutated clone of one parent). Paper: 0.5.
    pub crossover_rate: f64,
    /// Probability that each weight is perturbed during mutation.
    pub weight_mutate_rate: f64,
    /// Probability that a perturbed weight is instead replaced with a
    /// fresh random value.
    pub weight_replace_rate: f64,
    /// Standard deviation of the Gaussian weight perturbation.
    pub weight_perturb_sigma: f64,
    /// Absolute clamp applied to weights and biases after mutation.
    pub weight_max_abs: f64,
    /// Probability of adding a new connection gene during mutation.
    pub add_connection_rate: f64,
    /// Probability of splitting a connection with a new node during
    /// mutation.
    pub add_node_rate: f64,
    /// Probability of toggling a connection gene's enabled flag.
    pub toggle_enable_rate: f64,
    /// Probability of deleting a connection gene during mutation
    /// (explicit pruning; `neat-python` parity).
    pub delete_connection_rate: f64,
    /// Probability of deleting a hidden node (and its connections)
    /// during mutation.
    pub delete_node_rate: f64,
    /// Probability that each node's bias is perturbed during mutation.
    pub bias_mutate_rate: f64,
    /// Standard deviation of the Gaussian bias perturbation.
    pub bias_perturb_sigma: f64,
    /// Probability that a hidden node's activation function mutates.
    pub activation_mutate_rate: f64,
    /// Activation functions available to mutation.
    pub activation_options: Vec<Activation>,
    /// Activation used by output nodes (kept stable so the action
    /// decoding stays meaningful).
    pub output_activation: Activation,
    /// Probability that a disabled gene stays disabled in a crossover
    /// child when it is disabled in either parent (NEAT paper: 0.75).
    pub disable_in_child_rate: f64,

    /// Compatibility-distance coefficient for excess genes (`c1`).
    pub excess_coefficient: f64,
    /// Compatibility-distance coefficient for disjoint genes (`c2`).
    pub disjoint_coefficient: f64,
    /// Compatibility-distance coefficient for mean weight difference
    /// (`c3`).
    pub weight_coefficient: f64,
    /// Distance threshold under which two genomes share a species.
    pub compatibility_threshold: f64,
    /// Generations a species may go without fitness improvement before
    /// it is removed (stagnation).
    pub stagnation_limit: usize,
    /// Number of top genomes copied unchanged into the next generation.
    pub elitism: usize,
    /// Fraction of each species allowed to reproduce.
    pub survival_threshold: f64,
    /// Minimum number of members for a species to keep its elite.
    pub min_species_size: usize,
}

impl NeatConfig {
    /// Paper-default configuration for an environment with the given
    /// observation and action sizes.
    ///
    /// Equivalent to `NeatConfig::builder(num_inputs, num_outputs).build()`.
    pub fn new(num_inputs: usize, num_outputs: usize) -> Self {
        Self::builder(num_inputs, num_outputs).build()
    }

    /// Starts a `NeatConfigBuilder` with paper defaults.
    ///
    /// # Panics
    ///
    /// The terminal `NeatConfigBuilder::build` panics if
    /// `num_inputs == 0` or `num_outputs == 0`.
    pub fn builder(num_inputs: usize, num_outputs: usize) -> NeatConfigBuilder {
        NeatConfigBuilder {
            config: NeatConfig {
                num_inputs,
                num_outputs,
                population_size: 200,
                initial_hidden_nodes: 0,
                initial_connection_density: 1.0,
                crossover_rate: 0.5,
                weight_mutate_rate: 0.8,
                weight_replace_rate: 0.1,
                weight_perturb_sigma: 0.5,
                weight_max_abs: 8.0,
                add_connection_rate: 0.3,
                add_node_rate: 0.1,
                toggle_enable_rate: 0.02,
                delete_connection_rate: 0.05,
                delete_node_rate: 0.02,
                bias_mutate_rate: 0.7,
                bias_perturb_sigma: 0.3,
                activation_mutate_rate: 0.05,
                activation_options: vec![Activation::Sigmoid, Activation::Tanh, Activation::Relu],
                output_activation: Activation::Tanh,
                disable_in_child_rate: 0.75,
                excess_coefficient: 1.0,
                disjoint_coefficient: 1.0,
                weight_coefficient: 0.5,
                compatibility_threshold: 3.0,
                stagnation_limit: 15,
                elitism: 2,
                survival_threshold: 0.3,
                min_species_size: 2,
            },
        }
    }
}

impl Default for NeatConfig {
    /// A small default (4 inputs, 2 outputs) suitable for smoke tests.
    fn default() -> Self {
        Self::new(4, 2)
    }
}

/// Builder for [`NeatConfig`]; see [`NeatConfig::builder`].
#[derive(Debug, Clone)]
pub struct NeatConfigBuilder {
    config: NeatConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(mut self, value: $ty) -> Self {
                self.config.$name = value;
                self
            }
        )*
    };
}

impl NeatConfigBuilder {
    builder_setters! {
        /// Sets the number of genomes per generation.
        population_size: usize,
        /// Sets the number of hidden nodes in generation-0 genomes.
        initial_hidden_nodes: usize,
        /// Sets the fraction of possible connections instantiated at
        /// generation 0 (the paper's "sparsity rate").
        initial_connection_density: f64,
        /// Sets the crossover probability.
        crossover_rate: f64,
        /// Sets the per-weight perturbation probability.
        weight_mutate_rate: f64,
        /// Sets the probability a perturbed weight is replaced outright.
        weight_replace_rate: f64,
        /// Sets the weight perturbation standard deviation.
        weight_perturb_sigma: f64,
        /// Sets the add-connection mutation probability.
        add_connection_rate: f64,
        /// Sets the add-node mutation probability.
        add_node_rate: f64,
        /// Sets the enable/disable toggle probability.
        toggle_enable_rate: f64,
        /// Sets the delete-connection mutation probability.
        delete_connection_rate: f64,
        /// Sets the delete-node mutation probability.
        delete_node_rate: f64,
        /// Sets the per-bias perturbation probability.
        bias_mutate_rate: f64,
        /// Sets the activation-mutation probability for hidden nodes.
        activation_mutate_rate: f64,
        /// Sets the activation used by output nodes.
        output_activation: crate::Activation,
        /// Sets the species compatibility threshold.
        compatibility_threshold: f64,
        /// Sets the stagnation limit in generations.
        stagnation_limit: usize,
        /// Sets the number of elites copied unchanged per generation.
        elitism: usize,
        /// Sets the fraction of each species allowed to reproduce.
        survival_threshold: f64,
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any structural parameter is invalid: zero inputs or
    /// outputs, zero population, or probabilities outside `[0, 1]`.
    pub fn build(self) -> NeatConfig {
        let c = self.config;
        assert!(c.num_inputs > 0, "NEAT requires at least one input node");
        assert!(c.num_outputs > 0, "NEAT requires at least one output node");
        assert!(c.population_size > 0, "population size must be positive");
        for (name, p) in [
            ("initial_connection_density", c.initial_connection_density),
            ("crossover_rate", c.crossover_rate),
            ("weight_mutate_rate", c.weight_mutate_rate),
            ("weight_replace_rate", c.weight_replace_rate),
            ("add_connection_rate", c.add_connection_rate),
            ("add_node_rate", c.add_node_rate),
            ("toggle_enable_rate", c.toggle_enable_rate),
            ("delete_connection_rate", c.delete_connection_rate),
            ("delete_node_rate", c.delete_node_rate),
            ("bias_mutate_rate", c.bias_mutate_rate),
            ("activation_mutate_rate", c.activation_mutate_rate),
            ("disable_in_child_rate", c.disable_in_child_rate),
            ("survival_threshold", c.survival_threshold),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be in [0, 1], got {p}"
            );
        }
        assert!(c.weight_perturb_sigma >= 0.0, "sigma must be non-negative");
        assert!(
            !c.activation_options.is_empty(),
            "need at least one activation option"
        );
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_parameters() {
        let c = NeatConfig::new(8, 4);
        assert_eq!(c.population_size, 200);
        assert_eq!(c.crossover_rate, 0.5);
        assert_eq!(c.initial_hidden_nodes, 0);
    }

    #[test]
    fn builder_overrides_apply() {
        let c = NeatConfig::builder(3, 2)
            .population_size(50)
            .initial_hidden_nodes(30)
            .initial_connection_density(0.2)
            .build();
        assert_eq!(c.population_size, 50);
        assert_eq!(c.initial_hidden_nodes, 30);
        assert_eq!(c.initial_connection_density, 0.2);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn zero_inputs_rejected() {
        let _ = NeatConfig::builder(0, 1).build();
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn out_of_range_probability_rejected() {
        let _ = NeatConfig::builder(2, 1).crossover_rate(1.5).build();
    }
}
