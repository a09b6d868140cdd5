//! # e3-neat — NEAT for the E3 platform
//!
//! A from-scratch implementation of NEAT (NeuroEvolution of Augmenting
//! Topologies, Stanley & Miikkulainen 2002) as used by the E3 HW/SW
//! co-design platform (Kao & Krishna, ISPASS 2021).
//!
//! NEAT evolves both the **topology** and the **weights** of small
//! feed-forward neural networks with a genetic algorithm:
//!
//! * a [`Genome`] is a list of node genes and connection genes, each
//!   connection tagged with a global *innovation number* so that
//!   structurally-matching genes can be aligned during crossover;
//! * an [`InnovationTracker`] hands out innovation numbers and guarantees
//!   that the same structural mutation discovered twice in one generation
//!   receives the same number;
//! * a [`Population`] evaluates genomes (through any fitness function —
//!   in E3 this is offloaded to the INAX accelerator), groups them into
//!   [`Species`] by topological similarity, and reproduces the next
//!   generation with elitism, crossover and mutation;
//! * decoding a genome produces a [`NetPlan`] — a flat CSR compiled
//!   IR with nodes in topological order grouped into *levels*, which
//!   is exactly the schedulable unit the INAX accelerator consumes —
//!   and a [`Network`] executes that plan in software with a reusable
//!   value buffer (see `plan` for the layout and slot convention).
//!
//! The networks NEAT evolves are **irregular**: connections may skip
//! levels and fan in from any earlier node, which is the central
//! challenge the E3 paper's INAX accelerator addresses.
//!
//! ## Example
//!
//! Evolve a genome that computes XOR:
//!
//! ```
//! use e3_neat::{NeatConfig, Population};
//!
//! let cases = [([0.0, 0.0], 0.0), ([0.0, 1.0], 1.0),
//!               ([1.0, 0.0], 1.0), ([1.0, 1.0], 0.0)];
//! let config = NeatConfig::builder(2, 1).population_size(150).build();
//! let mut pop = Population::new(config, 42);
//! for _ in 0..50 {
//!     pop.evaluate(|genome| {
//!         let mut net = genome.decode().expect("feed-forward genome");
//!         let mut fitness = 4.0;
//!         for (input, want) in &cases {
//!             let out = net.activate(input)[0];
//!             fitness -= (out - want) * (out - want);
//!         }
//!         fitness
//!     });
//!     if pop.best().map_or(false, |b| b.fitness > 3.5) { break; }
//!     pop.evolve();
//! }
//! assert!(pop.best().is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod activation;
mod config;
mod genome;
mod innovation;
mod network;
mod plan;
mod plan_batch;
pub mod population;
mod reference;
mod species;
pub mod stats;

mod error;

pub use activation::{tanh_argmax, Activation};
pub use config::NeatConfig;
pub use error::DecodeError;
pub use genome::{Genome, NodeKind};
pub use innovation::InnovationTracker;
pub use network::Network;
pub use plan::NetPlan;
pub use plan_batch::PlanBatch;
pub use population::{Population, PopulationSnapshot};
pub use reference::ReferenceNetwork;
pub use species::Species;
