//! # e3-inax — cycle-level simulator of the INAX accelerator
//!
//! INAX (Irregular Network Accelerator) is the E3 paper's hardware
//! contribution: an FPGA accelerator for the irregular feed-forward
//! networks that NEAT evolves. This crate is a deterministic
//! **cycle-level simulator** of INAX (the reproduction's substitute for
//! the Xilinx ZCU104 prototype — see DESIGN.md):
//!
//! * a `pe` (Processing Element) computes one node end-to-end with an
//!   **output-stationary** dataflow: it accumulates the node's MACs
//!   locally, adds the bias, applies the activation, and writes the
//!   result into the PU's value buffer;
//! * a [`PuSim`] (Processing Unit) owns one individual's network and a
//!   cluster of PEs: each topological *level* of the network is split
//!   into `⌈m/n⌉` waves across `n` PEs, with a synchronization barrier
//!   per wave (variable node in-degree ⇒ variable PE time ⇒ idle PEs,
//!   paper §V-A);
//! * an [`InaxAccelerator`] owns a cluster of PUs: the population is
//!   dispatched in batches of `num_pu` individuals, exploiting
//!   population-level parallelism (paper §V-B), with utilization
//!   accounting `U(r) = T_active(r) / T_total(r)` for both resource
//!   levels.
//!
//! Every view here reads the compiled [`e3_neat::NetPlan`] itself —
//! the plan *is* the weight-buffer contents (topology + weights) and
//! fixes the value-buffer layout — so nothing is re-encoded per genome.
//! The simulator is *functional* as well as timed: [`PuSim::infer`]
//! runs the plan's own interpreter into the PU's value buffer, so its
//! outputs are the software executor's by construction, and the timed
//! half is a function of the plan's shape (in-degrees and level
//! ranges) alone. Because the inference schedule never reads a value,
//! the timed half also stands alone: [`InaxAccelerator::run_episodes`]
//! accounts a batch's episodes from their lengths, counter for counter
//! what the closed [`InaxAccelerator::step`] loop leaves — which is how
//! the E3 platform prices an evaluation its one kernel already ran.
//!
//! ## Example
//!
//! ```
//! use e3_inax::{InaxConfig, PuSim};
//! use e3_neat::{Genome, InnovationTracker, NetPlan};
//!
//! let mut tracker = InnovationTracker::with_reserved_nodes(3);
//! let mut genome = Genome::bare(2, 1);
//! genome.add_connection(0, 2, 0.5, &mut tracker)?;
//! let plan = NetPlan::compile(&genome)?;
//! let config = InaxConfig::builder().num_pe(4).build();
//! let mut pu = PuSim::new(&config, plan);
//! let (outputs, profile) = pu.infer(&[1.0, 0.0]);
//! assert_eq!(outputs.len(), 1);
//! assert!(profile.total_cycles() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
mod config;
mod dma;
mod fpga_cost;
mod pe;
pub mod pipeline;
mod profile;
mod pu;
pub mod quant;
pub mod sparsity;
pub mod synthetic;
mod trace;

pub use cluster::{EpisodeRunReport, InaxAccelerator};
pub use config::{Dataflow, InaxConfig};
pub use pu::{schedule_inference, weight_stream_bytes, PuSim};
pub use trace::trace_inference;
