//! # e3-platform — the Eval-Evol-Engine
//!
//! The E3 platform (paper §IV-B) runs NEAT's light "evolve" phase on
//! the CPU and offloads the heavy "evaluate" phase to a [`Backend`].
//! There is one backend and one evaluation kernel; the paper's three
//! settings are the `Pricing` it times that kernel with:
//!
//! * `Pricing::Cpu` — the paper's E3-CPU baseline: an
//!   interpreted-runtime cost model (the original system runs
//!   `neat-python`);
//! * `Pricing::Inax` — the paper's E3-INAX: the cycle-level INAX
//!   accelerator model behind DMA channels, fed the compiled plans and
//!   the episode lengths, with cycles converted to seconds at the
//!   configured clock;
//! * `Pricing::Gpu` — the paper's E3-GPU reference: an analytical
//!   GPU model dominated by kernel-launch and transfer overheads on
//!   small, irregular, per-individual workloads.
//!
//! All three compute **identical fitness values** for identical seeds
//! — by construction: it is the same computation — so runtime/energy
//! comparisons are apples-to-apples, exactly the paper's experimental
//! design. The one entry point, [`Backend::evaluate`], takes the
//! population, the environment, and a [`ScenarioSpec`] naming the
//! worlds and episode seeds every genome faces; evaluating on the
//! fixed default environment is the spec [`ScenarioSpec::fixed`].
//!
//! The [`experiments`] module contains one driver per table and figure
//! of the paper's evaluation; the `e3-bench` crate exposes them as a
//! CLI (`repro`).
//!
//! ## Quickstart
//!
//! ```
//! use e3_platform::{BackendKind, E3Config, E3Platform};
//! use e3_envs::EnvId;
//!
//! let config = E3Config::builder(EnvId::CartPole)
//!     .population_size(30)
//!     .max_generations(3)
//!     .build();
//! let platform = E3Platform::new(config, BackendKind::Inax, 42);
//! let outcome = platform.run().unwrap();
//! assert!(outcome.generations_run >= 1);
//! assert!(outcome.modeled_seconds > 0.0);
//! ```
//!
//! ## Telemetry
//!
//! The loop is instrumented with [`telemetry`] (re-export of
//! `e3-telemetry`): pass any `Collector` to
//! [`E3Platform::run_with`] to capture per-evaluation,
//! per-generation, and per-run records, in memory or as NDJSON.
//! Evaluation is fallible — a malformed (non-feed-forward) genome
//! surfaces as [`EvalError::NotFeedForward`] through
//! [`RunError`] instead of a panic.
//!
//! ## Parallel evaluation
//!
//! The backend evaluates its population through the [`exec`] engine
//! (re-export of `e3-exec`): `E3Config::builder(...).threads(n)`
//! shards the population across `n` worker threads ("virtual PUs")
//! under every pricing — an E3-INAX run shards exactly like an E3-CPU
//! one — with results bit-identical to the serial reference at any
//! thread count (see `tests/exec_parity.rs`).
//!
//! ## Checkpointing & resume
//!
//! `E3Config::builder(...).checkpoint(CheckpointPolicy::new(dir))`
//! snapshots the full run state (a [`RunState`]) into a crash-safe
//! `e3-store` directory every N generations;
//! [`E3Platform::resume`] recovers the newest intact snapshot and the
//! resumed run reproduces the uninterrupted run **bit-identically** —
//! same fitness trajectory, [`RunOutcome`], and telemetry
//! `Summary`, on every backend and at any thread count (see
//! `tests/resume_parity.rs`). A config/backend/seed fingerprint
//! embedded in each snapshot makes resuming the wrong run a typed
//! error.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod design_space;
mod energy;
pub mod experiments;
mod fpga;
mod platform;
mod scenario;
mod tier;
mod timing;

pub use backend::{Backend, BackendKind, EvalError};
pub use design_space::{sweep_design_space, DesignPoint};
pub use e3_exec as exec;
pub use e3_jit::JitConfig;
pub use e3_store::CheckpointPolicy;
pub use e3_telemetry as telemetry;
pub use energy::PowerModel;
pub use fpga::{FpgaBudget, FpgaResources};
pub use platform::{
    fingerprint, E3Config, E3ConfigBuilder, E3Platform, FunctionProfile, RunError, RunOutcome,
    RunState,
};
pub use scenario::{FitnessAggregation, HoldoutConfig, ScenarioConfig, ScenarioSpec};
pub use timing::{GpuCostModel, SwCostModel};
