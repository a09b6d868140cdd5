//! # e3-islands — asynchronous island evolution for the E3 platform
//!
//! Scales the single-population [`e3_platform::E3Platform`] to an
//! *archipelago*: N independent islands evolving concurrently over one
//! shared worker pool, periodically exchanging their best individuals.
//! The design follows the asynchronous-neuroevolution scheme of CLAN
//! (Kao et al.) referenced by the E3 paper: islands never wait at a
//! global barrier — while one island's population is being evaluated
//! on the shared pool, other islands run their (cheap, serial) evolve
//! phases, keeping the workers busy.
//!
//! ## The determinism contract
//!
//! Everything observable about a finished run — every island's final
//! population, bit for bit — is a pure function of the
//! [`IslandsConfig`]. Worker-pool width, driver-thread count, queue
//! discipline, scheduler interleaving, and kill/resume cycles are
//! wall-clock knobs only. The contract rests on three rules:
//!
//! 1. **Island evolution is deterministic** at any thread count (the
//!    `e3-exec` index-ordered reduction contract).
//! 2. **Migration is generation-indexed**: at a boundary after
//!    generation `g`, an island publishes its top-`M` emigrants keyed
//!    `(island, g)` *before* consuming its sources' `(source, g)`
//!    packets, and merges them in ascending source order through the
//!    RNG-neutral `Population::integrate_immigrants`. Who merges what
//!    depends only on the schedule, never on arrival order — and
//!    publish-before-consume makes the exchange deadlock-free.
//! 3. **Checkpoints and packets persist together**: each island
//!    checkpoints through `e3-store` into its own namespace
//!    (`island-NNNN/`), and every published packet is saved as a
//!    sidecar before the island can move past the boundary. A killed
//!    daemon resumes every island from its newest snapshot with the
//!    packets its replayed boundaries need already on the exchange.
//!
//! ## Quickstart
//!
//! ```
//! use e3_islands::{run_islands, IslandsConfig, RunOptions, SharedCollector};
//! use e3_platform::E3Config;
//! use e3_envs::EnvId;
//!
//! let base = E3Config::builder(EnvId::CartPole)
//!     .population_size(16)
//!     .max_generations(4)
//!     .target_fitness(f64::INFINITY)
//!     .build();
//! let config = IslandsConfig::builder(base)
//!     .islands(2)
//!     .migration_interval(2)
//!     .build();
//! let outcome = run_islands(
//!     config,
//!     &RunOptions::with_drivers(2),
//!     &SharedCollector::null(),
//! )
//! .unwrap();
//! assert!(outcome.completed);
//! assert_eq!(outcome.islands.len(), 2);
//! assert!(outcome.migrations > 0);
//! ```
//!
//! ## As a service
//!
//! [`RunManager`] wraps the scheduler in a daemon-shaped API: submit a
//! config, stream per-island NDJSON telemetry (flushed per record for
//! `tail -f`), poll the best genome, stop gracefully. See the
//! [`service`] module docs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod migration;
pub mod scheduler;
pub mod service;

pub use config::{island_seed, namespace, IslandsConfig, IslandsConfigBuilder, Topology};
pub use migration::{Exchange, MigrationPacket, PacketState, Retirement};
pub use scheduler::{
    population_fingerprint, run_islands, Archipelago, ArchipelagoOutcome, IslandOutcome,
    IslandProgress, Pickup, Progress, RunOptions, SharedCollector,
};
pub use service::{
    RunId, RunManager, RunSnapshot, RunStatus, SubmitOptions, DEFAULT_FLIGHT_RECORDER,
    DEFAULT_SAMPLE_INTERVAL,
};
