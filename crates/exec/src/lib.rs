//! `e3-exec`: a deterministic shard engine for the E3 evolve/evaluate
//! loop.
//!
//! The paper's INAX accelerator evaluates a population of `p`
//! individuals as `⌈p/num_pu⌉` waves across its PU cluster (§V-B); the
//! host-side analogue implemented here shards `0..n` items across N
//! worker threads — "virtual PUs" — and reduces the per-shard results
//! in **index order**, so the outcome is bit-identical to a serial
//! run no matter how many workers run or which worker picked up which
//! shard. The engine knows nothing about what an item is: populations
//! and design-space sweeps are both just index ranges, and it keeps no
//! state between jobs on a task's behalf.
//!
//! Three rules give that guarantee:
//!
//! 1. **No worker-identity inputs.** A shard task may only depend on
//!    the item indices it was handed, never on which worker runs it.
//!    Per-individual RNG streams come from
//!    [`rng::stream_seed`]`(run_seed, generation, genome_index)`.
//! 2. **Index-ordered reduction.** Results are written into a slot per
//!    item and reduced lowest-index-first, so floating-point
//!    accumulation order matches the serial loop exactly.
//! 3. **Write-only observability.** [`ExecStats`] (shard wall times,
//!    steal counts, queue depths) are collected on the side and never
//!    fed back into the computation.
//!
//! The entry point is the [`Executor`] trait with two implementations:
//! `SerialExecutor` (the reference — runs shards in order on the
//! calling thread) and `ThreadPoolExecutor` (a persistent
//! work-stealing pool built on `crossbeam` deques/channels and
//! `parking_lot`). [`AnyExecutor`] is the enum-dispatch wrapper the
//! platform backends hold, and [`SharedExecutor`] clones one pool
//! into many concurrent runs (multi-run time-slicing for the islands
//! service).

#![warn(missing_docs)]

mod executor;
mod pool;
pub mod rng;
mod shared;
mod stats;

pub use executor::{run_contained, AnyExecutor, ExecError, Executor, WorkerScratch};
pub use shared::{PoolSnapshot, SharedExecutor};
pub use stats::ExecStats;
