//! `e3-exec`: a deterministic parallel evaluation engine for the E3
//! evolve/evaluate loop.
//!
//! The paper's INAX accelerator evaluates a population of `p`
//! individuals as `⌈p/num_pu⌉` waves across its PU cluster (§V-B); the
//! host-side analogue implemented here shards a population across N
//! worker threads — "virtual PUs" — and reduces the per-shard results
//! in **index order**, so the outcome is bit-identical to a serial
//! evaluation no matter how many workers run or which worker picked up
//! which shard.
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
//!    steal counts, cache hit rates) are collected on the side and
//!    never fed back into the computation.
//!
//! The entry point is the [`Executor`] trait with two implementations:
//! [`SerialExecutor`] (the reference — runs shards in order on the
//! calling thread) and [`ThreadPoolExecutor`] (a persistent
//! work-stealing pool built on `crossbeam` deques/channels and
//! `parking_lot`). [`AnyExecutor`] is the enum-dispatch wrapper the
//! platform backends hold, and [`SharedExecutor`] clones one pool
//! into many concurrent runs (multi-run time-slicing for the islands
//! service).
//!
//! Each worker keeps a [`DecodeCache`] of compiled `NetPlan`s for the
//! task kernels to whom an entry is worth more than a recompile (a
//! fingerprint lookup costs about as much as compiling the plan, so
//! kernels that need only the plan compile it themselves — see the
//! cache's module docs). Under an enabled [`JitConfig`] the cache
//! *tiers* execution: entries that stay hot across lookups are
//! promoted to natively compiled code ([`TierExec`], backed by
//! `e3-jit`), with the interpreter remaining the bit-exact oracle and
//! permanent fallback.

#![warn(missing_docs)]

mod cache;
mod executor;
mod pool;
pub mod rng;
mod shared;
mod stats;

pub use cache::{CacheCounters, DecodeCache, TierExec};
pub use e3_jit::JitConfig;
pub use executor::{
    shard_plan, AnyExecutor, ExecError, Executor, SerialExecutor, ShardRun, WorkerScratch,
};
pub use pool::ThreadPoolExecutor;
pub use shared::{PoolSnapshot, SharedExecutor};
pub use stats::{ExecStats, ExecStatsState};
