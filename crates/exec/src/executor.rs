//! The [`Executor`] trait, the serial reference implementation, and
//! the enum-dispatch wrapper backends hold.

use crate::pool::ThreadPoolExecutor;
use crate::stats::ExecStats;
use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What a shard task learns about the worker running it: its index,
/// nothing else. The engine keeps no state between jobs on a task's
/// behalf.
#[derive(Debug)]
pub struct WorkerScratch {
    pub(crate) index: usize,
}

impl WorkerScratch {
    /// Index of the worker running this shard, in `0..workers` (0 for
    /// the serial executor). A worker runs one shard at a time, so a
    /// task may use it to label spans or to pick a per-worker slot of
    /// state it owns itself — **results must not depend on it**.
    pub fn worker_index(&self) -> usize {
        self.index
    }
}

/// Why a [`Executor::run_shards`] call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A shard task panicked; the panic was contained to its shard.
    ShardPanicked {
        /// First item index of the panicking shard.
        shard_start: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A worker disappeared without delivering its results (the pool
    /// is unusable afterwards).
    WorkerLost,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::ShardPanicked {
                shard_start,
                message,
            } => write!(
                f,
                "shard starting at item {shard_start} panicked: {message}"
            ),
            ExecError::WorkerLost => f.write_str("a worker thread was lost mid-job"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Runs one shard body, containing a panic to it: every executor turns
/// the `Err` (the panic's message) into [`ExecError::ShardPanicked`]
/// and stays usable.
pub(crate) fn run_contained<R>(body: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(body)).map_err(|panic| panic_message(panic.as_ref()))
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The results of one sharded run: per-item values in **item-index
/// order** plus write-only execution stats.
#[derive(Debug)]
pub struct ShardRun<T> {
    /// One result per item, index `i` holding item `i`'s value.
    pub results: Vec<T>,
    /// How the run executed (nondeterministic; observability only).
    pub stats: ExecStats,
}

/// Splits `num_items` into contiguous `(start, end)` shards of at most
/// `shard_size` items. Shard boundaries depend only on the two
/// arguments, never on worker count or timing, so every executor
/// produces the same plan.
pub(crate) fn shard_plan(num_items: usize, shard_size: usize) -> Vec<(usize, usize)> {
    assert!(shard_size > 0, "shard size must be positive");
    (0..num_items)
        .step_by(shard_size)
        .map(|start| (start, (start + shard_size).min(num_items)))
        .collect()
}

/// An execution strategy for embarrassingly parallel per-item work.
///
/// `run_shards` splits `0..num_items` into contiguous shards (see
/// `shard_plan`), evaluates `task` once per shard, and returns the
/// per-item results in index order. The task receives the shard's item
/// range plus the executing worker's [`WorkerScratch`] and must return
/// exactly one value per item in the range.
///
/// # Determinism contract
///
/// Implementations guarantee the returned `results` vector is
/// identical to what `SerialExecutor` produces **provided the task
/// closure is itself deterministic in the item index** (no
/// worker-identity inputs, no shared mutable state, RNG derived via
/// [`crate::rng`]). The [`ExecStats`] are exempt: they describe the
/// (nondeterministic) execution schedule.
pub trait Executor {
    /// Number of workers (virtual PUs) this executor runs shards on.
    fn workers(&self) -> usize;

    /// Runs `task` over every shard of `0..num_items` and reduces the
    /// results in index order.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if a shard task panicked or a worker was
    /// lost.
    ///
    /// # Panics
    ///
    /// Panics if `shard_size == 0` or `task` returns the wrong number
    /// of results for a shard.
    fn run_shards<T, F>(
        &mut self,
        num_items: usize,
        shard_size: usize,
        task: F,
    ) -> Result<ShardRun<T>, ExecError>
    where
        T: Send + 'static,
        F: Fn(&mut WorkerScratch, Range<usize>) -> Vec<T> + Send + Sync + 'static;
}

/// The reference executor: runs every shard on the calling thread, in
/// shard order. This is by definition the serial semantics the
/// parallel executors must reproduce bit-for-bit — including the
/// failure: a panicking shard task is contained and surfaces as the
/// same [`ExecError::ShardPanicked`] a pool reports.
#[derive(Debug, Default)]
pub struct SerialExecutor;

impl SerialExecutor {
    /// Creates the serial executor.
    pub(crate) fn new() -> Self {
        SerialExecutor
    }
}

impl Executor for SerialExecutor {
    fn workers(&self) -> usize {
        1
    }

    fn run_shards<T, F>(
        &mut self,
        num_items: usize,
        shard_size: usize,
        task: F,
    ) -> Result<ShardRun<T>, ExecError>
    where
        T: Send + 'static,
        F: Fn(&mut WorkerScratch, Range<usize>) -> Vec<T> + Send + Sync + 'static,
    {
        let t0 = Instant::now();
        let plan = shard_plan(num_items, shard_size);
        let mut scratch = WorkerScratch { index: 0 };
        let mut results = Vec::with_capacity(num_items);
        let mut shard_seconds = Vec::with_capacity(plan.len());
        for &(start, end) in &plan {
            let shard_t0 = Instant::now();
            // Shards run in index order, so the first panic met is the
            // lowest-indexed one — the error the pool selects.
            let shard = run_contained(|| task(&mut scratch, start..end)).map_err(|message| {
                ExecError::ShardPanicked {
                    shard_start: start,
                    message,
                }
            })?;
            assert_eq!(
                shard.len(),
                end - start,
                "task must return one value per item"
            );
            results.extend(shard);
            shard_seconds.push(shard_t0.elapsed().as_secs_f64());
        }
        let busy = shard_seconds.iter().sum();
        Ok(ShardRun {
            results,
            stats: ExecStats {
                workers: 1,
                shards: plan.len(),
                items: num_items,
                shard_seconds,
                steal_count: 0,
                busy_seconds: vec![busy],
                queue_depths: vec![plan.len()],
                wall_seconds: t0.elapsed().as_secs_f64(),
            },
        })
    }
}

/// An executor of any strategy behind one concrete type (enum
/// dispatch, so holders stay `Debug` and cheap to construct).
#[derive(Debug)]
pub enum AnyExecutor {
    /// Single-threaded reference execution.
    Serial(SerialExecutor),
    /// Persistent work-stealing pool.
    Pool(ThreadPoolExecutor),
    /// A handle to a pool shared with other runs (multi-run
    /// time-slicing; see [`crate::SharedExecutor`]).
    Shared(crate::SharedExecutor),
}

impl AnyExecutor {
    /// Creates an executor with `threads` workers: serial for 1, a
    /// thread pool otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        if threads == 1 {
            AnyExecutor::Serial(SerialExecutor::new())
        } else {
            AnyExecutor::Pool(ThreadPoolExecutor::new(threads))
        }
    }
}

impl Executor for AnyExecutor {
    fn workers(&self) -> usize {
        match self {
            AnyExecutor::Serial(e) => e.workers(),
            AnyExecutor::Pool(e) => e.workers(),
            AnyExecutor::Shared(e) => e.workers(),
        }
    }

    fn run_shards<T, F>(
        &mut self,
        num_items: usize,
        shard_size: usize,
        task: F,
    ) -> Result<ShardRun<T>, ExecError>
    where
        T: Send + 'static,
        F: Fn(&mut WorkerScratch, Range<usize>) -> Vec<T> + Send + Sync + 'static,
    {
        match self {
            AnyExecutor::Serial(e) => e.run_shards(num_items, shard_size, task),
            AnyExecutor::Pool(e) => e.run_shards(num_items, shard_size, task),
            AnyExecutor::Shared(e) => e.run_shards(num_items, shard_size, task),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_covers_range_exactly_once() {
        for (items, size) in [(0usize, 3usize), (1, 1), (7, 3), (8, 4), (9, 100)] {
            let plan = shard_plan(items, size);
            let mut covered = Vec::new();
            for &(start, end) in &plan {
                assert!(start < end || items == 0);
                assert!(end - start <= size);
                covered.extend(start..end);
            }
            assert_eq!(covered, (0..items).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_executor_preserves_index_order() {
        let mut exec = SerialExecutor::new();
        let run = exec
            .run_shards(10, 3, |_, range| range.map(|i| i * i).collect())
            .expect("no panics");
        assert_eq!(run.results, (0..10).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(run.stats.shards, 4);
        assert_eq!(run.stats.steal_count, 0);
        assert_eq!(run.stats.workers, 1);
    }

    #[test]
    fn empty_input_yields_empty_run() {
        let mut exec = AnyExecutor::new(1);
        let run = exec
            .run_shards(0, 4, |_, range| range.collect::<Vec<usize>>())
            .expect("no panics");
        assert!(run.results.is_empty());
        assert_eq!(run.stats.shards, 0);
    }

    #[test]
    fn any_executor_selects_strategy_by_thread_count() {
        assert!(matches!(AnyExecutor::new(1), AnyExecutor::Serial(_)));
        assert!(matches!(AnyExecutor::new(4), AnyExecutor::Pool(_)));
        assert_eq!(AnyExecutor::new(4).workers(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = AnyExecutor::new(0);
    }
}
