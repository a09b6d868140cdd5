//! One worker pool time-sliced across many concurrent runs.
//!
//! A long-running service hosts N runs (islands, experiments) at
//! once, but spawning N thread pools would oversubscribe the machine
//! N-fold. [`SharedExecutor`] is the multi-run answer: one underlying
//! [`AnyExecutor`] behind an `Arc<Mutex<…>>`, cloned into every run's
//! backend. Each `run_shards` call acquires the pool for exactly one
//! population evaluation, so concurrent runs interleave at evaluation
//! granularity — while one run's evaluation occupies the pool, other
//! runs' evolve phases proceed on their own scheduler threads, which
//! is precisely the evolve/evaluate overlap of CLAN-style
//! asynchronous neuroevolution.
//!
//! Sharing never affects results: the determinism contract of
//! [`Executor`] is per-call (index-ordered reduction, no cross-call
//! state that can change values), so interleaving calls from many
//! runs leaves every run's results bit-identical to running alone.
//! Only the [`crate::stats::ExecStats`] — wall times, steal counts —
//! reflect contention.

use crate::executor::{AnyExecutor, ExecError, Executor, ShardRun, WorkerScratch};
use parking_lot::Mutex;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Live pool gauges every clone of a [`SharedExecutor`] updates —
/// what an observability plane samples on a ticker to see queue
/// pressure while evaluations are in flight, without waiting for the
/// post-hoc [`crate::stats::ExecStats`] record.
#[derive(Debug, Default)]
struct PoolGauges {
    /// `run_shards` calls currently holding the pool (0 or 1 per
    /// pool, summed over clones — >1 means callers are queued on the
    /// pool mutex).
    evals_in_flight: AtomicUsize,
    /// Total `run_shards` calls completed over the pool's lifetime.
    evals_total: AtomicU64,
    /// Per-worker shard queue depths from the most recent call.
    last_queue_depths: Mutex<Vec<usize>>,
}

/// A point-in-time copy of the live pool gauges — see
/// [`SharedExecutor::snapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PoolSnapshot {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Handles currently pointing at the pool (runs + observers).
    pub handles: usize,
    /// `run_shards` calls in flight right now (callers queued on the
    /// pool count too).
    pub evals_in_flight: usize,
    /// `run_shards` calls completed since the pool was built.
    pub evals_total: u64,
    /// Per-worker shard queue depths of the most recent call (empty
    /// before the first call).
    pub last_queue_depths: Vec<usize>,
}

/// A cloneable handle to one executor shared by many runs.
///
/// ```
/// use e3_exec::{Executor, SharedExecutor};
///
/// let shared = SharedExecutor::new(2);
/// let mut a = shared.clone();
/// let mut b = shared;
/// let ra = a.run_shards(4, 2, |_, r| r.map(|i| i * 10).collect::<Vec<_>>()).unwrap();
/// let rb = b.run_shards(4, 2, |_, r| r.map(|i| i + 1).collect::<Vec<_>>()).unwrap();
/// assert_eq!(ra.results, vec![0, 10, 20, 30]);
/// assert_eq!(rb.results, vec![1, 2, 3, 4]);
/// ```
#[derive(Clone)]
pub struct SharedExecutor {
    inner: Arc<Mutex<AnyExecutor>>,
    gauges: Arc<PoolGauges>,
    workers: usize,
}

impl SharedExecutor {
    /// Creates a shared pool with `threads` workers (serial for 1).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        SharedExecutor::from_executor(AnyExecutor::new(threads))
    }

    /// Wraps an existing executor for sharing.
    pub(crate) fn from_executor(exec: AnyExecutor) -> Self {
        let workers = exec.workers();
        SharedExecutor {
            inner: Arc::new(Mutex::new(exec)),
            gauges: Arc::new(PoolGauges::default()),
            workers,
        }
    }

    /// How many runs currently hold a handle to this pool (including
    /// this one). Observability only.
    pub(crate) fn handles(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// A point-in-time copy of the live pool gauges. Safe to call
    /// from any thread at any rate: reading never takes the pool
    /// mutex, so a scraper can never delay an evaluation.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            workers: self.workers,
            handles: self.handles(),
            evals_in_flight: self.gauges.evals_in_flight.load(Ordering::Relaxed),
            evals_total: self.gauges.evals_total.load(Ordering::Relaxed),
            last_queue_depths: self.gauges.last_queue_depths.lock().clone(),
        }
    }
}

impl fmt::Debug for SharedExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedExecutor")
            .field("workers", &self.workers)
            .field("handles", &self.handles())
            .finish()
    }
}

impl Executor for SharedExecutor {
    fn workers(&self) -> usize {
        self.workers
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
        // Hold the pool for the whole call: one population evaluation
        // is the time-slicing quantum.
        self.gauges.evals_in_flight.fetch_add(1, Ordering::Relaxed);
        let result = self.inner.lock().run_shards(num_items, shard_size, task);
        self.gauges.evals_in_flight.fetch_sub(1, Ordering::Relaxed);
        if let Ok(run) = &result {
            self.gauges.evals_total.fetch_add(1, Ordering::Relaxed);
            *self.gauges.last_queue_depths.lock() = run.stats.queue_depths.clone();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_results_match_exclusive_results() {
        let mut exclusive = AnyExecutor::new(2);
        let mut shared = SharedExecutor::new(2);
        let expected = exclusive
            .run_shards(17, 4, |_, r| r.map(|i| i * 3 + 1).collect::<Vec<_>>())
            .unwrap();
        let got = shared
            .run_shards(17, 4, |_, r| r.map(|i| i * 3 + 1).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(expected.results, got.results);
        assert_eq!(shared.workers(), 2);
    }

    #[test]
    fn interleaved_runs_stay_independent() {
        // Two "runs" alternate calls on one pool; each sees exactly
        // its own results, bit-identical to running alone.
        let shared = SharedExecutor::new(2);
        let mut run_a = shared.clone();
        let mut run_b = shared.clone();
        assert!(shared.handles() >= 3);
        for step in 0..4u64 {
            let a = run_a
                .run_shards(8, 2, move |_, r| {
                    r.map(|i| i as u64 * 100 + step).collect::<Vec<_>>()
                })
                .unwrap();
            let b = run_b
                .run_shards(8, 2, move |_, r| {
                    r.map(|i| i as u64 + 1000 * step).collect::<Vec<_>>()
                })
                .unwrap();
            assert_eq!(
                a.results,
                (0..8).map(|i| i * 100 + step).collect::<Vec<_>>()
            );
            assert_eq!(
                b.results,
                (0..8).map(|i| i + 1000 * step).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn snapshot_tracks_live_pool_gauges() {
        let shared = SharedExecutor::new(2);
        let before = shared.snapshot();
        assert_eq!(before.workers, 2);
        assert_eq!(before.evals_total, 0);
        assert_eq!(before.evals_in_flight, 0);
        assert!(before.last_queue_depths.is_empty());
        let mut run = shared.clone();
        run.run_shards(8, 2, |_, r| r.collect::<Vec<_>>()).unwrap();
        run.run_shards(8, 2, |_, r| r.collect::<Vec<_>>()).unwrap();
        // The clone and the original see the same gauges.
        let after = shared.snapshot();
        assert_eq!(after.evals_total, 2);
        assert_eq!(after.evals_in_flight, 0);
        // 8 items / shard_size 2 = 4 shards over 2 workers.
        assert_eq!(after.last_queue_depths, vec![2, 2]);
    }

    #[test]
    fn shared_pool_is_send_across_threads() {
        let shared = SharedExecutor::new(2);
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let mut exec = shared.clone();
                std::thread::spawn(move || {
                    exec.run_shards(10, 3, move |_, r| {
                        r.map(|i| i as u64 * (t + 1)).collect::<Vec<_>>()
                    })
                    .unwrap()
                    .results
                })
            })
            .collect();
        for (t, handle) in handles.into_iter().enumerate() {
            let got = handle.join().unwrap();
            assert_eq!(got, (0..10).map(|i| i * (t as u64 + 1)).collect::<Vec<_>>());
        }
    }
}
