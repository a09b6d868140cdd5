//! The persistent work-stealing thread pool.
//!
//! Workers are spawned once and live for the executor's lifetime (the
//! paper's PU cluster analogue: the pool is the "virtual PU" array and
//! a `run_shards` call is one evaluation wave). Each job pushes its
//! shards onto per-worker *home* queues (`crossbeam::deque::Injector`)
//! in round-robin order; a worker drains its own queue first and then
//! steals from siblings, so load imbalance between shards (episodes
//! terminate at different steps) is absorbed without any effect on the
//! results — reduction is by item index, never by completion order.
//!
//! Worker panics inside a shard task are contained (`run_contained`,
//! shared with the serial executor) and surface as
//! [`ExecError::ShardPanicked`]; the pool stays usable afterwards.

use crate::executor::{run_contained, shard_plan, ExecError, Executor, ShardRun, WorkerScratch};
use crate::stats::ExecStats;
use crossbeam::channel::{self, Receiver, Sender};
use crossbeam::deque::{Injector, Steal};
use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Type-erased shard body: `(scratch, range) -> boxed Vec<T>`.
type ErasedTask =
    Box<dyn Fn(&mut WorkerScratch, Range<usize>) -> Box<dyn Any + Send> + Send + Sync>;

/// One job submitted to the pool: the shard queues, the erased task,
/// and the channel results flow back on.
struct JobShared {
    /// Home queue per worker; shard `s` starts on queue `s % workers`.
    queues: Vec<Injector<(usize, usize)>>,
    task: ErasedTask,
    done_tx: Sender<PoolMsg>,
}

enum WorkerMsg {
    Run(Arc<JobShared>),
    Shutdown,
}

enum PoolMsg {
    Shard {
        start: usize,
        stolen: bool,
        seconds: f64,
        payload: Result<Box<dyn Any + Send>, String>,
    },
    WorkerDone {
        worker: usize,
        busy_seconds: f64,
    },
}

/// A persistent pool of `threads` workers executing shard jobs with
/// work stealing.
pub struct ThreadPoolExecutor {
    senders: Vec<Sender<WorkerMsg>>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPoolExecutor {
    /// Spawns `threads` persistent workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or the OS refuses to spawn a thread.
    pub(crate) fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for index in 0..threads {
            let (tx, rx) = channel::unbounded();
            senders.push(tx);
            let handle = std::thread::Builder::new()
                .name(format!("e3-exec-worker-{index}"))
                .spawn(move || worker_main(index, rx))
                .expect("spawn pool worker");
            handles.push(handle);
        }
        ThreadPoolExecutor { senders, handles }
    }
}

impl fmt::Debug for ThreadPoolExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPoolExecutor")
            .field("workers", &self.senders.len())
            .finish()
    }
}

impl Drop for ThreadPoolExecutor {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A worker's event loop: wait for a job, drain home queue, steal from
/// siblings, report, repeat.
fn worker_main(index: usize, rx: Receiver<WorkerMsg>) {
    let mut scratch = WorkerScratch { index };
    while let Ok(msg) = rx.recv() {
        let job = match msg {
            WorkerMsg::Run(job) => job,
            WorkerMsg::Shutdown => break,
        };
        let workers = job.queues.len();
        let mut busy_seconds = 0.0f64;
        loop {
            // Own home queue first, then round-robin over siblings.
            let mut claimed = None;
            if let Steal::Success(shard) = job.queues[index].steal() {
                claimed = Some((shard, false));
            } else {
                for offset in 1..workers {
                    let victim = (index + offset) % workers;
                    if let Steal::Success(shard) = job.queues[victim].steal() {
                        claimed = Some((shard, true));
                        break;
                    }
                }
            }
            let Some(((start, end), stolen)) = claimed else {
                break; // every queue drained: this wave is over for us
            };
            let t0 = Instant::now();
            let payload = run_contained(|| (job.task)(&mut scratch, start..end));
            let seconds = t0.elapsed().as_secs_f64();
            busy_seconds += seconds;
            if job
                .done_tx
                .send(PoolMsg::Shard {
                    start,
                    stolen,
                    seconds,
                    payload,
                })
                .is_err()
            {
                break; // submitter gave up on the job
            }
        }
        let _ = job.done_tx.send(PoolMsg::WorkerDone {
            worker: index,
            busy_seconds,
        });
    }
}

impl Executor for ThreadPoolExecutor {
    fn workers(&self) -> usize {
        self.senders.len()
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
        let workers = self.senders.len();
        let plan = shard_plan(num_items, shard_size);
        let num_shards = plan.len();

        let (done_tx, done_rx) = channel::unbounded();
        let job = Arc::new(JobShared {
            queues: (0..workers).map(|_| Injector::new()).collect(),
            task: Box::new(move |scratch, range| Box::new(task(scratch, range))),
            done_tx,
        });
        // Round-robin home assignment: shard s is "resident" on virtual
        // PU s % workers, mirroring the INAX wave layout.
        let mut queue_depths = vec![0usize; workers];
        for (shard_idx, &shard) in plan.iter().enumerate() {
            job.queues[shard_idx % workers].push(shard);
            queue_depths[shard_idx % workers] += 1;
        }
        for tx in &self.senders {
            if tx.send(WorkerMsg::Run(Arc::clone(&job))).is_err() {
                return Err(ExecError::WorkerLost);
            }
        }
        drop(job); // workers hold the remaining references

        let mut slots: Vec<Option<Vec<T>>> = (0..num_shards).map(|_| None).collect();
        let mut stats = ExecStats {
            workers,
            shards: num_shards,
            items: num_items,
            shard_seconds: vec![0.0; num_shards],
            busy_seconds: vec![0.0; workers],
            queue_depths,
            ..ExecStats::default()
        };
        let mut first_panic: Option<(usize, String)> = None;
        let mut shards_seen = 0usize;
        let mut workers_done = 0usize;
        while shards_seen < num_shards || workers_done < workers {
            let msg = done_rx.recv().map_err(|_| ExecError::WorkerLost)?;
            match msg {
                PoolMsg::Shard {
                    start,
                    stolen,
                    seconds,
                    payload,
                } => {
                    shards_seen += 1;
                    let shard_idx = start / shard_size;
                    stats.shard_seconds[shard_idx] = seconds;
                    if stolen {
                        stats.steal_count += 1;
                    }
                    match payload {
                        Ok(boxed) => {
                            let values = *boxed
                                .downcast::<Vec<T>>()
                                .expect("payload type fixed by the submitting call");
                            slots[shard_idx] = Some(values);
                        }
                        Err(message) => {
                            // Deterministic error selection: keep the
                            // panic of the lowest-indexed shard.
                            if first_panic.as_ref().is_none_or(|(s, _)| start < *s) {
                                first_panic = Some((start, message));
                            }
                        }
                    }
                }
                PoolMsg::WorkerDone {
                    worker,
                    busy_seconds,
                } => {
                    workers_done += 1;
                    stats.busy_seconds[worker] = busy_seconds;
                }
            }
        }
        if let Some((shard_start, message)) = first_panic {
            return Err(ExecError::ShardPanicked {
                shard_start,
                message,
            });
        }

        // Index-ordered reduction: concatenate shard results lowest
        // index first, exactly as the serial loop would have.
        let mut results = Vec::with_capacity(num_items);
        for (shard_idx, slot) in slots.into_iter().enumerate() {
            let (start, end) = plan[shard_idx];
            let values = slot.expect("every shard reported exactly once");
            assert_eq!(
                values.len(),
                end - start,
                "task must return one value per item"
            );
            results.extend(values);
        }
        stats.wall_seconds = t0.elapsed().as_secs_f64();
        Ok(ShardRun { results, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SerialExecutor;
    use crate::{AnyExecutor, SharedExecutor};

    #[test]
    fn pool_matches_serial_bit_for_bit() {
        let work = |_: &mut WorkerScratch, range: Range<usize>| -> Vec<f64> {
            range
                .map(|i| (i as f64 * 0.1).sin() + 1.0 / (i as f64 + 1.0))
                .collect()
        };
        let mut serial = SerialExecutor::new();
        let reference = serial.run_shards(101, 7, work).expect("serial").results;
        for threads in [2, 4, 8] {
            let mut pool = ThreadPoolExecutor::new(threads);
            let run = pool.run_shards(101, 7, work).expect("pool");
            assert_eq!(run.results, reference, "threads={threads}");
            assert_eq!(run.stats.workers, threads);
            assert_eq!(run.stats.items, 101);
        }
    }

    #[test]
    fn pool_survives_repeated_jobs() {
        let mut pool = ThreadPoolExecutor::new(3);
        for round in 0..5u64 {
            let run = pool
                .run_shards(20, 4, move |_, range| {
                    range.map(|i| i as u64 + round).collect()
                })
                .expect("pool");
            assert_eq!(
                run.results,
                (0..20).map(|i| i as u64 + round).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn shard_panic_is_contained_and_reported_deterministically() {
        // The same fault is the same typed error at every thread count
        // and on every strategy, and each executor runs the next job.
        for mut exec in [
            AnyExecutor::Serial(SerialExecutor::new()),
            AnyExecutor::Pool(ThreadPoolExecutor::new(4)),
            AnyExecutor::Shared(SharedExecutor::new(4)),
        ] {
            let err = exec
                .run_shards(16, 2, |_, range| {
                    range
                        .inspect(|&i| {
                            assert!(i != 5 && i != 11, "boom at {i}");
                        })
                        .collect::<Vec<_>>()
                })
                .expect_err("two shards panic");
            // Shards [4,6) and [10,12) both die; the lowest-indexed one
            // is reported regardless of completion order.
            assert_eq!(
                err,
                ExecError::ShardPanicked {
                    shard_start: 4,
                    message: "boom at 5".to_string(),
                },
                "{exec:?}"
            );
            let run = exec
                .run_shards(8, 2, |_, range| range.collect::<Vec<_>>())
                .expect("executor recovered");
            assert_eq!(run.results, (0..8).collect::<Vec<_>>(), "{exec:?}");
        }
    }

    #[test]
    fn stats_account_for_every_shard_and_worker() {
        let mut pool = ThreadPoolExecutor::new(2);
        let run = pool
            .run_shards(30, 4, |_, range| range.collect::<Vec<_>>())
            .expect("pool");
        assert_eq!(run.stats.shards, 8);
        assert_eq!(run.stats.shard_seconds.len(), 8);
        assert_eq!(run.stats.busy_seconds.len(), 2);
        // Round-robin home assignment: 8 shards over 2 workers.
        assert_eq!(run.stats.queue_depths, vec![4, 4]);
        assert!(run.stats.wall_seconds >= 0.0);
        assert!(run.stats.worker_utilization() <= 1.0);
    }
}
