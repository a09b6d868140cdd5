//! The island-evolution run manager: a service boundary over the
//! archipelago scheduler.
//!
//! A [`RunManager`] owns background runs. The lifecycle is:
//!
//! 1. [`RunManager::submit`] a config — the archipelago is built (or
//!    resumed from its checkpoint directory) and starts evolving on a
//!    background thread; you get a [`RunId`] back.
//! 2. Stream telemetry: [`RunManager::subscribe`] hands out an
//!    `mpsc::Receiver<TelemetryEvent>` fed live, primed with a replay
//!    of the run's *flight recorder* (a bounded ring of the most
//!    recent records), so a late subscriber still sees recent history;
//!    with [`SubmitOptions::ndjson`] the same stream is also appended
//!    to an NDJSON file, flushed per record, so `tail -f` works while
//!    the daemon runs.
//! 3. Poll [`RunManager::status`] / [`RunManager::best`] /
//!    [`RunManager::snapshot`] for live progress without blocking.
//!    Every event also updates the manager's shared
//!    [`SharedRegistry`] under a `run="run-NNNN"` label, and a live
//!    source there reads the run's progress and pool gauges at scrape
//!    time — a Prometheus endpoint can scrape one registry for all
//!    runs.
//! 4. [`RunManager::stop`] for a graceful shutdown (islands finish the
//!    generation in hand; checkpoints and migration sidecars make the
//!    next submit resume bit-identically), or [`RunManager::join`] to
//!    wait for completion. Both return the [`ArchipelagoOutcome`], and
//!    both are idempotent: repeated calls replay the cached outcome
//!    (a failure replays as [`RunError::Service`] with the original
//!    message).
//!
//! The manager is deliberately transport-free: it *is* the daemon's
//! core, and a network front-end (HTTP, gRPC, a Unix socket) is a thin
//! codec over these calls — `e3-serve` is exactly that.

use crate::config::IslandsConfig;
use crate::scheduler::{
    Archipelago, ArchipelagoOutcome, IslandProgress, Progress, RunOptions, SharedCollector,
};
use e3_exec::{PoolSnapshot, SharedExecutor};
use e3_platform::RunError;
use e3_telemetry::{
    labeled, Collector, NdjsonWriter, SharedRegistry, TelemetryError, TelemetryEvent,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::BufWriter;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Capacity of the per-run flight recorder (events replayed to late
/// subscribers).
const DEFAULT_FLIGHT_RECORDER: usize = 256;

/// Handle to a submitted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunId(u64);

impl std::fmt::Display for RunId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run-{:04}", self.0)
    }
}

impl std::str::FromStr for RunId {
    type Err = std::num::ParseIntError;

    /// Parses both the canonical `run-0003` form and a bare index
    /// (`3`) — the inverse of [`RunId`]'s `Display`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.strip_prefix("run-").unwrap_or(s).parse().map(RunId)
    }
}

/// Where a run currently stands.
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus {
    /// Islands are evolving.
    Running,
    /// Every island retired; the outcome is available via
    /// [`RunManager::join`].
    Finished,
    /// A graceful stop ended the run before every island retired.
    Stopped,
    /// An island failed; the message is the [`RunError`] display.
    Failed(String),
}

impl RunStatus {
    /// A stable lower-case name for wire formats: `running`,
    /// `finished`, `stopped`, or `failed`.
    pub fn name(&self) -> &'static str {
        match self {
            RunStatus::Running => "running",
            RunStatus::Finished => "finished",
            RunStatus::Stopped => "stopped",
            RunStatus::Failed(_) => "failed",
        }
    }

    /// The failure message, for [`RunStatus::Failed`].
    pub(crate) fn error(&self) -> Option<&str> {
        match self {
            RunStatus::Failed(message) => Some(message),
            _ => None,
        }
    }
}

/// Per-submit execution knobs.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Driver threads (see [`RunOptions::drivers`]).
    pub drivers: usize,
    /// Append every telemetry record to this NDJSON file, flushed per
    /// record for live tailing.
    pub ndjson: Option<String>,
}

/// A point-in-time JSON-friendly view of one run — what a status
/// endpoint serves for `/runs/{id}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSnapshot {
    /// The run id in its canonical `run-NNNN` form.
    pub id: String,
    /// [`RunStatus::name`]: `running`, `finished`, `stopped`, or
    /// `failed`.
    pub status: String,
    /// The failure message when `status == "failed"`.
    pub error: Option<String>,
    /// Total generations completed across all islands.
    pub generations: usize,
    /// Migration merges performed so far.
    pub migrations: usize,
    /// Home island of the best individual so far.
    pub best_island: Option<usize>,
    /// Fitness of the best individual so far (`None` before the first
    /// evaluation, or when it is not a finite number).
    pub best_fitness: Option<f64>,
    /// Per-island live positions, island-indexed.
    pub islands: Vec<IslandProgress>,
    /// Live gauges of the executor pool the run evaluates on.
    pub pool: PoolSnapshot,
}

/// The per-run event hub: a bounded "flight recorder" ring of recent
/// events plus the live subscriber channels, under one lock so a
/// subscriber's replay-then-register is atomic with respect to
/// recording (no event can fall between its replay and its first live
/// delivery).
struct StreamHub {
    capacity: usize,
    state: Mutex<HubState>,
}

struct HubState {
    ring: VecDeque<TelemetryEvent>,
    subscribers: Vec<mpsc::Sender<TelemetryEvent>>,
    closed: bool,
}

impl StreamHub {
    fn new(capacity: usize) -> Self {
        StreamHub {
            capacity,
            state: Mutex::new(HubState {
                ring: VecDeque::with_capacity(capacity),
                subscribers: Vec::new(),
                closed: false,
            }),
        }
    }

    /// Appends to the ring (evicting the oldest record at capacity)
    /// and fans out to every live subscriber. `send` never blocks —
    /// the channels are unbounded — so a stalled consumer can never
    /// back-pressure the scheduler.
    fn record(&self, event: &TelemetryEvent) {
        let mut state = self.state.lock();
        if state.ring.len() == self.capacity {
            state.ring.pop_front();
        }
        state.ring.push_back(event.clone());
        state
            .subscribers
            .retain(|tx| tx.send(event.clone()).is_ok());
    }

    /// A fresh receiver, primed with the flight-recorder replay. On a
    /// closed hub the sender is dropped immediately, so the receiver
    /// yields the replay and then disconnects.
    fn subscribe(&self) -> mpsc::Receiver<TelemetryEvent> {
        let (tx, rx) = mpsc::channel();
        let mut state = self.state.lock();
        for event in &state.ring {
            let _ = tx.send(event.clone());
        }
        if !state.closed {
            state.subscribers.push(tx);
        }
        rx
    }

    /// Ends the stream: live subscribers see their channel close, and
    /// future subscribers get replay-then-disconnect.
    fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        state.subscribers.clear();
    }
}

/// A collector that fans each event out to an optional NDJSON file,
/// the run-labeled shared metrics registry, and the stream hub.
/// Subscriber and registry updates never block or fail; a file write
/// error fails the run.
struct FanOut {
    ndjson: Option<NdjsonWriter<BufWriter<File>>>,
    registry: SharedRegistry,
    label: String,
    hub: Arc<StreamHub>,
}

impl Collector for FanOut {
    fn record(&mut self, event: &TelemetryEvent) -> Result<(), TelemetryError> {
        if let Some(file) = &mut self.ndjson {
            file.record(event)?;
        }
        self.registry.observe_scoped(&[("run", &self.label)], event);
        self.hub.record(event);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), TelemetryError> {
        if let Some(file) = &mut self.ndjson {
            file.flush()?;
        }
        Ok(())
    }
}

/// One background run.
struct RunHandle {
    stop: Arc<AtomicBool>,
    progress: Arc<Progress>,
    hub: Arc<StreamHub>,
    status: Arc<Mutex<RunStatus>>,
    pool: SharedExecutor,
    worker: Option<JoinHandle<Result<ArchipelagoOutcome, RunError>>>,
    /// The joined worker's result, kept so `stop`/`join` are
    /// idempotent (errors cached by display string — `RunError` holds
    /// non-clonable sources).
    outcome: Option<Result<ArchipelagoOutcome, String>>,
}

/// Owns and supervises island-evolution runs. See the module docs for
/// the lifecycle.
#[derive(Default)]
pub struct RunManager {
    runs: HashMap<RunId, RunHandle>,
    next_id: u64,
    registry: SharedRegistry,
}

impl std::fmt::Debug for RunManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunManager")
            .field("runs", &self.runs.len())
            .finish_non_exhaustive()
    }
}

impl RunManager {
    /// A manager with no runs and a fresh metrics registry.
    pub fn new() -> Self {
        RunManager::default()
    }

    /// A manager recording into an existing shared registry — how a
    /// daemon points its scrape endpoint and its run manager at the
    /// same metrics.
    pub fn with_registry(registry: SharedRegistry) -> Self {
        let mut manager = RunManager::default();
        manager.registry = registry;
        manager
    }

    /// The live metrics registry every run records into (run-labeled).
    pub fn registry(&self) -> &SharedRegistry {
        &self.registry
    }

    /// Builds the archipelago (resuming any checkpoints under the
    /// configured directory) and starts it on a background thread.
    ///
    /// # Errors
    ///
    /// [`RunError`] if the archipelago cannot be built — a corrupt
    /// store, a namespace bound to a different island, or an NDJSON
    /// path that cannot be opened. Failures *after* submit surface
    /// through [`RunManager::status`] and [`RunManager::join`].
    pub fn submit(
        &mut self,
        config: IslandsConfig,
        opts: SubmitOptions,
    ) -> Result<RunId, RunError> {
        let archipelago = Archipelago::new(config)?;
        let ndjson = match &opts.ndjson {
            Some(path) => Some(NdjsonWriter::create(path).map_err(RunError::Telemetry)?),
            None => None,
        };
        let id = RunId(self.next_id);
        self.next_id += 1;
        let label = id.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let progress = archipelago.progress();
        let pool = archipelago.pool();
        let hub = Arc::new(StreamHub::new(DEFAULT_FLIGHT_RECORDER));
        let status = Arc::new(Mutex::new(RunStatus::Running));
        let run_opts = RunOptions {
            drivers: opts.drivers,
            stop: Some(Arc::clone(&stop)),
            ..RunOptions::default()
        };
        // Read at scrape time from atomics and the pool snapshot — never
        // the status or manager lock. The worker drops the handle when
        // the run returns or unwinds, writing the final values once.
        let gauges = self.registry.live_source(&label, {
            let (label, progress, pool) = (label.clone(), Arc::clone(&progress), pool.clone());
            move |metrics, live| {
                let scope = [("run", label.as_str())];
                let snapshot = pool.snapshot();
                for (name, value) in [
                    ("e3_run_up", if live { 1.0 } else { 0.0 }),
                    ("e3_run_generations", progress.generations() as f64),
                    ("e3_run_migrations", progress.migrations() as f64),
                    ("e3_pool_workers", snapshot.workers as f64),
                    ("e3_pool_evals_in_flight", snapshot.evals_in_flight as f64),
                    ("e3_pool_evals_total", snapshot.evals_total as f64),
                ] {
                    metrics.gauge_set(&labeled(name, &scope), value);
                }
                for (worker, depth) in snapshot.last_queue_depths.iter().enumerate() {
                    let worker = worker.to_string();
                    let scope = [("run", label.as_str()), ("worker", worker.as_str())];
                    metrics.gauge_set(&labeled("e3_exec_queue_depth", &scope), *depth as f64);
                }
            }
        });
        let collector = SharedCollector::new(FanOut {
            ndjson,
            registry: self.registry.clone(),
            label,
            hub: Arc::clone(&hub),
        });
        let worker_status = Arc::clone(&status);
        let worker_hub = Arc::clone(&hub);
        let worker = std::thread::spawn(move || {
            let result = archipelago.run(&run_opts, &collector);
            drop(gauges);
            *worker_status.lock() = match &result {
                Ok(outcome) if outcome.completed => RunStatus::Finished,
                Ok(_) => RunStatus::Stopped,
                Err(err) => RunStatus::Failed(err.to_string()),
            };
            // Close the stream as soon as the run ends — subscribers
            // see end-of-stream without waiting for a join.
            worker_hub.close();
            result
        });
        self.runs.insert(
            id,
            RunHandle {
                stop,
                progress,
                hub,
                status,
                pool,
                worker: Some(worker),
                outcome: None,
            },
        );
        Ok(id)
    }

    /// The run's current status, or `None` for an unknown id.
    pub fn status(&self, id: RunId) -> Option<RunStatus> {
        self.runs.get(&id).map(|run| run.status.lock().clone())
    }

    /// Subscribes to the run's live telemetry stream. The receiver is
    /// primed with the flight-recorder replay (the most recent
    /// records), then fed live; the channel closes when the run ends.
    /// Subscribing to a completed run yields the replay and then
    /// end-of-stream.
    pub fn subscribe(&self, id: RunId) -> Option<mpsc::Receiver<TelemetryEvent>> {
        Some(self.runs.get(&id)?.hub.subscribe())
    }

    /// A point-in-time JSON-friendly view of the run: status,
    /// per-island positions, migration count, and live pool gauges.
    pub fn snapshot(&self, id: RunId) -> Option<RunSnapshot> {
        let run = self.runs.get(&id)?;
        let status = run.status.lock().clone();
        let best = run.progress.best();
        let best_fitness = best
            .as_ref()
            .map(|(_, genome)| genome.fitness)
            .filter(|fitness| fitness.is_finite());
        Some(RunSnapshot {
            id: id.to_string(),
            status: status.name().to_string(),
            error: status.error().map(str::to_string),
            generations: run.progress.generations(),
            migrations: run.progress.migrations(),
            best_island: best.as_ref().map(|(island, _)| *island),
            best_fitness,
            islands: run.progress.islands(),
            pool: run.pool.snapshot(),
        })
    }

    /// Snapshots of every run, submission-ordered — what `/runs`
    /// serves.
    pub fn snapshots(&self) -> Vec<RunSnapshot> {
        self.runs()
            .into_iter()
            .filter_map(|id| self.snapshot(id))
            .collect()
    }

    /// Requests a graceful stop and waits for the drivers to drain:
    /// islands finish the generation in hand, checkpoints and
    /// migration sidecars stay consistent, and resubmitting the same
    /// config resumes bit-identically. Idempotent: repeated calls
    /// replay the cached outcome.
    ///
    /// # Errors
    ///
    /// The run's [`RunError`] if it failed ([`RunError::Service`] on
    /// replays).
    pub fn stop(&mut self, id: RunId) -> Option<Result<ArchipelagoOutcome, RunError>> {
        let run = self.runs.get_mut(&id)?;
        run.stop.store(true, Ordering::Relaxed);
        Some(Self::finish(run))
    }

    /// Waits for the run to finish on its own. Idempotent: repeated
    /// calls replay the cached outcome.
    ///
    /// # Errors
    ///
    /// The run's [`RunError`] if any island failed
    /// ([`RunError::Service`] on replays).
    pub fn join(&mut self, id: RunId) -> Option<Result<ArchipelagoOutcome, RunError>> {
        Some(Self::finish(self.runs.get_mut(&id)?))
    }

    /// Ids of all runs the manager knows, submission-ordered.
    pub fn runs(&self) -> Vec<RunId> {
        let mut ids: Vec<RunId> = self.runs.keys().copied().collect();
        ids.sort_by_key(|id| id.0);
        ids
    }

    fn finish(run: &mut RunHandle) -> Result<ArchipelagoOutcome, RunError> {
        let Some(worker) = run.worker.take() else {
            let cached = run
                .outcome
                .clone()
                .expect("a joined run caches its outcome");
            return cached.map_err(RunError::Service);
        };
        // Not a panic: callers may hold a lock (e3-serve's manager).
        let result = worker
            .join()
            .unwrap_or_else(|_| Err(RunError::Service("archipelago thread panicked".to_string())));
        run.hub.close();
        // Cache for idempotent repeats, return the typed original.
        run.outcome = Some(result.as_ref().cloned().map_err(|err| err.to_string()));
        result
    }
}

impl Drop for RunManager {
    /// Stops every still-running archipelago gracefully.
    fn drop(&mut self) {
        for run in self.runs.values_mut() {
            run.stop.store(true, Ordering::Relaxed);
            if let Some(worker) = run.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_envs::EnvId;
    use e3_platform::E3Config;

    fn config(max_generations: usize) -> IslandsConfig {
        let base = E3Config::builder(EnvId::CartPole)
            .population_size(16)
            .max_generations(max_generations)
            .target_fitness(f64::INFINITY)
            .build();
        IslandsConfig::builder(base)
            .islands(2)
            .migration_interval(2)
            .build()
    }

    fn fast_opts() -> SubmitOptions {
        SubmitOptions {
            ..SubmitOptions::default()
        }
    }

    #[test]
    fn submit_stream_join_lifecycle() {
        let mut manager = RunManager::new();
        let id = manager.submit(config(4), fast_opts()).unwrap();
        let stream = manager.subscribe(id).expect("known run");
        let outcome = manager.join(id).expect("known run").expect("clean run");
        assert!(outcome.completed);
        assert_eq!(manager.status(id), Some(RunStatus::Finished));
        let events: Vec<TelemetryEvent> = stream.try_iter().collect();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TelemetryEvent::Island(_))),
            "stream must carry island records"
        );
        assert!(manager
            .snapshot(id)
            .expect("known run")
            .best_fitness
            .is_some());
        // The channel is closed after join.
        assert!(stream.recv().is_err());
    }

    #[test]
    fn stop_is_graceful_and_reports_partial_progress() {
        let mut manager = RunManager::new();
        let id = manager.submit(config(500), fast_opts()).unwrap();
        let stream = manager.subscribe(id).expect("known run");
        // Wait for evidence of live progress before stopping.
        let first = stream
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("some record arrives");
        drop(first);
        let outcome = manager.stop(id).expect("known run").expect("clean stop");
        assert!(!outcome.completed);
        assert_eq!(manager.status(id), Some(RunStatus::Stopped));
    }

    #[test]
    fn unknown_runs_are_none() {
        let mut manager = RunManager::new();
        let ghost = RunId(99);
        assert!(manager.status(ghost).is_none());
        assert!(manager.subscribe(ghost).is_none());
        assert!(manager.join(ghost).is_none());
        assert!(manager.snapshot(ghost).is_none());
    }

    #[test]
    fn run_ids_round_trip_through_display_and_from_str() {
        let id = RunId(7);
        assert_eq!(id.to_string(), "run-0007");
        assert_eq!("run-0007".parse::<RunId>().unwrap(), id);
        assert_eq!("7".parse::<RunId>().unwrap(), id);
        assert!("run-x".parse::<RunId>().is_err());
        assert!("".parse::<RunId>().is_err());
    }

    #[test]
    fn subscribe_after_completion_replays_the_flight_recorder() {
        let mut manager = RunManager::new();
        let id = manager.submit(config(4), fast_opts()).unwrap();
        manager.join(id).expect("known run").expect("clean run");
        // Subscribing now must yield the recent history, then
        // end-of-stream — never a receiver that blocks forever.
        let late = manager.subscribe(id).expect("known run");
        let events: Vec<TelemetryEvent> = late.iter().collect();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TelemetryEvent::Island(_))),
            "replay must carry island records"
        );
        assert!(late.recv().is_err(), "stream ends after the replay");
    }

    #[test]
    fn flight_recorder_is_bounded_and_keeps_the_newest_records() {
        let mut manager = RunManager::new();
        let id = manager.submit(config(4), fast_opts()).unwrap();
        manager.join(id).expect("known run").expect("clean run");
        // Replay the whole run through a 3-record ring.
        let hub = StreamHub::new(3);
        for event in manager.subscribe(id).expect("known run").iter() {
            hub.record(&event);
        }
        hub.close();
        let events: Vec<TelemetryEvent> = hub.subscribe().iter().collect();
        assert_eq!(events.len(), 3, "replay is capped at the ring capacity");
        // A 2-island x 4-generation run ends with island records; the
        // newest records survive eviction.
        assert!(events
            .iter()
            .any(|e| matches!(e, TelemetryEvent::Island(_))));
    }

    #[test]
    fn stop_and_join_are_idempotent() {
        let mut manager = RunManager::new();
        let id = manager.submit(config(4), fast_opts()).unwrap();
        let first = manager.join(id).expect("known run").expect("clean run");
        // Repeats — in any order — replay the same outcome.
        let again = manager.stop(id).expect("known run").expect("cached");
        let and_again = manager.join(id).expect("known run").expect("cached");
        let fingerprints = |o: &ArchipelagoOutcome| {
            o.islands
                .iter()
                .map(|i| i.population_fingerprint)
                .collect::<Vec<u64>>()
        };
        assert_eq!(fingerprints(&again), fingerprints(&first));
        assert_eq!(fingerprints(&and_again), fingerprints(&first));
        assert_eq!(again.migrations, first.migrations);
        assert_eq!(manager.status(id), Some(RunStatus::Finished));
    }

    #[test]
    fn snapshot_reports_islands_pool_and_status() {
        let mut manager = RunManager::new();
        let id = manager.submit(config(4), fast_opts()).unwrap();
        manager.join(id).expect("known run").expect("clean run");
        let snapshot = manager.snapshot(id).expect("known run");
        assert_eq!(snapshot.id, "run-0000");
        assert_eq!(snapshot.status, "finished");
        assert_eq!(snapshot.error, None);
        assert_eq!(snapshot.islands.len(), 2);
        assert!(snapshot.islands.iter().all(|row| row.generation == 4));
        assert!(snapshot.islands.iter().all(|row| row.retired));
        assert!(snapshot.generations >= 8);
        assert!(snapshot.migrations > 0);
        assert!(snapshot.best_fitness.is_some());
        assert!(snapshot.pool.evals_total > 0);
        assert_eq!(snapshot.pool.workers, snapshot.pool.last_queue_depths.len());
        // And the whole thing serializes (no non-finite floats).
        let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
        let back: RunSnapshot = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back, snapshot);
        assert_eq!(manager.snapshots().len(), 1);
    }

    #[test]
    fn runs_record_into_the_shared_registry_with_run_labels() {
        let registry = SharedRegistry::new();
        let mut manager = RunManager::with_registry(registry.clone());
        let id = manager.submit(config(4), fast_opts()).unwrap();
        manager.join(id).expect("known run").expect("clean run");
        let text = registry.prometheus_text();
        assert!(
            text.contains("e3_island_generations_total{run=\"run-0000\",island=\"0\"}"),
            "island counters must be run-labeled:\n{text}"
        );
        assert!(text.contains("e3_island_best_fitness{run=\"run-0000\",island=\"1\"}"));
        assert!(text.contains("e3_migrations_total{run=\"run-0000\",island=\"0\"}"));
        // The run's live source left its final gauges (up=0).
        assert!(text.contains("e3_run_up{run=\"run-0000\"} 0"));
        assert!(text.contains("e3_pool_workers{run=\"run-0000\"}"));
        assert!(text.contains("e3_pool_evals_total{run=\"run-0000\"}"));
    }

    #[test]
    fn run_gauges_are_read_at_scrape_time_and_go_final_when_the_run_ends() {
        let registry = SharedRegistry::new();
        let mut manager = RunManager::with_registry(registry.clone());
        let id = manager.submit(config(500), fast_opts()).unwrap();
        let stream = manager.subscribe(id).expect("known run");
        stream
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("some record arrives");
        assert!(registry
            .prometheus_text()
            .contains("e3_run_up{run=\"run-0000\"} 1\n"));
        manager.stop(id).expect("known run").expect("clean stop");
        manager.join(id).expect("known run").expect("cached");
        let text = registry.prometheus_text();
        assert!(text.contains("e3_run_up{run=\"run-0000\"} 0\n"));
        let snapshot = manager.snapshot(id).expect("known run");
        let generations = snapshot.generations;
        assert!(text.contains(&format!(
            "e3_run_generations{{run=\"run-0000\"}} {generations}\n"
        )));
        assert_eq!(registry.prometheus_text(), text, "no live source remains");
        assert_eq!(
            snapshot.pool.handles, 1,
            "only the run handle keeps the pool"
        );
    }
}
