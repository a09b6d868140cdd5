//! The asynchronous archipelago scheduler.
//!
//! N islands — independent [`E3Platform`] instances — progress
//! concurrently over one shared worker pool. The scheduler is a
//! cooperative run queue: a small set of *driver* threads repeatedly
//! pick a runnable island and advance it by exactly one generation
//! (eval phase, boundary exchange if due, evolve phase), then requeue
//! it. While one island's evaluation occupies the shared pool, other
//! drivers run their islands' evolve phases — the evolve/evaluate
//! overlap of CLAN-style asynchronous neuroevolution — and an island
//! whose migration sources have not reached a boundary yet is *parked*
//! (taken off the queue) rather than spinning, so it never blocks a
//! driver.
//!
//! # Determinism contract
//!
//! The final population of every island is **bit-identical** for a
//! fixed [`IslandsConfig`], regardless of:
//!
//! * the worker-pool width (`base.threads`),
//! * the number of driver threads ([`RunOptions::drivers`]),
//! * the queue discipline ([`RunOptions::pickup`]),
//! * and kill/resume cycles at any point (with checkpointing
//!   configured).
//!
//! The mechanism: all cross-island communication is indexed by
//! generation, never by arrival time. An island at boundary `g`
//! publishes its emigrants *before* consuming its sources' boundary-`g`
//! packets, merges them in ascending source order through the
//! deterministic [`Population::integrate_immigrants`], and each
//! island's own evolution is already bit-identical at any thread count
//! (the `e3-exec` contract). Scheduling order can only change *when*
//! an exchange happens on the wall clock, not *what* is exchanged.

use crate::config::{island_seed, namespace, IslandsConfig};
use crate::migration::{
    packet_sidecar_name, Exchange, MigrationPacket, Retirement, RETIREMENT_SIDECAR,
};
use e3_neat::population::EvaluatedGenome;
use e3_neat::Population;
use e3_platform::{fingerprint, E3Platform, RunError};
use e3_store::MultiStore;
use e3_telemetry::{Collector, IslandRecord, MigrationRecord, TelemetryError, TelemetryEvent};
use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Queue discipline for picking the next runnable island.
///
/// Purely a wall-clock knob: results are bit-identical under either
/// (the property tests run both to prove it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Pickup {
    /// Oldest-ready island first (round-robin-ish, fair).
    #[default]
    Fifo,
    /// Newest-ready island first (depth-first, maximally unfair — the
    /// adversarial interleaving for determinism tests).
    Lifo,
}

/// Wall-clock execution knobs. **Nothing here may affect results** —
/// that is the scheduler's core guarantee, and what the determinism
/// property tests sweep.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Driver threads advancing islands (clamped to ≥ 1; more than
    /// `islands` is allowed but pointless).
    pub drivers: usize,
    /// Queue discipline.
    pub pickup: Pickup,
    /// Cooperative stop flag: when set, drivers finish the generation
    /// in hand and exit; unfinished islands stay at their last
    /// checkpoint. `None` runs to completion.
    pub stop: Option<Arc<AtomicBool>>,
}

impl RunOptions {
    /// Options with `drivers` driver threads and FIFO pickup.
    pub fn with_drivers(drivers: usize) -> Self {
        RunOptions {
            drivers,
            ..Self::default()
        }
    }
}

/// Final accounting for one island.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IslandOutcome {
    /// Island index.
    pub island: usize,
    /// Whether the island reached the target fitness.
    pub solved: bool,
    /// Generations the island completed.
    pub generations_run: usize,
    /// Best fitness the island ever saw.
    pub best_fitness: f64,
    /// The island's modeled runtime in seconds.
    pub modeled_seconds: f64,
    /// Order-sensitive FNV fold of the final population's genome
    /// fingerprints — the value the bit-identity tests compare.
    pub population_fingerprint: u64,
    /// The island's best individual.
    pub best: Option<EvaluatedGenome>,
}

/// Final accounting for the whole archipelago.
#[derive(Debug, Clone)]
pub struct ArchipelagoOutcome {
    /// Per-island outcomes, island-indexed.
    pub islands: Vec<IslandOutcome>,
    /// The overall champion (highest fitness; ties to the lowest
    /// island index) and its home island.
    pub best: Option<(usize, EvaluatedGenome)>,
    /// Migration merges performed.
    pub migrations: usize,
    /// `false` when a graceful stop ended the run before every island
    /// retired.
    pub completed: bool,
}

/// Order-sensitive FNV-1a fold of every genome fingerprint in the
/// population — one `u64` that changes if any genome, or their order,
/// changes.
pub fn population_fingerprint(population: &Population) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for genome in population.genomes() {
        hash ^= genome.fingerprint();
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One island's live position, as last reported by the scheduler —
/// the per-island row of a status endpoint.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IslandProgress {
    /// Island index.
    pub island: usize,
    /// Generations the island has completed.
    pub generation: usize,
    /// Best fitness the island ever saw; `None` until the first
    /// generation reports (kept as an `Option` so JSON encoders never
    /// meet a non-finite float).
    pub best_fitness: Option<f64>,
    /// Species alive in the island's population.
    pub species: usize,
    /// Whether the island has retired (solved or hit its budget).
    pub retired: bool,
}

/// Live progress shared between the scheduler and a service front-end:
/// safe to poll from any thread while the run is in flight.
#[derive(Debug, Default)]
pub(crate) struct Progress {
    best: Mutex<Option<(usize, EvaluatedGenome)>>,
    generations: AtomicUsize,
    migrations: AtomicUsize,
    islands: Mutex<Vec<IslandProgress>>,
}

impl Progress {
    /// Progress for an archipelago of `islands` islands, all rows at
    /// generation zero.
    pub(crate) fn new(islands: usize) -> Self {
        Progress {
            islands: Mutex::new(
                (0..islands)
                    .map(|island| IslandProgress {
                        island,
                        ..IslandProgress::default()
                    })
                    .collect(),
            ),
            ..Progress::default()
        }
    }

    /// The best individual seen so far and its home island.
    pub(crate) fn best(&self) -> Option<(usize, EvaluatedGenome)> {
        self.best.lock().clone()
    }

    /// Total generations completed across all islands.
    pub(crate) fn generations(&self) -> usize {
        self.generations.load(Ordering::Relaxed)
    }

    /// Migration merges performed so far.
    pub(crate) fn migrations(&self) -> usize {
        self.migrations.load(Ordering::Relaxed)
    }

    /// A copy of every island's last reported position,
    /// island-indexed.
    pub(crate) fn islands(&self) -> Vec<IslandProgress> {
        self.islands.lock().clone()
    }

    /// Overwrites one island's row (no-op for an out-of-range index,
    /// which only an inconsistent caller could produce).
    fn update_island(&self, row: IslandProgress) {
        let mut islands = self.islands.lock();
        if let Some(slot) = islands.get_mut(row.island) {
            *slot = row;
        }
    }

    /// Offers a candidate champion; kept if strictly fitter, or
    /// equally fit from a lower island index.
    fn offer(&self, island: usize, candidate: &EvaluatedGenome) {
        let mut best = self.best.lock();
        let replace = match &*best {
            None => true,
            Some((held_island, held)) => {
                candidate.fitness > held.fitness
                    || (candidate.fitness == held.fitness && island < *held_island)
            }
        };
        if replace {
            *best = Some((island, candidate.clone()));
        }
    }
}

/// A telemetry shim shared by every driver thread: forwards to one
/// underlying collector behind a mutex. Event *contents* stay
/// deterministic; only the interleaving of records from different
/// islands reflects the (nondeterministic) schedule.
#[derive(Clone)]
pub struct SharedCollector {
    inner: Arc<Mutex<Box<dyn Collector + Send>>>,
}

impl std::fmt::Debug for SharedCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedCollector").finish_non_exhaustive()
    }
}

impl SharedCollector {
    /// Wraps a collector for multi-threaded use.
    pub fn new(collector: impl Collector + Send + 'static) -> Self {
        SharedCollector {
            inner: Arc::new(Mutex::new(Box::new(collector))),
        }
    }

    /// A collector that discards everything.
    pub fn null() -> Self {
        SharedCollector::new(e3_telemetry::NullCollector)
    }
}

impl Collector for SharedCollector {
    fn record(&mut self, event: &TelemetryEvent) -> Result<(), TelemetryError> {
        self.inner.lock().record(event)
    }

    fn flush(&mut self) -> Result<(), TelemetryError> {
        self.inner.lock().flush()
    }
}

/// Filters the platform-internal event stream down to the events that
/// are meaningful per-island (checkpoints and resumes, which carry
/// namespaced paths): the per-generation numbers are re-emitted as
/// labeled [`IslandRecord`]s instead, so the unlabeled `Eval`/`Exec`/
/// `Generation` records of N interleaved islands don't mix in one
/// stream.
struct PlatformFilter<'a> {
    inner: &'a mut SharedCollector,
}

impl Collector for PlatformFilter<'_> {
    fn record(&mut self, event: &TelemetryEvent) -> Result<(), TelemetryError> {
        match event {
            TelemetryEvent::Checkpoint(_) | TelemetryEvent::Resume(_) => self.inner.record(event),
            _ => Ok(()),
        }
    }
}

/// One island's in-flight state.
#[derive(Debug)]
struct IslandState {
    island: usize,
    platform: E3Platform,
    sources: Vec<usize>,
    /// `Some(g)`: the eval phase of generation `g` is done and the
    /// boundary packet published, but the sources' packets were not
    /// all available — the island parks until they are.
    awaiting: Option<usize>,
}

/// What one scheduling slice (at most one generation) ended with.
enum Slice {
    /// A full generation completed; requeue.
    Yield,
    /// Mid-generation at boundary `generation`, sources pending; park.
    Parked { generation: usize },
    /// The island finished after evaluating `last_generation` last.
    Retired { last_generation: usize },
}

/// Scheduler-internal shared state: run queue, parked set, packet
/// exchange, and per-island slots. One mutex guards it all — every
/// critical section is a few map operations, while evaluation and
/// reproduction happen outside the lock.
#[derive(Debug)]
struct Core {
    ready: VecDeque<usize>,
    states: Vec<Option<IslandState>>,
    parked: HashSet<usize>,
    waiters: HashMap<(usize, usize), Vec<usize>>,
    exchange: Exchange,
    active: usize,
    outcomes: Vec<Option<IslandOutcome>>,
    failure: Option<RunError>,
    stopped: bool,
}

/// An archipelago ready to run: N platforms over one shared pool, plus
/// the exchange preloaded with any persisted packets from a previous
/// (killed) incarnation.
#[derive(Debug)]
pub struct Archipelago {
    config: IslandsConfig,
    store: Option<Mutex<MultiStore>>,
    core: Mutex<Core>,
    runnable: Condvar,
    progress: Arc<Progress>,
    pool: e3_exec::SharedExecutor,
}

impl Archipelago {
    /// Builds (or resumes) every island.
    ///
    /// With checkpointing configured, each island namespace is bound
    /// in the shared registry (a cross-island directory mixup is a
    /// typed [`e3_store::StoreError::NamespaceMismatch`]), islands
    /// resume from their newest intact snapshot, and previously
    /// persisted migration packets and retirement markers are loaded
    /// back onto the exchange.
    ///
    /// # Errors
    ///
    /// [`RunError::Store`] on any persistence problem.
    pub fn new(config: IslandsConfig) -> Result<Self, RunError> {
        let pool = e3_exec::SharedExecutor::new(config.base.threads);
        let mut store = match &config.checkpoint {
            Some(policy) => Some(MultiStore::open(&policy.dir)?),
            None => None,
        };
        let mut exchange = Exchange::new();
        let mut states = Vec::with_capacity(config.islands);
        for island in 0..config.islands {
            let island_config = config.island_config(island);
            let seed = island_seed(config.seed, island);
            if let Some(multi) = &mut store {
                // Bind the namespace before the platform touches the
                // directory: a mixed-up archipelago root fails here,
                // island-typed, before any snapshot is read.
                let keep = config
                    .checkpoint
                    .as_ref()
                    .expect("store implies policy")
                    .keep_last;
                let fp = fingerprint(&island_config, config.backend, seed);
                multi.store_for(&namespace(island), fp, keep)?;
            }
            let platform = match config.checkpoint {
                Some(_) => match E3Platform::resume_with_executor(
                    island_config.clone(),
                    config.backend,
                    seed,
                    pool.clone(),
                )? {
                    Some(resumed) => resumed,
                    None => E3Platform::new_with_executor(
                        island_config,
                        config.backend,
                        seed,
                        pool.clone(),
                    ),
                },
                None => {
                    E3Platform::new_with_executor(island_config, config.backend, seed, pool.clone())
                }
            };
            states.push(Some(IslandState {
                island,
                platform,
                sources: config.sources(island),
                awaiting: None,
            }));
        }
        if let Some(multi) = &store {
            for island in 0..config.islands {
                let ns = namespace(island);
                for name in multi.list_sidecars(&ns, "mig-")? {
                    if let Some(packet) = multi.load_sidecar::<MigrationPacket>(&ns, &name)? {
                        if packet.source == island {
                            exchange.publish(packet);
                        }
                    }
                }
                if let Some(retirement) =
                    multi.load_sidecar::<Retirement>(&ns, RETIREMENT_SIDECAR)?
                {
                    if retirement.island == island {
                        exchange.retire(island, retirement.last_generation);
                    }
                }
            }
        }
        let islands = config.islands;
        Ok(Archipelago {
            config,
            store: store.map(Mutex::new),
            core: Mutex::new(Core {
                ready: (0..islands).collect(),
                states,
                parked: HashSet::new(),
                waiters: HashMap::new(),
                exchange,
                active: islands,
                outcomes: (0..islands).map(|_| None).collect(),
                failure: None,
                stopped: false,
            }),
            runnable: Condvar::new(),
            progress: Arc::new(Progress::new(islands)),
            pool,
        })
    }

    /// A pollable progress handle (cheap to clone, safe from any
    /// thread, live for the duration of [`Archipelago::run`]).
    pub(crate) fn progress(&self) -> Arc<Progress> {
        Arc::clone(&self.progress)
    }

    /// A handle to the shared worker pool every island evaluates on —
    /// cheap to clone, and its [`e3_exec::SharedExecutor::snapshot`]
    /// gauges stay live for the duration of [`Archipelago::run`].
    pub(crate) fn pool(&self) -> e3_exec::SharedExecutor {
        self.pool.clone()
    }

    /// Runs the archipelago to completion (or graceful stop),
    /// reporting telemetry to `collector`.
    ///
    /// # Errors
    ///
    /// The first [`RunError`] any island hit; remaining islands stop
    /// at their next generation boundary.
    pub fn run(
        self,
        opts: &RunOptions,
        collector: &SharedCollector,
    ) -> Result<ArchipelagoOutcome, RunError> {
        let drivers = opts.drivers.max(1).min(self.config.islands.max(1));
        std::thread::scope(|scope| {
            for _ in 0..drivers {
                let mut driver_collector = collector.clone();
                let archipelago = &self;
                scope.spawn(move || archipelago.drive(opts, &mut driver_collector));
            }
        });
        let mut core = self.core.into_inner();
        if let Some(err) = core.failure.take() {
            return Err(err);
        }
        let completed = core.active == 0;
        let migrations = self.progress.migrations();
        let islands: Vec<IslandOutcome> = (0..self.config.islands)
            .map(|i| match core.outcomes[i].take() {
                Some(outcome) => outcome,
                None => {
                    let state = core.states[i]
                        .take()
                        .expect("an unfinished island keeps its state");
                    Self::island_outcome(&self.config, &state, false)
                }
            })
            .collect();
        let mut best: Option<(usize, EvaluatedGenome)> = None;
        for outcome in &islands {
            if let Some(candidate) = &outcome.best {
                let better = match &best {
                    None => true,
                    Some((_, held)) => candidate.fitness > held.fitness,
                };
                if better {
                    best = Some((outcome.island, candidate.clone()));
                }
            }
        }
        Ok(ArchipelagoOutcome {
            islands,
            best,
            migrations,
            completed,
        })
    }

    /// One driver thread: pick a runnable island, advance it one
    /// generation, apply the resulting transition, repeat.
    fn drive(&self, opts: &RunOptions, collector: &mut SharedCollector) {
        loop {
            let (island, mut state) = {
                let mut core = self.core.lock();
                loop {
                    if core.active == 0 || core.failure.is_some() || core.stopped {
                        return;
                    }
                    if opts
                        .stop
                        .as_ref()
                        .is_some_and(|s| s.load(Ordering::Relaxed))
                    {
                        core.stopped = true;
                        self.runnable.notify_all();
                        return;
                    }
                    let picked = match opts.pickup {
                        Pickup::Fifo => core.ready.pop_front(),
                        Pickup::Lifo => core.ready.pop_back(),
                    };
                    if let Some(island) = picked {
                        let state = core.states[island]
                            .take()
                            .expect("a queued island owns its state");
                        break (island, state);
                    }
                    // Timed wait so a stop flag set while everything
                    // is parked or busy still gets noticed.
                    self.runnable.wait_for(&mut core, Duration::from_millis(25));
                }
            };
            // A panicking island fails the run like an island error
            // would, instead of leaving its migration partners parked.
            let slice = e3_exec::run_contained(|| self.step_island(&mut state, collector))
                .unwrap_or_else(|message| {
                    Err(RunError::Service(format!(
                        "island {island} panicked: {message}"
                    )))
                });
            match slice {
                Ok(Slice::Yield) => {
                    let mut core = self.core.lock();
                    core.states[island] = Some(state);
                    core.ready.push_back(island);
                    drop(core);
                    self.runnable.notify_one();
                }
                Ok(Slice::Parked { generation }) => {
                    let sources = state.sources.clone();
                    let mut core = self.core.lock();
                    core.states[island] = Some(state);
                    // Re-check under the lock: the packets may have
                    // landed between the slice's peek and now — the
                    // atomic check-then-park is what makes wakeups
                    // impossible to lose.
                    if core.exchange.try_collect(&sources, generation).is_some() {
                        core.ready.push_back(island);
                        drop(core);
                        self.runnable.notify_one();
                    } else {
                        for source in core.exchange.pending_sources(&sources, generation) {
                            core.waiters
                                .entry((source, generation))
                                .or_default()
                                .push(island);
                        }
                        core.parked.insert(island);
                    }
                }
                Ok(Slice::Retired { last_generation }) => {
                    if let Err(err) = self.persist_retirement(island, last_generation) {
                        self.fail(err);
                        return;
                    }
                    let outcome = Self::island_outcome(&self.config, &state, true);
                    let mut core = self.core.lock();
                    core.exchange.retire(island, last_generation);
                    let later_keys: Vec<(usize, usize)> = core
                        .waiters
                        .keys()
                        .filter(|(source, generation)| {
                            *source == island && *generation > last_generation
                        })
                        .copied()
                        .collect();
                    for key in later_keys {
                        Self::wake_locked(&mut core, key);
                    }
                    core.outcomes[island] = Some(outcome);
                    core.active -= 1;
                    drop(core);
                    self.runnable.notify_all();
                }
                Err(err) => {
                    self.fail(err);
                    return;
                }
            }
        }
    }

    /// Advances one island by at most one generation. Runs outside the
    /// core lock except for the brief publish/collect touches.
    fn step_island(
        &self,
        state: &mut IslandState,
        collector: &mut SharedCollector,
    ) -> Result<Slice, RunError> {
        let config = &self.config;
        if state.awaiting.is_none() {
            // An island resumed from a checkpoint written right after
            // its solving generation is already finished: retire
            // without re-running anything.
            if state.platform.finished() {
                let last = state.platform.generation().saturating_sub(1);
                self.emit_island_record(state, state.platform.last_step_best(), true, collector)?;
                return Ok(Slice::Retired {
                    last_generation: last,
                });
            }
            state
                .platform
                .eval_phase_with(&mut PlatformFilter { inner: collector })?;
            let generation = state.platform.generation();
            if config.is_boundary(generation) {
                let packet = MigrationPacket {
                    source: state.island,
                    generation,
                    emigrants: state.platform.population().emigrants(config.emigrants),
                };
                self.persist_packet(&packet)?;
                let mut core = self.core.lock();
                let key = (state.island, generation);
                core.exchange.publish(packet);
                Self::wake_locked(&mut core, key);
                drop(core);
                self.runnable.notify_all();
                state.awaiting = Some(generation);
            }
        }
        if let Some(generation) = state.awaiting {
            let wave = {
                let core = self.core.lock();
                core.exchange.try_collect(&state.sources, generation)
            };
            let Some(wave) = wave else {
                return Ok(Slice::Parked { generation });
            };
            let immigrants: Vec<EvaluatedGenome> = wave
                .iter()
                .flat_map(|packet| packet.emigrants.iter().cloned())
                .collect();
            let best_immigrant_fitness = immigrants
                .iter()
                .map(|immigrant| immigrant.fitness)
                .fold(None, |held: Option<f64>, f| {
                    Some(held.map_or(f, |h| h.max(f)))
                });
            state
                .platform
                .population_mut()
                .integrate_immigrants(&immigrants);
            collector.record(&TelemetryEvent::Migration(MigrationRecord {
                island: state.island,
                generation,
                sources: wave.iter().map(|packet| packet.source).collect(),
                immigrants: immigrants.len(),
                emigrants: config.emigrants,
                best_immigrant_fitness,
            }))?;
            self.progress.migrations.fetch_add(1, Ordering::Relaxed);
            state.awaiting = None;
        }
        let best = state
            .platform
            .evolve_phase_with(&mut PlatformFilter { inner: collector })?;
        self.progress.generations.fetch_add(1, Ordering::Relaxed);
        if let Some(champion) = state.platform.population().best() {
            self.progress.offer(state.island, champion);
        }
        let finished = state.platform.finished();
        self.emit_island_record(state, Some(best), finished, collector)?;
        if finished {
            return Ok(Slice::Retired {
                last_generation: state.platform.generation().saturating_sub(1),
            });
        }
        Ok(Slice::Yield)
    }

    fn emit_island_record(
        &self,
        state: &IslandState,
        best: Option<f64>,
        retired: bool,
        collector: &mut SharedCollector,
    ) -> Result<(), TelemetryError> {
        let platform = &state.platform;
        let best_ever = platform
            .population()
            .best()
            .map(|b| b.fitness)
            .or(best)
            .unwrap_or(f64::NEG_INFINITY);
        self.progress.update_island(IslandProgress {
            island: state.island,
            generation: platform.generation(),
            best_fitness: best_ever.is_finite().then_some(best_ever),
            species: platform.population().species().len(),
            retired,
        });
        collector.record(&TelemetryEvent::Island(IslandRecord {
            island: state.island,
            islands: self.config.islands,
            generation: platform.generation().saturating_sub(1),
            backend: platform.backend_kind().name().to_string(),
            env: self.config.base.env.name().to_string(),
            best_fitness: best.unwrap_or(best_ever),
            best_ever,
            species: platform.population().species().len(),
            retired,
        }))
    }

    fn island_outcome(
        config: &IslandsConfig,
        state: &IslandState,
        solved_check: bool,
    ) -> IslandOutcome {
        let platform = &state.platform;
        let best = platform.population().best().cloned();
        let best_fitness = best.as_ref().map_or(f64::NEG_INFINITY, |b| b.fitness);
        IslandOutcome {
            island: state.island,
            solved: solved_check && best_fitness >= config.base.target_fitness,
            generations_run: platform.generation(),
            best_fitness,
            modeled_seconds: platform.profile().total(),
            population_fingerprint: population_fingerprint(platform.population()),
            best,
        }
    }

    fn persist_packet(&self, packet: &MigrationPacket) -> Result<(), RunError> {
        if let Some(store) = &self.store {
            let store = store.lock();
            store.save_sidecar(
                &namespace(packet.source),
                &packet_sidecar_name(packet.generation),
                packet,
            )?;
        }
        Ok(())
    }

    fn persist_retirement(&self, island: usize, last_generation: usize) -> Result<(), RunError> {
        if let Some(store) = &self.store {
            let store = store.lock();
            store.save_sidecar(
                &namespace(island),
                RETIREMENT_SIDECAR,
                &Retirement {
                    island,
                    last_generation,
                },
            )?;
        }
        Ok(())
    }

    /// Records the first failure and stops every driver.
    fn fail(&self, err: RunError) {
        let mut core = self.core.lock();
        if core.failure.is_none() {
            core.failure = Some(err);
        }
        drop(core);
        self.runnable.notify_all();
    }

    /// Requeues every island parked on `key`. Stale waiter entries
    /// (islands already woken through another key) are skipped via the
    /// parked-set membership test.
    fn wake_locked(core: &mut Core, key: (usize, usize)) {
        if let Some(waiters) = core.waiters.remove(&key) {
            for island in waiters {
                if core.parked.remove(&island) {
                    core.ready.push_back(island);
                }
            }
        }
    }
}

/// Convenience entry point: build and run an archipelago in one call.
///
/// # Errors
///
/// See [`Archipelago::new`] and [`Archipelago::run`].
pub fn run_islands(
    config: IslandsConfig,
    opts: &RunOptions,
    collector: &SharedCollector,
) -> Result<ArchipelagoOutcome, RunError> {
    Archipelago::new(config)?.run(opts, collector)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Topology;
    use e3_envs::EnvId;
    use e3_platform::{BackendKind, E3Config};

    fn base(max_generations: usize) -> E3Config {
        E3Config::builder(EnvId::CartPole)
            .population_size(16)
            .max_generations(max_generations)
            .target_fitness(f64::INFINITY)
            .build()
    }

    fn fingerprints(outcome: &ArchipelagoOutcome) -> Vec<u64> {
        outcome
            .islands
            .iter()
            .map(|i| i.population_fingerprint)
            .collect()
    }

    #[test]
    fn single_island_matches_a_plain_platform_run() {
        let outcome = run_islands(
            IslandsConfig::builder(base(3)).islands(1).seed(9).build(),
            &RunOptions::default(),
            &SharedCollector::null(),
        )
        .unwrap();
        let mut plain = E3Platform::new(base(3), BackendKind::Cpu, 9);
        for _ in 0..3 {
            plain.step_generation().unwrap();
        }
        assert_eq!(outcome.islands.len(), 1);
        assert_eq!(outcome.migrations, 0);
        assert!(outcome.completed);
        assert_eq!(
            outcome.islands[0].population_fingerprint,
            population_fingerprint(plain.population()),
            "one island must be bit-identical to a plain run"
        );
        assert_eq!(
            outcome.islands[0].best_fitness,
            plain.population().best().unwrap().fitness
        );
    }

    #[test]
    fn results_are_identical_across_drivers_and_pickup_orders() {
        let config = |seed| {
            IslandsConfig::builder(base(6))
                .islands(3)
                .migration_interval(2)
                .emigrants(2)
                .seed(seed)
                .build()
        };
        let reference = run_islands(
            config(5),
            &RunOptions::with_drivers(1),
            &SharedCollector::null(),
        )
        .unwrap();
        assert!(reference.migrations > 0, "boundaries must fire");
        for (drivers, pickup) in [(2, Pickup::Fifo), (3, Pickup::Lifo), (1, Pickup::Lifo)] {
            let opts = RunOptions {
                drivers,
                pickup,
                stop: None,
            };
            let outcome = run_islands(config(5), &opts, &SharedCollector::null()).unwrap();
            assert_eq!(
                fingerprints(&outcome),
                fingerprints(&reference),
                "drivers={drivers} pickup={pickup:?} diverged"
            );
            assert_eq!(outcome.migrations, reference.migrations);
        }
    }

    #[test]
    fn migration_actually_mixes_populations() {
        let isolated = run_islands(
            IslandsConfig::builder(base(6))
                .islands(2)
                .migration_interval(100)
                .seed(3)
                .build(),
            &RunOptions::default(),
            &SharedCollector::null(),
        )
        .unwrap();
        let mixed = run_islands(
            IslandsConfig::builder(base(6))
                .islands(2)
                .migration_interval(2)
                .seed(3)
                .build(),
            &RunOptions::default(),
            &SharedCollector::null(),
        )
        .unwrap();
        assert_eq!(isolated.migrations, 0);
        assert!(mixed.migrations > 0);
        assert_ne!(
            fingerprints(&isolated),
            fingerprints(&mixed),
            "migration must change the evolutionary trajectory"
        );
    }

    /// A collector that copies events into a buffer the test keeps a
    /// handle to (the `SharedCollector` box hides its inner type).
    #[derive(Clone, Default)]
    struct Tap(Arc<Mutex<Vec<TelemetryEvent>>>);

    impl Collector for Tap {
        fn record(&mut self, event: &TelemetryEvent) -> Result<(), TelemetryError> {
            self.0.lock().push(event.clone());
            Ok(())
        }
    }

    #[test]
    fn telemetry_stream_carries_island_and_migration_records() {
        let tap = Tap::default();
        let collector = SharedCollector::new(tap.clone());
        let outcome = run_islands(
            IslandsConfig::builder(base(4))
                .islands(2)
                .migration_interval(2)
                .topology(Topology::FullyConnected)
                .build(),
            &RunOptions::with_drivers(2),
            &collector,
        )
        .unwrap();
        let events = tap.0.lock();
        let islands = events
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::Island(_)))
            .count();
        let migrations = events
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::Migration(_)))
            .count();
        assert_eq!(islands, 2 * 4, "one island record per island-generation");
        assert_eq!(migrations, outcome.migrations);
        assert_eq!(migrations, 2 * 2, "two boundaries x two islands");
    }

    #[test]
    fn graceful_stop_leaves_partial_outcome() {
        let stop = Arc::new(AtomicBool::new(true));
        let outcome = run_islands(
            IslandsConfig::builder(base(50)).islands(2).build(),
            &RunOptions {
                drivers: 1,
                pickup: Pickup::Fifo,
                stop: Some(stop),
            },
            &SharedCollector::null(),
        )
        .unwrap();
        assert!(!outcome.completed);
        assert_eq!(outcome.islands.len(), 2);
        assert!(outcome.islands.iter().all(|i| !i.solved));
    }
}
