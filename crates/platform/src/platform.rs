//! The E3 platform: the closed evolve/evaluate loop (paper Fig. 1(a)
//! and Fig. 5) with per-function timing.
//!
//! The loop is instrumented with `e3-telemetry`: every population
//! evaluation emits an `EvalRecord`, every completed generation a
//! `GenerationRecord`, and every finished run a `RunSummary`. Install
//! a collector with [`E3Platform::run_with`] /
//! [`E3Platform::step_with`]; the collector is strictly write-only, so
//! results are bit-identical whichever sink is attached (see the
//! property tests in `tests/telemetry_parity.rs`).

use crate::backend::{Backend, BackendKind, EvalError, Worlds};
use crate::energy::PowerModel;
use crate::scenario::{holdout_plan, ScenarioConfig};
use crate::timing::{GpuCostModel, SwCostModel};
use e3_envs::EnvId;
use e3_exec::{AnyExecutor, SharedExecutor};
use e3_inax::{EpisodeRunReport, InaxConfig};
use e3_jit::JitConfig;
use e3_neat::stats::ComplexityStats;
use e3_neat::{NeatConfig, NetPlan, Population, PopulationSnapshot};
use e3_store::format::fnv1a;
use e3_store::{CheckpointPolicy, RunFingerprint, RunStore, StoreError};
use e3_telemetry::{
    CheckpointRecord, Collector, EvalRecord, ExecRecord, GeneralizationRecord, GenerationRecord,
    HwCounters, JitRecord, NullCollector, ResumeRecord, RunSummary, TelemetryError, TelemetryEvent,
    Tracer, UtilizationBreakdown, UtilizationRecord,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error produced by an E3 run.
#[derive(Debug)]
pub enum RunError {
    /// The evaluation backend rejected the population.
    Eval(EvalError),
    /// The installed telemetry collector failed to accept a record.
    Telemetry(TelemetryError),
    /// The checkpoint store failed to persist or recover run state.
    Store(StoreError),
    /// A service-layer failure replayed from a cached record (e.g. a
    /// run manager reporting a previous failure a second time) — the
    /// message is the original error's display, the typed source is
    /// gone.
    Service(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Eval(err) => write!(f, "evaluation failed: {err}"),
            RunError::Telemetry(err) => write!(f, "telemetry failed: {err}"),
            RunError::Store(err) => write!(f, "checkpoint store failed: {err}"),
            RunError::Service(message) => write!(f, "service failed: {message}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Eval(err) => Some(err),
            RunError::Telemetry(err) => Some(err),
            RunError::Store(err) => Some(err),
            RunError::Service(_) => None,
        }
    }
}

impl From<EvalError> for RunError {
    fn from(err: EvalError) -> Self {
        RunError::Eval(err)
    }
}

impl From<TelemetryError> for RunError {
    fn from(err: TelemetryError) -> Self {
        RunError::Telemetry(err)
    }
}

impl From<StoreError> for RunError {
    fn from(err: StoreError) -> Self {
        RunError::Store(err)
    }
}

/// Modeled seconds per NEAT function (the categories of paper
/// Fig. 1(b) and Fig. 9(d)): the struct telemetry records carry,
/// under the platform API's name for it.
pub use e3_telemetry::FunctionSplit as FunctionProfile;

/// Configuration of one E3 learning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E3Config {
    /// Task environment.
    pub env: EnvId,
    /// NEAT hyperparameters.
    pub neat: NeatConfig,
    /// Generation cap.
    pub max_generations: usize,
    /// Stop when the best fitness reaches this (defaults to the env's
    /// required fitness).
    pub target_fitness: f64,
    /// INAX hardware configuration (used by the INAX backend).
    pub inax: InaxConfig,
    /// Software cost model.
    pub sw: SwCostModel,
    /// GPU cost model.
    pub gpu: GpuCostModel,
    /// Evaluation worker threads ("virtual PUs"); `1` is the serial
    /// reference executor. Results are bit-identical for any value.
    pub threads: usize,
    /// Crash-safe checkpointing policy. `None` (the default) disables
    /// persistence entirely; with a policy installed the platform
    /// snapshots its full run state every `every` generations, and
    /// [`E3Platform::resume`] continues bit-identically after a crash.
    /// Like `threads`, this never affects results.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Scenario-distribution evaluation: how many scenarios each
    /// genome faces per generation, which distribution they are drawn
    /// from, how per-scenario fitnesses aggregate, and the optional
    /// held-out generalization pass. The default is *vanilla* —
    /// `K = 1` with default [`e3_envs::ScenarioParams`] — which
    /// evaluates under [`crate::ScenarioSpec::fixed`] and is
    /// bit-identical to runs that predate this field.
    pub scenario: ScenarioConfig,
    /// Tiered-execution policy: when enabled, genomes that stay hot in
    /// the decode cache are promoted to natively compiled code
    /// (`e3-jit`), with the interpreter as the bit-exact oracle and
    /// permanent fallback. Never affects results — only speed and
    /// telemetry. The default is disabled.
    pub jit: JitConfig,
}

impl E3Config {
    /// Starts a builder with the paper's defaults for `env`: population
    /// 200, crossover rate 0.5, no initial hidden nodes (§VI-C), and
    /// the PE/PU heuristics of §V (PE = output nodes, PU = 50).
    pub fn builder(env: EnvId) -> E3ConfigBuilder {
        let neat = NeatConfig::builder(env.observation_size(), env.policy_outputs())
            .population_size(200)
            .build();
        let inax = InaxConfig::builder()
            .num_pu(50)
            .num_pe(env.policy_outputs())
            .build();
        E3ConfigBuilder {
            config: E3Config {
                env,
                neat,
                max_generations: 100,
                target_fitness: env.required_fitness(),
                inax,
                sw: SwCostModel::default(),
                gpu: GpuCostModel::default(),
                threads: 1,
                checkpoint: None,
                scenario: ScenarioConfig::default(),
                jit: JitConfig::default(),
            },
        }
    }
}

/// Builder for [`E3Config`].
#[derive(Debug, Clone)]
pub struct E3ConfigBuilder {
    config: E3Config,
}

impl E3ConfigBuilder {
    /// Sets the population size.
    pub fn population_size(mut self, n: usize) -> Self {
        self.config.neat.population_size = n;
        self
    }

    /// Sets the generation cap.
    pub fn max_generations(mut self, n: usize) -> Self {
        self.config.max_generations = n;
        self
    }

    /// Overrides the stop fitness.
    pub fn target_fitness(mut self, f: f64) -> Self {
        self.config.target_fitness = f;
        self
    }

    /// Overrides the INAX hardware configuration.
    pub fn inax(mut self, inax: InaxConfig) -> Self {
        self.config.inax = inax;
        self
    }

    /// Sets the number of evaluation worker threads (must be ≥ 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Installs a crash-safe checkpointing policy.
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.config.checkpoint = Some(policy);
        self
    }

    /// Configures scenario-distribution evaluation (train
    /// distribution, scenarios per evaluation, aggregation, and the
    /// held-out generalization pass).
    pub fn scenario(mut self, scenario: ScenarioConfig) -> Self {
        self.config.scenario = scenario;
        self
    }

    /// Configures the tiered-execution (JIT) policy. Bit-identity
    /// between tiers means this can never change results.
    pub fn jit(mut self, jit: JitConfig) -> Self {
        self.config.jit = jit;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the generation cap, the thread count or the scenarios
    /// per evaluation is zero.
    pub fn build(self) -> E3Config {
        let c = self.config;
        assert!(c.max_generations > 0, "need at least one generation");
        assert!(c.threads > 0, "need at least one evaluation thread");
        assert!(
            c.scenario.scenarios_per_eval > 0,
            "need at least one scenario per evaluation"
        );
        c
    }
}

/// Result of an E3 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Whether the target fitness was reached.
    pub solved: bool,
    /// Generations executed (including the final evaluation).
    pub generations_run: usize,
    /// Best fitness observed.
    pub best_fitness: f64,
    /// Total modeled runtime in seconds.
    pub modeled_seconds: f64,
    /// Per-function time breakdown.
    pub profile: FunctionProfile,
    /// `(cumulative modeled seconds, best-so-far fitness)` after each
    /// generation — the Fig. 2 convergence trace.
    pub trace: Vec<(f64, f64)>,
    /// Aggregated accelerator accounting (INAX backend only).
    pub hw_report: Option<EpisodeRunReport>,
    /// Aggregated cycle-level per-PU/per-PE utilization accounting
    /// (INAX backend only). Deterministic: identical across thread
    /// counts and collector choices.
    pub hw_utilization: Option<UtilizationBreakdown>,
    /// Structural statistics of the evolved populations (Fig. 4,
    /// Table V).
    pub complexity: ComplexityStats,
}

/// Eval-phase results carried across the eval/evolve phase boundary
/// when a step is driven as two half-steps (see
/// [`E3Platform::eval_phase_with`]).
#[derive(Debug)]
struct PendingEvolve {
    /// Best fitness of the just-evaluated generation.
    best: f64,
    /// Mean fitness of the just-evaluated generation.
    mean: f64,
    /// Best fitness ever observed (after assigning this generation).
    best_ever: f64,
    /// The enclosing `generation` span, finished when the evolve phase
    /// completes.
    generation_span: e3_telemetry::SpanTimer,
}

/// The Eval-Evol-Engine: a NEAT population, an environment, and an
/// evaluation backend.
///
/// # Example
///
/// ```
/// use e3_platform::{BackendKind, E3Config, E3Platform};
/// use e3_envs::EnvId;
///
/// let config = E3Config::builder(EnvId::CartPole)
///     .population_size(20)
///     .max_generations(2)
///     .build();
/// let outcome = E3Platform::new(config, BackendKind::Cpu, 1).run().unwrap();
/// assert_eq!(outcome.trace.len(), outcome.generations_run);
/// ```
#[derive(Debug)]
pub struct E3Platform {
    config: E3Config,
    backend: Backend,
    population: Population,
    profile: FunctionProfile,
    complexity: ComplexityStats,
    hw_report: Option<EpisodeRunReport>,
    hw_utilization: Option<UtilizationBreakdown>,
    trace: Vec<(f64, f64)>,
    episode_seed: u64,
    generation: usize,
    tracer: Tracer,
    seed: u64,
    last_step_best: Option<f64>,
    store: Option<RunStore>,
    pending_resume: Option<ResumeRecord>,
    pending_evolve: Option<PendingEvolve>,
}

/// Complete resumable state of an [`E3Platform`] between two
/// generations — what [`E3Platform::capture_state`] returns and a
/// checkpoint persists. Restoring one into a fresh platform makes the
/// continuation **bit-identical** to a run that was never interrupted:
/// same fitness trajectory, same modeled seconds, same end-of-run
/// telemetry `Summary`, at any thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunState {
    /// Population, species, innovation counters, and the evolve-phase
    /// RNG stream.
    pub population: PopulationSnapshot,
    /// Accumulated per-function modeled seconds.
    pub profile: FunctionProfile,
    /// Accumulated structural statistics.
    pub complexity: ComplexityStats,
    /// Accumulated accelerator cycle accounting (INAX runs).
    pub hw_report: Option<EpisodeRunReport>,
    /// Accumulated per-PU/per-PE utilization accounting (INAX runs).
    pub hw_utilization: Option<UtilizationBreakdown>,
    /// Convergence trace so far.
    pub trace: Vec<(f64, f64)>,
    /// Next value of the deterministic episode-seed schedule.
    pub episode_seed: u64,
    /// Generations completed.
    pub generation: usize,
    /// Best fitness returned by the most recent step, used to decide
    /// whether a resumed run already hit its target.
    pub last_step_best: Option<f64>,
}

/// The identity a checkpoint directory is bound to, so a snapshot can
/// never be resumed into a different run.
///
/// Hashes the canonical configuration JSON with the
/// result-irrelevant fields neutralized: `threads` (results are
/// bit-identical at any thread count), the checkpoint policy itself
/// (tuning retention or cadence must not orphan existing snapshots),
/// the held-out scenario pass (strictly read-only telemetry —
/// toggling it must not orphan snapshots either), and the execution
/// tier (native code is bit-identical to the interpreter, so a run
/// checkpointed with `--jit` off may resume with it on). Everything
/// else — env, NEAT hyperparameters, cost models, INAX geometry,
/// generation cap, target, the *train* scenario distribution —
/// participates, so a snapshot from a differently configured run is
/// refused at recovery.
pub fn fingerprint(config: &E3Config, backend: BackendKind, seed: u64) -> RunFingerprint {
    let mut canonical = config.clone();
    canonical.threads = 1;
    canonical.checkpoint = None;
    canonical.scenario.holdout = None;
    canonical.jit = JitConfig::default();
    let json = serde_json::to_string(&canonical).expect("E3Config serializes");
    RunFingerprint {
        config_hash: fnv1a(json.as_bytes()),
        backend: backend.name().to_string(),
        seed,
    }
}

impl E3Platform {
    /// Creates a platform with the chosen backend and seed.
    pub fn new(config: E3Config, backend: BackendKind, seed: u64) -> Self {
        E3Platform::construct(config, backend, seed, None)
    }

    /// Creates a platform that evaluates on a caller-supplied shared
    /// worker pool instead of a private executor, so many concurrent
    /// platforms (islands) time-slice one pool at
    /// population-evaluation granularity. Results are bit-identical to
    /// [`E3Platform::new`] with any thread count.
    pub fn new_with_executor(
        config: E3Config,
        backend: BackendKind,
        seed: u64,
        pool: SharedExecutor,
    ) -> Self {
        E3Platform::construct(config, backend, seed, Some(pool))
    }

    fn construct(
        config: E3Config,
        backend: BackendKind,
        seed: u64,
        pool: Option<SharedExecutor>,
    ) -> Self {
        // E3-INAX gets no tier: it models inference on the accelerator,
        // not on a host that could run native code.
        let backend = match backend {
            BackendKind::Cpu => Backend::cpu(config.sw).with_jit(config.jit),
            BackendKind::Gpu => Backend::gpu(config.sw, config.gpu).with_jit(config.jit),
            BackendKind::Inax => Backend::inax(config.inax.clone(), config.sw),
        }
        .with_executor(match pool {
            Some(pool) => AnyExecutor::Shared(pool),
            None => AnyExecutor::new(config.threads),
        });
        let population = Population::new(config.neat.clone(), seed);
        E3Platform {
            config,
            backend,
            population,
            profile: FunctionProfile::default(),
            complexity: ComplexityStats::new(),
            hw_report: None,
            hw_utilization: None,
            trace: Vec::new(),
            episode_seed: seed.wrapping_add(1000),
            generation: 0,
            tracer: Tracer::disabled(),
            seed,
            last_step_best: None,
            store: None,
            pending_resume: None,
            pending_evolve: None,
        }
    }

    /// Resumes a run from the newest intact snapshot in the
    /// configuration's checkpoint directory.
    ///
    /// Returns `Ok(None)` when there is nothing to resume — no
    /// checkpoint policy configured, the directory holds no intact
    /// snapshot, or every snapshot is torn/corrupt. Callers fall back
    /// to [`E3Platform::new`] in that case; a fresh start is itself
    /// bit-identical, so resuming "from nothing" is always safe.
    ///
    /// The resumed platform continues **bit-identically**: the fitness
    /// trajectory, modeled runtime, and final telemetry `Summary`
    /// match an uninterrupted run of the same `(config, backend,
    /// seed)` at any thread count. A `Resume` telemetry record is
    /// emitted at the start of the next step (or run).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Store`] when the directory is unreadable or
    /// holds state from a *different* run (config/backend/seed
    /// fingerprint mismatch) — resuming that would silently change
    /// results, so it is refused rather than skipped.
    pub fn resume(
        config: E3Config,
        backend: BackendKind,
        seed: u64,
    ) -> Result<Option<Self>, RunError> {
        E3Platform::resume_on(config, backend, seed, None)
    }

    /// Like [`E3Platform::resume`], but the resumed platform evaluates
    /// on the given shared worker pool (see
    /// [`E3Platform::new_with_executor`]).
    ///
    /// # Errors
    ///
    /// Same as [`E3Platform::resume`].
    pub fn resume_with_executor(
        config: E3Config,
        backend: BackendKind,
        seed: u64,
        pool: SharedExecutor,
    ) -> Result<Option<Self>, RunError> {
        E3Platform::resume_on(config, backend, seed, Some(pool))
    }

    fn resume_on(
        config: E3Config,
        backend: BackendKind,
        seed: u64,
        pool: Option<SharedExecutor>,
    ) -> Result<Option<Self>, RunError> {
        let Some(policy) = config.checkpoint.clone() else {
            return Ok(None);
        };
        let fp = fingerprint(&config, backend, seed);
        let mut store = RunStore::open(&policy.dir, fp, policy.keep_last)?;
        let Some(recovered) = store.recover::<RunState>()? else {
            return Ok(None);
        };
        let mut platform = E3Platform::construct(config, backend, seed, pool);
        platform.pending_resume = Some(ResumeRecord {
            generation: recovered.generation,
            backend: platform.backend.kind().name().to_string(),
            env: platform.config.env.name().to_string(),
            path: recovered.path.display().to_string(),
            skipped_corrupt: recovered.skipped_corrupt,
        });
        platform.apply_state(recovered.state);
        platform.store = Some(store);
        Ok(Some(platform))
    }

    /// Installs a span tracer; the platform records `run` /
    /// `generation` / `eval` / `evolve` spans and the backend records
    /// `shard` / `episode` spans beneath them. Tracing
    /// is write-only: results are bit-identical with any tracer (see
    /// `tests/telemetry_parity.rs`). Keep a clone of the tracer to
    /// export the trace after the run.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.clone();
        self.backend.set_tracer(tracer);
    }

    /// Which backend this platform runs on.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// The evolving population.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// Mutable access to the evolving population, for callers that
    /// exchange individuals between runs (island migration). Mutating
    /// the population voids the bit-identity contract with an
    /// unmutated run — migration protocols must themselves be
    /// deterministic to restore it.
    pub fn population_mut(&mut self) -> &mut Population {
        &mut self.population
    }

    /// Generations completed so far (continues across resume).
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// Accumulated per-function modeled seconds.
    pub fn profile(&self) -> &FunctionProfile {
        &self.profile
    }

    /// Best fitness of the most recently completed step, if any.
    pub fn last_step_best(&self) -> Option<f64> {
        self.last_step_best
    }

    /// The stop rule of every driver of this platform
    /// ([`E3Platform::run_with`], `repro run --crash-after`, island
    /// schedulers): the last completed step reached the target fitness,
    /// or the generation cap is hit. `generation` counts completed
    /// steps across resume, so a platform resumed from a checkpoint
    /// written right after its solving generation is already finished.
    pub fn finished(&self) -> bool {
        self.solved() || self.generation >= self.config.max_generations
    }

    fn solved(&self) -> bool {
        self.last_step_best
            .is_some_and(|best| best >= self.config.target_fitness)
    }

    /// Captures the complete resumable state of this platform. This
    /// is what checkpoints persist; restoring it (see
    /// [`E3Platform::resume`]) continues the run bit-identically.
    pub fn capture_state(&self) -> RunState {
        assert!(
            self.pending_evolve.is_none(),
            "run state is only capturable on a generation boundary, \
             not between eval and evolve phases"
        );
        RunState {
            population: self.population.snapshot(),
            profile: self.profile,
            complexity: self.complexity.clone(),
            hw_report: self.hw_report,
            hw_utilization: self.hw_utilization.clone(),
            trace: self.trace.clone(),
            episode_seed: self.episode_seed,
            generation: self.generation,
            last_step_best: self.last_step_best,
        }
    }

    fn apply_state(&mut self, state: RunState) {
        self.population = Population::from_snapshot(state.population);
        self.profile = state.profile;
        self.complexity = state.complexity;
        self.hw_report = state.hw_report;
        self.hw_utilization = state.hw_utilization;
        self.trace = state.trace;
        self.episode_seed = state.episode_seed;
        self.generation = state.generation;
        self.last_step_best = state.last_step_best;
    }

    /// Opens the run store on first use (checkpointing configured but
    /// the platform was not created through [`E3Platform::resume`]).
    fn ensure_store(&mut self) -> Result<&mut RunStore, RunError> {
        if self.store.is_none() {
            let policy = self
                .config
                .checkpoint
                .as_ref()
                .expect("ensure_store is only called with a checkpoint policy");
            let fp = fingerprint(&self.config, self.backend.kind(), self.seed);
            self.store = Some(RunStore::open(&policy.dir, fp, policy.keep_last)?);
        }
        Ok(self.store.as_mut().expect("just ensured"))
    }

    /// Persists the current run state and emits a `Checkpoint` record.
    fn write_checkpoint(&mut self, collector: &mut dyn Collector) -> Result<(), RunError> {
        let state = self.capture_state();
        let generation = self.generation;
        let best_fitness = self.population.best().map(|b| b.fitness);
        let store = self.ensure_store()?;
        let bytes_before = store.stats().bytes_written;
        let path = store.save(generation, best_fitness, &state)?;
        let bytes = store.stats().bytes_written - bytes_before;
        collector.record(&TelemetryEvent::Checkpoint(CheckpointRecord {
            generation,
            backend: self.backend.kind().name().to_string(),
            env: self.config.env.name().to_string(),
            path: path.display().to_string(),
            bytes,
            best_fitness: best_fitness.filter(|f| f.is_finite()),
        }))?;
        Ok(())
    }

    /// Executes one evaluate + evolve cycle; returns the best fitness
    /// of the evaluated generation. Telemetry is discarded; see
    /// [`E3Platform::step_with`].
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Eval`] if the backend rejects the
    /// population.
    pub fn step_generation(&mut self) -> Result<f64, RunError> {
        self.step_with(&mut NullCollector)
    }

    /// Executes one evaluate + evolve cycle, reporting telemetry to
    /// `collector`; returns the best fitness of the evaluated
    /// generation.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Eval`] if the backend rejects the
    /// population and [`RunError::Telemetry`] if the collector rejects
    /// a record.
    pub fn step_with(&mut self, collector: &mut dyn Collector) -> Result<f64, RunError> {
        self.eval_phase_with(collector)?;
        self.evolve_phase_with(collector)
    }

    /// First half of [`E3Platform::step_with`]: evaluates the current
    /// population (CreateNet + inference + env stepping) and records
    /// the `Eval`/`Exec` telemetry, leaving the platform
    /// *mid-generation* — fitnesses assigned, reproduction not yet
    /// run. Returns the best fitness of the evaluated generation.
    ///
    /// Splitting the step lets an external scheduler overlap phases
    /// across concurrent platforms (while one island's evaluation
    /// occupies a shared pool, another's evolve phase runs on the
    /// CPU) and exchange individuals at the phase boundary. Calling
    /// `eval_phase_with` then [`E3Platform::evolve_phase_with`]
    /// back-to-back is bit-identical to one `step_with` call.
    ///
    /// # Panics
    ///
    /// Panics if the platform is already mid-generation.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Eval`] if the backend rejects the
    /// population and [`RunError::Telemetry`] if the collector rejects
    /// a record.
    pub fn eval_phase_with(&mut self, collector: &mut dyn Collector) -> Result<f64, RunError> {
        assert!(
            self.pending_evolve.is_none(),
            "eval phase called while a generation is already mid-flight"
        );
        // A resumed platform announces where it picked up before any
        // event of the continued run reaches the collector.
        if let Some(resume) = self.pending_resume.take() {
            collector.record(&TelemetryEvent::Resume(resume))?;
        }
        let mut generation_span = self.tracer.start("generation", "platform");
        generation_span.arg("generation", self.generation as f64);
        // --- Evaluate phase (CreateNet + inference + env). ---
        let mut eval_span = self.tracer.start("eval", "platform");
        // Borrowed, not copied: the backend snapshots the population
        // once for its workers, and nothing below touches
        // `self.population` until the fitnesses are assigned.
        let genomes = self.population.genomes();
        eval_span.arg("population", genomes.len() as f64);
        // Episode conditions follow a deterministic per-generation
        // schedule: reproducible across backends (identical seeds ⇒
        // identical trajectories) while exposing evolution to varied
        // start states — important for flat-reward tasks like
        // MountainCar where a single fixed condition stalls progress.
        // The scenario config resolves that schedule into the
        // generation's spec; which kernel then runs it is the
        // backend's business. The episode-seed counter advances
        // whether or not the spec used it, so a config that starts
        // (or stops) sampling scenarios never shifts the fixed
        // schedule.
        let spec = self.config.scenario.spec_for(
            self.seed,
            self.generation as u64,
            self.episode_seed,
            genomes.len(),
        );
        let outcome = self.backend.evaluate(genomes, self.config.env, &spec)?;
        self.episode_seed = self.episode_seed.wrapping_add(1);
        // Everything a generation records is recorded from here on: a
        // generation whose evaluation failed (the `?` above) charges no
        // CreateNet and leaves no complexity sample, so a retry after
        // the genome is repaired counts once. Complexity statistics
        // fold the shapes of the plans the evaluation compiled — no
        // second CreateNet on this thread.
        for genome in genomes {
            self.profile.createnet += self.config.sw.createnet_seconds_for(genome);
        }
        self.complexity.record_shapes(&outcome.shapes);
        self.profile.evaluate += outcome.eval_seconds;
        self.profile.env += outcome.env_seconds;
        if let Some(report) = outcome.hw_report {
            match &mut self.hw_report {
                Some(acc) => acc.merge(&report),
                None => self.hw_report = Some(report),
            }
        }
        if let Some(util) = outcome.hw_utilization {
            match &mut self.hw_utilization {
                Some(acc) => acc.merge(&util),
                None => self.hw_utilization = Some(util),
            }
        }
        let best = outcome
            .fitnesses
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let mean = if outcome.fitnesses.is_empty() {
            0.0
        } else {
            outcome.fitnesses.iter().sum::<f64>() / outcome.fitnesses.len() as f64
        };
        collector.record(&TelemetryEvent::Eval(EvalRecord {
            generation: self.generation,
            backend: self.backend.kind().name().to_string(),
            env: self.config.env.name().to_string(),
            population: genomes.len(),
            eval_seconds: outcome.eval_seconds,
            env_seconds: outcome.env_seconds,
            total_steps: outcome.total_steps,
            best_fitness: best,
            mean_fitness: mean,
            hw: outcome.hw_report.as_ref().map(HwCounters::from),
        }))?;
        if let Some((exec, tier)) = self.backend.take_exec_stats() {
            collector.record(&TelemetryEvent::Exec(ExecRecord {
                generation: self.generation,
                backend: self.backend.kind().name().to_string(),
                workers: exec.workers,
                shards: exec.shards,
                shard_seconds: exec.shard_seconds.clone(),
                steal_count: exec.steal_count,
                cache_hits: tier.cache_hits,
                cache_misses: tier.cache_misses,
                cache_entries: tier.cache_entries,
                cache_evictions: tier.cache_evictions,
                cache_hit_rate: tier.cache_hit_rate(),
                worker_utilization: exec.worker_utilization(),
                queue_depths: exec.queue_depths.clone(),
                wall_seconds: exec.wall_seconds,
            }))?;
            // The JIT record rides along only when the tier actually
            // did something this evaluation — disabled (or
            // unsupported-target) runs emit no `Jit` events, keeping
            // their NDJSON byte-identical to pre-tier runs.
            let jit = JitRecord {
                generation: self.generation,
                backend: self.backend.kind().name().to_string(),
                compiled: tier.jit_compiled,
                bytes: tier.jit_bytes,
                compile_seconds: tier.jit_compile_seconds,
                fallbacks: tier.jit_fallbacks,
                activations: tier.jit_activations,
                resident: tier.jit_resident,
            };
            if !jit.is_empty() {
                collector.record(&TelemetryEvent::Jit(jit))?;
            }
        }
        // --- Held-out generalization pass (read-only). ---
        // Replays the generation's champion against scenarios drawn
        // from the held-out distribution. Strictly observational: it
        // touches no profile counters, no RNG state, and no fitness
        // the evolver sees, so enabling it never perturbs the run.
        if let Some(holdout) = &self.config.scenario.holdout {
            if holdout.scenarios > 0 && self.generation.is_multiple_of(holdout.every.max(1)) {
                let best_index = outcome
                    .fitnesses
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map_or(0, |(i, _)| i);
                let plan = NetPlan::compile(&genomes[best_index]).map_err(|reason| {
                    EvalError::NotFeedForward {
                        genome_index: best_index,
                        reason,
                    }
                })?;
                let scenarios = holdout_plan(holdout, self.seed, self.generation as u64);
                let mut worlds = Worlds::new(
                    scenarios
                        .iter()
                        .map(|(params, _)| self.config.env.make_scenario(params)),
                );
                let seeds: Vec<u64> = scenarios.iter().map(|&(_, seed)| seed).collect();
                worlds.run(&plan, None, &seeds, &Tracer::disabled(), best_index);
                let per_scenario = worlds.fitness();
                let count = per_scenario.len();
                let holdout_fitness = per_scenario.iter().sum::<f64>() / count as f64;
                let holdout_min = per_scenario.iter().cloned().fold(f64::INFINITY, f64::min);
                let holdout_max = per_scenario
                    .iter()
                    .cloned()
                    .fold(f64::NEG_INFINITY, f64::max);
                let variance = per_scenario
                    .iter()
                    .map(|f| (f - holdout_fitness).powi(2))
                    .sum::<f64>()
                    / count as f64;
                collector.record(&TelemetryEvent::Generalization(GeneralizationRecord {
                    generation: self.generation,
                    backend: self.backend.kind().name().to_string(),
                    env: self.config.env.name().to_string(),
                    train_fitness: best,
                    holdout_fitness,
                    holdout_scenarios: count,
                    holdout_min,
                    holdout_max,
                    holdout_std: variance.sqrt(),
                    gap: best - holdout_fitness,
                }))?;
            }
        }
        self.population.assign_fitnesses(outcome.fitnesses);
        let best_ever = self.population.best().map_or(best, |b| b.fitness);
        self.trace.push((self.profile.total(), best_ever));
        eval_span.finish();
        self.pending_evolve = Some(PendingEvolve {
            best,
            mean,
            best_ever,
            generation_span,
        });
        Ok(best)
    }

    /// Second half of [`E3Platform::step_with`]: reproduces the
    /// population (speciate + mutate + crossover) and records the
    /// `Generation` telemetry plus any due autocheckpoint — the
    /// snapshot sits exactly on the generation boundary the next step
    /// starts from. Returns the best fitness of the generation that
    /// was evaluated by the matching [`E3Platform::eval_phase_with`].
    ///
    /// # Panics
    ///
    /// Panics if no eval phase is pending.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Telemetry`] if the collector rejects a
    /// record and [`RunError::Store`] if a due checkpoint cannot be
    /// persisted.
    pub fn evolve_phase_with(&mut self, collector: &mut dyn Collector) -> Result<f64, RunError> {
        let PendingEvolve {
            best,
            mean,
            best_ever,
            generation_span,
        } = self
            .pending_evolve
            .take()
            .expect("evolve phase called without a pending eval phase");
        // --- Evolve phase (modeled costs; the actual work runs too). ---
        let evolve_span = self.tracer.start("evolve", "platform");
        let pop = self.config.neat.population_size as f64;
        let species_count = self.population.species().len();
        let species = species_count.max(1) as f64;
        self.profile.speciate += pop * species * self.config.sw.sec_speciate_per_comparison;
        self.profile.mutate += pop * self.config.sw.sec_mutate_per_genome;
        self.profile.crossover +=
            pop * self.config.neat.crossover_rate * self.config.sw.sec_crossover_per_child;
        self.population.evolve();
        evolve_span.finish();
        collector.record(&TelemetryEvent::Generation(GenerationRecord {
            generation: self.generation,
            backend: self.backend.kind().name().to_string(),
            env: self.config.env.name().to_string(),
            best_fitness: best_ever,
            mean_fitness: mean,
            species: species_count,
            modeled_seconds: self.profile.total(),
            split: self.profile,
        }))?;
        self.generation += 1;
        self.last_step_best = Some(best);
        generation_span.finish();
        // Generation-granular autocheckpoint: persist after the evolve
        // phase so the snapshot sits exactly on the generation
        // boundary the next step starts from.
        if let Some(every) = self.config.checkpoint.as_ref().map(|p| p.every) {
            if self.generation.is_multiple_of(every.max(1)) {
                self.write_checkpoint(collector)?;
            }
        }
        Ok(best)
    }

    /// Runs until the target fitness is reached or the generation cap
    /// hits, returning the outcome. Telemetry is discarded; see
    /// [`E3Platform::run_with`].
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Eval`] if the backend rejects a population.
    pub fn run(self) -> Result<RunOutcome, RunError> {
        self.run_with(&mut NullCollector)
    }

    /// Runs until the target fitness is reached or the generation cap
    /// hits, reporting telemetry (per-eval, per-generation, and a
    /// final [`RunSummary`]) to `collector`, which is flushed before
    /// returning.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Eval`] if the backend rejects a population
    /// and [`RunError::Telemetry`] if the collector rejects a record.
    pub fn run_with(mut self, collector: &mut dyn Collector) -> Result<RunOutcome, RunError> {
        let mut run_span = self.tracer.start("run", "platform");
        run_span.arg("max_generations", self.config.max_generations as f64);
        // A resumed run may already be finished (checkpointed right
        // after the solving generation); announce the resume even when
        // the loop body never executes.
        if let Some(resume) = self.pending_resume.take() {
            collector.record(&TelemetryEvent::Resume(resume))?;
        }
        while !self.finished() {
            self.step_with(collector)?;
        }
        let solved = self.solved();
        let generations_run = self.generation;
        let best_fitness = self
            .population
            .best()
            .map_or(f64::NEG_INFINITY, |b| b.fitness);
        let kind = self.backend.kind();
        let energy = PowerModel::default().energy(kind, &self.profile);
        // One utilization record per run, before the summary, and only
        // when the backend produced cycle-level accounting (INAX).
        if let Some(breakdown) = &self.hw_utilization {
            collector.record(&TelemetryEvent::Utilization(UtilizationRecord {
                backend: kind.name().to_string(),
                env: self.config.env.name().to_string(),
                total_cycles: self.hw_report.map_or(0, |r| r.total_cycles),
                breakdown: breakdown.clone(),
            }))?;
        }
        collector.record(&TelemetryEvent::Summary(RunSummary {
            backend: kind.name().to_string(),
            env: self.config.env.name().to_string(),
            generations: generations_run,
            solved,
            best_fitness,
            modeled_seconds: self.profile.total(),
            speedup_vs_cpu: None,
            energy_joules: Some(energy.total()),
            split: self.profile,
        }))?;
        collector.flush()?;
        run_span.finish();
        Ok(RunOutcome {
            solved,
            generations_run,
            best_fitness,
            modeled_seconds: self.profile.total(),
            profile: self.profile,
            trace: self.trace,
            hw_report: self.hw_report,
            hw_utilization: self.hw_utilization,
            complexity: self.complexity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(env: EnvId) -> E3Config {
        E3Config::builder(env)
            .population_size(20)
            .max_generations(3)
            .build()
    }

    #[test]
    fn run_produces_trace_and_profile() {
        let outcome = E3Platform::new(small(EnvId::CartPole), BackendKind::Cpu, 5)
            .run()
            .unwrap();
        assert!(outcome.generations_run >= 1);
        assert_eq!(outcome.trace.len(), outcome.generations_run);
        assert!(outcome.profile.evaluate > 0.0);
        assert!(outcome.profile.mutate > 0.0);
        assert!(outcome.modeled_seconds > 0.0);
        assert!(outcome.complexity.generations() >= 1);
    }

    #[test]
    fn a_failed_evaluation_records_no_complexity_sample() {
        let mut platform = E3Platform::new(small(EnvId::CartPole), BackendKind::Cpu, 5);
        platform.step_generation().expect("generation 0 evaluates");
        assert_eq!(platform.complexity.generations(), 1);
        // A self-loop: no backend can lower the genome, so the next
        // evaluation fails.
        let mut state = platform.capture_state();
        let genome = &mut state.population.genomes[4];
        let node = genome.nodes().last().expect("genome has nodes").id;
        let mut tracker = e3_neat::InnovationTracker::with_reserved_nodes(genome.nodes().len());
        genome
            .add_connection_unchecked(node, node, 0.5, &mut tracker)
            .expect("self-loop is structurally new");
        platform.apply_state(state);
        let before = platform.complexity.clone();
        let profile_before = *platform.profile();
        let episode_seed_before = platform.capture_state().episode_seed;
        assert!(matches!(
            platform.step_generation(),
            Err(RunError::Eval(EvalError::NotFeedForward {
                genome_index: 4,
                ..
            }))
        ));
        assert_eq!(
            platform.complexity, before,
            "the mean must not be taken over the genomes that happened to decode"
        );
        assert_eq!(
            *platform.profile(),
            profile_before,
            "a failed evaluation charges no modeled seconds, CreateNet included"
        );
        assert_eq!(
            platform.capture_state().episode_seed,
            episode_seed_before,
            "a retry sees the episode conditions the failed attempt would have"
        );
    }

    #[test]
    fn fingerprint_ignores_threads_and_checkpoint_policy() {
        let base = fingerprint(&small(EnvId::CartPole), BackendKind::Cpu, 7);
        let mut threaded = small(EnvId::CartPole);
        threaded.threads = 8;
        threaded.checkpoint = Some(CheckpointPolicy::new("/tmp/ckpt").every(5));
        threaded.jit = JitConfig {
            enabled: true,
            hot_threshold: 1,
        };
        assert_eq!(fingerprint(&threaded, BackendKind::Cpu, 7), base);
    }

    #[test]
    fn fingerprint_distinguishes_run_identity() {
        let base = fingerprint(&small(EnvId::CartPole), BackendKind::Cpu, 7);
        assert_ne!(
            fingerprint(&small(EnvId::CartPole), BackendKind::Cpu, 8),
            base
        );
        assert_ne!(
            fingerprint(&small(EnvId::CartPole), BackendKind::Inax, 7),
            base
        );
        let mut bigger = small(EnvId::CartPole);
        bigger.neat.population_size = 21;
        assert_ne!(fingerprint(&bigger, BackendKind::Cpu, 7), base);
    }

    #[test]
    fn trace_runtime_is_monotone_and_fitness_nondecreasing() {
        let config = E3Config::builder(EnvId::MountainCar)
            .population_size(30)
            .max_generations(5)
            .target_fitness(f64::INFINITY)
            .build();
        let outcome = E3Platform::new(config, BackendKind::Cpu, 3).run().unwrap();
        for pair in outcome.trace.windows(2) {
            assert!(pair[1].0 > pair[0].0, "runtime accumulates");
            assert!(pair[1].1 >= pair[0].1, "best-so-far never drops");
        }
    }

    #[test]
    fn cpu_profile_is_evaluate_dominated_like_fig1b() {
        let config = E3Config::builder(EnvId::CartPole)
            .population_size(50)
            .max_generations(4)
            .target_fitness(f64::INFINITY)
            .build();
        let outcome = E3Platform::new(config, BackendKind::Cpu, 7).run().unwrap();
        assert!(
            outcome.profile.evaluate_fraction() > 0.6,
            "evaluate must dominate on CPU, got {}",
            outcome.profile.evaluate_fraction()
        );
        assert!(
            outcome.profile.evolve_fraction() < 0.2,
            "evolve must be light, got {}",
            outcome.profile.evolve_fraction()
        );
    }

    #[test]
    fn split_phases_match_whole_steps_bit_for_bit() {
        let config = E3Config::builder(EnvId::CartPole)
            .population_size(20)
            .max_generations(4)
            .target_fitness(f64::INFINITY)
            .build();
        let mut whole = E3Platform::new(config.clone(), BackendKind::Cpu, 11);
        let mut split = E3Platform::new(config, BackendKind::Cpu, 11);
        for _ in 0..4 {
            let a = whole.step_with(&mut NullCollector).unwrap();
            assert!(split.pending_evolve.is_none());
            let eval_best = split.eval_phase_with(&mut NullCollector).unwrap();
            assert!(split.pending_evolve.is_some());
            let b = split.evolve_phase_with(&mut NullCollector).unwrap();
            assert_eq!(a, b);
            assert_eq!(a, eval_best);
        }
        assert_eq!(whole.generation(), split.generation());
        assert_eq!(whole.trace, split.trace);
        assert_eq!(
            whole.population().genomes().len(),
            split.population().genomes().len()
        );
        let fp = |p: &E3Platform| {
            p.population()
                .genomes()
                .iter()
                .map(|g| g.fingerprint())
                .collect::<Vec<_>>()
        };
        assert_eq!(fp(&whole), fp(&split));
    }

    #[test]
    #[should_panic(expected = "without a pending eval phase")]
    fn evolve_phase_requires_a_pending_eval() {
        let mut platform = E3Platform::new(small(EnvId::CartPole), BackendKind::Cpu, 5);
        let _ = platform.evolve_phase_with(&mut NullCollector);
    }

    #[test]
    fn shared_pool_platforms_match_private_pool_platforms() {
        let config = E3Config::builder(EnvId::CartPole)
            .population_size(20)
            .max_generations(3)
            .threads(2)
            .target_fitness(f64::INFINITY)
            .build();
        let pool = SharedExecutor::new(2);
        // Two platforms time-slice one pool; each matches its own
        // private-pool twin bit-for-bit.
        for seed in [5u64, 6] {
            let private = E3Platform::new(config.clone(), BackendKind::Cpu, seed)
                .run()
                .unwrap();
            let shared =
                E3Platform::new_with_executor(config.clone(), BackendKind::Cpu, seed, pool.clone())
                    .run()
                    .unwrap();
            assert_eq!(private.best_fitness, shared.best_fitness);
            assert_eq!(private.trace, shared.trace);
        }
    }

    #[test]
    fn inax_and_cpu_runs_follow_identical_evolution() {
        // Same seed ⇒ same fitnesses ⇒ same evolutionary trajectory.
        let a = E3Platform::new(small(EnvId::CartPole), BackendKind::Cpu, 9)
            .run()
            .unwrap();
        let b = E3Platform::new(small(EnvId::CartPole), BackendKind::Inax, 9)
            .run()
            .unwrap();
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(a.generations_run, b.generations_run);
        let best_a: Vec<f64> = a.trace.iter().map(|t| t.1).collect();
        let best_b: Vec<f64> = b.trace.iter().map(|t| t.1).collect();
        assert_eq!(best_a, best_b);
        assert!(
            b.modeled_seconds < a.modeled_seconds,
            "INAX accelerates the run"
        );
        assert!(b.hw_report.is_some());
    }

    #[test]
    fn inax_run_reports_utilization_that_reconciles() {
        let outcome = E3Platform::new(small(EnvId::CartPole), BackendKind::Inax, 9)
            .run()
            .unwrap();
        let report = outcome.hw_report.expect("INAX cycle accounting");
        let util = outcome.hw_utilization.expect("INAX utilization accounting");
        assert!(!util.per_pu.is_empty());
        for cycles in &util.per_pu {
            assert_eq!(cycles.total(), report.total_cycles);
        }
        let lane_busy: u64 = util.per_pe.iter().map(|l| l.busy).sum();
        assert_eq!(lane_busy, report.breakdown.pe_active);
        // Software runs carry no cycle-level accounting.
        let cpu = E3Platform::new(small(EnvId::CartPole), BackendKind::Cpu, 9)
            .run()
            .unwrap();
        assert!(cpu.hw_utilization.is_none());
    }

    #[test]
    fn traced_run_records_full_span_hierarchy() {
        let tracer = Tracer::enabled();
        let mut platform = E3Platform::new(small(EnvId::CartPole), BackendKind::Inax, 9);
        platform.set_tracer(tracer.clone());
        let traced = platform.run().unwrap();
        let names: Vec<String> = tracer.spans().into_iter().map(|s| s.name).collect();
        for expected in ["run", "generation", "eval", "evolve", "shard", "episode"] {
            assert!(
                names.iter().any(|n| n == expected),
                "missing {expected} span"
            );
        }
        // Tracing is write-only: same outcome as the untraced run.
        let plain = E3Platform::new(small(EnvId::CartPole), BackendKind::Inax, 9)
            .run()
            .unwrap();
        assert_eq!(traced, plain);
    }

    #[test]
    fn solved_run_stops_early() {
        // CartPole is trivial for NEAT; a decent population solves it
        // within a few generations.
        let config = E3Config::builder(EnvId::CartPole)
            .population_size(100)
            .max_generations(30)
            .build();
        let outcome = E3Platform::new(config, BackendKind::Cpu, 11).run().unwrap();
        assert!(outcome.solved, "cartpole should be solved");
        assert!(outcome.generations_run < 30);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("e3-platform-ckpt-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn resume_without_policy_or_snapshots_is_none() {
        assert!(
            E3Platform::resume(small(EnvId::CartPole), BackendKind::Cpu, 5)
                .unwrap()
                .is_none(),
            "no checkpoint policy means nothing to resume"
        );
        let dir = scratch_dir("fresh");
        let mut config = small(EnvId::CartPole);
        config.checkpoint = Some(CheckpointPolicy::new(dir.to_string_lossy().into_owned()));
        assert!(
            E3Platform::resume(config, BackendKind::Cpu, 5)
                .unwrap()
                .is_none(),
            "an empty directory means nothing to resume"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_run_resumes_bit_identically() {
        let reference = E3Platform::new(small(EnvId::CartPole), BackendKind::Cpu, 5)
            .run()
            .unwrap();

        let dir = scratch_dir("resume");
        let mut config = small(EnvId::CartPole);
        config.checkpoint = Some(CheckpointPolicy::new(dir.to_string_lossy().into_owned()));
        {
            // Run one generation (checkpointed), then "crash" by
            // dropping the platform.
            let mut interrupted = E3Platform::new(config.clone(), BackendKind::Cpu, 5);
            interrupted.step_generation().unwrap();
        }
        let resumed = E3Platform::resume(config, BackendKind::Cpu, 5)
            .unwrap()
            .expect("one checkpoint on disk");
        assert_eq!(resumed.generation(), 1);
        let outcome = resumed.run().unwrap();
        // Checkpointing never affects results: the resumed outcome is
        // the uninterrupted outcome, field for field.
        assert_eq!(outcome, reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_refuses_a_different_run() {
        let dir = scratch_dir("refuse");
        let mut config = small(EnvId::CartPole);
        config.checkpoint = Some(CheckpointPolicy::new(dir.to_string_lossy().into_owned()));
        {
            let mut platform = E3Platform::new(config.clone(), BackendKind::Cpu, 5);
            platform.step_generation().unwrap();
        }
        // Same directory, different seed: a silent resume would change
        // results, so it must error instead.
        let err = E3Platform::resume(config, BackendKind::Cpu, 6).unwrap_err();
        assert!(matches!(
            err,
            RunError::Store(StoreError::FingerprintMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_cadence_and_telemetry_records() {
        use e3_telemetry::MemoryCollector;
        let dir = scratch_dir("cadence");
        let mut config = small(EnvId::CartPole);
        config.max_generations = 4;
        config.target_fitness = f64::INFINITY;
        config.checkpoint =
            Some(CheckpointPolicy::new(dir.to_string_lossy().into_owned()).every(2));
        let mut collector = MemoryCollector::new();
        E3Platform::new(config.clone(), BackendKind::Cpu, 5)
            .run_with(&mut collector)
            .unwrap();
        // 4 generations at every=2 ⇒ checkpoints after generations 2 and 4.
        let checkpoints: Vec<usize> = collector.checkpoints().map(|c| c.generation).collect();
        assert_eq!(checkpoints, vec![2, 4]);
        assert!(collector.checkpoints().all(|c| c.bytes > 0));

        let mut resumed_collector = MemoryCollector::new();
        let resumed = E3Platform::resume(config, BackendKind::Cpu, 5)
            .unwrap()
            .expect("snapshots on disk");
        resumed.run_with(&mut resumed_collector).unwrap();
        // The run was already complete, so the continuation emits the
        // Resume record, no further generations, and the Summary.
        assert_eq!(resumed_collector.resumes().count(), 1);
        assert_eq!(resumed_collector.resumes().next().unwrap().generation, 4);
        assert_eq!(resumed_collector.generations().count(), 0);
        assert_eq!(resumed_collector.summaries().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explicit_default_scenario_config_matches_the_implicit_one() {
        // The scenario field defaults to vanilla; a config that spells
        // the default out explicitly must reproduce the implicit one
        // bit-for-bit (both resolve to the fixed seed schedule).
        let implicit = E3Platform::new(small(EnvId::CartPole), BackendKind::Cpu, 5)
            .run()
            .unwrap();
        let mut config = small(EnvId::CartPole);
        config.scenario = ScenarioConfig::default();
        let explicit = E3Platform::new(config, BackendKind::Cpu, 5).run().unwrap();
        assert_eq!(implicit, explicit);
    }

    #[test]
    fn scenario_training_changes_results_but_stays_deterministic() {
        use crate::scenario::FitnessAggregation;
        use e3_envs::ScenarioDistribution;
        let scenario = ScenarioConfig::default()
            .train(ScenarioDistribution::moderate())
            .scenarios_per_eval(3)
            .aggregation(FitnessAggregation::CVaR { alpha: 0.5 });
        let mut config = small(EnvId::CartPole);
        config.target_fitness = f64::INFINITY;
        config.scenario = scenario;
        let a = E3Platform::new(config.clone(), BackendKind::Cpu, 5)
            .run()
            .unwrap();
        let b = E3Platform::new(config.clone(), BackendKind::Cpu, 5)
            .run()
            .unwrap();
        assert_eq!(a, b, "scenario training must be deterministic");
        let mut vanilla = small(EnvId::CartPole);
        vanilla.target_fitness = f64::INFINITY;
        let c = E3Platform::new(vanilla, BackendKind::Cpu, 5).run().unwrap();
        assert_ne!(
            a.trace, c.trace,
            "multi-scenario training must actually change the run"
        );
    }

    #[test]
    fn holdout_pass_emits_generalization_without_perturbing_the_run() {
        use crate::scenario::HoldoutConfig;
        use e3_envs::ScenarioDistribution;
        use e3_telemetry::MemoryCollector;
        let mut plain = small(EnvId::CartPole);
        plain.target_fitness = f64::INFINITY;
        let mut probed = plain.clone();
        probed.scenario = ScenarioConfig::default()
            .holdout(HoldoutConfig::new(ScenarioDistribution::shifted()).scenarios(4));
        assert!(probed.scenario.is_vanilla(), "holdout alone stays vanilla");

        let baseline = E3Platform::new(plain, BackendKind::Cpu, 5).run().unwrap();
        let mut collector = MemoryCollector::new();
        let outcome = E3Platform::new(probed, BackendKind::Cpu, 5)
            .run_with(&mut collector)
            .unwrap();
        // Read-only: the probed run reproduces the plain run exactly.
        assert_eq!(baseline, outcome);
        let records: Vec<_> = collector.generalizations().collect();
        assert_eq!(
            records.len(),
            outcome.generations_run,
            "one pass per generation"
        );
        // (mean, min, max, std) bits per generation, captured while the
        // pass ran its worlds one after another.
        #[rustfmt::skip]
        let golden: [[u64; 4]; 3] = [
            [0x4055800000000000, 0x404c000000000000, 0x405d400000000000, 0x40388686f79df7d4],
            [0x4059100000000000, 0x4054000000000000, 0x4060c00000000000, 0x4034eed468b9d25b],
            [0x4066b00000000000, 0x4061200000000000, 0x406f200000000000, 0x4044a4f171aa8e7f],
        ];
        for (record, golden) in records.into_iter().zip(golden) {
            let stats = [
                record.holdout_fitness,
                record.holdout_min,
                record.holdout_max,
                record.holdout_std,
            ];
            assert_eq!(stats.map(f64::to_bits), golden, "{stats:?}");
            assert_eq!(record.holdout_scenarios, 4);
            assert!(record.holdout_fitness.is_finite());
            assert!(record.holdout_min <= record.holdout_fitness);
            assert!(record.holdout_fitness <= record.holdout_max);
            assert!(record.holdout_std >= 0.0);
            assert_eq!(record.gap, record.train_fitness - record.holdout_fitness);
        }
    }

    #[test]
    fn holdout_cadence_skips_generations() {
        use crate::scenario::HoldoutConfig;
        use e3_envs::ScenarioDistribution;
        use e3_telemetry::MemoryCollector;
        let mut config = small(EnvId::CartPole);
        config.max_generations = 4;
        config.target_fitness = f64::INFINITY;
        config.scenario = ScenarioConfig::default().holdout(HoldoutConfig {
            every: 2,
            ..HoldoutConfig::new(ScenarioDistribution::moderate())
        });
        let mut collector = MemoryCollector::new();
        E3Platform::new(config, BackendKind::Cpu, 5)
            .run_with(&mut collector)
            .unwrap();
        // Generations 0..4 evaluate; passes run at generations 0 and 2.
        let generations: Vec<usize> = collector.generalizations().map(|g| g.generation).collect();
        assert_eq!(generations, vec![0, 2]);
    }

    #[test]
    fn scenario_config_round_trips_through_e3_config_json() {
        use crate::scenario::{FitnessAggregation, HoldoutConfig};
        use e3_envs::ScenarioDistribution;
        let mut config = small(EnvId::Pendulum);
        config.scenario = ScenarioConfig::default()
            .train(ScenarioDistribution::moderate())
            .scenarios_per_eval(4)
            .aggregation(FitnessAggregation::CVaR { alpha: 0.25 })
            .holdout(HoldoutConfig::new(ScenarioDistribution::shifted()).scenarios(6));
        let json = serde_json::to_string(&config).unwrap();
        let back: E3Config = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }
}
