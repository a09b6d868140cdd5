//! Evaluation backends: E3-CPU, E3-GPU, and E3-INAX.
//!
//! A backend owns the paper's "evaluate" phase: run every genome of a
//! generation through its environment episode and report fitness plus
//! modeled time. All backends are **functionally identical** — same
//! fitness for the same seed — and differ only in how the inference is
//! executed and therefore how long it takes (paper §VI-A's three
//! settings).
//!
//! There is one entry point, the fallible [`EvalBackend::evaluate`]:
//! a population, an environment, and a [`ScenarioSpec`] saying which
//! worlds and episode seeds every genome faces (a fixed-env evaluation
//! is [`ScenarioSpec::fixed`], the K = 1 default-world case). A genome
//! that cannot be lowered to a feed-forward network surfaces as
//! [`EvalError::NotFeedForward`] instead of a panic, so callers (the
//! platform loop, sweeps, long benchmark campaigns) can decide how to
//! react.
//!
//! Behind it sit two K-scenario kernels: the [`SoftwareBackend`]'s
//! per-genome walk (E3-CPU and E3-GPU are that one backend under two
//! [`Pricing`]s) and the [`InaxBackend`]'s wave loop. Backends are
//! constructed either directly or through the unified
//! [`BackendBuilder`] (mirroring `InaxConfig::builder()`), which
//! yields the type-erased [`AnyBackend`].

use crate::scenario::{aggregate_fitness, ScenarioSpec};
use crate::tier::{Tier, TierExec, TierStats};
use crate::timing::{GpuCostModel, SwCostModel};
use e3_envs::{decode_action, EnvId, Environment};
use e3_exec::{
    AnyExecutor, ExecError, ExecStats, ExecStatsState, Executor, ShardRun, SharedExecutor,
    WorkerScratch,
};
use e3_inax::{EpisodeRunReport, InaxAccelerator, InaxConfig, IrregularNet, UtilizationBreakdown};
use e3_jit::JitConfig;
use e3_neat::stats::PlanShape;
use e3_neat::{DecodeError, ForwardPass, Genome, NetPlan};
use e3_telemetry::{SpanGuard, SpanTimer, Tracer};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;
use std::str::FromStr;
use std::sync::Arc;

/// Which backend executes "evaluate".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// Software-only baseline (paper: E3-CPU).
    Cpu,
    /// GPU offload model (paper: E3-GPU).
    Gpu,
    /// INAX accelerator simulator (paper: E3-INAX).
    Inax,
}

impl BackendKind {
    /// All backends in the paper's comparison order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Cpu, BackendKind::Gpu, BackendKind::Inax];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Cpu => "E3-CPU",
            BackendKind::Gpu => "E3-GPU",
            BackendKind::Inax => "E3-INAX",
        }
    }

    /// Starts a [`BackendBuilder`] for this kind with default cost
    /// models.
    pub fn builder(self) -> BackendBuilder {
        BackendBuilder::new(self)
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error produced when parsing a [`BackendKind`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendKindError {
    input: String,
}

impl fmt::Display for ParseBackendKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend {:?} (expected one of: cpu, gpu, inax)",
            self.input
        )
    }
}

impl std::error::Error for ParseBackendKindError {}

impl FromStr for BackendKind {
    type Err = ParseBackendKindError;

    /// Accepts the paper names (`"E3-CPU"`) and the bare kinds
    /// (`"cpu"`), case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cpu" | "e3-cpu" => Ok(BackendKind::Cpu),
            "gpu" | "e3-gpu" => Ok(BackendKind::Gpu),
            "inax" | "e3-inax" => Ok(BackendKind::Inax),
            _ => Err(ParseBackendKindError {
                input: s.to_string(),
            }),
        }
    }
}

/// Error produced when a population cannot be evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A genome could not be lowered to a feed-forward network (the
    /// only phenotype every backend can execute).
    NotFeedForward {
        /// Index of the offending genome in the evaluated slice.
        genome_index: usize,
        /// Why decoding failed.
        reason: DecodeError,
    },
    /// The parallel executor failed (a shard task panicked or a worker
    /// thread was lost).
    ExecFailed(ExecError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::NotFeedForward {
                genome_index,
                reason,
            } => write!(f, "genome {genome_index} is not feed-forward: {reason}"),
            EvalError::ExecFailed(err) => write!(f, "parallel evaluation failed: {err}"),
        }
    }
}

impl From<ExecError> for EvalError {
    fn from(err: ExecError) -> Self {
        EvalError::ExecFailed(err)
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::NotFeedForward { reason, .. } => Some(reason),
            EvalError::ExecFailed(err) => Some(err),
        }
    }
}

/// Result of evaluating one generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// Fitness per genome, in population order.
    pub fitnesses: Vec<f64>,
    /// Episode length per genome.
    pub steps_per_genome: Vec<u64>,
    /// Modeled seconds spent on NN inference (the backend's share).
    pub eval_seconds: f64,
    /// Modeled seconds of CPU-side environment stepping.
    pub env_seconds: f64,
    /// Total environment steps across the generation.
    pub total_steps: u64,
    /// Structural shape per genome, in population order, read off the
    /// plan its evaluation compiled — what the platform's complexity
    /// statistics fold, so CreateNet runs once per genome.
    pub shapes: Vec<PlanShape>,
    /// Accelerator accounting (INAX backend only).
    pub hw_report: Option<EpisodeRunReport>,
    /// Cycle-level per-PU/per-PE utilization accounting (INAX backend
    /// only).
    pub hw_utilization: Option<UtilizationBreakdown>,
}

/// The "evaluate" phase executor.
pub trait EvalBackend {
    /// Backend identity.
    fn kind(&self) -> BackendKind;

    /// Evaluates every genome on `env` under `spec` — one episode per
    /// `(genome, scenario)` cell, collapsed per genome by the spec's
    /// aggregation — returning fitnesses and modeled timing. A
    /// fixed-env evaluation is [`ScenarioSpec::fixed`]; there is no
    /// other entry point.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::NotFeedForward`] naming the lowest-indexed
    /// genome that cannot be lowered to a feed-forward network, or
    /// [`EvalError::ExecFailed`] if the parallel executor failed.
    ///
    /// # Panics
    ///
    /// Panics if `genomes.len() != spec.population()`: the spec's
    /// episode-seed matrix must cover exactly the evaluated slice.
    fn evaluate(
        &mut self,
        genomes: &[Genome],
        env: EnvId,
        spec: &ScenarioSpec,
    ) -> Result<EvalOutcome, EvalError>;

    /// Takes (consumes) the statistics of the most recent successful
    /// `evaluate` call: the executor's schedule and what the backend's
    /// plan-cache tier did around it ([`TierStats`], all zero for a
    /// backend without a tier).
    ///
    /// The default returns [`ExecStatsState::Unavailable`]: the backend
    /// runs no executor and can never produce stats. Backends that *do*
    /// run one return [`ExecStatsState::Idle`] when no evaluation has
    /// completed since the last take, and [`ExecStatsState::Ready`]
    /// otherwise — so callers can tell "this backend has no stats to
    /// offer" from "nothing has run yet" instead of both collapsing to
    /// a silently dropped `None`.
    ///
    /// Stats are observability only: they describe the nondeterministic
    /// execution schedule (wall times, steals, cache hits), never the
    /// results, which are bit-identical across thread counts.
    fn take_exec_stats(&mut self) -> ExecStatsState<EvalStats> {
        ExecStatsState::Unavailable
    }

    /// Installs a tracer; subsequent evaluations record `shard` and
    /// `episode` spans into it. The default ignores the tracer
    /// (backends without instrumentation stay valid). Tracing is
    /// write-only: results are bit-identical with any tracer installed.
    fn set_tracer(&mut self, _tracer: Tracer) {}
}

/// What [`EvalBackend::take_exec_stats`] yields per evaluation: the
/// executor's statistics and the tier's.
pub type EvalStats = (ExecStats, TierStats);

/// Runs one network's episode in software, returning
/// `(fitness, steps)`. Generic over the [`ForwardPass`] seam so the
/// same kernel drives the interpreted network and the JIT tier's
/// `CompiledPlan` — which are bit-identical by contract, so the episode
/// trajectory cannot depend on the tier.
pub(crate) fn run_software_episode(
    net: &mut dyn ForwardPass,
    env: &mut dyn Environment,
    episode_seed: u64,
) -> (f64, u64) {
    let space = env.action_space();
    let mut obs = env.reset(episode_seed);
    let mut fitness = 0.0;
    let mut steps = 0u64;
    loop {
        let outputs = net.activate_into(&obs);
        let action = decode_action(outputs, &space);
        let transition = env.step_into(&action, &mut obs);
        fitness += transition.reward;
        steps += 1;
        if transition.done() {
            return (fitness, steps);
        }
    }
}

/// A genome that failed to decode: its population index and why.
type DecodeFailure = (usize, DecodeError);

/// What every shard task of one evaluation reads, shared immutably
/// across workers: the population, the resolved request, and where to
/// record spans.
struct EvalJob {
    pop: Arc<[Genome]>,
    env: EnvId,
    spec: ScenarioSpec,
    tracer: Tracer,
}

impl EvalJob {
    /// Snapshots the request. This is the one place the population is
    /// checked against the spec (see `EvalBackend::evaluate`,
    /// `# Panics`).
    fn new(genomes: &[Genome], env: EnvId, spec: &ScenarioSpec, tracer: &Tracer) -> Self {
        assert_eq!(
            genomes.len(),
            spec.population(),
            "the spec's episode-seed matrix must cover the evaluated population"
        );
        EvalJob {
            pop: genomes.into(),
            env,
            spec: spec.clone(),
            tracer: tracer.clone(),
        }
    }

    /// Runs `task` over every shard of `0..items` and flattens the
    /// rows in index order. Shards are contiguous ranges and every
    /// kernel reports its lowest-indexed decode failure, so the first
    /// error met in that order is the population's lowest-indexed one —
    /// the first-failure semantics of a serial loop, at any thread
    /// count.
    fn run<T, F>(
        self,
        exec: &mut AnyExecutor,
        items: usize,
        shard_size: usize,
        task: F,
    ) -> Result<ShardRun<T>, EvalError>
    where
        T: Send + 'static,
        F: Fn(&EvalJob, &mut WorkerScratch, Range<usize>) -> Vec<Result<T, DecodeFailure>>
            + Send
            + Sync
            + 'static,
    {
        let run = exec.run_shards(items, shard_size, move |scratch, range| {
            task(&self, scratch, range)
        })?;
        let results = run
            .results
            .into_iter()
            .map(|row| {
                row.map_err(|(genome_index, reason)| EvalError::NotFeedForward {
                    genome_index,
                    reason,
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(ShardRun {
            results,
            stats: run.stats,
        })
    }

    /// Opens the span covering one shard (`items` genomes from
    /// `start`).
    fn shard_span(&self, start_key: &str, start: usize, items: usize) -> SpanGuard {
        let mut span = self.tracer.span("shard", "exec");
        span.arg(start_key, start as f64);
        span.arg("items", items as f64);
        span
    }

    /// Opens the span of one `(genome, scenario)` episode. Inert (no
    /// clock read) when tracing is disabled.
    fn episode_timer(&self, genome_index: usize, scenario: usize) -> SpanTimer {
        let mut timer = self.tracer.start("episode", "env");
        timer.arg("genome_index", genome_index as f64);
        timer.arg("scenario", scenario as f64);
        timer
    }
}

/// Closes an episode's span, recording its length.
fn finish_episode(mut timer: SpanTimer, steps: u64) {
    timer.arg("steps", steps as f64);
    timer.finish();
}

/// Which cost model prices one software inference — the only thing
/// E3-CPU and E3-GPU differ in (the GPU is an analytical model of the
/// same computation, see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pricing {
    /// Interpreted-runtime cost model (paper: E3-CPU).
    Cpu(SwCostModel),
    /// Launch-bound GPU offload model (paper: E3-GPU).
    Gpu(GpuCostModel),
}

impl Pricing {
    /// Modeled seconds for one inference of `plan`.
    pub fn inference_seconds(&self, plan: &NetPlan) -> f64 {
        match self {
            Pricing::Cpu(model) => model.inference_seconds_plan(plan),
            Pricing::Gpu(model) => model.inference_seconds_plan(plan),
        }
    }

    /// The paper backend this pricing stands for.
    pub fn kind(&self) -> BackendKind {
        match self {
            Pricing::Cpu(_) => BackendKind::Cpu,
            Pricing::Gpu(_) => BackendKind::Gpu,
        }
    }
}

/// Shards per worker of a software evaluation: over-sharded so work
/// stealing absorbs episode-length imbalance. The shard plan depends
/// only on this, the population and the worker count, never on timing,
/// so every run produces the same one.
const SHARDS_PER_WORKER: usize = 4;

/// One genome's row of a software evaluation.
struct GenomeRow {
    fitness: f64,
    steps: u64,
    inference_seconds: f64,
    shape: PlanShape,
}

/// The software kernel for one shard: lower each genome — through this
/// worker's tiered cache when the backend has a tier, with a plain
/// [`Genome::decode`] otherwise — then run its K episodes back to
/// back, one whole individual per worker at a time (the paper's "one
/// individual NN per PU").
fn per_genome_shard(
    job: &EvalJob,
    pricing: Pricing,
    tier: Option<&Tier>,
    scratch: &WorkerScratch,
    range: Range<usize>,
) -> Vec<Result<GenomeRow, DecodeFailure>> {
    let _shard_span = job.shard_span("start", range.start, range.len());
    // One environment per sampled world, built once per shard:
    // `reset` fully re-initialises an episode, so genomes reuse them.
    let mut envs: Vec<Box<dyn Environment>> = job
        .spec
        .params()
        .iter()
        .map(|params| job.env.make_scenario(params))
        .collect();
    let mut fits = vec![0.0; envs.len()];
    let mut cache = tier.map(|tier| tier.cache(scratch.worker_index()));
    range
        .map(|i| {
            // Tier selection: the interpreted network, or (for hot
            // entries under an enabled JIT policy) its natively
            // compiled twin — bit-identical either way.
            let failed = |reason| (i, reason);
            let mut decoded;
            let mut exec = match cache.as_deref_mut() {
                Some(cache) => cache.get_or_tiered(&job.pop[i]).map_err(failed)?,
                None => {
                    decoded = job.pop[i].decode().map_err(failed)?;
                    TierExec::Interpreted(&mut decoded)
                }
            };
            let mut genome_steps = 0u64;
            let seeds = job.spec.episode_seeds(i..i + 1);
            for (s, (env, &seed)) in envs.iter_mut().zip(seeds).enumerate() {
                let episode_span = job.episode_timer(i, s);
                let (fitness, steps) = run_software_episode(exec.forward(), env.as_mut(), seed);
                finish_episode(episode_span, steps);
                fits[s] = fitness;
                genome_steps += steps;
            }
            let plan = exec.plan();
            Ok(GenomeRow {
                fitness: aggregate_fitness(&fits, job.spec.aggregation()),
                steps: genome_steps,
                inference_seconds: pricing.inference_seconds(plan) * genome_steps as f64,
                shape: PlanShape::of(plan),
            })
        })
        .collect()
}

/// E3-CPU and E3-GPU: software evaluation on host worker threads,
/// timed by a [`Pricing`] cost model. Host parallelism — NE's
/// embarrassing parallelism is one of the properties the paper cites
/// ([35], [43]) — never changes the *modeled* time, so comparisons stay
/// faithful to the baseline platforms; fitness values are bit-identical
/// at every thread count (see `e3-exec`).
#[derive(Debug)]
pub struct SoftwareBackend {
    pricing: Pricing,
    sec_per_env_step: f64,
    exec: AnyExecutor,
    /// The tiered plan cache, present iff the backend was built with
    /// an enabled [`JitConfig`].
    tier: Option<Tier>,
    last_exec: ExecStatsState<EvalStats>,
    tracer: Tracer,
}

impl SoftwareBackend {
    /// E3-CPU: inference and env stepping both priced by `model`.
    /// Single-threaded until given more workers.
    pub fn cpu(model: SwCostModel) -> Self {
        SoftwareBackend::new(Pricing::Cpu(model), model.sec_per_env_step)
    }

    /// E3-GPU: inference priced by `gpu`, the CPU-side env stepping by
    /// `sw`. Single-threaded until given more workers.
    pub fn gpu(sw: SwCostModel, gpu: GpuCostModel) -> Self {
        SoftwareBackend::new(Pricing::Gpu(gpu), sw.sec_per_env_step)
    }

    fn new(pricing: Pricing, sec_per_env_step: f64) -> Self {
        SoftwareBackend {
            pricing,
            sec_per_env_step,
            exec: AnyExecutor::new(1),
            tier: None,
            last_exec: ExecStatsState::Idle,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs the tiered-execution (JIT) policy. An enabled policy
    /// gives the backend a tier (`tier.rs`): a per-worker plan cache
    /// whose hot entries run as native code. A disabled one leaves no
    /// cache at all. The kernel is the same either way and both tiers
    /// are bit-identical, so the policy moves speed and telemetry,
    /// never results.
    pub fn with_jit(mut self, config: JitConfig) -> Self {
        self.tier = config.enabled.then(|| Tier::new(config));
        self
    }

    /// Evaluates across `threads` host workers ("virtual PUs").
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_executor(AnyExecutor::new(threads))
    }

    /// Evaluates on a caller-supplied executor — typically an
    /// [`AnyExecutor::Shared`] handle so many concurrent runs (islands)
    /// time-slice one worker pool. Results are bit-identical to an
    /// exclusive executor of the same width.
    pub fn with_executor(mut self, exec: AnyExecutor) -> Self {
        self.exec = exec;
        self
    }
}

impl EvalBackend for SoftwareBackend {
    fn kind(&self) -> BackendKind {
        self.pricing.kind()
    }

    fn evaluate(
        &mut self,
        genomes: &[Genome],
        env: EnvId,
        spec: &ScenarioSpec,
    ) -> Result<EvalOutcome, EvalError> {
        let pricing = self.pricing;
        let workers = self.exec.workers();
        let shard_size = genomes
            .len()
            .div_ceil(workers.max(1) * SHARDS_PER_WORKER)
            .max(1);
        // The tier's epoch turns and its counters drain around this
        // backend's own evaluations, whoever else shares the pool.
        let tier = self.tier.as_mut().map(|tier| tier.begin_run(workers));
        let run = EvalJob::new(genomes, env, spec, &self.tracer).run(
            &mut self.exec,
            genomes.len(),
            shard_size,
            move |job, scratch, range| {
                per_genome_shard(job, pricing, tier.as_ref(), scratch, range)
            },
        )?;
        let tier_stats = self.tier.as_ref().map(Tier::end_run).unwrap_or_default();
        self.last_exec = ExecStatsState::Ready((run.stats, tier_stats));
        // Modeled seconds accumulate in population order (the serial
        // summation order), whatever the shard plan was.
        let mut fitnesses = Vec::with_capacity(run.results.len());
        let mut steps_per_genome = Vec::with_capacity(run.results.len());
        let mut shapes = Vec::with_capacity(run.results.len());
        let mut eval_seconds = 0.0;
        let mut total_steps = 0u64;
        for row in run.results {
            fitnesses.push(row.fitness);
            steps_per_genome.push(row.steps);
            shapes.push(row.shape);
            eval_seconds += row.inference_seconds;
            total_steps += row.steps;
        }
        Ok(EvalOutcome {
            fitnesses,
            steps_per_genome,
            eval_seconds,
            env_seconds: total_steps as f64 * self.sec_per_env_step,
            total_steps,
            shapes,
            hw_report: None,
            hw_utilization: None,
        })
    }

    fn take_exec_stats(&mut self) -> ExecStatsState<EvalStats> {
        std::mem::replace(&mut self.last_exec, ExecStatsState::Idle)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }
}

/// E3-INAX: batches the population onto the INAX simulator, one
/// individual per PU, and drives the closed CPU↔FPGA loop of paper
/// Fig. 5.
///
/// Under a parallel executor, each **wave** (one batch of `num_pu`
/// individuals) runs on its own simulated accelerator instance and the
/// per-wave [`EpisodeRunReport`]s are merged in wave order — every
/// counter is additive, so the accounting is bit-identical to one
/// accelerator executing all waves serially.
#[derive(Debug)]
pub struct InaxBackend {
    config: InaxConfig,
    sw: SwCostModel,
    exec: AnyExecutor,
    last_exec: ExecStatsState<EvalStats>,
    tracer: Tracer,
}

/// Everything one INAX wave produces: per-resident fitness, episode
/// lengths (summed over scenarios) and plan shape, and the wave's cycle
/// accounting and utilization breakdown.
struct WaveResult {
    fitnesses: Vec<f64>,
    steps: Vec<u64>,
    shapes: Vec<PlanShape>,
    report: EpisodeRunReport,
    util: UtilizationBreakdown,
}

impl InaxBackend {
    /// Creates the backend. `sw` prices the CPU-side env stepping (the
    /// env stays a CPU program in all settings). Waves are simulated on
    /// one host thread until given more workers.
    pub fn new(config: InaxConfig, sw: SwCostModel) -> Self {
        InaxBackend {
            config,
            sw,
            exec: AnyExecutor::new(1),
            last_exec: ExecStatsState::Idle,
            tracer: Tracer::disabled(),
        }
    }

    /// Simulates waves across `threads` host workers; results and
    /// accounting are bit-identical to serial.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_executor(AnyExecutor::new(threads))
    }

    /// Simulates waves on a caller-supplied executor (see
    /// [`SoftwareBackend::with_executor`]).
    pub fn with_executor(mut self, exec: AnyExecutor) -> Self {
        self.exec = exec;
        self
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &InaxConfig {
        &self.config
    }
}

/// The INAX kernel for one wave: compile the residents' plans (the
/// hardware view is a direct copy of the plan), load them onto a private
/// accelerator instance once, then run the lock-step episode loop once
/// per scenario against fresh environments — weights stream onto the
/// PUs a single time however many worlds the wave faces. Per-resident
/// fitnesses aggregate exactly like the software kernel's, so all
/// backends agree bit for bit.
fn inax_wave(job: &EvalJob, config: &InaxConfig, wave: usize) -> Result<WaveResult, DecodeFailure> {
    let k = job.spec.scenarios();
    let base = wave * config.num_pu;
    let end = (base + config.num_pu).min(job.pop.len());
    let mut batch = Vec::with_capacity(end - base);
    let mut shapes = Vec::with_capacity(end - base);
    for i in base..end {
        let plan = NetPlan::compile(&job.pop[i]).map_err(|reason| (i, reason))?;
        batch.push(IrregularNet::from_plan(&plan));
        shapes.push(PlanShape::of(&plan));
    }
    let residents = batch.len();
    let mut wave_span = job.shard_span("wave", wave, residents);
    wave_span.arg("scenarios", k as f64);
    let mut accelerator = InaxAccelerator::new(config.clone());
    accelerator.load_batch(batch);
    let seeds = job.spec.episode_seeds(base..end);
    // Resident-major grid: `per_scenario[resident * K + scenario]`.
    let mut per_scenario = vec![0.0f64; residents * k];
    let mut steps_per_genome = vec![0u64; residents];
    for (s, params) in job.spec.params().iter().enumerate() {
        // One environment instance per resident individual.
        let mut envs: Vec<Box<dyn Environment>> = (0..residents)
            .map(|_| job.env.make_scenario(params))
            .collect();
        let space = envs
            .first()
            .expect("waves are non-empty by construction")
            .action_space();
        let mut observations: Vec<Option<Vec<f64>>> = envs
            .iter_mut()
            .enumerate()
            .map(|(i, e)| Some(e.reset(seeds[i * k + s])))
            .collect();
        // Residents step in lockstep, so their episode spans
        // interleave and cannot nest lexically: one open timer each,
        // closed when its episode ends.
        let mut timers: Vec<Option<SpanTimer>> =
            (base..end).map(|i| Some(job.episode_timer(i, s))).collect();
        let mut episode_steps = vec![0u64; residents];
        while observations.iter().any(Option::is_some) {
            let outputs = accelerator.step(&observations);
            for (i, output) in outputs.into_iter().enumerate() {
                let Some(out) = output else { continue };
                let action = decode_action(&out, &space);
                let obs = observations[i]
                    .as_mut()
                    .expect("the accelerator answers only running residents");
                let transition = envs[i].step_into(&action, obs);
                per_scenario[i * k + s] += transition.reward;
                episode_steps[i] += 1;
                if transition.done() {
                    if let Some(timer) = timers[i].take() {
                        finish_episode(timer, episode_steps[i]);
                    }
                    observations[i] = None;
                }
            }
        }
        for (genome_steps, steps) in steps_per_genome.iter_mut().zip(episode_steps) {
            *genome_steps += steps;
        }
    }
    accelerator.unload_batch();
    Ok(WaveResult {
        fitnesses: per_scenario
            .chunks(k)
            .map(|fits| aggregate_fitness(fits, job.spec.aggregation()))
            .collect(),
        steps: steps_per_genome,
        shapes,
        report: accelerator.report(),
        util: accelerator.utilization().clone(),
    })
}

impl EvalBackend for InaxBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Inax
    }

    fn evaluate(
        &mut self,
        genomes: &[Genome],
        env: EnvId,
        spec: &ScenarioSpec,
    ) -> Result<EvalOutcome, EvalError> {
        // One work item per wave, each on a private accelerator
        // instance (a "virtual PU cluster").
        let config = self.config.clone();
        let num_waves = genomes.len().div_ceil(config.num_pu.max(1));
        let run = EvalJob::new(genomes, env, spec, &self.tracer).run(
            &mut self.exec,
            num_waves,
            1,
            move |job, _, range| range.map(|wave| inax_wave(job, &config, wave)).collect(),
        )?;
        // Wave-ordered reduction: counters are additive, so this is
        // the accounting a single accelerator would have produced.
        let mut fitnesses = Vec::with_capacity(genomes.len());
        let mut steps_per_genome = Vec::with_capacity(genomes.len());
        let mut shapes = Vec::with_capacity(genomes.len());
        let mut report = EpisodeRunReport::default();
        let mut util = UtilizationBreakdown::default();
        for wave in run.results {
            fitnesses.extend(wave.fitnesses);
            steps_per_genome.extend(wave.steps);
            shapes.extend(wave.shapes);
            report.merge(&wave.report);
            util.merge(&wave.util);
        }
        let total_steps: u64 = steps_per_genome.iter().sum();
        self.last_exec = ExecStatsState::Ready((run.stats, TierStats::default()));
        Ok(EvalOutcome {
            fitnesses,
            steps_per_genome,
            eval_seconds: self.config.cycles_to_seconds(report.total_cycles),
            env_seconds: total_steps as f64 * self.sw.sec_per_env_step,
            total_steps,
            shapes,
            hw_report: Some(report),
            hw_utilization: Some(util),
        })
    }

    fn take_exec_stats(&mut self) -> ExecStatsState<EvalStats> {
        std::mem::replace(&mut self.last_exec, ExecStatsState::Idle)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }
}

/// A backend of any kind behind one concrete type.
///
/// This is what [`BackendBuilder::build`] produces and what
/// `E3Platform` runs on: enum dispatch instead of `Box<dyn>` keeps the
/// platform `Debug` and cheap to construct in sweeps.
#[derive(Debug)]
pub enum AnyBackend {
    /// E3-CPU or E3-GPU, by [`Pricing`].
    Software(SoftwareBackend),
    /// INAX accelerator simulator.
    Inax(InaxBackend),
}

impl AnyBackend {
    fn as_dyn(&mut self) -> &mut dyn EvalBackend {
        match self {
            AnyBackend::Software(b) => b,
            AnyBackend::Inax(b) => b,
        }
    }
}

impl EvalBackend for AnyBackend {
    fn kind(&self) -> BackendKind {
        match self {
            AnyBackend::Software(b) => b.kind(),
            AnyBackend::Inax(b) => b.kind(),
        }
    }

    fn evaluate(
        &mut self,
        genomes: &[Genome],
        env: EnvId,
        spec: &ScenarioSpec,
    ) -> Result<EvalOutcome, EvalError> {
        self.as_dyn().evaluate(genomes, env, spec)
    }

    fn take_exec_stats(&mut self) -> ExecStatsState<EvalStats> {
        self.as_dyn().take_exec_stats()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.as_dyn().set_tracer(tracer)
    }
}

/// Unified builder for any evaluation backend, mirroring
/// `InaxConfig::builder()`.
///
/// # Example
///
/// ```
/// use e3_platform::{BackendBuilder, BackendKind, EvalBackend};
/// use e3_inax::InaxConfig;
///
/// let mut backend = BackendBuilder::new(BackendKind::Inax)
///     .inax(InaxConfig::builder().num_pu(8).num_pe(2).build())
///     .build();
/// assert_eq!(backend.kind(), BackendKind::Inax);
/// ```
#[derive(Debug, Clone)]
pub struct BackendBuilder {
    kind: BackendKind,
    sw: SwCostModel,
    gpu: GpuCostModel,
    inax: InaxConfig,
    threads: usize,
    executor: Option<SharedExecutor>,
    jit: JitConfig,
    tracer: Tracer,
}

impl BackendBuilder {
    /// Starts a builder for `kind` with default cost models and
    /// single-threaded host execution.
    pub fn new(kind: BackendKind) -> Self {
        BackendBuilder {
            kind,
            sw: SwCostModel::default(),
            gpu: GpuCostModel::default(),
            inax: InaxConfig::default(),
            threads: 1,
            executor: None,
            jit: JitConfig::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Sets the software cost model (used by every backend for the
    /// CPU-side env stepping).
    pub fn sw(mut self, model: SwCostModel) -> Self {
        self.sw = model;
        self
    }

    /// Sets the GPU cost model (E3-GPU only).
    pub fn gpu(mut self, model: GpuCostModel) -> Self {
        self.gpu = model;
        self
    }

    /// Sets the INAX hardware configuration (E3-INAX only).
    pub fn inax(mut self, config: InaxConfig) -> Self {
        self.inax = config;
        self
    }

    /// Sets the number of host worker threads ("virtual PUs") the
    /// backend evaluates on. Applies to every backend kind; results
    /// are bit-identical to `threads = 1`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Evaluates on a caller-supplied shared pool instead of a private
    /// executor — many concurrent runs (islands) time-slice one pool
    /// at population-evaluation granularity. Overrides
    /// [`BackendBuilder::threads`]. Results are bit-identical to a
    /// private executor of the same width.
    pub fn executor(mut self, shared: SharedExecutor) -> Self {
        self.executor = Some(shared);
        self
    }

    /// Sets the tiered-execution (JIT) policy of the software backends
    /// (see [`SoftwareBackend::with_jit`]; disabled by default). E3-INAX
    /// has no software inference path and ignores it.
    pub fn jit(mut self, config: JitConfig) -> Self {
        self.jit = config;
        self
    }

    /// Installs a span tracer on the built backend (defaults to the
    /// zero-cost disabled tracer). Tracing is write-only: results are
    /// bit-identical with any tracer.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Builds the backend.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn build(self) -> AnyBackend {
        assert!(self.threads > 0, "need at least one worker thread");
        let exec = match self.executor {
            Some(shared) => AnyExecutor::Shared(shared),
            None => AnyExecutor::new(self.threads),
        };
        let mut backend = match self.kind {
            BackendKind::Cpu => AnyBackend::Software(
                SoftwareBackend::cpu(self.sw)
                    .with_executor(exec)
                    .with_jit(self.jit),
            ),
            BackendKind::Gpu => AnyBackend::Software(
                SoftwareBackend::gpu(self.sw, self.gpu)
                    .with_executor(exec)
                    .with_jit(self.jit),
            ),
            BackendKind::Inax => {
                AnyBackend::Inax(InaxBackend::new(self.inax, self.sw).with_executor(exec))
            }
        };
        backend.set_tracer(self.tracer);
        backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use e3_envs::ScenarioDistribution;
    use e3_neat::{NeatConfig, Population};

    fn genomes(env: EnvId, n: usize) -> Vec<Genome> {
        let config = NeatConfig::builder(env.observation_size(), env.policy_outputs())
            .population_size(n)
            .build();
        Population::new(config, 3).genomes().to_vec()
    }

    fn cpu() -> SoftwareBackend {
        SoftwareBackend::cpu(SwCostModel::default())
    }

    fn gpu() -> SoftwareBackend {
        SoftwareBackend::gpu(SwCostModel::default(), GpuCostModel::default())
    }

    fn inax(num_pu: usize, num_pe: usize) -> InaxBackend {
        InaxBackend::new(
            InaxConfig::builder().num_pu(num_pu).num_pe(num_pe).build(),
            SwCostModel::default(),
        )
    }

    /// One fixed-env episode per genome from `seed`.
    fn eval(backend: &mut dyn EvalBackend, pop: &[Genome], env: EnvId, seed: u64) -> EvalOutcome {
        backend
            .evaluate(pop, env, &ScenarioSpec::fixed(seed, pop.len()))
            .expect("population is feed-forward")
    }

    /// K worlds from the moderate distribution with genome-major
    /// episode seeds, exactly as the platform resolves one generation.
    fn sampled(k: usize, population: usize) -> ScenarioSpec {
        let config = ScenarioConfig::default()
            .train(ScenarioDistribution::moderate())
            .scenarios_per_eval(k);
        ScenarioSpec::for_generation(&config, 42, 3, population)
    }

    fn span_names(tracer: &Tracer) -> Vec<String> {
        tracer.spans().into_iter().map(|s| s.name).collect()
    }

    fn count(names: &[String], name: &str) -> usize {
        names.iter().filter(|n| *n == name).count()
    }

    /// A tier that promotes every plan on its first decode.
    const HOT: JitConfig = JitConfig {
        enabled: true,
        hot_threshold: 1,
    };

    #[test]
    fn all_backends_agree_on_fitness() {
        let pop = genomes(EnvId::CartPole, 12);
        let a = eval(&mut cpu(), &pop, EnvId::CartPole, 7);
        let b = eval(&mut gpu(), &pop, EnvId::CartPole, 7);
        let c = eval(&mut inax(5, 2), &pop, EnvId::CartPole, 7);
        assert_eq!(a.fitnesses, b.fitnesses);
        assert_eq!(a.fitnesses, c.fitnesses);
        assert_eq!(a.steps_per_genome, c.steps_per_genome);
    }

    #[test]
    fn all_backends_agree_on_scenario_fitness() {
        let pop = genomes(EnvId::CartPole, 9);
        let spec = sampled(3, pop.len());
        let run = |backend: &mut dyn EvalBackend| {
            backend
                .evaluate(&pop, EnvId::CartPole, &spec)
                .expect("scenario eval succeeds")
        };
        let a = run(&mut cpu());
        let b = run(&mut gpu());
        let c = run(&mut inax(4, 2));
        assert_eq!(a.fitnesses, b.fitnesses);
        assert_eq!(a.fitnesses, c.fitnesses);
        assert_eq!(a.steps_per_genome, c.steps_per_genome);
        assert_eq!(a.total_steps, c.total_steps);
    }

    #[test]
    fn gpu_eval_is_slower_and_inax_faster_than_cpu() {
        let pop = genomes(EnvId::CartPole, 12);
        let a = eval(&mut cpu(), &pop, EnvId::CartPole, 7);
        let b = eval(&mut gpu(), &pop, EnvId::CartPole, 7);
        let c = eval(&mut inax(12, 2), &pop, EnvId::CartPole, 7);
        assert!(b.eval_seconds > a.eval_seconds, "GPU must lose (Fig. 9(b))");
        assert!(c.eval_seconds < a.eval_seconds, "INAX must win (Fig. 9(b))");
    }

    #[test]
    fn inax_reports_hw_accounting() {
        let pop = genomes(EnvId::MountainCar, 6);
        let out = eval(&mut inax(3, 3), &pop, EnvId::MountainCar, 1);
        let report = out.hw_report.expect("INAX reports HW accounting");
        assert!(report.total_cycles > 0);
        assert!(report.steps > 0);
        assert!(report.pu_utilization.rate() <= 1.0);
        assert_eq!(out.total_steps, out.steps_per_genome.iter().sum::<u64>());
    }

    #[test]
    fn continuous_action_envs_work_on_all_backends() {
        let pop = genomes(EnvId::Pendulum, 4);
        let a = eval(&mut cpu(), &pop, EnvId::Pendulum, 2);
        let c = eval(&mut inax(4, 1), &pop, EnvId::Pendulum, 2);
        assert_eq!(a.fitnesses, c.fitnesses);
        assert!(
            a.fitnesses.iter().all(|f| *f < 0.0),
            "pendulum rewards are negative"
        );
    }

    #[test]
    fn exec_stats_state_distinguishes_idle_from_ready() {
        let mut cpu = cpu();
        assert_eq!(
            cpu.take_exec_stats(),
            ExecStatsState::Idle,
            "executor exists but nothing ran yet"
        );
        let pop = genomes(EnvId::CartPole, 4);
        let _ = eval(&mut cpu, &pop, EnvId::CartPole, 7);
        assert!(matches!(cpu.take_exec_stats(), ExecStatsState::Ready(_)));
        assert_eq!(
            cpu.take_exec_stats(),
            ExecStatsState::Idle,
            "take consumes the stats"
        );
    }

    /// A backend with no executor at all: the trait default must say
    /// so explicitly instead of masquerading as "nothing ran".
    struct StatlessBackend;

    impl EvalBackend for StatlessBackend {
        fn kind(&self) -> BackendKind {
            BackendKind::Cpu
        }

        fn evaluate(
            &mut self,
            genomes: &[Genome],
            _env: EnvId,
            _spec: &ScenarioSpec,
        ) -> Result<EvalOutcome, EvalError> {
            Ok(EvalOutcome {
                fitnesses: vec![0.0; genomes.len()],
                steps_per_genome: vec![0; genomes.len()],
                eval_seconds: 0.0,
                env_seconds: 0.0,
                total_steps: 0,
                shapes: Vec::new(),
                hw_report: None,
                hw_utilization: None,
            })
        }
    }

    #[test]
    fn backend_without_executor_reports_unavailable() {
        let mut backend = StatlessBackend;
        let pop = genomes(EnvId::CartPole, 2);
        let _ = eval(&mut backend, &pop, EnvId::CartPole, 1);
        let state = backend.take_exec_stats();
        assert!(state.is_unavailable());
        assert_eq!(state.into_option(), None);
    }

    #[test]
    fn tracing_records_spans_without_changing_results() {
        let pop = genomes(EnvId::CartPole, 12);
        let mut plain = inax(5, 2);
        let mut traced = inax(5, 2);
        let tracer = Tracer::enabled();
        traced.set_tracer(tracer.clone());
        let a = eval(&mut plain, &pop, EnvId::CartPole, 7);
        let b = eval(&mut traced, &pop, EnvId::CartPole, 7);
        assert_eq!(a, b, "tracing is write-only");
        let names = span_names(&tracer);
        assert_eq!(count(&names, "shard"), 3, "one span per wave");
        assert_eq!(count(&names, "episode"), pop.len(), "one per genome");
    }

    #[test]
    fn the_software_kernel_traces_one_span_per_shard_and_per_episode() {
        let pop = genomes(EnvId::CartPole, 6);
        let spec = sampled(2, pop.len());
        for tier in [JitConfig::default(), HOT] {
            let mut cpu = cpu().with_jit(tier);
            let tracer = Tracer::enabled();
            cpu.set_tracer(tracer.clone());
            cpu.evaluate(&pop, EnvId::CartPole, &spec)
                .expect("eval succeeds");
            let what = format!("tier enabled = {}", tier.enabled);
            let spans = tracer.spans();
            assert!(
                spans.iter().any(|s| s.name == "shard"),
                "{what}: shard spans recorded"
            );
            let (episodes, others): (Vec<_>, Vec<_>) = spans
                .iter()
                .filter(|s| s.name != "shard")
                .partition(|s| s.name == "episode");
            assert!(others.is_empty(), "{what}: unexpected spans {others:?}");
            assert_eq!(
                episodes.len(),
                pop.len() * 2,
                "{what}: one episode span per (genome, scenario)"
            );
            assert!(
                episodes
                    .iter()
                    .all(|s| s.args.iter().any(|a| a.key == "genome_index")),
                "{what}: every episode names its genome"
            );
        }
    }

    #[test]
    fn inax_utilization_reconciles_at_backend_level() {
        // 12 genomes on 5 PUs ⇒ 3 waves merged: the invariant must
        // survive the wave-ordered reduction.
        let pop = genomes(EnvId::CartPole, 12);
        let out = eval(&mut inax(5, 2), &pop, EnvId::CartPole, 7);
        let report = out.hw_report.expect("INAX reports HW accounting");
        let util = out.hw_utilization.expect("INAX reports utilization");
        assert_eq!(util.per_pu.len(), 5);
        assert_eq!(util.per_pe.len(), 2);
        for (pu, cycles) in util.per_pu.iter().enumerate() {
            assert_eq!(
                cycles.total(),
                report.total_cycles,
                "PU {pu} cycle states must partition the wall cycles"
            );
        }
        let lane_busy: u64 = util.per_pe.iter().map(|l| l.busy).sum();
        assert_eq!(lane_busy, report.breakdown.pe_active);
        assert!(util.dma_bytes > 0);
        assert!(util.weight_buffer_hwm_bytes > 0);
    }

    #[test]
    fn parallel_inax_matches_serial() {
        let pop = genomes(EnvId::CartPole, 13);
        for spec in [ScenarioSpec::fixed(9, pop.len()), sampled(2, pop.len())] {
            let a = inax(3, 2).evaluate(&pop, EnvId::CartPole, &spec);
            let b = inax(3, 2)
                .with_threads(4)
                .evaluate(&pop, EnvId::CartPole, &spec);
            assert_eq!(a, b, "results and accounting are deterministic");
        }
    }

    #[test]
    fn software_thread_counts_and_tiers_are_bit_identical() {
        // Odd population sizes exercise shard remainders; 1/4/8
        // threads exercise single- and multi-shard plans; the serial
        // tier-less run is the reference for everything. Each backend
        // evaluates twice: a tier's second call is served from the
        // cache its first one filled (native code at threshold 1,
        // where the target supports it).
        for env in [EnvId::CartPole, EnvId::LunarLander, EnvId::Pendulum] {
            let pop = genomes(env, 13);
            for spec in [ScenarioSpec::fixed(7, pop.len()), sampled(3, pop.len())] {
                for make in [cpu, gpu] {
                    let reference = make()
                        .evaluate(&pop, env, &spec)
                        .expect("reference eval succeeds");
                    for tier in [JitConfig::default(), HOT] {
                        for threads in [1usize, 4, 8] {
                            let mut backend = make().with_threads(threads).with_jit(tier);
                            let kind = backend.kind();
                            for call in 0..2 {
                                let outcome =
                                    backend.evaluate(&pop, env, &spec).expect("eval succeeds");
                                assert_eq!(
                                    outcome,
                                    reference,
                                    "{env:?}/{kind} K={} tier={}@{threads} call {call} diverged",
                                    spec.scenarios(),
                                    tier.enabled
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = cpu().with_threads(0);
    }

    #[test]
    #[should_panic(expected = "must cover the evaluated population")]
    fn a_spec_for_another_population_size_is_rejected() {
        let pop = genomes(EnvId::CartPole, 5);
        let _ = cpu().evaluate(&pop, EnvId::CartPole, &ScenarioSpec::fixed(7, 4));
    }

    #[test]
    fn backend_names_match_paper() {
        assert_eq!(BackendKind::Cpu.name(), "E3-CPU");
        assert_eq!(BackendKind::Gpu.name(), "E3-GPU");
        assert_eq!(BackendKind::Inax.name(), "E3-INAX");
        assert_eq!(BackendKind::Inax.to_string(), "E3-INAX");
    }

    #[test]
    fn backend_kind_round_trips_through_strings() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
        }
        assert_eq!("cpu".parse::<BackendKind>().unwrap(), BackendKind::Cpu);
        assert_eq!("INAX".parse::<BackendKind>().unwrap(), BackendKind::Inax);
        let err = "tpu".parse::<BackendKind>().unwrap_err();
        assert!(err.to_string().contains("tpu"));
    }

    #[test]
    fn builder_constructs_each_kind() {
        for kind in BackendKind::ALL {
            let backend = kind.builder().build();
            assert_eq!(backend.kind(), kind);
        }
    }

    #[test]
    fn builder_backends_match_direct_construction() {
        let pop = genomes(EnvId::CartPole, 8);
        let mut built = BackendKind::Cpu.builder().threads(2).build();
        let a = eval(&mut cpu(), &pop, EnvId::CartPole, 5);
        let b = eval(&mut built, &pop, EnvId::CartPole, 5);
        assert_eq!(a, b);
    }

    /// Adds a recurrent self-loop on an output node, producing a
    /// genome only `RecurrentNetwork` could execute.
    fn make_cyclic(genome: &Genome) -> Genome {
        use e3_neat::{InnovationTracker, NodeKind};
        let mut cyclic = genome.clone();
        let mut tracker = InnovationTracker::with_reserved_nodes(cyclic.nodes().len());
        let output = cyclic
            .nodes()
            .iter()
            .find(|n| n.kind == NodeKind::Output)
            .expect("genome has an output node")
            .id;
        cyclic
            .add_connection_unchecked(output, output, 0.5, &mut tracker)
            .expect("self-loop is structurally new");
        cyclic
    }

    #[test]
    fn recurrent_genomes_are_rejected_lowest_index_first() {
        // A feed-forward decode must fail with a typed error rather
        // than panic, and with two offenders in different shards the
        // lower index wins on every kernel at any thread count, tier
        // off or on.
        let mut pop = genomes(EnvId::CartPole, 5);
        pop[1] = make_cyclic(&pop[1]);
        pop[3] = make_cyclic(&pop[3]);
        let check = |label: String, result: Result<EvalOutcome, EvalError>| match result {
            Err(EvalError::NotFeedForward { genome_index, .. }) => {
                assert_eq!(genome_index, 1, "{label}: lowest-indexed failure wins")
            }
            other => panic!("{label}: expected NotFeedForward, got {other:?}"),
        };
        for spec in [ScenarioSpec::fixed(7, pop.len()), sampled(2, pop.len())] {
            for threads in [1usize, 4] {
                for tier in [JitConfig::default(), HOT] {
                    let mut backend = cpu().with_threads(threads).with_jit(tier);
                    let result = backend.evaluate(&pop, EnvId::CartPole, &spec);
                    check(format!("tier={}@{threads}", tier.enabled), result);
                }
                let mut backend = inax(2, 2).with_threads(threads);
                let result = backend.evaluate(&pop, EnvId::CartPole, &spec);
                check(format!("inax@{threads}"), result);
            }
        }
    }
}
