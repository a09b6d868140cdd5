//! The evaluation backend: E3-CPU, E3-GPU, and E3-INAX.
//!
//! The backend owns the paper's "evaluate" phase: run every genome of a
//! generation through its environment episode and report fitness plus
//! modeled time. The paper's three settings (§VI-A) compute the same
//! fitness and differ only in where inference runs and therefore how
//! long it takes, so there is **one** [`Backend`] with one kernel — each
//! worker takes whole genomes and runs their K episodes together, up to
//! four lanes of one plan walk per step ([`Worlds::run`]), or at K = 1
//! two genomes in flight whose walks fuse ([`NetPlan::fill_pair`]).
//! Either walk leaves a plan's `Tanh` output sums unactivated where
//! nothing reads them ([`NetPlan::leaves_sums`]), and a discrete action
//! is decided from the sums wherever [`tanh_argmax`] proves that the
//! decoder would pick the same action from the activations. A
//! tier, when the backend has one, is asked only about each compiled
//! plan, and a plan it holds native code for runs alone on that code —
//! and the setting is data: a
//! `Pricing`. `Cpu` and `Gpu` price every inference with a cost
//! model; `Inax` hands the compiled plans and the episode lengths the
//! kernel observed to the cycle-level accelerator model
//! (`e3_inax::InaxAccelerator::run_episodes`), whose schedule depends
//! on which residents are alive in each wave and never on a value. All
//! settings agree bit for bit by construction.
//!
//! There is one entry point, the fallible [`Backend::evaluate`]: a
//! population, an environment, and a [`ScenarioSpec`] saying which
//! worlds and episode seeds every genome faces (a fixed-env evaluation
//! is [`ScenarioSpec::fixed`], the K = 1 default-world case). A genome
//! that cannot be lowered to a feed-forward network surfaces as
//! [`EvalError::NotFeedForward`] instead of a panic, so callers (the
//! platform loop, sweeps, long benchmark campaigns) can decide how to
//! react. A backend is built by one constructor per setting
//! ([`Backend::cpu`], [`Backend::gpu`], [`Backend::inax`]) and then
//! given a tier, workers or a shared pool with [`Backend::with_jit`],
//! [`Backend::with_threads`] or `Backend::with_executor`.

use crate::scenario::{aggregate_fitness, ScenarioSpec};
use crate::tier::{Tier, TierStats};
use crate::timing::{GpuCostModel, SwCostModel};
use e3_envs::{EnvId, Environment, Episode};
use e3_exec::{AnyExecutor, ExecError, ExecStats, Executor, WorkerScratch};
use e3_inax::{EpisodeRunReport, InaxAccelerator, InaxConfig};
use e3_jit::{CompiledPlan, JitConfig};
use e3_neat::stats::PlanShape;
use e3_neat::{tanh_argmax, Activation, DecodeError, Genome, NetPlan};
use e3_telemetry::{SpanTimer, Tracer, UtilizationBreakdown};
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

/// What [`Backend::take_exec_stats`] yields per evaluation: the
/// executor's statistics and the tier's.
pub(crate) type EvalStats = (ExecStats, TierStats);

/// Widest lane group of the episode kernel: a genome's worlds run in
/// chunks of this many episodes, and one plan walk per step serves
/// every live episode of a chunk.
const LANES: usize = 4;

/// The worlds one genome's episodes run in — an environment and its
/// episode buffers per scenario — with the lane buffers of the episode
/// kernel, [`Worlds::run`]. Built once per evaluation shard (one per
/// genome the shard keeps in flight) and once per held-out pass, and
/// reused by every genome it runs: `reset` fully re-initialises an
/// episode, and the lane buffers only grow to the largest plan seen, so
/// neither a step nor a genome allocates.
pub struct Worlds {
    worlds: Vec<(Box<dyn Environment>, Episode)>,
    /// Lane-major value rows of the plan walk: value-buffer slot `j`
    /// of lane `l` at `values[j * width + l]`.
    values: Vec<f64>,
    /// Per world: the last episode's summed reward.
    fitness: Vec<f64>,
    /// Per world: the last episode's length.
    steps: Vec<u64>,
}

impl fmt::Debug for Worlds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Worlds")
            .field("worlds", &self.worlds.len())
            .finish_non_exhaustive()
    }
}

/// The running chunk of genome `genome_index`'s episodes: the up to
/// [`LANES`] worlds from `first`, of which `live[..count]` are still
/// running in scenario order (the episode in `live[p]` walks lane `p`).
/// World `s`'s episode span sits at `spans[s - first]` for its whole
/// episode, on trace track `track + s - first`.
struct Chunk {
    genome_index: usize,
    track: usize,
    first: usize,
    live: [usize; LANES],
    count: usize,
    spans: [Option<SpanTimer>; LANES],
}

impl Worlds {
    /// One world per environment, in scenario order.
    pub fn new(envs: impl IntoIterator<Item = Box<dyn Environment>>) -> Self {
        let worlds: Vec<_> = envs
            .into_iter()
            .map(|env| {
                let episode = Episode::new(env.as_ref());
                (env, episode)
            })
            .collect();
        let k = worlds.len();
        Worlds {
            worlds,
            values: Vec::new(),
            fitness: vec![0.0; k],
            steps: vec![0; k],
        }
    }

    /// The episode kernel: runs one episode of `plan` per world, world
    /// `s` from `seeds[s]`, and leaves each world's summed reward in
    /// [`Worlds::fitness`] and its length in [`Worlds::steps`].
    ///
    /// The worlds run in chunks of up to four, in lock step: each step
    /// gathers the live episodes' observations into lanes, walks the
    /// plan once for all of them ([`NetPlan::fill_lanes`]), then steps
    /// each live world in scenario order. A finished episode leaves its
    /// lane and the walk narrows to the live count — four lanes (three
    /// live run four wide, one lane idle), then two, then one. A
    /// `native` twin of the plan (the JIT tier, bit-identical by
    /// contract) is scalar: it runs the same loop with one call per live
    /// lane. Every lane performs exactly the scalar operation sequence,
    /// so each world's trajectory and reward are bit-identical to
    /// running its episode alone, at any K and on either tier.
    ///
    /// Each `(genome_index, scenario)` episode records an `episode`
    /// span in `tracer`, from its reset to its last step, on the
    /// calling thread's trace track of its lane.
    ///
    /// # Panics
    ///
    /// Panics unless there is one seed per world and the plan's inputs
    /// and outputs fit the worlds' observations and action spaces.
    pub fn run(
        &mut self,
        plan: &NetPlan,
        native: Option<&mut CompiledPlan>,
        seeds: &[u64],
        tracer: &Tracer,
        genome_index: usize,
    ) {
        let mut chunk = self.start(plan, seeds, tracer, genome_index, 0);
        self.finish(plan, native, &mut chunk, seeds, tracer);
    }

    /// Per world, in scenario order: the last episode's summed reward.
    pub fn fitness(&self) -> &[f64] {
        &self.fitness
    }

    /// Per world, in scenario order: the last episode's length.
    pub fn steps(&self) -> &[u64] {
        &self.steps
    }

    /// Starts a genome: clears the per-world results, sizes the lane
    /// rows for `plan` and opens its first chunk.
    fn start(
        &mut self,
        plan: &NetPlan,
        seeds: &[u64],
        tracer: &Tracer,
        genome_index: usize,
        track: usize,
    ) -> Chunk {
        assert_eq!(seeds.len(), self.worlds.len(), "one episode seed per world");
        self.values.resize(plan.value_buffer_slots() * LANES, 0.0);
        self.fitness.fill(0.0);
        self.steps.fill(0);
        self.open(plan, 0, seeds, tracer, genome_index, track)
    }

    /// Resets the chunk of worlds from `first`, each from its seed.
    fn open(
        &mut self,
        plan: &NetPlan,
        first: usize,
        seeds: &[u64],
        tracer: &Tracer,
        genome_index: usize,
        track: usize,
    ) -> Chunk {
        let inputs = plan.num_inputs();
        let worlds = first..self.worlds.len().min(first + LANES);
        let mut chunk = Chunk {
            genome_index,
            track,
            first,
            live: [0; LANES],
            count: worlds.len(),
            spans: Default::default(),
        };
        for (lane, s) in worlds.enumerate() {
            let (env, episode) = &mut self.worlds[s];
            chunk.spans[lane] = Some(episode_timer(tracer, genome_index, s, track + lane));
            episode.reset(env.as_mut(), seeds[s]);
            assert_eq!(
                episode.observation().len(),
                inputs,
                "expected {inputs} inputs, got {}",
                episode.observation().len()
            );
            // A step decided from the sums never reaches the decoder's
            // own check of the output count.
            if let Some(actions) = episode.discrete_actions() {
                assert_eq!(
                    plan.num_outputs(),
                    actions,
                    "policy produced {} outputs for a space needing {actions}",
                    plan.num_outputs()
                );
            }
            chunk.live[lane] = s;
        }
        chunk
    }

    /// Runs `chunk`, then every later chunk of its genome, to the end of
    /// the genome's episodes.
    fn finish(
        &mut self,
        plan: &NetPlan,
        mut native: Option<&mut CompiledPlan>,
        chunk: &mut Chunk,
        seeds: &[u64],
        tracer: &Tracer,
    ) {
        loop {
            while chunk.count > 0 {
                let width = match chunk.count {
                    1 => 1,
                    2 => 2,
                    _ => LANES,
                };
                if native.is_none() {
                    let live = &chunk.live[..chunk.count];
                    match width {
                        1 => plan.fill_lanes(self.rows::<1>(plan, live)),
                        2 => plan.fill_lanes(self.rows::<2>(plan, live)),
                        _ => plan.fill_lanes(self.rows::<LANES>(plan, live)),
                    }
                }
                self.advance(plan, native.as_deref_mut(), chunk, width);
            }
            let first = chunk.first + LANES;
            if first >= self.worlds.len() {
                return;
            }
            *chunk = self.open(plan, first, seeds, tracer, chunk.genome_index, chunk.track);
        }
    }

    /// The lane rows of one walk `L` lanes wide, inputs filled: lane `p`
    /// reads the observation of world `live[p]`; lanes past
    /// `live.len()` are idle and repeat lane 0's inputs, so they compute
    /// nothing a live lane does not.
    fn rows<const L: usize>(&mut self, plan: &NetPlan, live: &[usize]) -> &mut [[f64; L]] {
        let rows = self.values[..plan.value_buffer_slots() * L]
            .as_chunks_mut::<L>()
            .0;
        for lane in 0..L {
            let world = live.get(lane).copied().unwrap_or(live[0]);
            let observation = self.worlds[world].1.observation();
            for (row, &x) in rows.iter_mut().zip(observation) {
                row[lane] = x;
            }
        }
        rows
    }

    /// The environment half of a step, after a walk `width` lanes wide
    /// (or none, on the native tier): each live world, in scenario
    /// order, decodes its action straight from its lane's output rows —
    /// or from its native call — and steps. Where the walk left output
    /// sums ([`NetPlan::leaves_sums`]), a discrete action is decided
    /// from them when [`tanh_argmax`] can; otherwise, and for a
    /// continuous action, the rows are read through `Tanh` and decoded
    /// as the activations they stand for. A finished episode closes its
    /// span and leaves the chunk.
    fn advance(
        &mut self,
        plan: &NetPlan,
        mut native: Option<&mut CompiledPlan>,
        chunk: &mut Chunk,
        width: usize,
    ) {
        let inputs = plan.num_inputs();
        let sums = plan.leaves_sums();
        let mut kept = 0;
        for lane in 0..chunk.count {
            let s = chunk.live[lane];
            let (env, episode) = &mut self.worlds[s];
            let transition = match native.as_deref_mut() {
                Some(net) => {
                    let outputs = net.activate_into(episode.observation());
                    episode.step(env.as_mut(), outputs.iter().copied())
                }
                None => {
                    let values = &self.values;
                    let outputs = plan
                        .outputs()
                        .iter()
                        .map(|&i| values[(inputs + i as usize) * width + lane]);
                    if !sums {
                        episode.step(env.as_mut(), outputs)
                    } else if let Some(action) = episode
                        .discrete_actions()
                        .and_then(|_| tanh_argmax(outputs.clone()))
                    {
                        episode.step_discrete(env.as_mut(), action)
                    } else {
                        episode.step(env.as_mut(), outputs.map(|x| Activation::Tanh.apply(x)))
                    }
                }
            };
            self.fitness[s] += transition.reward;
            self.steps[s] += 1;
            if transition.done() {
                let span = chunk.spans[s - chunk.first].take();
                finish_episode(span.expect("a live world's span is open"), self.steps[s]);
            } else {
                chunk.live[kept] = s;
                kept += 1;
            }
        }
        chunk.count = kept;
    }
}

/// Steps two genomes in flight, each running one world, until either
/// episode ends: per step one fused walk of both plans
/// ([`NetPlan::fill_pair`]), then each world's environment step. Each
/// episode stays bit-identical to running alone.
fn run_pair(
    (a_worlds, a_plan, a_chunk): (&mut Worlds, &NetPlan, &mut Chunk),
    (b_worlds, b_plan, b_chunk): (&mut Worlds, &NetPlan, &mut Chunk),
) {
    while a_chunk.count > 0 && b_chunk.count > 0 {
        let a_rows = a_worlds.rows::<1>(a_plan, &a_chunk.live[..1]);
        let b_rows = b_worlds.rows::<1>(b_plan, &b_chunk.live[..1]);
        NetPlan::fill_pair(a_plan, a_rows, b_plan, b_rows);
        a_worlds.advance(a_plan, None, a_chunk, 1);
        b_worlds.advance(b_plan, None, b_chunk, 1);
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
    /// checked against the spec (see [`Backend::evaluate`],
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

    /// Opens the span covering one shard (`items` genomes from
    /// `start`).
    fn shard_span(&self, start: usize, items: usize) -> SpanTimer {
        let mut span = self.tracer.start("shard", "exec");
        span.arg("start", start as f64);
        span.arg("items", items as f64);
        span
    }
}

/// Opens the span of one `(genome, scenario)` episode on trace track
/// `track`. Inert (no clock read) when tracing is disabled.
fn episode_timer(tracer: &Tracer, genome_index: usize, scenario: usize, track: usize) -> SpanTimer {
    let mut timer = tracer.start_on_track("episode", "env", track);
    timer.arg("genome_index", genome_index as f64);
    timer.arg("scenario", scenario as f64);
    timer
}

/// Closes an episode's span, recording its length.
fn finish_episode(mut timer: SpanTimer, steps: u64) {
    timer.arg("steps", steps as f64);
    timer.finish();
}

/// How one evaluation's inference is priced — the only thing the
/// paper's three settings differ in. The computation is the same under
/// every pricing (E3-GPU is an analytical model of it, E3-INAX a
/// cycle-level one, see DESIGN.md).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Pricing {
    /// Interpreted-runtime cost model (paper: E3-CPU).
    Cpu(SwCostModel),
    /// Launch-bound GPU offload model (paper: E3-GPU).
    Gpu(GpuCostModel),
    /// Cycle-level INAX accelerator model (paper: E3-INAX).
    Inax(InaxConfig),
}

/// What a [`Pricing`] takes from one genome's evaluation.
enum RowPrice {
    /// Modeled inference seconds of the genome's episodes, summed in
    /// population order (cost-model pricings).
    Seconds(f64),
    /// The plan itself and its per-scenario episode lengths, priced by
    /// the accelerator model once every row is in.
    Resident(NetPlan, Vec<u64>),
}

impl Pricing {
    /// The paper backend this pricing stands for.
    pub(crate) fn kind(&self) -> BackendKind {
        match self {
            Pricing::Cpu(_) => BackendKind::Cpu,
            Pricing::Gpu(_) => BackendKind::Gpu,
            Pricing::Inax(_) => BackendKind::Inax,
        }
    }

    /// Prices — or, for the accelerator, records what pricing will
    /// need from — one genome whose episodes ran `lengths` steps, one
    /// entry per scenario. The accelerator keeps the plan itself: it
    /// moves into the row.
    fn price(&self, plan: NetPlan, lengths: &[u64]) -> RowPrice {
        let steps = lengths.iter().sum::<u64>() as f64;
        match self {
            Pricing::Cpu(model) => RowPrice::Seconds(model.inference_seconds_plan(&plan) * steps),
            Pricing::Gpu(model) => RowPrice::Seconds(model.inference_seconds_plan(&plan) * steps),
            Pricing::Inax(_) => RowPrice::Resident(plan, lengths.to_vec()),
        }
    }
}

/// Shards per worker of an evaluation: over-sharded so work stealing
/// absorbs episode-length imbalance. The shard plan depends only on
/// this, the population and the worker count, never on timing, so every
/// run produces the same one.
const SHARDS_PER_WORKER: usize = 4;

/// Genomes a worker keeps in flight when each faces one world: their
/// one-lane walks fuse node by node ([`NetPlan::fill_pair`]), so the
/// core overlaps two dependent activation chains. K ≥ 2 episodes
/// already overlap in lanes and keep one genome in flight. A plan with
/// a native twin never waits in a slot: it runs its episodes at once.
/// Three or four in flight measured no faster than two.
const MAX_IN_FLIGHT: usize = 2;

/// One genome's row of an evaluation.
struct GenomeRow {
    fitness: f64,
    steps: u64,
    price: RowPrice,
    shape: PlanShape,
}

/// A shard's rows, in population order.
type ShardRows = Vec<Result<GenomeRow, DecodeFailure>>;

impl GenomeRow {
    /// The row of the genome whose episodes `worlds` just ran.
    fn of(job: &EvalJob, pricing: &Pricing, plan: NetPlan, worlds: &mut Worlds) -> Self {
        GenomeRow {
            steps: worlds.steps.iter().sum(),
            shape: PlanShape::of(&plan),
            price: pricing.price(plan, &worlds.steps),
            // Last: a CVaR sorts the per-world fitnesses in place.
            fitness: aggregate_fitness(&mut worlds.fitness, job.spec.aggregation()),
        }
    }
}

/// The kernel for one shard: compile each genome's plan once, then run
/// its K episodes together ([`Worlds::run`]), one whole individual per
/// slot (the paper's "one individual NN per PU", its weights read once
/// per step for every world it faces). At K = 1 the worker keeps
/// [`MAX_IN_FLIGHT`] genomes in flight, as E3 keeps many PUs busy at
/// once: while two slots are live they step together ([`run_pair`]),
/// and a slot whose episode ends records its row and admits the
/// shard's next genome. A lone slot (a shard's last genome, or any
/// genome at K ≥ 2) runs to its end on its own. With a tier, each
/// compiled plan is looked up in this worker's
/// [`PlanCache`](crate::tier::PlanCache); a plan
/// with a native twin runs its episodes at once in the free slot, on
/// that twin. Rows land at their genome's index, so they fold in
/// population order whatever order the episodes end in, and a decode
/// failure is a row like any other.
fn per_genome_shard(
    job: &EvalJob,
    pricing: &Pricing,
    tier: Option<&Tier>,
    scratch: &WorkerScratch,
    range: Range<usize>,
) -> ShardRows {
    let _shard_span = job.shard_span(range.start, range.len());
    let mut cache = tier.map(|tier| tier.cache(scratch.worker_index()));
    let limit = if job.spec.scenarios() == 1 {
        MAX_IN_FLIGHT
    } else {
        1
    };
    // One world per sampled scenario, built once per shard and slot.
    let mut slots: Vec<Worlds> = (0..limit)
        .map(|_| {
            let params = job.spec.params().iter();
            Worlds::new(params.map(|params| job.env.make_scenario(params)))
        })
        .collect();
    let mut flights: [Option<(usize, NetPlan, Chunk)>; MAX_IN_FLIGHT] = Default::default();
    let mut rows: Vec<Option<Result<GenomeRow, DecodeFailure>>> =
        range.clone().map(|_| None).collect();
    let mut next = range.clone();
    loop {
        for (track, (flight, worlds)) in flights.iter_mut().zip(&mut slots).enumerate() {
            while flight.is_none() {
                let Some(i) = next.next() else { break };
                let seeds = job.spec.episode_seeds(i..i + 1);
                let plan = match NetPlan::compile(&job.pop[i]) {
                    Ok(plan) => plan,
                    Err(reason) => {
                        rows[i - range.start] = Some(Err((i, reason)));
                        continue;
                    }
                };
                let mut chunk = worlds.start(&plan, seeds, &job.tracer, i, track);
                match cache.as_mut().and_then(|cache| cache.native(&plan)) {
                    Some(native) => {
                        worlds.finish(&plan, Some(native), &mut chunk, seeds, &job.tracer);
                        let row = GenomeRow::of(job, pricing, plan, worlds);
                        rows[i - range.start] = Some(Ok(row));
                    }
                    None => *flight = Some((i, plan, chunk)),
                }
            }
        }
        match (&mut flights, slots.as_mut_slice()) {
            ([Some((_, a_plan, a_chunk)), Some((_, b_plan, b_chunk))], [a, b]) => {
                run_pair((a, a_plan, a_chunk), (b, b_plan, b_chunk));
            }
            (flights, slots) => {
                let mut live = flights.iter_mut().zip(slots).filter(|(f, _)| f.is_some());
                let Some((Some((i, plan, chunk)), worlds)) = live.next() else {
                    break;
                };
                let seeds = job.spec.episode_seeds(*i..*i + 1);
                worlds.finish(plan, None, chunk, seeds, &job.tracer);
            }
        }
        for (flight, worlds) in flights.iter_mut().zip(&mut slots) {
            if flight
                .as_ref()
                .is_some_and(|(_, _, chunk)| chunk.count == 0)
            {
                let (i, plan, _) = flight.take().expect("checked");
                rows[i - range.start] = Some(Ok(GenomeRow::of(job, pricing, plan, worlds)));
            }
        }
    }
    rows.into_iter()
        .map(|row| row.expect("every genome of the shard ran"))
        .collect()
}

/// Prices a population on the cycle-level accelerator model: residents
/// load in population order in waves of `num_pu` — weights stream onto
/// the PUs once per wave however many worlds it faces — and every
/// scenario's episodes are accounted from their lengths. The platform
/// computes no cycle itself.
fn run_on_accelerator(
    config: &InaxConfig,
    nets: Vec<NetPlan>,
    lengths: &[Vec<u64>],
) -> (EpisodeRunReport, UtilizationBreakdown) {
    let mut accelerator = InaxAccelerator::new(config.clone());
    let mut nets = nets.into_iter();
    for wave in lengths.chunks(config.num_pu.max(1)) {
        accelerator.load_batch(nets.by_ref().take(wave.len()).collect());
        for scenario in 0..wave[0].len() {
            let episodes: Vec<u64> = wave.iter().map(|resident| resident[scenario]).collect();
            accelerator.run_episodes(&episodes);
        }
        accelerator.unload_batch();
    }
    (accelerator.report(), accelerator.utilization().clone())
}

/// The "evaluate" phase executor: one kernel on host worker threads,
/// timed by a `Pricing`. Host parallelism — NE's embarrassing
/// parallelism is one of the properties the paper cites (\[35\], \[43\]) —
/// never changes the *modeled* time, so comparisons stay faithful to
/// the baseline platforms; fitness values and accelerator counters are
/// bit-identical at every thread count (see `e3-exec`).
#[derive(Debug)]
pub struct Backend {
    pricing: Pricing,
    sec_per_env_step: f64,
    exec: AnyExecutor,
    /// The tiered plan cache, present iff the backend was given an
    /// enabled [`JitConfig`].
    tier: Option<Tier>,
    last_exec: Option<EvalStats>,
    tracer: Tracer,
}

impl Backend {
    /// E3-CPU: inference and env stepping both priced by `model`.
    /// Single-threaded until given more workers.
    pub fn cpu(model: SwCostModel) -> Self {
        Backend::new(Pricing::Cpu(model), model.sec_per_env_step)
    }

    /// E3-GPU: inference priced by `gpu`, the CPU-side env stepping by
    /// `sw`. Single-threaded until given more workers.
    pub fn gpu(sw: SwCostModel, gpu: GpuCostModel) -> Self {
        Backend::new(Pricing::Gpu(gpu), sw.sec_per_env_step)
    }

    /// E3-INAX: inference priced by the accelerator model under
    /// `config`, the CPU-side env stepping by `sw` (the env stays a CPU
    /// program in all settings). Single-threaded until given more
    /// workers.
    pub fn inax(config: InaxConfig, sw: SwCostModel) -> Self {
        Backend::new(Pricing::Inax(config), sw.sec_per_env_step)
    }

    fn new(pricing: Pricing, sec_per_env_step: f64) -> Self {
        Backend {
            pricing,
            sec_per_env_step,
            exec: AnyExecutor::new(1),
            tier: None,
            last_exec: None,
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
    pub(crate) fn with_executor(mut self, exec: AnyExecutor) -> Self {
        self.exec = exec;
        self
    }

    /// Backend identity.
    pub(crate) fn kind(&self) -> BackendKind {
        self.pricing.kind()
    }

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
    pub fn evaluate(
        &mut self,
        genomes: &[Genome],
        env: EnvId,
        spec: &ScenarioSpec,
    ) -> Result<EvalOutcome, EvalError> {
        let workers = self.exec.workers();
        let shard_size = genomes
            .len()
            .div_ceil(workers.max(1) * SHARDS_PER_WORKER)
            .max(1);
        // The tier's epoch turns and its counters drain around this
        // backend's own evaluations, whoever else shares the pool.
        let tier = self.tier.as_mut().map(|tier| tier.begin_run(workers));
        let job = EvalJob::new(genomes, env, spec, &self.tracer);
        let pricing = self.pricing.clone();
        let run = self
            .exec
            .run_shards(genomes.len(), shard_size, move |scratch, range| {
                per_genome_shard(&job, &pricing, tier.as_ref(), scratch, range)
            })?;
        // Rows fold in population order (the serial summation order),
        // whatever the shard plan was. Shards are contiguous ranges and
        // the kernel reports every decode failure, so the first error
        // met in that order is the population's lowest-indexed one —
        // the first-failure semantics of a serial loop, at any thread
        // count.
        let mut fitnesses = Vec::with_capacity(genomes.len());
        let mut steps_per_genome = Vec::with_capacity(genomes.len());
        let mut shapes = Vec::with_capacity(genomes.len());
        let mut eval_seconds = 0.0;
        let mut total_steps = 0u64;
        let mut nets = Vec::new();
        let mut lengths = Vec::new();
        for row in run.results {
            let row = row.map_err(|(genome_index, reason)| EvalError::NotFeedForward {
                genome_index,
                reason,
            })?;
            fitnesses.push(row.fitness);
            steps_per_genome.push(row.steps);
            shapes.push(row.shape);
            total_steps += row.steps;
            match row.price {
                RowPrice::Seconds(seconds) => eval_seconds += seconds,
                RowPrice::Resident(net, episodes) => {
                    nets.push(net);
                    lengths.push(episodes);
                }
            }
        }
        let tier_stats = self.tier.as_ref().map(Tier::end_run).unwrap_or_default();
        self.last_exec = Some((run.stats, tier_stats));
        let (hw_report, hw_utilization) = match &self.pricing {
            Pricing::Cpu(_) | Pricing::Gpu(_) => (None, None),
            Pricing::Inax(config) => {
                let (report, utilization) = run_on_accelerator(config, nets, &lengths);
                eval_seconds = config.cycles_to_seconds(report.total_cycles);
                (Some(report), Some(utilization))
            }
        };
        Ok(EvalOutcome {
            fitnesses,
            steps_per_genome,
            eval_seconds,
            env_seconds: total_steps as f64 * self.sec_per_env_step,
            total_steps,
            shapes,
            hw_report,
            hw_utilization,
        })
    }

    /// Takes (consumes) the statistics of the most recent successful
    /// [`Backend::evaluate`] call — the executor's schedule and what
    /// the plan-cache tier did around it ([`TierStats`], all zero for a
    /// backend without a tier) — or `None` when no evaluation completed
    /// since the last take.
    ///
    /// Stats are observability only: they describe the nondeterministic
    /// execution schedule (wall times, steals, cache hits), never the
    /// results, which are bit-identical across thread counts.
    pub(crate) fn take_exec_stats(&mut self) -> Option<EvalStats> {
        self.last_exec.take()
    }

    /// Installs a tracer; subsequent evaluations record `shard` and
    /// `episode` spans into it. Tracing is write-only: results are
    /// bit-identical with any tracer installed.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
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

    fn cpu() -> Backend {
        Backend::cpu(SwCostModel::default())
    }

    fn gpu() -> Backend {
        Backend::gpu(SwCostModel::default(), GpuCostModel::default())
    }

    fn inax(num_pu: usize, num_pe: usize) -> Backend {
        Backend::inax(
            InaxConfig::builder().num_pu(num_pu).num_pe(num_pe).build(),
            SwCostModel::default(),
        )
    }

    /// One fixed-env episode per genome from `seed`.
    fn eval(backend: &mut Backend, pop: &[Genome], env: EnvId, seed: u64) -> EvalOutcome {
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
        let run = |mut backend: Backend| {
            backend
                .evaluate(&pop, EnvId::CartPole, &spec)
                .expect("scenario eval succeeds")
        };
        let a = run(cpu());
        let b = run(gpu());
        let c = run(inax(4, 2));
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
    fn exec_stats_are_taken_once_per_evaluation() {
        let mut cpu = cpu();
        assert_eq!(cpu.take_exec_stats(), None, "nothing ran yet");
        let pop = genomes(EnvId::CartPole, 4);
        let _ = eval(&mut cpu, &pop, EnvId::CartPole, 7);
        assert!(cpu.take_exec_stats().is_some());
        assert_eq!(cpu.take_exec_stats(), None, "take consumes the stats");
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
        // E3-INAX runs the one kernel, so its spans follow the shard
        // plan (12 genomes in shards of ⌈12 / (1 worker × 4)⌉ = 3), not
        // the accelerator's ⌈12 / 5⌉ = 3 waves — the fold that prices
        // those runs after the shards and records no span of its own.
        assert_eq!(count(&names, "shard"), 4, "one span per shard");
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
    fn one_inax_wave_is_still_many_work_items() {
        // 13 genomes fit one wave of 50 PUs. The wave is how the
        // accelerator model prices the run, not the unit of host work:
        // the kernel shards the population like any software run.
        let pop = genomes(EnvId::CartPole, 13);
        let serial = eval(&mut inax(50, 2), &pop, EnvId::CartPole, 9);
        let mut parallel = inax(50, 2).with_threads(8);
        let tracer = Tracer::enabled();
        parallel.set_tracer(tracer.clone());
        assert_eq!(eval(&mut parallel, &pop, EnvId::CartPole, 9), serial);
        assert!(count(&span_names(&tracer), "shard") > 1);
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

    /// Adds a recurrent self-loop on an output node, producing a
    /// genome no backend can lower.
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
