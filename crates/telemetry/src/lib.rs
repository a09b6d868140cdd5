//! Telemetry for the E3 evolve/evaluate loop.
//!
//! The platform and the figure drivers in `e3-bench` report what a run
//! did through typed records ([`EvalRecord`] per population
//! evaluation, [`GenerationRecord`] per generation, [`RunSummary`] per
//! run) pushed into a pluggable [`Collector`]. Three collectors ship
//! with the crate:
//!
//! * [`NullCollector`] — discards everything; the default when a
//!   caller does not care about telemetry. Instrumented code paths
//!   must behave identically under it (see the property tests in
//!   `e3-platform`).
//! * [`MemoryCollector`] — buffers events in memory for inspection;
//!   what the figure drivers use to assemble plots.
//! * [`NdjsonWriter`] — streams one JSON object per line to any
//!   [`std::io::Write`] sink; what `repro --telemetry <path>` and
//!   `sweep --telemetry <path>` use.
//!
//! Every collector method is fallible: a sink that cannot accept a
//! record reports [`TelemetryError`] instead of panicking, and the
//! platform surfaces that as `RunError::Telemetry`. This crate
//! deliberately depends only on `serde`/`serde_json`, so that `e3-inax`
//! and `e3-platform` can both depend on it without a cycle. It owns the
//! per-function time split ([`FunctionSplit`], which `e3-platform`
//! re-exports as `FunctionProfile`) and the accelerator's per-unit
//! accounting ([`UtilizationBreakdown`], [`PuCycles`],
//! [`PeLaneCycles`]): `e3-inax` counts into these types and the
//! [`UtilizationRecord`] carries them as they are. The one accelerator
//! type still mirrored is [`HwCounters`], a flat copy of `e3-inax`'s
//! `EpisodeRunReport` with its utilization reports reduced to rates:
//! the instrument under `benchmark/` reads its fields by name, so it
//! can fold only together with a change to that package.

mod metrics;
mod span;

pub use metrics::{labeled, MeteredCollector, MetricsRegistry, SharedRegistry, JIT_SERIES};
pub use span::{SpanTimer, Tracer};

use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Error produced when a telemetry sink rejects a record.
#[derive(Debug)]
pub enum TelemetryError {
    /// The underlying writer failed.
    Io(std::io::Error),
    /// A record could not be serialized.
    Serialize(String),
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::Io(err) => write!(f, "telemetry sink I/O error: {err}"),
            TelemetryError::Serialize(msg) => {
                write!(f, "telemetry record serialization error: {msg}")
            }
        }
    }
}

impl std::error::Error for TelemetryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TelemetryError::Io(err) => Some(err),
            TelemetryError::Serialize(_) => None,
        }
    }
}

impl From<std::io::Error> for TelemetryError {
    fn from(err: std::io::Error) -> Self {
        TelemetryError::Io(err)
    }
}

/// Modeled seconds per NEAT function (the categories of paper
/// Fig. 1(b) and Fig. 9(d)); `e3-platform` re-exports it as
/// `FunctionProfile`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FunctionSplit {
    /// Seconds spent in network inference (`evaluate`).
    pub evaluate: f64,
    /// Seconds spent stepping environments.
    pub env: f64,
    /// Seconds spent instantiating phenotypes (`createnet`).
    pub createnet: f64,
    /// Seconds spent in mutation.
    pub mutate: f64,
    /// Seconds spent in crossover.
    pub crossover: f64,
    /// Seconds spent in speciation.
    pub speciate: f64,
}

impl FunctionSplit {
    /// Total modeled seconds across all functions.
    pub fn total(&self) -> f64 {
        self.evaluate + self.env + self.createnet + self.mutate + self.crossover + self.speciate
    }

    /// The "evolve" share (everything except evaluate + env), as a
    /// fraction of the total.
    pub fn evolve_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0.0 {
            return 0.0;
        }
        (self.createnet + self.mutate + self.crossover + self.speciate) / total
    }

    /// The "evaluate" share (inference only) as a fraction of total.
    pub fn evaluate_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0.0 {
            return 0.0;
        }
        self.evaluate / total
    }

    /// `(label, seconds)` pairs for rendering breakdowns.
    pub fn entries(&self) -> [(&'static str, f64); 6] {
        [
            ("evaluate", self.evaluate),
            ("env", self.env),
            ("createnet", self.createnet),
            ("mutate", self.mutate),
            ("crossover", self.crossover),
            ("speciate", self.speciate),
        ]
    }
}

/// Accelerator cycle accounting mirrored from `e3-inax`'s
/// `EpisodeRunReport` (Fig. 9(a) categories) as plain counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HwCounters {
    /// Total accelerator wall cycles (set-up + compute + DMA).
    pub total_cycles: u64,
    /// Cycles spent streaming weights/topology onto PUs.
    pub setup_cycles: u64,
    /// Cycles PEs spent doing useful MACs.
    pub pe_active_cycles: u64,
    /// Cycles spent in evaluate-phase control overhead.
    pub evaluate_control_cycles: u64,
    /// Cycles spent on DMA transfers.
    pub dma_cycles: u64,
    /// PU-scope utilization rate (paper Eq. 1), in `[0, 1]`.
    pub pu_utilization: f64,
    /// PE-scope utilization rate, in `[0, 1]`.
    pub pe_utilization: f64,
    /// Inference waves executed.
    pub steps: u64,
}

/// One population evaluation on a backend (one `evaluate` call per
/// generation).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EvalRecord {
    /// Zero-based generation index.
    pub generation: usize,
    /// Backend name (`"E3-CPU"`, `"E3-GPU"`, `"E3-INAX"`).
    pub backend: String,
    /// Environment name (e.g. `"cartpole"`).
    pub env: String,
    /// Number of genomes evaluated.
    pub population: usize,
    /// Modeled seconds of network inference.
    pub eval_seconds: f64,
    /// Modeled seconds of environment stepping.
    pub env_seconds: f64,
    /// Environment steps summed over the population.
    pub total_steps: u64,
    /// Best fitness in the evaluated population.
    pub best_fitness: f64,
    /// Mean fitness over the evaluated population.
    pub mean_fitness: f64,
    /// Accelerator counters when the backend is E3-INAX.
    pub hw: Option<HwCounters>,
}

/// Host-side execution counters for one population evaluation,
/// mirrored from `e3-exec`'s `ExecStats` (and, for the `cache_*`
/// fields, the backend's `TierStats`) as plain data (the host
/// analogue of the INAX `U(r)` utilization counters). Emitted only
/// when the platform runs with a parallel executor installed.
///
/// All fields describe the (nondeterministic) execution schedule —
/// wall times and steal counts vary run to run — and never the
/// results, which are bit-identical across thread counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecRecord {
    /// Zero-based generation index.
    pub generation: usize,
    /// Backend name.
    pub backend: String,
    /// Number of workers (virtual PUs).
    pub workers: usize,
    /// Number of shards the population was split into.
    pub shards: usize,
    /// Wall-clock seconds per shard, in shard order.
    pub shard_seconds: Vec<f64>,
    /// Shards executed by a worker other than their home worker.
    pub steal_count: u64,
    /// Plan-cache hits across all workers. Hits and misses are both
    /// zero where the kernel looks no plan up (everywhere but a
    /// software backend with the tier on).
    pub cache_hits: u64,
    /// Plan-cache misses across all workers.
    pub cache_misses: u64,
    /// Compiled plans resident across all workers' plan caches at
    /// the end of the call (a gauge).
    pub cache_entries: u64,
    /// Plan-cache entries evicted by epoch turnover during the call.
    pub cache_evictions: u64,
    /// Fraction of plan lookups served from cache, in `[0, 1]`.
    pub cache_hit_rate: f64,
    /// Mean fraction of the wall-clock each worker spent busy,
    /// in `[0, 1]`.
    pub worker_utilization: f64,
    /// Shards initially enqueued on each worker's home queue
    /// (before stealing), in worker order.
    pub queue_depths: Vec<usize>,
    /// Wall-clock seconds for the whole evaluation call.
    pub wall_seconds: f64,
}

/// Tiered-execution (JIT) counters for one population evaluation,
/// mirrored from the backend's `TierStats`. Emitted **only** when it
/// is not [`JitRecord::is_empty`] — disabled or unsupported-target runs
/// produce no `Jit` events, so their NDJSON streams stay byte-identical
/// to runs that predate the tier.
///
/// Like [`ExecRecord`], every field describes the execution schedule
/// (what got compiled, when, how fast), never the results: the native
/// tier is bit-identical to the interpreter by construction.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JitRecord {
    /// Zero-based generation index.
    pub generation: usize,
    /// Backend name.
    pub backend: String,
    /// Plans promoted to native code during the call.
    pub compiled: u64,
    /// Machine-code bytes emitted during the call.
    pub bytes: u64,
    /// Wall-clock seconds spent compiling during the call.
    pub compile_seconds: f64,
    /// Compilations that failed and fell back to the interpreter
    /// (never retried for the same cache entry).
    pub fallbacks: u64,
    /// Activations served by the native tier during the call.
    pub activations: u64,
    /// Natively compiled plans resident across all workers' caches at
    /// the end of the call (a gauge).
    pub resident: u64,
}

impl JitRecord {
    /// True when the tier did nothing during the call: every count is
    /// zero. The platform emits no such record, and `trace_check`
    /// rejects one.
    pub fn is_empty(&self) -> bool {
        self.compiled == 0
            && self.bytes == 0
            && self.fallbacks == 0
            && self.activations == 0
            && self.resident == 0
    }
}

/// Where one PU's cycles went over a run.
///
/// The three states partition every accelerator wall cycle:
/// **busy** (computing its own decode or inference waves), **idle**
/// (no resident individual, a dead episode, or waiting at a wave
/// barrier for slower PUs), and **stall** (blocked on shared
/// resources: the weight channel while other PUs decode, and DMA
/// transfers). `busy + idle + stall` equals the accelerator's total
/// wall cycles for every PU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PuCycles {
    /// Cycles spent computing (own decode + own inference waves).
    pub busy: u64,
    /// Cycles with nothing to do (empty, dead, or barrier lag).
    pub idle: u64,
    /// Cycles blocked on shared resources (peer decode, DMA).
    pub stall: u64,
}

impl PuCycles {
    /// Total accounted cycles.
    pub fn total(&self) -> u64 {
        self.busy + self.idle + self.stall
    }
}

/// Where one PE lane's cycles went while its PU was busy inferring.
///
/// Lane accounting is PU-scoped: a lane is **busy** for the cycles its
/// node assignments take and **idle** for the rest of its PU's
/// inference wall time (short waves, degree variance, level syncs).
/// Cycles where the whole PU idles or stalls are charged to the PU,
/// not its lanes, so `Σ busy` over lanes equals the aggregate
/// `pe_active` breakdown counter exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeLaneCycles {
    /// Cycles spent on MACs and activations.
    pub busy: u64,
    /// Cycles idled within the PU's inference wall time.
    pub idle: u64,
}

/// Cycle-level utilization accounting for a whole accelerator run:
/// per-PU busy/idle/stall, per-PE-lane busy/idle (aggregated over
/// PUs), buffer high-water marks, and DMA traffic. `e3-inax` counts
/// it; the run reports it in a [`UtilizationRecord`].
///
/// Mergeable in wave order exactly like `e3-inax`'s
/// `EpisodeRunReport::merge`: cycle vectors add elementwise,
/// high-water marks take the max, DMA bytes add — so per-wave
/// breakdowns from independent accelerator instances reduce to the
/// accounting a single accelerator would produce.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtilizationBreakdown {
    /// Per-PU cycle states, indexed by PU.
    pub per_pu: Vec<PuCycles>,
    /// Per-PE-lane cycle states, aggregated across PUs.
    pub per_pe: Vec<PeLaneCycles>,
    /// Largest weight-stream footprint loaded onto any PU, in bytes.
    pub weight_buffer_hwm_bytes: u64,
    /// Largest value-buffer occupancy on any PU, in slots.
    pub value_buffer_hwm_slots: u64,
    /// Total bytes moved over the DMA channels.
    pub dma_bytes: u64,
}

impl UtilizationBreakdown {
    /// An all-zero breakdown for a cluster of `num_pu` PUs with
    /// `num_pe` PE lanes each.
    pub fn new(num_pu: usize, num_pe: usize) -> Self {
        UtilizationBreakdown {
            per_pu: vec![PuCycles::default(); num_pu],
            per_pe: vec![PeLaneCycles::default(); num_pe],
            ..UtilizationBreakdown::default()
        }
    }

    /// Accumulates another breakdown (see the type docs for the merge
    /// semantics). Shorter cycle vectors are widened, so merging into
    /// a default-constructed breakdown is the identity.
    pub fn merge(&mut self, other: &UtilizationBreakdown) {
        if self.per_pu.len() < other.per_pu.len() {
            self.per_pu.resize(other.per_pu.len(), PuCycles::default());
        }
        for (mine, theirs) in self.per_pu.iter_mut().zip(&other.per_pu) {
            mine.busy += theirs.busy;
            mine.idle += theirs.idle;
            mine.stall += theirs.stall;
        }
        if self.per_pe.len() < other.per_pe.len() {
            self.per_pe
                .resize(other.per_pe.len(), PeLaneCycles::default());
        }
        for (mine, theirs) in self.per_pe.iter_mut().zip(&other.per_pe) {
            mine.busy += theirs.busy;
            mine.idle += theirs.idle;
        }
        self.weight_buffer_hwm_bytes = self
            .weight_buffer_hwm_bytes
            .max(other.weight_buffer_hwm_bytes);
        self.value_buffer_hwm_slots = self
            .value_buffer_hwm_slots
            .max(other.value_buffer_hwm_slots);
        self.dma_bytes += other.dma_bytes;
    }
}

/// Cycle-level utilization for a whole run on the INAX accelerator:
/// the run's [`UtilizationBreakdown`] stamped with its backend,
/// environment and wall-cycle total. Emitted once per run, just before
/// [`RunSummary`]. PU `i` is `breakdown.per_pu[i]`, PE lane `j` is
/// `breakdown.per_pe[j]`, and every PU row reconciles with the total:
/// `busy + idle + stall == total_cycles`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UtilizationRecord {
    /// Backend name (currently always `"E3-INAX"`).
    pub backend: String,
    /// Environment name.
    pub env: String,
    /// Total accelerator wall cycles over the run.
    pub total_cycles: u64,
    /// Per-PU / per-PE cycle accounting, buffer high-water marks and
    /// DMA traffic.
    pub breakdown: UtilizationBreakdown,
}

impl UtilizationRecord {
    /// A human-readable per-PU / per-PE utilization table (the
    /// end-of-run dump `repro run` prints for INAX runs).
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let util = &self.breakdown;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "INAX utilization — {} on {} ({} PU × {} PE, {} wall cycles)",
            self.backend,
            self.env,
            util.per_pu.len(),
            util.per_pe.len(),
            self.total_cycles
        );
        let _ = writeln!(
            out,
            "{:>4}  {:>12}  {:>12}  {:>12}  {:>6}",
            "PU", "busy", "idle", "stall", "busy%"
        );
        for (pu, row) in util.per_pu.iter().enumerate() {
            let total = row.total().max(1) as f64;
            let _ = writeln!(
                out,
                "{:>4}  {:>12}  {:>12}  {:>12}  {:>5.1}%",
                pu,
                row.busy,
                row.idle,
                row.stall,
                100.0 * row.busy as f64 / total
            );
        }
        let _ = writeln!(
            out,
            "{:>4}  {:>12}  {:>12}  {:>6}",
            "PE", "busy", "idle", "busy%"
        );
        for (pe, row) in util.per_pe.iter().enumerate() {
            let total = (row.busy + row.idle).max(1) as f64;
            let _ = writeln!(
                out,
                "{:>4}  {:>12}  {:>12}  {:>5.1}%",
                pe,
                row.busy,
                row.idle,
                100.0 * row.busy as f64 / total
            );
        }
        let _ = writeln!(
            out,
            "weight buffer HWM {} B, value buffer HWM {} slots, DMA {} B",
            util.weight_buffer_hwm_bytes, util.value_buffer_hwm_slots, util.dma_bytes
        );
        out
    }
}

/// One completed generation of the evolve/evaluate loop.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GenerationRecord {
    /// Zero-based generation index.
    pub generation: usize,
    /// Backend name.
    pub backend: String,
    /// Environment name.
    pub env: String,
    /// Best fitness after this generation.
    pub best_fitness: f64,
    /// Mean fitness over the population.
    pub mean_fitness: f64,
    /// Number of species after speciation.
    pub species: usize,
    /// Cumulative modeled seconds at the end of this generation.
    pub modeled_seconds: f64,
    /// Cumulative per-function time split.
    pub split: FunctionSplit,
}

/// One snapshot written by the crash-safe run store (`e3-store`).
/// Emitted right after the snapshot file is durably on disk.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CheckpointRecord {
    /// Generation the snapshot captured.
    pub generation: usize,
    /// Backend name.
    pub backend: String,
    /// Environment name.
    pub env: String,
    /// Snapshot file path.
    pub path: String,
    /// Snapshot file size in bytes.
    pub bytes: u64,
    /// Best fitness at capture time, when finite.
    pub best_fitness: Option<f64>,
}

/// A run resumed from a store snapshot. Emitted once, before any
/// event of the resumed portion, so an NDJSON stream records where
/// the continuation picked up.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResumeRecord {
    /// Generation the run resumed from.
    pub generation: usize,
    /// Backend name.
    pub backend: String,
    /// Environment name.
    pub env: String,
    /// Snapshot file the state was recovered from.
    pub path: String,
    /// Corrupt or torn snapshots skipped before this one validated.
    pub skipped_corrupt: usize,
}

/// Progress of one island inside an island-evolution run (`e3-islands`).
/// Emitted once per island generation, wrapping the per-island
/// [`GenerationRecord`] stream with the island's identity so many
/// islands can share one NDJSON sink.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IslandRecord {
    /// Island index within the archipelago (zero-based).
    pub island: usize,
    /// Total islands in the run.
    pub islands: usize,
    /// Zero-based generation index the island just completed.
    pub generation: usize,
    /// Backend name.
    pub backend: String,
    /// Environment name.
    pub env: String,
    /// Best fitness of this island's latest evaluated generation.
    pub best_fitness: f64,
    /// Best fitness this island has ever seen.
    pub best_ever: f64,
    /// Number of species on this island after speciation.
    pub species: usize,
    /// Whether the island reached its fitness target and retired.
    pub retired: bool,
}

/// One migration event: emigrants from a source island merged into a
/// destination island at a generation-indexed exchange boundary.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// Destination island (the one that received immigrants).
    pub island: usize,
    /// Generation boundary the exchange is indexed by.
    pub generation: usize,
    /// Source islands that contributed emigrants, ascending.
    pub sources: Vec<usize>,
    /// Number of immigrant genomes merged in.
    pub immigrants: usize,
    /// Number of this island's own genomes published as emigrants at
    /// the same boundary.
    pub emigrants: usize,
    /// Best fitness among the immigrants, when any arrived.
    pub best_immigrant_fitness: Option<f64>,
}

/// Train-versus-held-out fitness of the incumbent best genome under
/// scenario distributions (`e3-platform`'s generalization harness).
/// Emitted once per holdout pass, after the generation's [`EvalRecord`]
/// and before its [`GenerationRecord`], when the run is configured
/// with a held-out `e3_envs::ScenarioDistribution` — never for vanilla
/// fixed-env runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GeneralizationRecord {
    /// Zero-based generation index the pass evaluated.
    pub generation: usize,
    /// Backend name.
    pub backend: String,
    /// Environment name.
    pub env: String,
    /// The best genome's (aggregated) training fitness this generation.
    pub train_fitness: f64,
    /// Mean fitness of the same genome over the held-out scenarios.
    pub holdout_fitness: f64,
    /// Number of held-out scenarios evaluated.
    pub holdout_scenarios: usize,
    /// Worst per-scenario fitness in the held-out pass.
    pub holdout_min: f64,
    /// Best per-scenario fitness in the held-out pass.
    pub holdout_max: f64,
    /// Population standard deviation of the per-scenario fitnesses.
    pub holdout_std: f64,
    /// Generalization gap, `train_fitness - holdout_fitness` (positive
    /// means the genome overfits the training distribution).
    pub gap: f64,
}

/// Whole-run summary emitted once when a run finishes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Backend name.
    pub backend: String,
    /// Environment name.
    pub env: String,
    /// Generations executed.
    pub generations: usize,
    /// Whether the target fitness was reached.
    pub solved: bool,
    /// Best fitness seen over the run.
    pub best_fitness: f64,
    /// Total modeled seconds.
    pub modeled_seconds: f64,
    /// Run-time speedup relative to the E3-CPU baseline, when known.
    pub speedup_vs_cpu: Option<f64>,
    /// Modeled energy in joules (platform power model), when known.
    pub energy_joules: Option<f64>,
    /// Cumulative per-function time split.
    pub split: FunctionSplit,
}

/// The events a [`Collector`] receives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    /// A population evaluation finished.
    Eval(EvalRecord),
    /// Host-side executor counters for a population evaluation.
    Exec(ExecRecord),
    /// Tiered-execution (JIT) counters for a population evaluation.
    /// Only emitted when the tier actually did something.
    Jit(JitRecord),
    /// A generation finished.
    Generation(GenerationRecord),
    /// Cycle-level accelerator utilization for a whole run.
    Utilization(UtilizationRecord),
    /// A snapshot was durably written by the run store.
    Checkpoint(CheckpointRecord),
    /// The run resumed from a store snapshot.
    Resume(ResumeRecord),
    /// An island completed a generation (island-evolution runs).
    Island(IslandRecord),
    /// An island received immigrants at a migration boundary.
    Migration(MigrationRecord),
    /// A held-out scenario pass measured the best genome's
    /// generalization.
    Generalization(GeneralizationRecord),
    /// A run finished.
    Summary(RunSummary),
}

/// A sink for telemetry events.
///
/// Implementations must not influence the computation they observe:
/// instrumented code treats the collector as write-only, and the
/// platform guarantees identical numerical results whichever
/// collector is installed.
pub trait Collector {
    /// Accepts one event.
    fn record(&mut self, event: &TelemetryEvent) -> Result<(), TelemetryError>;

    /// Flushes any buffered events to the underlying sink.
    fn flush(&mut self) -> Result<(), TelemetryError> {
        Ok(())
    }
}

/// Discards every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullCollector;

impl Collector for NullCollector {
    fn record(&mut self, _event: &TelemetryEvent) -> Result<(), TelemetryError> {
        Ok(())
    }
}

/// Buffers events in memory for later inspection.
#[derive(Debug, Clone, Default)]
pub struct MemoryCollector {
    events: Vec<TelemetryEvent>,
}

impl MemoryCollector {
    /// An empty collector.
    pub fn new() -> Self {
        MemoryCollector::default()
    }

    /// All buffered events, in arrival order.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// The buffered evaluation records.
    pub fn evals(&self) -> impl Iterator<Item = &EvalRecord> {
        self.events.iter().filter_map(|event| match event {
            TelemetryEvent::Eval(record) => Some(record),
            _ => None,
        })
    }

    /// The buffered executor records.
    pub fn execs(&self) -> impl Iterator<Item = &ExecRecord> {
        self.events.iter().filter_map(|event| match event {
            TelemetryEvent::Exec(record) => Some(record),
            _ => None,
        })
    }

    /// The buffered tiered-execution (JIT) records.
    pub fn jits(&self) -> impl Iterator<Item = &JitRecord> {
        self.events.iter().filter_map(|event| match event {
            TelemetryEvent::Jit(record) => Some(record),
            _ => None,
        })
    }

    /// The buffered generation records.
    pub fn generations(&self) -> impl Iterator<Item = &GenerationRecord> {
        self.events.iter().filter_map(|event| match event {
            TelemetryEvent::Generation(record) => Some(record),
            _ => None,
        })
    }

    /// The buffered checkpoint records.
    pub fn checkpoints(&self) -> impl Iterator<Item = &CheckpointRecord> {
        self.events.iter().filter_map(|event| match event {
            TelemetryEvent::Checkpoint(record) => Some(record),
            _ => None,
        })
    }

    /// The buffered resume records.
    pub fn resumes(&self) -> impl Iterator<Item = &ResumeRecord> {
        self.events.iter().filter_map(|event| match event {
            TelemetryEvent::Resume(record) => Some(record),
            _ => None,
        })
    }

    /// The buffered generalization records.
    pub fn generalizations(&self) -> impl Iterator<Item = &GeneralizationRecord> {
        self.events.iter().filter_map(|event| match event {
            TelemetryEvent::Generalization(record) => Some(record),
            _ => None,
        })
    }

    /// The buffered run summaries.
    pub fn summaries(&self) -> impl Iterator<Item = &RunSummary> {
        self.events.iter().filter_map(|event| match event {
            TelemetryEvent::Summary(record) => Some(record),
            _ => None,
        })
    }
}

impl Collector for MemoryCollector {
    fn record(&mut self, event: &TelemetryEvent) -> Result<(), TelemetryError> {
        self.events.push(event.clone());
        Ok(())
    }
}

/// Streams events as newline-delimited JSON to a [`Write`] sink.
///
/// Each record is flushed as soon as its line is written, so a live
/// stream (`tail -f` on an island's NDJSON file, or a pipe into
/// another process) sees every event promptly instead of whenever a
/// buffer happens to fill. The underlying writer may still buffer
/// *within* a line; the flush guarantees the line reaches the sink
/// before `record` returns.
#[derive(Debug)]
pub struct NdjsonWriter<W: Write> {
    writer: W,
}

impl NdjsonWriter<BufWriter<File>> {
    /// Creates (truncating) the file at `path` as an NDJSON sink.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, TelemetryError> {
        let file = File::create(path)?;
        Ok(NdjsonWriter::new(BufWriter::new(file)))
    }
}

impl<W: Write> NdjsonWriter<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        NdjsonWriter { writer }
    }

    /// Consumes the collector, returning the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> Collector for NdjsonWriter<W> {
    fn record(&mut self, event: &TelemetryEvent) -> Result<(), TelemetryError> {
        let line = serde_json::to_string(event)
            .map_err(|err| TelemetryError::Serialize(err.to_string()))?;
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        // Line-buffered contract: the completed line is pushed to the
        // sink immediately so live followers see it without waiting
        // for the BufWriter to fill or the run to finish.
        self.writer.flush()?;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), TelemetryError> {
        self.writer.flush()?;
        Ok(())
    }
}

impl<C: Collector + ?Sized> Collector for &mut C {
    fn record(&mut self, event: &TelemetryEvent) -> Result<(), TelemetryError> {
        (**self).record(event)
    }

    fn flush(&mut self) -> Result<(), TelemetryError> {
        (**self).flush()
    }
}

impl Collector for Box<dyn Collector + '_> {
    fn record(&mut self, event: &TelemetryEvent) -> Result<(), TelemetryError> {
        (**self).record(event)
    }

    fn flush(&mut self) -> Result<(), TelemetryError> {
        (**self).flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_eval() -> EvalRecord {
        EvalRecord {
            generation: 3,
            backend: "E3-INAX".to_string(),
            env: "cartpole".to_string(),
            population: 150,
            eval_seconds: 0.25,
            env_seconds: 0.5,
            total_steps: 12_000,
            best_fitness: 499.0,
            mean_fitness: 210.5,
            hw: Some(HwCounters {
                total_cycles: 1_000_000,
                setup_cycles: 100_000,
                pe_active_cycles: 700_000,
                evaluate_control_cycles: 200_000,
                dma_cycles: 50_000,
                pu_utilization: 0.8,
                pe_utilization: 0.6,
                steps: 400,
            }),
        }
    }

    #[test]
    fn memory_collector_preserves_order_and_kinds() {
        let mut collector = MemoryCollector::new();
        collector
            .record(&TelemetryEvent::Eval(sample_eval()))
            .unwrap();
        collector
            .record(&TelemetryEvent::Generation(GenerationRecord::default()))
            .unwrap();
        collector
            .record(&TelemetryEvent::Summary(RunSummary::default()))
            .unwrap();
        assert_eq!(collector.events().len(), 3);
        assert_eq!(collector.evals().count(), 1);
        assert_eq!(collector.generations().count(), 1);
        assert_eq!(collector.summaries().count(), 1);
    }

    #[test]
    fn ndjson_writer_emits_one_line_per_event() {
        let mut writer = NdjsonWriter::new(Vec::new());
        writer.record(&TelemetryEvent::Eval(sample_eval())).unwrap();
        writer
            .record(&TelemetryEvent::Summary(RunSummary::default()))
            .unwrap();
        writer.flush().unwrap();
        let bytes = writer.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let value: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(value.get("Eval").is_some() || value.get("Summary").is_some());
        }
    }

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            TelemetryEvent::Eval(sample_eval()),
            TelemetryEvent::Generation(GenerationRecord {
                generation: 7,
                backend: "E3-CPU".to_string(),
                env: "xor".to_string(),
                best_fitness: 3.5,
                mean_fitness: 2.0,
                species: 9,
                modeled_seconds: 42.0,
                split: FunctionSplit {
                    evaluate: 30.0,
                    env: 8.0,
                    ..Default::default()
                },
            }),
            TelemetryEvent::Summary(RunSummary {
                backend: "E3-GPU".to_string(),
                env: "mountaincar".to_string(),
                generations: 50,
                solved: true,
                best_fitness: 95.0,
                modeled_seconds: 10.0,
                speedup_vs_cpu: Some(0.5),
                energy_joules: Some(1800.0),
                split: FunctionSplit::default(),
            }),
        ];
        for event in events {
            let json = serde_json::to_string(&event).unwrap();
            let back: TelemetryEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn exec_records_are_collected_and_round_trip() {
        let record = ExecRecord {
            generation: 2,
            backend: "E3-CPU".to_string(),
            workers: 4,
            shards: 10,
            shard_seconds: vec![0.01; 10],
            steal_count: 3,
            cache_hits: 120,
            cache_misses: 30,
            cache_entries: 40,
            cache_evictions: 6,
            cache_hit_rate: 0.8,
            worker_utilization: 0.9,
            queue_depths: vec![3, 3, 2, 2],
            wall_seconds: 0.04,
        };
        let json = serde_json::to_string(&TelemetryEvent::Exec(record.clone())).unwrap();
        let back: TelemetryEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, TelemetryEvent::Exec(record.clone()));

        let mut collector = MemoryCollector::new();
        collector.record(&TelemetryEvent::Exec(record)).unwrap();
        collector
            .record(&TelemetryEvent::Generation(GenerationRecord::default()))
            .unwrap();
        assert_eq!(collector.execs().count(), 1);
        assert_eq!(collector.execs().next().unwrap().workers, 4);
    }

    #[test]
    fn checkpoint_and_resume_records_round_trip_and_collect() {
        let checkpoint = CheckpointRecord {
            generation: 12,
            backend: "E3-INAX".to_string(),
            env: "cartpole".to_string(),
            path: "ckpt/gen-00000012.e3snap".to_string(),
            bytes: 48_213,
            best_fitness: Some(321.5),
        };
        let resume = ResumeRecord {
            generation: 12,
            backend: "E3-INAX".to_string(),
            env: "cartpole".to_string(),
            path: "ckpt/gen-00000012.e3snap".to_string(),
            skipped_corrupt: 1,
        };
        for event in [
            TelemetryEvent::Checkpoint(checkpoint.clone()),
            TelemetryEvent::Resume(resume.clone()),
        ] {
            let json = serde_json::to_string(&event).unwrap();
            let back: TelemetryEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, event);
        }

        let mut collector = MemoryCollector::new();
        collector
            .record(&TelemetryEvent::Resume(resume.clone()))
            .unwrap();
        collector
            .record(&TelemetryEvent::Checkpoint(checkpoint.clone()))
            .unwrap();
        assert_eq!(collector.checkpoints().count(), 1);
        assert_eq!(collector.resumes().count(), 1);
        assert_eq!(collector.checkpoints().next().unwrap().bytes, 48_213);
        assert_eq!(collector.resumes().next().unwrap().skipped_corrupt, 1);
    }

    #[test]
    fn island_and_migration_records_round_trip_and_collect() {
        let island = IslandRecord {
            island: 2,
            islands: 4,
            generation: 9,
            backend: "E3-INAX".to_string(),
            env: "cartpole".to_string(),
            best_fitness: 120.0,
            best_ever: 180.0,
            species: 5,
            retired: false,
        };
        let migration = MigrationRecord {
            island: 2,
            generation: 9,
            sources: vec![1],
            immigrants: 3,
            emigrants: 3,
            best_immigrant_fitness: Some(175.5),
        };
        for event in [
            TelemetryEvent::Island(island.clone()),
            TelemetryEvent::Migration(migration.clone()),
        ] {
            let json = serde_json::to_string(&event).unwrap();
            let back: TelemetryEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn generalization_records_round_trip_and_collect() {
        let record = GeneralizationRecord {
            generation: 6,
            backend: "E3-CPU".to_string(),
            env: "cartpole".to_string(),
            train_fitness: 480.0,
            holdout_fitness: 410.0,
            holdout_scenarios: 8,
            holdout_min: 220.0,
            holdout_max: 500.0,
            holdout_std: 85.5,
            gap: 70.0,
        };
        let event = TelemetryEvent::Generalization(record.clone());
        let json = serde_json::to_string(&event).unwrap();
        let back: TelemetryEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, event);

        let mut collector = MemoryCollector::new();
        collector.record(&event).unwrap();
        collector
            .record(&TelemetryEvent::Generation(GenerationRecord::default()))
            .unwrap();
        assert_eq!(collector.generalizations().count(), 1);
        let seen = collector.generalizations().next().unwrap();
        assert_eq!(seen.holdout_scenarios, 8);
        assert_eq!(seen.gap, 70.0);
    }

    #[test]
    fn breakdown_merge_is_elementwise_with_max_hwm() {
        let mut a = UtilizationBreakdown::new(2, 2);
        a.per_pu[0].busy = 10;
        a.per_pu[1].idle = 5;
        a.per_pe[0].busy = 7;
        a.weight_buffer_hwm_bytes = 100;
        a.dma_bytes = 40;
        let mut b = UtilizationBreakdown::new(2, 2);
        b.per_pu[0].stall = 3;
        b.per_pe[1].idle = 2;
        b.weight_buffer_hwm_bytes = 60;
        b.dma_bytes = 10;
        a.merge(&b);
        assert_eq!(a.per_pu[0].busy, 10);
        assert_eq!(a.per_pu[0].stall, 3);
        assert_eq!(a.per_pe[1].idle, 2);
        assert_eq!(a.weight_buffer_hwm_bytes, 100, "HWMs take the max");
        assert_eq!(a.dma_bytes, 50, "bytes add");

        let mut empty = UtilizationBreakdown::default();
        empty.merge(&a);
        assert_eq!(empty, a, "merging into default is the identity");
    }

    /// A writer that only exposes bytes written before the last flush,
    /// modelling what an external `tail -f` observer can see.
    #[derive(Default)]
    struct FlushVisible {
        buffered: Vec<u8>,
        visible: std::rc::Rc<std::cell::RefCell<Vec<u8>>>,
    }

    impl Write for FlushVisible {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.buffered.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.visible.borrow_mut().extend(self.buffered.drain(..));
            Ok(())
        }
    }

    #[test]
    fn ndjson_records_are_visible_without_an_explicit_flush() {
        let visible = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let sink = FlushVisible {
            buffered: Vec::new(),
            visible: visible.clone(),
        };
        let mut writer = NdjsonWriter::new(sink);
        writer
            .record(&TelemetryEvent::Generation(GenerationRecord::default()))
            .unwrap();
        // No writer.flush() here: the record itself must have pushed
        // the full line through to the observer.
        let seen = String::from_utf8(visible.borrow().clone()).unwrap();
        assert!(seen.ends_with('\n'), "line incomplete: {seen:?}");
        let value: serde_json::Value = serde_json::from_str(seen.trim()).unwrap();
        assert!(value.get("Generation").is_some());
    }

    #[test]
    fn null_collector_accepts_everything() {
        let mut collector = NullCollector;
        assert!(collector
            .record(&TelemetryEvent::Summary(RunSummary::default()))
            .is_ok());
        assert!(collector.flush().is_ok());
    }
}
