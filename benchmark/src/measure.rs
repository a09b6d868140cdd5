//! Driving seed-runs and turning their samples into the end-to-end
//! metrics.
//!
//! A *seed-run* is one evolution run from one seed: build the config,
//! construct the platform, run [`WARMUP_GENERATIONS`] untimed
//! generations (together: the set-up), then up to `G` timed
//! generations. A *pass* is [`REPEATS`] sweeps over the same seeds
//! (`--seed`, `--seed + 1`, …, as many as fit a sweep's share of the
//! time budget). The program is deterministic, so the repeats of a
//! seed-run do identical work, and each generation is reported at the
//! nominal clock (`clock.rs`) and at the fastest of its repeats: its
//! time with the host's interference filtered out.

use crate::clock;
use crate::spans::{SpanId, SpanIds, SpanLog};
use crate::stats;
use crate::workloads::{Variant, Workload, ISLAND_DRIVERS, WARMUP_GENERATIONS};
use e3_islands::{population_fingerprint, run_islands, Archipelago, RunOptions, SharedCollector};
use e3_neat::{Genome, Population};
use e3_platform::{E3Platform, RunError};
use e3_telemetry::{
    Collector, MemoryCollector, MeteredCollector, NdjsonWriter, TelemetryError, TelemetryEvent,
    Tracer,
};
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Generations (warm-up included) after which a seed-run's population
/// fingerprint and step total are recorded for the output checks.
pub const CHECK_GENERATIONS: usize = WARMUP_GENERATIONS + 1;

/// Timed generations at the start of a seed-run over which exact
/// counts (steps, structure sizes, simulated cycles, modeled seconds)
/// are taken.
const EXACT_GENERATIONS: usize = 20;

/// Sweeps of a pass: how often each seed-run is repeated. The sizing
/// host is a shared one whose neighbours slow a stretch of a second or
/// of a minute by 5-100 %; the same generation of the same seed was
/// seen to take 1.0-2.0x its fastest time. Sweeps put a seed-run's
/// repeats a fifth of the pass apart, so that one slow stretch rarely
/// covers them all.
pub const REPEATS: usize = 5;

/// The exact-count window of `workload`, in timed generations.
pub fn exact_window(workload: &Workload) -> usize {
    EXACT_GENERATIONS.min(workload.generations)
}

/// The NDJSON + metrics-registry sink of the observed workload.
pub type ObservedSink = MeteredCollector<NdjsonWriter<BufWriter<File>>>;

/// The harness collector. Untraced it only sums `total_steps` (and the
/// simulated cycles the INAX backend reports) — a few nanoseconds per
/// generation. A traced pass also keeps every event; the observed
/// workload also forwards to its NDJSON + metrics sink.
#[derive(Debug, Default)]
pub struct Sink {
    pub steps: u64,
    pub sim_cycles: u64,
    pub memory: Option<MemoryCollector>,
    pub observed: Option<ObservedSink>,
}

impl Collector for Sink {
    fn record(&mut self, event: &TelemetryEvent) -> Result<(), TelemetryError> {
        if let TelemetryEvent::Eval(eval) = event {
            self.steps += eval.total_steps;
            self.sim_cycles += eval.hw.map_or(0, |hw| hw.total_cycles);
        }
        if let Some(memory) = &mut self.memory {
            memory.record(event)?;
        }
        if let Some(observed) = &mut self.observed {
            observed.record(event)?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), TelemetryError> {
        match &mut self.observed {
            Some(observed) => observed.flush(),
            None => Ok(()),
        }
    }
}

/// The directory an observed seed-run writes into. It lives as long as
/// the seed-run's result: dropping that removes the directory.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// What a traced seed-run keeps for the per-layer probes.
#[derive(Debug, Default)]
pub struct Captured {
    /// Genomes at the first, middle and last generation of the exact
    /// window.
    pub snapshots: Vec<Vec<Genome>>,
    /// The population between an eval and an evolve phase (fitnesses
    /// assigned), for timing `Population::evolve` on a clone.
    pub evaluated: Option<Population>,
    /// Every telemetry event of the seed-run.
    pub memory: MemoryCollector,
    /// Spans the program's own tracer recorded.
    pub program_spans: usize,
    /// Prometheus text of the observed sink's registry.
    pub registry: Option<e3_telemetry::MetricsRegistry>,
}

/// The outcome of one seed-run.
#[derive(Debug, Default)]
pub struct SeedRun {
    pub seed: u64,
    /// All `G` timed generations ran (none returned `Err`).
    pub complete: bool,
    /// Repeats of this seed-run folded in by [`SeedRun::floor_with`],
    /// and how many of them ended in another state than the first.
    pub repeats: usize,
    pub repeat_mismatches: usize,
    /// Config build + construction + warm-up generations, at the
    /// nominal clock.
    pub setup_s: f64,
    /// Construction alone (`E3Platform::new` / `Archipelago::new`),
    /// wall time.
    pub construct_s: f64,
    /// Wall time of each timed generation, the core clock read beside
    /// it, and its time at the nominal clock (`clock::at_nominal`).
    pub gen_s: Vec<f64>,
    pub gen_hz: Vec<f64>,
    pub gen_nominal_s: Vec<f64>,
    /// Eval-phase and evolve-phase wall of each timed generation
    /// (traced passes only).
    pub eval_s: Vec<f64>,
    pub evolve_s: Vec<f64>,
    /// Environment steps of the throughput window, and its length in
    /// wall time and at the nominal clock.
    pub steps: u64,
    pub wall_s: f64,
    pub nominal_s: f64,
    /// Generations asked for and how many returned `Err`, repeats
    /// included; generations the first run completed.
    pub attempted: usize,
    pub failed: usize,
    pub generations: usize,
    /// `(steps, population fingerprint, simulated cycles)` after
    /// [`CHECK_GENERATIONS`] generations; `None` if not reached (or
    /// for an archipelago, whose populations are out of reach mid-run).
    pub prefix: Option<(u64, u64, u64)>,
    /// Final `(steps, population fingerprint, best fitness bits,
    /// simulated cycles)` of a complete run.
    pub end: Option<(u64, u64, u64, u64)>,
    /// Modeled seconds at the end of the exact window (exact).
    pub window_modeled_s: f64,
    /// Islands only: per-island generations/s inputs.
    pub island_gen_ms_p50: Vec<f64>,
    pub migrations: usize,
    /// Where an observed run wrote.
    pub scratch: Option<ScratchDir>,
    pub captured: Option<Captured>,
}

/// What one seed-run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// One `E3Platform`, stepped by the harness. For `islands4_t2`
    /// this is a solo island: the scheduler owns its platforms, so
    /// the per-phase layers are measured on one island's
    /// configuration run alone.
    Platform,
    /// `run_islands` on the whole archipelago.
    Archipelago,
}

impl Unit {
    /// The unit whose generations are the workload's end-to-end
    /// samples.
    pub fn of(workload: &Workload) -> Unit {
        if workload.is_islands() {
            Unit::Archipelago
        } else {
            Unit::Platform
        }
    }
}

/// How a pass drives its seed-runs.
pub struct Drive<'a> {
    pub workload: &'a Workload,
    pub unit: Unit,
    /// Directory this process may write under.
    pub out_dir: &'a Path,
    /// `Some` for a traced pass: harness spans go here.
    pub spans: Option<&'a mut SpanLog>,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

impl SeedRun {
    /// The factor that takes a wall time inside timed generation
    /// `index` to the nominal clock.
    pub fn to_nominal(&self, index: usize) -> f64 {
        self.gen_hz
            .get(index)
            .map_or(1.0, |hz| clock::at_nominal(1.0, *hz))
    }

    /// Folds a repeat of the same seed-run in: every time at the
    /// nominal clock becomes the shorter of the two. Identical work,
    /// so the shorter time is the one with less of the host's
    /// interference in it. Wall times stay those of the first run.
    fn floor_with(&mut self, again: SeedRun, unit: Unit) {
        self.repeats += 1;
        self.attempted += again.attempted;
        self.failed += again.failed;
        if (again.steps, again.end) != (self.steps, self.end) {
            self.repeat_mismatches += 1;
        }
        self.setup_s = self.setup_s.min(again.setup_s);
        if self.gen_nominal_s.len() == again.gen_nominal_s.len() {
            for (floor, s) in self.gen_nominal_s.iter_mut().zip(&again.gen_nominal_s) {
                *floor = floor.min(*s);
            }
        }
        self.nominal_s = match unit {
            Unit::Platform => self.gen_nominal_s.iter().sum(),
            // Islands overlap: the window is the whole call.
            Unit::Archipelago => self.nominal_s.min(again.nominal_s),
        };
    }
}

impl Drive<'_> {
    /// One sweep over `first_seed`, `first_seed + 1`, … for as many
    /// seed-runs as fit `budget / sweeps` (at least one), then
    /// `sweeps - 1` more sweeps over the same seeds, floored into the
    /// first. `sweeps` is [`REPEATS`] except at `--quick` scale.
    pub fn pass(&mut self, first_seed: u64, budget: Duration, sweeps: usize) -> Vec<SeedRun> {
        let start = Instant::now();
        let sweep = budget.div_f64(sweeps as f64);
        let mut runs = Vec::new();
        loop {
            let seed = first_seed.wrapping_add(runs.len() as u64);
            runs.push(self.seed_run(seed, 0));
            // Start no seed-run that would end further past the sweep's
            // share than stopping here ends short of it.
            let spent = start.elapsed();
            if spent + spent.div_f64(2.0 * runs.len() as f64) > sweep {
                break;
            }
        }
        self.repeat(&mut runs, sweeps);
        runs
    }

    /// `sweeps - 1` more sweeps over the seeds of `runs`.
    pub fn repeat(&mut self, runs: &mut [SeedRun], sweeps: usize) {
        for repeat in 1..sweeps {
            for run in runs.iter_mut() {
                let again = self.seed_run(run.seed, repeat);
                run.floor_with(again, self.unit);
            }
        }
    }

    /// One seed-run. `repeat` only names what it writes, so that the
    /// repeats of a seed-run do not share a directory.
    pub fn seed_run(&mut self, seed: u64, repeat: usize) -> SeedRun {
        match self.unit {
            Unit::Archipelago => self.islands_seed_run(seed),
            Unit::Platform => self.platform_seed_run(seed, repeat),
        }
    }

    fn open_seed_span(&mut self, seed: u64) -> Option<SpanId> {
        let ids = SpanIds {
            seed,
            generation: None,
        };
        self.spans
            .as_mut()
            .map(|log| log.open("seed_run", None, ids))
    }

    fn scratch_for(&self, seed: u64, repeat: usize) -> PathBuf {
        // A traced seed-run may be alive beside the untraced one of
        // the same seed.
        let tag = if self.spans.is_some() {
            "traced"
        } else {
            "plain"
        };
        self.out_dir.join(format!(
            "scratch-{}-{}-{seed}-{repeat}-{tag}",
            self.workload.name,
            std::process::id()
        ))
    }

    fn platform_seed_run(&mut self, seed: u64, repeat: usize) -> SeedRun {
        let w = self.workload;
        let traced = self.spans.is_some();
        let mut run = SeedRun {
            seed,
            ..SeedRun::default()
        };
        let mut sink = Sink {
            memory: traced.then(MemoryCollector::new),
            ..Sink::default()
        };
        let seed_span = self.open_seed_span(seed);

        // The clock is read before the set-up and after every
        // generation: an interval's clock is the mean of the readings
        // around it (for the set-up, of those around and within it).
        let mut hz = clock::hz_across(w.threads);
        let mut setup_hz = vec![hz];
        let setup_start = Instant::now();
        let scratch = self.scratch_for(seed, repeat);
        if w.variant == Variant::Observed {
            // A failure to create the sink is a failed operation, not
            // a harness crash: the run proceeds unobserved and the
            // output check on the NDJSON file reports it.
            std::fs::create_dir_all(&scratch).ok();
            sink.observed = NdjsonWriter::create(scratch.join("events.ndjson"))
                .ok()
                .map(MeteredCollector::new);
            run.scratch = Some(ScratchDir(scratch.clone()));
        }
        let config = w.config(&scratch);
        let construct_start = Instant::now();
        let mut platform = E3Platform::new(config, w.backend, seed);
        run.construct_s = secs(construct_start.elapsed());
        let tracer = if traced || w.variant == Variant::Observed {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        platform.set_tracer(tracer.clone());

        let mut captured = traced.then(Captured::default);
        let window = exact_window(w);
        let window_end = WARMUP_GENERATIONS + window;
        let middle = WARMUP_GENERATIONS + window / 2;
        let last = w.total_generations() - 1;
        let mut throughput_steps_base = 0;
        for generation in 0..w.total_generations() {
            if generation == WARMUP_GENERATIONS {
                run.setup_s =
                    clock::at_nominal(secs(setup_start.elapsed()), stats::mean(&setup_hz));
                throughput_steps_base = sink.steps;
            }
            if generation == CHECK_GENERATIONS {
                run.prefix = Some((
                    sink.steps,
                    population_fingerprint(platform.population()),
                    sink.sim_cycles,
                ));
            }
            let timed = generation >= WARMUP_GENERATIONS;
            if let Some(captured) = &mut captured {
                if generation == WARMUP_GENERATIONS
                    || generation == middle
                    || generation + 1 == window_end
                {
                    captured
                        .snapshots
                        .push(platform.population().genomes().to_vec());
                }
            }
            run.attempted += 1;
            let ids = SpanIds {
                seed,
                generation: Some(generation),
            };
            let hz_before = hz;
            let start = Instant::now();
            let eval = platform.eval_phase_with(&mut sink);
            let eval_end = Instant::now();
            let mut cloned = false;
            if let (Some(captured), true) = (&mut captured, generation == middle) {
                if eval.is_ok() {
                    captured.evaluated = Some(platform.population().clone());
                    cloned = true;
                }
            }
            let evolve_start = Instant::now();
            let evolved = eval.and_then(|_| platform.evolve_phase_with(&mut sink));
            let end = Instant::now();
            hz = clock::hz_across(w.threads);
            // Spans are recorded from the instants taken above, after
            // the interval they describe has ended.
            if let (Some(log), true) = (&mut self.spans, timed) {
                let generation_span = log.push("generation", seed_span, ids, start, end);
                log.push("eval", Some(generation_span), ids, start, eval_end);
                if cloned {
                    log.push(
                        "capture",
                        Some(generation_span),
                        ids,
                        eval_end,
                        evolve_start,
                    );
                }
                log.push("evolve", Some(generation_span), ids, evolve_start, end);
            }
            if let Err(err) = evolved {
                run.failed += 1;
                eprintln!(
                    "{}: seed {seed} generation {generation}: {err}",
                    self.workload.name
                );
                break;
            }
            run.generations += 1;
            if generation + 1 == window_end {
                run.window_modeled_s = platform.profile().total();
            }
            if timed {
                let eval_s = secs(eval_end - start);
                let evolve_s = secs(end - evolve_start);
                let gen_hz = (hz_before + hz) / 2.0;
                run.gen_s.push(eval_s + evolve_s);
                run.gen_hz.push(gen_hz);
                run.gen_nominal_s
                    .push(clock::at_nominal(eval_s + evolve_s, gen_hz));
                if traced {
                    run.eval_s.push(eval_s);
                    run.evolve_s.push(evolve_s);
                }
                if generation == last {
                    run.complete = true;
                    break;
                }
            } else {
                setup_hz.push(hz);
            }
        }
        if !run.gen_s.is_empty() {
            run.steps = sink.steps - throughput_steps_base;
            run.wall_s = run.gen_s.iter().sum();
            run.nominal_s = run.gen_nominal_s.iter().sum();
        }
        if run.complete {
            let best = platform
                .population()
                .best()
                .map_or(0, |b| b.fitness.to_bits());
            run.end = Some((
                sink.steps,
                population_fingerprint(platform.population()),
                best,
                sink.sim_cycles,
            ));
        }
        sink.flush().ok();
        if let (Some(log), Some(seed_span)) = (&mut self.spans, seed_span) {
            log.close(seed_span);
        }
        if let Some(mut captured) = captured {
            captured.memory = sink.memory.take().unwrap_or_default();
            captured.program_spans = tracer.span_count();
            captured.registry = sink.observed.take().map(|o| o.into_parts().1);
            run.captured = Some(captured);
        }
        run
    }

    fn islands_seed_run(&mut self, seed: u64) -> SeedRun {
        let w = self.workload;
        let mut run = SeedRun {
            seed,
            ..SeedRun::default()
        };
        let seed_span = self.open_seed_span(seed);
        let setup_start = Instant::now();
        let config = w.islands_config(seed);
        let islands = config.islands;
        let construct_start = Instant::now();
        let archipelago = match Archipelago::new(config) {
            Ok(archipelago) => archipelago,
            Err(err) => return failed_islands_run(run, w, &err),
        };
        run.construct_s = secs(construct_start.elapsed());

        let (tx, rx) = mpsc::channel();
        let collector = SharedCollector::new(IslandStamps { tx });
        let opts = RunOptions::with_drivers(ISLAND_DRIVERS);
        let run_start = Instant::now();
        let outcome = archipelago.run(&opts, &collector);
        let run_end = Instant::now();
        drop(collector);
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(err) => return failed_islands_run(run, w, &err),
        };

        // Per island: the wall time between successive `Island`
        // records is that island's generation latency. An island's
        // generation runs on both pool workers, and the records of all
        // islands come from both drivers: its clock is the mean of
        // every reading taken between its two records, ends included.
        let mut stamps: Vec<Vec<(Instant, f64)>> = vec![Vec::new(); islands];
        for stamp in rx.try_iter() {
            match stamp {
                Stamp::Generation { island, at, hz } => stamps[island].push((at, hz)),
                Stamp::Migration => run.migrations += 1,
            }
        }
        let readings: Vec<(Instant, f64)> = stamps.iter().flatten().copied().collect();
        let hz_between = |from: Instant, to: Instant| {
            let within: Vec<f64> = readings
                .iter()
                .filter(|(at, _)| (from..=to).contains(at))
                .map(|(_, hz)| *hz)
                .collect();
            stats::mean(&within)
        };
        let run_hz = hz_between(run_start, run_end);
        let mut warm_end = run_start;
        for (island, stamps) in stamps.iter().enumerate() {
            run.attempted += stamps.len();
            if let Some((at, _)) = stamps.get(WARMUP_GENERATIONS - 1) {
                warm_end = warm_end.max(*at);
            }
            let mut gaps = Vec::new();
            for (generation, pair) in stamps.windows(2).enumerate().skip(WARMUP_GENERATIONS - 1) {
                let (from, to) = (pair[0].0, pair[1].0);
                let gap_hz = hz_between(from, to);
                gaps.push(secs(to - from));
                run.gen_hz.push(gap_hz);
                run.gen_nominal_s
                    .push(clock::at_nominal(secs(to - from), gap_hz));
                if let Some(log) = &mut self.spans {
                    let ids = SpanIds {
                        seed,
                        generation: Some(generation + 1),
                    };
                    log.push(
                        &format!("island{island}.generation"),
                        seed_span,
                        ids,
                        from,
                        to,
                    );
                }
            }
            if !gaps.is_empty() {
                run.island_gen_ms_p50.push(stats::median(&gaps) * 1e3);
            }
            run.gen_s.extend(gaps);
        }
        // Both at the mean clock of the whole run.
        run.setup_s = clock::at_nominal(secs(warm_end - setup_start), run_hz);
        // The scheduler exposes no per-generation step counts, so the
        // throughput window is the whole `run` call, warm-up included.
        run.wall_s = secs(run_end - run_start);
        run.nominal_s = clock::at_nominal(run.wall_s, run_hz);
        run.steps = island_steps(&outcome);
        run.complete = outcome.completed;
        if run.complete {
            let fold = outcome
                .islands
                .iter()
                .fold(0u64, |acc, i| acc.rotate_left(7) ^ i.population_fingerprint);
            let best = outcome
                .best
                .as_ref()
                .map_or(0, |(_, genome)| genome.fitness.to_bits());
            run.end = Some((run.steps, fold, best, 0));
        }
        if let (Some(log), Some(seed_span)) = (&mut self.spans, seed_span) {
            log.close(seed_span);
        }
        run
    }
}

fn failed_islands_run(mut run: SeedRun, w: &Workload, err: &RunError) -> SeedRun {
    eprintln!("{}: seed {}: {err}", w.name, run.seed);
    run.attempted = run.attempted.max(1);
    run.failed = 1;
    run
}

enum Stamp {
    Generation { island: usize, at: Instant, hz: f64 },
    Migration,
}

/// Timestamps each island generation and reads the clock beside it (on
/// the driver thread that delivers the record: some 50 microseconds of
/// a generation's milliseconds).
struct IslandStamps {
    tx: mpsc::Sender<Stamp>,
}

impl Collector for IslandStamps {
    fn record(&mut self, event: &TelemetryEvent) -> Result<(), TelemetryError> {
        let stamp = match event {
            TelemetryEvent::Island(record) => Stamp::Generation {
                island: record.island,
                at: Instant::now(),
                hz: clock::hz(),
            },
            TelemetryEvent::Migration(_) => Stamp::Migration,
            _ => return Ok(()),
        };
        // The receiver outlives the run; a send cannot fail.
        self.tx.send(stamp).ok();
        Ok(())
    }
}

/// Environment steps of an archipelago run: under the step-counting
/// cost model of `Workload::islands_config`, modeled seconds are steps.
fn island_steps(outcome: &e3_islands::ArchipelagoOutcome) -> u64 {
    outcome
        .islands
        .iter()
        .map(|i| i.modeled_seconds)
        .sum::<f64>() as u64
}

/// One complete archipelago run to the end, for the output checks:
/// `(steps, per-island fingerprints)`.
pub fn islands_outcome(
    config: e3_islands::IslandsConfig,
    drivers: usize,
) -> Result<(u64, Vec<u64>), RunError> {
    let outcome = run_islands(
        config,
        &RunOptions::with_drivers(drivers),
        &SharedCollector::null(),
    )?;
    Ok((
        island_steps(&outcome),
        outcome
            .islands
            .iter()
            .map(|i| i.population_fingerprint)
            .collect(),
    ))
}

/// The end-to-end metrics of one pass.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub env_steps_per_s: f64,
    pub gen_ms_p50: f64,
    pub gen_ms_p90: f64,
    pub setup_s: f64,
    /// Timed generations behind the percentiles.
    pub samples: usize,
    /// Set-ups behind `setup_s`.
    pub setups: usize,
}

/// Pools the samples of a pass: times at the nominal clock, each the
/// shortest of its seed-run's repeats. `setup_runs` are extra
/// set-up-only seed-runs, used for `setup_s` alone.
pub fn end_to_end(runs: &[SeedRun], setup_runs: &[SeedRun]) -> EndToEnd {
    let gen_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.gen_nominal_s.iter().map(|s| s * 1e3))
        .collect();
    // Per seed-run, then the median: one seed whose evolution wanders
    // off moves a pooled ratio, not this.
    let steps_per_s: Vec<f64> = runs
        .iter()
        .filter(|r| r.nominal_s > 0.0)
        .map(|r| r.steps as f64 / r.nominal_s)
        .collect();
    let setups: Vec<f64> = runs
        .iter()
        .chain(setup_runs)
        .filter(|r| r.setup_s > 0.0)
        .map(|r| r.setup_s)
        .collect();
    EndToEnd {
        env_steps_per_s: stats::median(&steps_per_s),
        gen_ms_p50: stats::median(&gen_ms),
        gen_ms_p90: stats::quantile(&gen_ms, 0.9),
        setup_s: stats::median(&setups),
        samples: gen_ms.len(),
        setups: setups.len(),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed_run(steps: u64, setup_s: f64, gen_nominal_s: &[f64]) -> SeedRun {
        SeedRun {
            steps,
            setup_s,
            gen_nominal_s: gen_nominal_s.to_vec(),
            nominal_s: gen_nominal_s.iter().sum(),
            attempted: gen_nominal_s.len(),
            ..SeedRun::default()
        }
    }

    #[test]
    fn a_repeat_floors_every_time_and_keeps_the_counts() {
        let mut first = seed_run(100, 0.5, &[3.0, 1.0, 2.0]);
        first.floor_with(seed_run(100, 0.4, &[2.0, 1.5, 2.0]), Unit::Platform);
        assert_eq!(first.gen_nominal_s, [2.0, 1.0, 2.0]);
        assert_eq!(first.nominal_s, 5.0);
        assert_eq!(first.setup_s, 0.4);
        assert_eq!((first.repeats, first.repeat_mismatches), (1, 0));
        assert_eq!(first.attempted, 6);
        // Throughput is per seed-run over the floored window.
        assert_eq!(end_to_end(&[first], &[]).env_steps_per_s, 20.0);
    }

    #[test]
    fn a_repeat_that_did_other_work_is_a_mismatch() {
        let mut first = seed_run(100, 0.5, &[1.0]);
        first.floor_with(seed_run(101, 0.5, &[1.0]), Unit::Platform);
        assert_eq!(first.repeat_mismatches, 1);
    }

    #[test]
    fn an_archipelago_repeat_floors_the_whole_call() {
        let mut first = seed_run(100, 0.5, &[1.0, 1.0]);
        first.nominal_s = 1.2;
        let mut again = seed_run(100, 0.5, &[0.5, 2.0]);
        again.nominal_s = 1.1;
        first.floor_with(again, Unit::Archipelago);
        assert_eq!(first.gen_nominal_s, [0.5, 1.0]);
        assert_eq!(first.nominal_s, 1.1);
    }
}
