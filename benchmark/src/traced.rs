//! The traced run: where the time goes, layer by layer.
//!
//! It (a) records a harness span around every `eval_phase_with` /
//! `evolve_phase_with` call, (b) keeps every record and span the
//! program itself emits, and (c) replays captured genomes through each
//! layer's public functions in isolation. Every traced seed-run is
//! paired with an untraced one of the same seed run just before it;
//! the generation-by-generation ratio of the two is the tracing
//! overhead.

use crate::checks::Check;
use crate::measure::{self, exact_window, Captured, Drive, SeedRun, Unit};
use crate::metrics::Values;
use crate::probes::{self, LayerProbes};
use crate::spans::SpanLog;
use crate::stats::{self, median};
use crate::workloads::{Variant, Workload, ISLAND_DRIVERS, WARMUP_GENERATIONS};
use e3_islands::{RunManager, SubmitOptions};
use e3_platform::{fingerprint, BackendKind, E3Platform};
use e3_serve::{http_get, serve, ServeOptions};
use e3_store::RunStore;
use e3_telemetry::{Collector, ExecRecord, NdjsonWriter};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Share of `--seconds` after which no new untraced/traced pair of
/// seed-runs starts. The probes take what they need on top: each
/// replays for a fixed, short time.
const PAIRED_SHARE: f64 = 0.5;

/// Everything a traced run reports.
pub struct Traced {
    pub layers: Values,
    pub spans: SpanLog,
    pub checks: Vec<Check>,
    pub attempted: usize,
    pub failed: usize,
}

/// The executor records of the timed generations of one traced
/// seed-run, each with the factor that takes a wall time of its
/// generation to the nominal clock.
fn timed_execs(run: &SeedRun) -> impl Iterator<Item = (&ExecRecord, f64)> {
    run.captured
        .iter()
        .flat_map(|captured| captured.memory.execs())
        .filter(|r| r.generation >= WARMUP_GENERATIONS)
        .map(|r| (r, run.to_nominal(r.generation - WARMUP_GENERATIONS)))
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Runs the traced flow for one workload.
pub fn run(workload: &Workload, seed: u64, seconds: f64, out_dir: &Path) -> Traced {
    let mut layers = Values::default();
    let mut spans = SpanLog::new(workload.name);
    let mut checks = Vec::new();

    // Untraced and traced seed-runs alternate, seed by seed, so that
    // each pair runs within a second or two of each other: the host's
    // speed drifts by more than tracing costs over longer stretches.
    let mut plain = Drive {
        workload,
        unit: Unit::Platform,
        out_dir,
        spans: None,
    };
    let mut watching = Drive {
        workload,
        unit: Unit::Platform,
        out_dir,
        spans: Some(&mut spans),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * PAIRED_SHARE);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for pair in 0.. {
        let pair_seed = seed.wrapping_add(pair);
        untraced.push(plain.seed_run(pair_seed, 0));
        if pair == 0 {
            // Read before any trace buffer exists.
            layers.set("bench.peak_rss_mb", measure::peak_rss_mib());
        }
        traced.push(watching.seed_run(pair_seed, 0));
        if Instant::now() >= deadline {
            break;
        }
    }
    layers.set(
        "platform.gen_ms_p90",
        measure::end_to_end(&untraced, &[]).gen_ms_p90,
    );
    let mut attempted: usize = untraced.iter().chain(&traced).map(|r| r.attempted).sum();
    let mut failed: usize = untraced.iter().chain(&traced).map(|r| r.failed).sum();

    // Tracing is write-only by contract: same seed, same results.
    let (plain, watched) = (&untraced[0], &traced[0]);
    checks.push(Check {
        name: "traced_matches_untraced",
        passed: plain.prefix == watched.prefix && plain.prefix.is_some(),
        detail: format!("untraced {:?}, traced {:?}", plain.prefix, watched.prefix),
    });

    attach_exec_spans(&mut spans, &traced);
    platform_layers(&mut layers, workload, &traced);
    exec_and_tier_layers(&mut layers, &traced);
    layers.set(
        "bench.trace_overhead_pct",
        trace_overhead_pct(&untraced, &traced),
    );
    layers.set("bench.timer_pair_ns", probes::timer_pair_ns());
    let clocks: Vec<f64> = untraced
        .iter()
        .chain(&traced)
        .flat_map(|r| r.gen_hz.iter().map(|hz| hz / 1e9))
        .collect();
    layers.set("bench.clock_ghz_p50", median(&clocks));

    let probed = probe_layers(&mut layers, workload, watched);
    estimate_eval(&mut layers, workload, watched, &probed);

    if workload.variant == Variant::Observed {
        observed_layers(&mut layers, workload, watched, out_dir);
        checks.push(crate::checks::newest_snapshot_resumes(
            workload, seed, out_dir,
        ));
    }
    if workload.is_islands() {
        // A complete, fixed-length archipelago run, so that its counts
        // repeat exactly.
        let short = workload.capped(60);
        let run = Drive {
            workload: &short,
            unit: Unit::Archipelago,
            out_dir,
            spans: Some(&mut spans),
        }
        .seed_run(seed, 0);
        attempted += run.attempted;
        failed += run.failed;
        islands_layers(&mut layers, &run);
        match scrape(&short, seed) {
            Ok((ms, bytes)) => {
                layers.set("serve.scrape_ms_p50", median(&ms));
                layers.set("serve.scrape_bytes", bytes as f64);
            }
            Err(detail) => checks.push(Check {
                name: "metrics_scrape",
                passed: false,
                detail,
            }),
        }
    }
    Traced {
        layers,
        spans,
        checks,
        attempted,
        failed,
    }
}

/// The program reports how long each evaluation spent inside the
/// executor (`ExecRecord::wall_seconds`): that becomes a child span of
/// the generation's `eval` span, so `eval`'s self time is the time
/// *outside* the executor (genome clone, pricing, stats, reduce,
/// record build).
fn attach_exec_spans(spans: &mut SpanLog, traced: &[SeedRun]) {
    for run in traced {
        for (exec, _) in timed_execs(run) {
            let eval_span = spans.spans.iter().position(|s| {
                s.name == "eval"
                    && s.ids.seed == run.seed
                    && s.ids.generation == Some(exec.generation)
            });
            if let Some(eval_span) = eval_span {
                spans.push_child_duration("exec", eval_span, exec.wall_seconds);
            }
        }
    }
}

fn platform_layers(layers: &mut Values, workload: &Workload, traced: &[SeedRun]) {
    // Phase times at the nominal clock, like every per-layer time
    // that is compared with another taken at another moment.
    let ms = |pick: fn(&SeedRun) -> &Vec<f64>| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|r| {
                pick(r)
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s * r.to_nominal(i) * 1e3)
            })
            .collect()
    };
    layers.set("platform.eval_ms_p50", median(&ms(|r| &r.eval_s)));
    layers.set("platform.evolve_ms_p50", median(&ms(|r| &r.evolve_s)));
    let constructs: Vec<f64> = traced.iter().map(|r| r.construct_s * 1e3).collect();
    layers.set("platform.construct_ms", median(&constructs));
    layers.set("platform.modeled_s_total", traced[0].window_modeled_s);

    // Eval wall minus the executor's own wall, generation by
    // generation.
    let mut outside = Vec::new();
    for run in traced {
        for (exec, to_nominal) in timed_execs(run) {
            if let Some(eval_s) = run.eval_s.get(exec.generation - WARMUP_GENERATIONS) {
                outside.push((eval_s - exec.wall_seconds) * to_nominal * 1e3);
            }
        }
    }
    layers.set("platform.eval_outside_exec_ms_p50", median(&outside));

    // Exact counts over the first seed-run's exact window.
    let window = exact_window(workload);
    if let Some(captured) = &traced[0].captured {
        let in_window = |generation: usize| {
            (WARMUP_GENERATIONS..WARMUP_GENERATIONS + window).contains(&generation)
        };
        let evals: Vec<_> = captured
            .memory
            .evals()
            .filter(|r| in_window(r.generation))
            .collect();
        let steps_per_gen = mean(evals.iter().map(|r| r.total_steps as f64));
        let scenarios = workload.config(Path::new("")).scenario.scenarios_per_eval;
        layers.set("envs.steps_per_gen", steps_per_gen);
        layers.set(
            "envs.mean_episode_len",
            steps_per_gen / (workload.population * scenarios) as f64,
        );
        let species = captured
            .memory
            .generations()
            .filter(|r| in_window(r.generation))
            .last()
            .map_or(0, |r| r.species);
        layers.set("neat.species", species as f64);
        let hw: Vec<_> = evals.iter().filter_map(|r| r.hw).collect();
        layers.set(
            "inax.sim_cycles_total",
            hw.iter().map(|h| h.total_cycles).sum::<u64>() as f64,
        );
        layers.set(
            "inax.pu_utilization",
            mean(hw.iter().map(|h| h.pu_utilization)),
        );
        layers.set(
            "inax.pe_utilization",
            mean(hw.iter().map(|h| h.pe_utilization)),
        );
    }

    // Host speed of the simulator over every timed generation.
    let (mut cycles, mut waves, mut host_s) = (0u64, 0u64, 0.0);
    for run in traced {
        let Some(captured) = &run.captured else {
            continue;
        };
        let hw = captured
            .memory
            .evals()
            .filter_map(|r| r.hw.map(|hw| (r.generation, hw)));
        for (generation, hw) in hw {
            // Warm-up generations have no eval sample.
            let timed = generation.checked_sub(WARMUP_GENERATIONS);
            if let Some((i, eval_s)) = timed.and_then(|i| Some((i, run.eval_s.get(i)?))) {
                cycles += hw.total_cycles;
                waves += hw.steps;
                host_s += eval_s * run.to_nominal(i);
            }
        }
    }
    if host_s > 0.0 {
        layers.set("inax.sim_cycles_per_host_s", cycles as f64 / host_s);
        layers.set("inax.host_ns_per_wave", host_s * 1e9 / waves.max(1) as f64);
    }
}

fn exec_and_tier_layers(layers: &mut Values, traced: &[SeedRun]) {
    let captured: Vec<&Captured> = traced.iter().filter_map(|r| r.captured.as_ref()).collect();
    let scaled: Vec<(&ExecRecord, f64)> = traced.iter().flat_map(timed_execs).collect();
    if !scaled.is_empty() {
        let walls: Vec<f64> = scaled
            .iter()
            .map(|(r, to_nominal)| r.wall_seconds * to_nominal * 1e3)
            .collect();
        layers.set("exec.wall_ms_p50", median(&walls));
        let execs: Vec<&ExecRecord> = scaled.iter().map(|(r, _)| *r).collect();
        layers.set(
            "exec.worker_utilization",
            mean(execs.iter().map(|r| r.worker_utilization)),
        );
        layers.set(
            "exec.shard_imbalance",
            mean(execs.iter().map(|r| {
                let max = r.shard_seconds.iter().copied().fold(0.0, f64::max);
                let avg = mean(r.shard_seconds.iter().copied());
                if avg > 0.0 {
                    max / avg
                } else {
                    0.0
                }
            })),
        );
        layers.set(
            "exec.steals_per_gen",
            mean(execs.iter().map(|r| r.steal_count as f64)),
        );
        let deepest = execs
            .iter()
            .flat_map(|r| r.queue_depths.iter().copied())
            .max();
        layers.set("exec.queue_depth_max", deepest.unwrap_or(0) as f64);
        let hits: u64 = execs.iter().map(|r| r.cache_hits).sum();
        let lookups = hits + execs.iter().map(|r| r.cache_misses).sum::<u64>();
        layers.set("exec.cache_hit_rate", hits as f64 / lookups.max(1) as f64);
        layers.set(
            "exec.cache_evictions_per_gen",
            mean(execs.iter().map(|r| r.cache_evictions as f64)),
        );
    }

    let generations: usize = traced.iter().map(|r| r.gen_s.len()).sum();
    let steps: u64 = traced.iter().map(|r| r.steps).sum();
    let jits: Vec<_> = captured
        .iter()
        .flat_map(|c| c.memory.jits())
        .filter(|r| r.generation >= WARMUP_GENERATIONS)
        .collect();
    if !jits.is_empty() {
        layers.set(
            "jit.plans_compiled_per_gen",
            jits.iter().map(|r| r.compiled).sum::<u64>() as f64 / generations.max(1) as f64,
        );
        layers.set(
            "jit.native_fraction",
            jits.iter().map(|r| r.activations).sum::<u64>() as f64 / steps.max(1) as f64,
        );
        layers.set(
            "jit.fallbacks",
            jits.iter().map(|r| r.fallbacks).sum::<u64>() as f64,
        );
        layers.set(
            "jit.resident_plans",
            jits.last().map_or(0, |r| r.resident) as f64,
        );
    }
}

/// Median, over every generation of every pair, of traced ÷ untraced
/// time at the nominal clock, minus one, in percent.
fn trace_overhead_pct(untraced: &[SeedRun], traced: &[SeedRun]) -> f64 {
    let ratios: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .flat_map(|(u, t)| {
            u.gen_nominal_s
                .iter()
                .zip(&t.gen_nominal_s)
                .map(|(u, t)| t / u)
        })
        .collect();
    (median(&ratios) - 1.0) * 100.0
}

fn probe_layers(layers: &mut Values, workload: &Workload, watched: &SeedRun) -> LayerProbes {
    let Some(captured) = &watched.captured else {
        return LayerProbes::default();
    };
    let jit = workload.variant == Variant::Jit;
    let per_snapshot: Vec<LayerProbes> = captured
        .snapshots
        .iter()
        .filter_map(|genomes| probes::probe_snapshot(genomes, workload.env, watched.seed, jit))
        .collect();
    let p = LayerProbes::mean(&per_snapshot);
    layers.set("neat.compile_us_per_genome", p.compile_us_per_genome);
    layers.set(
        "neat.fingerprint_ns_per_genome",
        p.fingerprint_ns_per_genome,
    );
    layers.set("neat.activate_ns", p.activate_ns);
    layers.set("neat.batch_build_us_per_pop", p.batch_build_us_per_pop);
    layers.set(
        "neat.batch_activate_ns_per_lane",
        p.batch_activate_ns_per_lane,
    );
    layers.set("neat.mean_nodes", p.mean_nodes);
    layers.set("neat.mean_enabled_connections", p.mean_enabled_connections);
    layers.set("neat.mean_levels", p.mean_levels);
    layers.set("envs.step_ns", p.env_step_ns);
    layers.set("envs.batch_step_ns_per_lane", p.env_batch_step_ns_per_lane);
    layers.set("envs.reset_ns", p.env_reset_ns);
    if jit {
        layers.set("jit.compile_us_per_plan", p.jit_compile_us_per_plan);
        layers.set("jit.code_bytes_per_plan", p.jit_code_bytes_per_plan);
        layers.set("jit.native_activate_ns", p.jit_native_activate_ns);
        layers.set(
            "jit.native_vs_interp",
            p.jit_native_activate_ns / p.activate_ns,
        );
    }
    if let Some(evaluated) = &captured.evaluated {
        layers.set("neat.evolve_ms_per_gen", probes::evolve_ms(evaluated));
    }
    p
}

/// What the probes say one evaluation of the exact window should cost
/// — decode every genome, build the batch, then steps × (activate +
/// env step) — beside what the executor reported. The remainder is
/// reported, not hidden.
fn estimate_eval(layers: &mut Values, workload: &Workload, watched: &SeedRun, p: &LayerProbes) {
    let window = exact_window(workload);
    let walls: Vec<f64> = timed_execs(watched)
        .filter(|(r, _)| r.generation < WARMUP_GENERATIONS + window)
        .map(|(r, to_nominal)| r.wall_seconds * to_nominal * 1e3)
        .collect();
    if walls.is_empty() {
        return;
    }
    let steps = layers.get("envs.steps_per_gen");
    // The JIT tier and the INAX wave loop step genome by genome; every
    // other route is batched and divides the lanes among the workers.
    let scalar = workload.variant == Variant::Jit || workload.backend == BackendKind::Inax;
    let per_step_ns = if scalar {
        p.activate_ns + p.env_step_ns
    } else {
        p.batch_activate_ns_per_lane + p.env_batch_step_ns_per_lane
    };
    let build_us = if scalar {
        0.0
    } else {
        p.batch_build_us_per_pop
    };
    let serial_ms = workload.population as f64 * p.compile_us_per_genome / 1e3
        + build_us / 1e3
        + steps * per_step_ns / 1e6;
    let estimate_ms = serial_ms / workload.threads as f64;
    let wall_ms = mean(walls.iter().copied());
    layers.set("platform.eval_probe_estimate_ms", estimate_ms);
    layers.set(
        "platform.eval_unattributed_pct",
        (1.0 - estimate_ms / wall_ms) * 100.0,
    );
}

/// Telemetry and store probes: replay the run's captured events into
/// a fresh NDJSON file, render the registry, and save / recover the
/// run state.
fn observed_layers(layers: &mut Values, workload: &Workload, watched: &SeedRun, out_dir: &Path) {
    let Some(captured) = &watched.captured else {
        return;
    };
    let generations = watched.generations.max(1) as f64;
    let dir = out_dir.join(format!("probe-{}-{}", workload.name, std::process::id()));
    std::fs::create_dir_all(&dir).ok();

    let replay_path = dir.join("replay.ndjson");
    if let Ok(mut writer) = NdjsonWriter::create(&replay_path) {
        let start = Instant::now();
        let written = captured
            .memory
            .events()
            .iter()
            .filter(|event| writer.record(event).is_ok())
            .count();
        writer.flush().ok();
        let elapsed = start.elapsed().as_secs_f64();
        layers.set(
            "telemetry.record_us_per_event",
            elapsed * 1e6 / written.max(1) as f64,
        );
        let bytes = std::fs::metadata(&replay_path).map_or(0, |m| m.len());
        layers.set("telemetry.bytes_per_gen", bytes as f64 / generations);
    }
    layers.set(
        "telemetry.events_per_gen",
        captured.memory.events().len() as f64 / generations,
    );
    layers.set(
        "telemetry.spans_per_gen",
        captured.program_spans as f64 / generations,
    );
    if let Some(registry) = &captured.registry {
        let renders: Vec<f64> = (0..20)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(registry.prometheus_text());
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        layers.set("telemetry.prometheus_text_ms", median(&renders));
    }

    // What the platform does at a checkpoint boundary, alone: save a
    // state of the same size, then recover it.
    let config = workload.reference_config();
    let mut platform = E3Platform::new(config.clone(), workload.backend, watched.seed);
    let mut stepped = 0;
    while stepped < WARMUP_GENERATIONS && platform.step_generation().is_ok() {
        stepped += 1;
    }
    let state = platform.capture_state();
    let fp = fingerprint(&config, workload.backend, watched.seed);
    if let Ok(mut store) = RunStore::open(dir.join("store"), fp, 3) {
        let mut saves = Vec::new();
        for generation in 1..=10 {
            let start = Instant::now();
            if store.save(generation, None, &state).is_ok() {
                saves.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        layers.set("store.save_ms_p50", median(&saves));
        let start = Instant::now();
        if let Ok(Some(_)) = store.recover::<e3_platform::RunState>() {
            layers.set("store.recover_ms", start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let snapshot_bytes = captured.memory.checkpoints().last().map_or(0, |r| r.bytes);
    layers.set("store.snapshot_bytes", snapshot_bytes as f64);
    std::fs::remove_dir_all(&dir).ok();
}

fn islands_layers(layers: &mut Values, run: &SeedRun) {
    let generations = run.attempted as f64;
    if run.wall_s > 0.0 {
        layers.set("islands.gens_per_s_total", generations / run.wall_s);
    }
    layers.set("islands.migrations", run.migrations as f64);
    let fastest = run
        .island_gen_ms_p50
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let slowest = run.island_gen_ms_p50.iter().copied().fold(0.0, f64::max);
    layers.set("islands.gen_ms_spread", slowest / fastest);
}

/// 30 sequential `GET /metrics` against a live run of the archipelago
/// under `RunManager`: `(latencies in ms, bytes of the last body)`.
fn scrape(workload: &Workload, seed: u64) -> Result<(Vec<f64>, usize), String> {
    let manager = Arc::new(Mutex::new(RunManager::new()));
    let mut server =
        serve(Arc::clone(&manager), ServeOptions::default()).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let submit = SubmitOptions {
        drivers: ISLAND_DRIVERS,
        ..SubmitOptions::default()
    };
    let id = manager
        .lock()
        .expect("manager lock")
        .submit(workload.islands_config(seed), submit)
        .map_err(|e| e.to_string())?;
    let mut latencies = Vec::new();
    let mut bytes = 0;
    let mut result = Ok(());
    for _ in 0..30 {
        let start = Instant::now();
        match http_get(addr, "/metrics", Duration::from_secs(10)) {
            Ok(response) if response.status == 200 => {
                latencies.push(start.elapsed().as_secs_f64() * 1e3);
                bytes = response.body.len();
            }
            Ok(response) => result = Err(format!("GET /metrics: status {}", response.status)),
            Err(e) => result = Err(format!("GET /metrics: {e}")),
        }
    }
    // Stop the run and the server whatever happened above.
    let stopped = manager.lock().expect("manager lock").stop(id);
    server.shutdown();
    match stopped {
        Some(Ok(_)) => result.map(|()| (latencies, bytes)),
        Some(Err(e)) => Err(e.to_string()),
        None => Err("the submitted run is unknown to its manager".to_string()),
    }
}

/// Prints the "where the time goes" table of a traced run.
pub fn print_breakdown(traced: &Traced) {
    let by_name = traced.spans.self_time_by_name();
    let generation_wall: f64 = traced
        .spans
        .spans
        .iter()
        .filter(|s| s.name == "generation")
        .map(|s| s.duration_s())
        .sum();
    println!(
        "where the time goes ({}), harness span self times:",
        traced.spans.workload
    );
    let row = |label: &str, seconds: f64| {
        println!(
            "  {label:<24} {:>10.3} ms  {:>6.2} % of traced generation wall",
            seconds * 1e3,
            seconds / generation_wall * 100.0
        );
    };
    let self_of = |name: &str| {
        by_name
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, s)| *s)
    };
    let parts = [
        ("eval inside exec", self_of("exec")),
        ("eval outside exec", self_of("eval")),
        ("evolve", self_of("evolve")),
        ("harness capture", self_of("capture")),
        ("generation (loop)", self_of("generation")),
    ];
    for (label, seconds) in parts {
        row(label, seconds);
    }
    row("sum", parts.iter().map(|(_, s)| s).sum());
    let l = &traced.layers;
    let estimate = l.get("platform.eval_probe_estimate_ms");
    let unattributed = l.get("platform.eval_unattributed_pct");
    println!(
        "  exact window: probe estimate {estimate:.3} ms beside mean exec wall {:.3} ms per evaluation, {unattributed:.1} % unattributed",
        estimate / (1.0 - unattributed / 100.0),
    );
    let walls: Vec<f64> = traced
        .spans
        .spans
        .iter()
        .filter(|s| s.name == "generation")
        .map(|s| s.duration_s() * 1e3)
        .collect();
    if let Some((p, tail)) = stats::highest_tail(&walls) {
        println!(
            "  traced generation wall: p50 {:.3} ms, p{p} {tail:.3} ms over {} samples",
            median(&walls),
            walls.len()
        );
    }
}
