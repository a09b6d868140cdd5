//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment|run|all> [--full] [--json] [--seed N]
//!       [--envs LIST] [--backend KIND] [--telemetry FILE] [--svg DIR]
//! ```
//!
//! Experiments: table4 table5 fig1b fig2 fig3 fig4 fig6 fig7 fig9a
//! fig9b fig10a fig10b fig11 ablation generalize, plus `run`
//! (a single evolve/evaluate run on one env/backend; `--threads N`
//! shards the evaluation across N worker threads with bit-identical
//! results). None of them times anything: speed claims go through
//! `benchmark/` (see its README). `generalize` evolves on a sampled
//! scenario distribution at K ∈ {1, 4, 8} scenarios per evaluation,
//! scores champions on a held-out shifted distribution, and gates
//! thread-schedule determinism and per-generation `Generalization`
//! telemetry; it prints like every other experiment and exits nonzero
//! on a gate failure. No command writes into the working directory
//! unless a flag names the file. `--full` uses paper-scale parameters
//! (population 200, full step budgets); the default quick scale
//! finishes in seconds per experiment. `--svg DIR` additionally
//! writes figure images for the sweep experiments. `--telemetry FILE`
//! streams every `e3-telemetry` event of the instrumented experiments
//! (fig1b, fig9a, fig9b, fig10a, run) as NDJSON. `--envs` takes a
//! comma-separated list of environment names or paper indices
//! (`cartpole,env3,...`); `--backend` picks the backend for `run`
//! (`cpu`, `gpu`, or `inax`). `--checkpoint-dir DIR` snapshots `run`
//! state into the crash-safe `e3-store` after every
//! `--checkpoint-every N` generations; `--resume` restarts from the
//! newest intact snapshot and reproduces the uninterrupted run
//! bit-identically; `--crash-after N` simulates a mid-run kill (stops
//! after N generations without writing a summary).

use e3_bench::svg::{LineChart, Series};
use e3_bench::{DEFAULT_SEED, EXPERIMENTS};
use e3_envs::EnvId;
use e3_platform::experiments::{
    ablation, fig10, fig11, fig1b, fig2, fig3, fig4, fig6, fig7, fig9, generalize, table4, table5,
    Scale,
};
use e3_platform::telemetry::{
    Collector, MeteredCollector, NdjsonWriter, NullCollector, Tracer, UtilizationRecord,
};
use e3_platform::{BackendKind, CheckpointPolicy, E3Config, E3Platform, PowerModel};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed command-line options shared by every experiment.
struct Options {
    scale: Scale,
    seed: u64,
    json: bool,
    svg_dir: Option<PathBuf>,
    /// Environment subset (`--envs`); defaults to the paper suite.
    envs: Vec<EnvId>,
    /// Backend for the single-run experiment (`--backend`).
    backend: BackendKind,
    /// Evaluation worker threads for `run` (`--threads`, default 1).
    threads: usize,
    /// Span tracer (`--trace`); disabled (zero-cost) by default.
    tracer: Tracer,
    /// Snapshot directory for `run` (`--checkpoint-dir`); no
    /// checkpointing when absent.
    checkpoint_dir: Option<PathBuf>,
    /// Generations between snapshots (`--checkpoint-every`, default 1).
    checkpoint_every: usize,
    /// Resume `run` from the newest intact snapshot (`--resume`).
    resume: bool,
    /// Simulate a crash: stop `run` after N generations without a
    /// summary (`--crash-after`, for the kill-and-resume smoke test).
    crash_after: Option<usize>,
    /// Enable the tiered native execution path for `run` (`--jit`);
    /// bit-identical to the interpreter, off by default.
    jit: bool,
    /// Promotion threshold for `--jit` (`--jit-threshold`, default 3):
    /// plan-cache uses before a plan compiles to native code.
    jit_threshold: u64,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name: Option<String> = None;
    let mut opts = Options {
        scale: Scale::Quick,
        seed: DEFAULT_SEED,
        json: false,
        svg_dir: None,
        envs: Vec::new(),
        backend: BackendKind::Inax,
        threads: 1,
        tracer: Tracer::disabled(),
        checkpoint_dir: None,
        checkpoint_every: 1,
        resume: false,
        crash_after: None,
        jit: false,
        jit_threshold: e3_platform::JitConfig::default().hot_threshold,
    };
    let mut telemetry_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => opts.scale = Scale::Full,
            "--json" => opts.json = true,
            "--seed" => {
                opts.seed = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--svg" => {
                opts.svg_dir = Some(PathBuf::from(
                    iter.next()
                        .unwrap_or_else(|| usage("--svg needs a directory")),
                ));
            }
            "--telemetry" => {
                telemetry_path = Some(PathBuf::from(
                    iter.next()
                        .unwrap_or_else(|| usage("--telemetry needs a file path")),
                ));
            }
            "--trace" => {
                trace_path = Some(PathBuf::from(
                    iter.next()
                        .unwrap_or_else(|| usage("--trace needs a file path")),
                ));
            }
            "--metrics" => {
                metrics_path = Some(PathBuf::from(
                    iter.next()
                        .unwrap_or_else(|| usage("--metrics needs a file path")),
                ));
            }
            "--envs" | "--env" => {
                let list = iter.next().unwrap_or_else(|| usage("--envs needs a list"));
                for part in list.split(',').filter(|p| !p.is_empty()) {
                    opts.envs.push(
                        part.parse::<EnvId>()
                            .unwrap_or_else(|e| usage(&e.to_string())),
                    );
                }
            }
            "--backend" => {
                let kind = iter
                    .next()
                    .unwrap_or_else(|| usage("--backend needs a name"));
                opts.backend = kind
                    .parse::<BackendKind>()
                    .unwrap_or_else(|e| usage(&e.to_string()));
            }
            "--threads" => {
                opts.threads = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--threads needs a positive integer"));
            }
            "--checkpoint-dir" => {
                opts.checkpoint_dir =
                    Some(PathBuf::from(iter.next().unwrap_or_else(|| {
                        usage("--checkpoint-dir needs a directory")
                    })));
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--checkpoint-every needs a positive integer"));
            }
            "--resume" => opts.resume = true,
            "--jit" => opts.jit = true,
            "--jit-threshold" => {
                opts.jit_threshold = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--jit-threshold needs a positive integer"));
            }
            "--crash-after" => {
                opts.crash_after = Some(
                    iter.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--crash-after needs an integer")),
                );
            }
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') && name.is_none() => {
                name = Some(other.to_string());
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    let Some(name) = name else {
        print_usage();
        return ExitCode::FAILURE;
    };
    if opts.envs.is_empty() {
        opts.envs = EnvId::ALL.to_vec();
    }

    let targets: Vec<&str> = if name == "all" {
        EXPERIMENTS.to_vec()
    } else if name == "run" || EXPERIMENTS.contains(&name.as_str()) {
        vec![Box::leak(name.into_boxed_str()) as &str]
    } else {
        usage(&format!("unknown experiment: {name}"));
    };

    if let Some(dir) = &opts.svg_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| usage(&format!("--svg dir: {e}")));
    }
    if trace_path.is_some() {
        opts.tracer = Tracer::enabled();
    }
    let inner: Box<dyn Collector> = match &telemetry_path {
        Some(path) => Box::new(
            NdjsonWriter::create(path)
                .unwrap_or_else(|e| usage(&format!("--telemetry {}: {e}", path.display()))),
        ),
        None => Box::new(NullCollector),
    };
    // Tee every record through the metrics registry; the inner
    // collector sees the identical stream.
    let mut sink = MeteredCollector::new(inner);
    // Keep running artifacts (metrics, trace, telemetry) flushable
    // even when an experiment fails mid-way: record the failure, dump
    // everything collected so far, then exit nonzero.
    let mut failure: Option<String> = None;
    for target in targets {
        if let Err(message) = run_experiment(target, &opts, &mut sink) {
            failure = Some(message);
            break;
        }
    }
    if let Err(e) = sink.flush() {
        eprintln!("warning: telemetry flush failed: {e}");
        failure.get_or_insert_with(|| format!("telemetry flush failed: {e}"));
    }
    if let Some(path) = &telemetry_path {
        eprintln!("wrote telemetry to {}", path.display());
    }
    let (_, registry) = sink.into_parts();
    if let Some(path) = &metrics_path {
        if let Err(e) = std::fs::write(path, registry.prometheus_text()) {
            usage(&format!("--metrics {}: {e}", path.display()));
        }
        eprintln!("wrote metrics to {}", path.display());
        if !registry.is_empty() {
            eprint!("{}", registry.summary_table());
        }
    }
    if let Some(path) = &trace_path {
        if let Err(e) = opts.tracer.write_chrome_trace(path) {
            usage(&format!("--trace {}: {e}", path.display()));
        }
        eprintln!(
            "wrote {} spans to {} (load in https://ui.perfetto.dev)",
            opts.tracer.span_count(),
            path.display()
        );
    }
    match failure {
        Some(message) => usage(&message),
        None => ExitCode::SUCCESS,
    }
}

/// Runs one experiment; a failure comes back as `Err` (instead of
/// exiting) so `main` can still flush `--metrics`/`--trace` artifacts
/// collected up to the failure point.
fn run_experiment(name: &str, opts: &Options, collector: &mut dyn Collector) -> Result<(), String> {
    let Options {
        scale, seed, json, ..
    } = *opts;
    let svg_dir = opts.svg_dir.as_deref();
    macro_rules! emit {
        ($result:expr) => {{
            let result = $result;
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&result).expect("results serialize")
                );
            } else {
                println!("{result}");
            }
        }};
    }
    macro_rules! try_run {
        ($result:expr) => {
            match $result {
                Ok(value) => value,
                Err(e) => return Err(format!("{name} failed: {e}")),
            }
        };
    }
    match name {
        "run" => {
            let env = *opts
                .envs
                .first()
                .expect("envs default to the paper suite when the flag is absent");
            let mut builder = E3Config::builder(env)
                .population_size(scale.population())
                .max_generations(scale.max_generations())
                .threads(opts.threads);
            if opts.jit {
                builder = builder.jit(e3_platform::JitConfig {
                    enabled: true,
                    hot_threshold: opts.jit_threshold,
                });
            }
            if let Some(dir) = &opts.checkpoint_dir {
                builder = builder.checkpoint(
                    CheckpointPolicy::new(dir.to_string_lossy().into_owned())
                        .every(opts.checkpoint_every),
                );
            }
            let config = builder.build();
            let mut platform = if opts.resume {
                if opts.checkpoint_dir.is_none() {
                    usage("--resume needs --checkpoint-dir");
                }
                match try_run!(E3Platform::resume(config.clone(), opts.backend, seed)) {
                    Some(platform) => {
                        eprintln!("resuming from generation {}", platform.generation());
                        platform
                    }
                    None => {
                        eprintln!("no intact snapshot found; starting fresh");
                        E3Platform::new(config, opts.backend, seed)
                    }
                }
            } else {
                E3Platform::new(config, opts.backend, seed)
            };
            platform.set_tracer(opts.tracer.clone());
            if let Some(crash_after) = opts.crash_after {
                // Simulated crash: step the loop, then drop the
                // platform without emitting a summary — exactly the
                // state a killed process leaves behind on disk.
                for _ in 0..crash_after {
                    if platform.finished() {
                        break;
                    }
                    try_run!(platform.step_with(collector));
                }
                eprintln!(
                    "simulated crash after generation {} (no summary written)",
                    platform.generation()
                );
                return Ok(());
            }
            let outcome = try_run!(platform.run_with(collector));
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&outcome).expect("results serialize")
                );
            } else {
                println!(
                    "{env} on {}: solved={} generations={} best={:.2} modeled={:.4}s",
                    opts.backend,
                    outcome.solved,
                    outcome.generations_run,
                    outcome.best_fitness,
                    outcome.modeled_seconds
                );
                if let Some(breakdown) = outcome.hw_utilization {
                    let record = UtilizationRecord {
                        backend: opts.backend.name().to_string(),
                        env: env.name().to_string(),
                        total_cycles: outcome.hw_report.map_or(0, |r| r.total_cycles),
                        breakdown,
                    };
                    print!("{}", record.summary_table());
                }
            }
        }
        "table4" => emit!(table4::run_on(&opts.envs, scale, seed)),
        "table5" => emit!(table5::run_on(&opts.envs, scale, seed)),
        "fig1b" => emit!(try_run!(fig1b::run_with(
            &opts.envs, scale, seed, collector
        ))),
        "fig2" => emit!(fig2::run_on(&opts.envs, scale, seed)),
        "fig3" => emit!(fig3::run(scale, seed)),
        "fig4" => emit!(fig4::run_on(&opts.envs, scale, seed)),
        "fig6" => {
            let result = fig6::run();
            if let Some(dir) = svg_dir {
                for panel in &result.panels {
                    let utilization = Series::new(
                        "U(PE)",
                        panel
                            .points
                            .iter()
                            .map(|p| (p.num_pe as f64, p.utilization))
                            .collect(),
                    );
                    let chart = LineChart::new(
                        format!("Fig. 6 — U(PE), k = {}", panel.num_outputs),
                        "#PE",
                        "U(PE)",
                    )
                    .series(utilization);
                    write_svg(
                        dir,
                        &format!("fig6_k{}.svg", panel.num_outputs),
                        &chart.render(),
                    );
                    let runtime = Series::new(
                        "cycles/infer",
                        panel
                            .points
                            .iter()
                            .map(|p| (p.num_pe as f64, p.mean_cycles))
                            .collect(),
                    );
                    let chart = LineChart::new(
                        format!("Fig. 6 — runtime, k = {}", panel.num_outputs),
                        "#PE",
                        "cycles per inference",
                    )
                    .series(runtime);
                    write_svg(
                        dir,
                        &format!("fig6_runtime_k{}.svg", panel.num_outputs),
                        &chart.render(),
                    );
                }
            }
            emit!(result);
        }
        "fig7" => {
            let result = fig7::run();
            if let Some(dir) = svg_dir {
                for panel in &result.panels {
                    let chart = LineChart::new(
                        format!("Fig. 7 — U(PU), p = {}", panel.num_individuals),
                        "#PU",
                        "U(PU)",
                    )
                    .series(Series::new(
                        "U(PU)",
                        panel
                            .points
                            .iter()
                            .map(|p| (p.num_pu as f64, p.utilization))
                            .collect(),
                    ));
                    write_svg(
                        dir,
                        &format!("fig7_p{}.svg", panel.num_individuals),
                        &chart.render(),
                    );
                }
            }
            emit!(result);
        }
        "fig9a" => emit!(try_run!(fig9::run_fig9a_with(collector))),
        "fig9b" => {
            let result = try_run!(fig9::run_fig9b_with(&opts.envs, scale, seed, collector));
            if let Some(dir) = svg_dir {
                let mut cpu = Vec::new();
                let mut gpu = Vec::new();
                let mut inax = Vec::new();
                for row in &result.rows {
                    let x = row.env.paper_index() as f64;
                    cpu.push((x, row.runtime_seconds[0]));
                    gpu.push((x, row.runtime_seconds[1]));
                    inax.push((x, row.runtime_seconds[2]));
                }
                let chart = LineChart::new("Fig. 9(b) — runtime (log)", "Env#", "seconds")
                    .log_y()
                    .series(Series::new("E3-CPU", cpu))
                    .series(Series::new("E3-GPU", gpu))
                    .series(Series::new("E3-INAX", inax));
                write_svg(dir, "fig9b_runtime.svg", &chart.render());
            }
            emit!(result);
        }
        "fig10a" => {
            let fig9b = try_run!(fig9::run_fig9b_with(&opts.envs, scale, seed, collector));
            emit!(fig10::run_fig10a(&fig9b, &PowerModel::default()));
        }
        "fig10b" => emit!(fig10::run_fig10b()),
        "fig11" => {
            let result = fig11::run();
            if let Some(dir) = svg_dir {
                let chart =
                    LineChart::new("Fig. 11 — HW cycles (log)", "#PE", "cycles per inference")
                        .log_y()
                        .series(Series::new(
                            "INAX",
                            result
                                .points
                                .iter()
                                .map(|p| (p.num_pe as f64, p.inax_cycles))
                                .collect(),
                        ))
                        .series(Series::new(
                            "SA",
                            result
                                .points
                                .iter()
                                .map(|p| (p.num_pe as f64, p.sa_cycles))
                                .collect(),
                        ));
                write_svg(dir, "fig11_cycles.svg", &chart.render());
            }
            emit!(result);
        }
        "ablation" => emit!(ablation::run()),
        "generalize" => {
            let result = try_run!(generalize::run(scale, seed, collector));
            if !result.parity_ok {
                // Scenario sampling is seeded per (run, generation,
                // genome, scenario): a thread-count-dependent result or
                // a missing Generalization record is a correctness bug,
                // so fail loudly for CI.
                return Err(format!("generalize determinism/coverage FAILED:\n{result}"));
            }
            emit!(result);
        }
        other => usage(&format!("unknown experiment: {other}")),
    }
    Ok(())
}

fn write_svg(dir: &Path, file: &str, svg: &str) {
    let path = dir.join(file);
    if let Err(e) = std::fs::write(&path, svg) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}

fn print_usage() {
    eprintln!(
        "usage: repro <experiment|run|all> [--full] [--json] [--seed N] \
         [--envs LIST] [--backend KIND] [--threads N] [--telemetry FILE] \
         [--trace FILE] [--metrics FILE] [--svg DIR] [--checkpoint-dir DIR] \
         [--checkpoint-every N] [--resume] [--crash-after N] \
         [--jit] [--jit-threshold N]"
    );
    eprintln!("experiments: {} run", EXPERIMENTS.join(" "));
    eprintln!("  --envs      comma-separated env names/indices (default: paper suite)");
    eprintln!("  --backend   cpu | gpu | inax (for `run`; default inax)");
    eprintln!("  --threads   evaluation worker threads for `run` (default 1 = serial)");
    eprintln!("  --telemetry write NDJSON telemetry records to FILE");
    eprintln!("  --trace     write Chrome trace-event JSON spans to FILE (Perfetto)");
    eprintln!("  --metrics   write a Prometheus text metrics dump to FILE");
    eprintln!("  --checkpoint-dir   snapshot `run` state into DIR (crash-safe store)");
    eprintln!("  --checkpoint-every snapshot every N generations (default 1)");
    eprintln!("  --resume           resume `run` from the newest intact snapshot");
    eprintln!("  --crash-after      stop `run` after N generations without a summary");
    eprintln!("  --jit              enable tiered native execution for `run` (cpu/gpu software");
    eprintln!("                     eval; bit-identical to the interpreter, off by default)");
    eprintln!("  --jit-threshold    plan-cache uses before a plan compiles natively (default 3)");
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    print_usage();
    std::process::exit(2);
}
