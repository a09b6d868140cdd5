//! One end-to-end, layer-attributed wall-clock benchmark for the E3
//! evolve/evaluate loop. See `README.md` beside this package.
//!
//! ```text
//! e3-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! e3-benchmark run --seed <n> [--quick]
//! e3-benchmark compare <a.json> <b.json>
//! ```

mod checks;
mod clock;
mod compare;
mod measure;
mod metrics;
mod probes;
mod report;
mod spans;
mod stats;
mod suite;
mod traced;
mod workloads;

use crate::measure::{Drive, SeedRun, Unit};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::report::Outcome;
use crate::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Timed generations per seed-run and sweeps per pass at `--quick`
/// scale.
const QUICK_GENERATIONS: usize = 12;
const QUICK_SWEEPS: usize = 2;
/// Set-ups behind `setup_s`: seed-runs of the pass, topped up with
/// set-up-only ones when the pass fits fewer.
const SETUP_SAMPLES: usize = 3;

const USAGE: &str = "usage:
  e3-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--quick] [--detail <file>]
  e3-benchmark run --seed <u64> [--quick]
  e3-benchmark compare <a.json> <b.json>";

/// One benchmark process: one workload, traced or not.
struct Job {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Sweeps of an untraced pass.
    sweeps: usize,
    detail: Option<PathBuf>,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_job(args: &[String]) -> Result<Job, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = *workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = flag(args, "--seed")
        .ok_or("missing --seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = flag(args, "--seconds")
        .ok_or("missing --seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
        .ok_or("--seconds must be a number in (0, 600]")?;
    let trace = match flag(args, "--trace").ok_or("missing --trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let quick = args.iter().any(|a| a == "--quick");
    Ok(Job {
        workload: if quick {
            workload.capped(QUICK_GENERATIONS)
        } else {
            workload
        },
        seed,
        seconds,
        trace,
        sweeps: if quick {
            QUICK_SWEEPS
        } else {
            measure::REPEATS
        },
        detail: flag(args, "--detail").map(PathBuf::from),
    })
}

fn untraced(job: &Job, out_dir: &Path) -> Outcome {
    let workload = &job.workload;
    let mut drive = Drive {
        workload,
        unit: Unit::of(workload),
        out_dir,
        spans: None,
    };
    let runs = drive.pass(job.seed, Duration::from_secs_f64(job.seconds), job.sweeps);

    // Top the set-up samples up with set-up-only seed-runs (warm-up
    // plus one generation) on the seeds after the pass's last,
    // repeated like the pass's own.
    let short = workload.capped(1);
    let mut setup_drive = Drive {
        workload: &short,
        ..drive
    };
    let next_seed = runs.last().map_or(job.seed, |r| r.seed).wrapping_add(1);
    let mut setup_runs: Vec<SeedRun> = (0..SETUP_SAMPLES.saturating_sub(runs.len()) as u64)
        .map(|i| setup_drive.seed_run(next_seed.wrapping_add(i), 0))
        .collect();
    setup_drive.repeat(&mut setup_runs, job.sweeps);

    let e2e = measure::end_to_end(&runs, &setup_runs);
    let mut values = Values::default();
    values.set("env_steps_per_s", e2e.env_steps_per_s);
    values.set("gen_ms_p50", e2e.gen_ms_p50);
    values.set("setup_s", e2e.setup_s);
    println!(
        "{}: {} timed generations over {} seed-runs, {} set-ups, each the fastest of {} repeats",
        workload.name,
        e2e.samples,
        runs.len(),
        e2e.setups,
        job.sweeps
    );
    let gen_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.gen_nominal_s.iter().map(|s| s * 1e3))
        .collect();
    if let Some((p, tail)) = stats::highest_tail(&gen_ms) {
        println!("  highest percentile with 10 samples beyond it: p{p} = {tail:.4} ms");
    }

    let checks = checks::verify(workload, &runs);
    let all = || runs.iter().chain(&setup_runs);
    Outcome {
        values,
        checks,
        attempted: all().map(|r| r.attempted).sum(),
        failed: all().map(|r| r.failed).sum(),
        seed_runs: runs,
    }
}

fn traced(job: &Job, out_dir: &Path) -> Outcome {
    let traced = traced::run(&job.workload, job.seed, job.seconds, out_dir);
    traced::print_breakdown(&traced);
    let trace_path = out_dir.join(format!("trace-{}.json", job.workload.name));
    if let Err(err) = report::write_json(&trace_path, &traced.spans.to_value()) {
        eprintln!("cannot write {}: {err}", trace_path.display());
    }
    Outcome {
        values: traced.layers,
        checks: traced.checks,
        attempted: traced.attempted,
        failed: traced.failed,
        seed_runs: Vec::new(),
    }
}

fn run_job(job: &Job) -> ExitCode {
    let host_cores = report::host_cores();
    if let Some(reason) = workloads::oversubscribed(&job.workload, host_cores) {
        // No result at all rather than one that measures the kernel's
        // time-slicing.
        eprintln!("oversubscribed: {reason}");
        return ExitCode::from(3);
    }
    let out_dir = report::benchmark_dir().join("out");
    if let Err(err) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {err}", out_dir.display());
        return ExitCode::from(2);
    }
    let outcome = if job.trace {
        traced(job, &out_dir)
    } else {
        untraced(job, &out_dir)
    };

    let table: Vec<(&str, &str)> = if job.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    for (name, unit) in &table {
        println!("  {name:<36} {:>18.4} {unit}", outcome.values.get(name));
    }
    let (attempted, failed) = (outcome.operations(), outcome.failures());
    println!(
        "  failed operations: {failed} of {attempted} ({} generations, {} output checks)",
        outcome.attempted,
        outcome.checks.len()
    );
    if let Some(path) = &job.detail {
        let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
        let detail = report::detail(job.workload.name, job.seed, &outcome, &names);
        if let Err(err) = report::write_json(path, &detail) {
            eprintln!("cannot write {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    println!(
        "{}",
        report::result_line(
            failed == 0,
            attempted.max(1),
            failed,
            report::metric_object(&outcome.values, table.into_iter()),
        )
    );
    // The result line reports failures; the exit code stays 0 so that
    // the line is read.
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let seed = match flag(&args, "--seed").map(str::parse::<u64>) {
                Some(Ok(seed)) => seed,
                _ => {
                    eprintln!("run: --seed <u64> is required\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            suite::run(seed, args.iter().any(|a| a == "--quick"))
        }
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => match compare::compare(Path::new(a), Path::new(b)) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(err) => {
                    eprintln!("compare: {err}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        },
        _ => match parse_job(&args) {
            Ok(job) => run_job(&job),
            Err(err) => {
                eprintln!("error: {err}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}
