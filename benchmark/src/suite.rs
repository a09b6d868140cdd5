//! The `run` subcommand: every workload, three untraced reps
//! interleaved round-robin (so a noisy neighbour hits all workloads
//! alike) and one traced rep, each in its own child process (so
//! `peak_rss_mb` is per workload and no workload warms another's
//! caches), then the checks that need more than one process.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::{self, object, RUN_SECONDS};
use crate::stats::quartiles;
use crate::workloads::{oversubscribed, WORKLOADS};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const REPS: usize = 3;
/// `--seconds` of every child at `--quick` scale: a schema smoke test.
const QUICK_SECONDS: f64 = 0.5;

/// Runs one child benchmark process and reads its detail file back.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    detail: &Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(detail);
    if quick {
        command.arg("--quick");
    }
    // The child's tables go to the terminal; only its detail file is
    // read back.
    let status = command.status().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{workload}: child exited with {status}"));
    }
    let text = std::fs::read_to_string(detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", detail.display()))
}

/// `seed → (steps, fingerprint, best fitness bits, simulated cycles)`
/// of the complete seed-runs in a detail file.
fn ends(detail: &Value) -> Vec<(u64, [u64; 4])> {
    let field = |run: &Value, name: &str| run.get(name).and_then(Value::as_u64).unwrap_or(0);
    detail
        .get("seed_runs")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .map(|run| {
            (
                field(run, "seed"),
                [
                    field(run, "steps"),
                    field(run, "fingerprint"),
                    field(run, "best_fitness_bits"),
                    field(run, "sim_cycles"),
                ],
            )
        })
        .collect()
}

/// Seeds on which two sets of end states disagree. `fields` picks the
/// part of the end state that must match.
fn disagreements(a: &[(u64, [u64; 4])], b: &[(u64, [u64; 4])], fields: &[usize]) -> Vec<u64> {
    a.iter()
        .filter(|(seed, end_a)| {
            b.iter()
                .any(|(s, end_b)| s == seed && fields.iter().any(|&f| end_a[f] != end_b[f]))
        })
        .map(|(seed, _)| *seed)
        .collect()
}

pub fn run(seed: u64, quick: bool) -> ExitCode {
    let seconds = if quick {
        QUICK_SECONDS
    } else {
        RUN_SECONDS as f64
    };
    let host_cores = report::host_cores();
    // Quick results are a schema smoke test only: they go to their own
    // directory and never near BENCHMARK.json or the history.
    let out_dir: PathBuf = report::benchmark_dir().join(if quick { "out/quick" } else { "out" });
    let mut failures: Vec<String> = Vec::new();

    let runnable: Vec<_> = WORKLOADS
        .iter()
        .filter(|w| match oversubscribed(w, host_cores) {
            Some(reason) => {
                println!("oversubscribed, not reported: {reason}");
                false
            }
            None => true,
        })
        .collect();

    // Operations attempted: the children's, plus one per child that
    // does not finish and one per check made here.
    let mut attempted = 0u64;
    // details[workload][rep]; the traced rep is the last.
    let mut details: Vec<Vec<Value>> = vec![Vec::new(); runnable.len()];
    for rep in 0..=REPS {
        let trace = rep == REPS;
        for (i, workload) in runnable.iter().enumerate() {
            let label = if trace {
                "traced".to_string()
            } else {
                format!("rep{rep}")
            };
            let path = out_dir.join(format!("detail-{}-{label}.json", workload.name));
            match child(workload.name, seed, seconds, trace, quick, &path) {
                Ok(detail) => details[i].push(detail),
                Err(err) => {
                    attempted += 1;
                    failures.push(err);
                    details[i].push(Value::Null);
                }
            }
        }
    }

    let mut workloads_out = Vec::new();
    let mut history_metrics = Vec::new();
    for (workload, details) in runnable.iter().zip(&details) {
        for detail in details {
            attempted += detail.get("attempted").and_then(Value::as_u64).unwrap_or(0);
            let mut unexplained = detail.get("failed").and_then(Value::as_u64).unwrap_or(0);
            for check in detail
                .get("checks")
                .and_then(Value::as_array)
                .unwrap_or_default()
            {
                if check.get("passed") != Some(&Value::Bool(true)) {
                    unexplained = unexplained.saturating_sub(1);
                    failures.push(format!(
                        "{}: {}: {}",
                        workload.name,
                        check.get("name").and_then(Value::as_str).unwrap_or("?"),
                        check.get("detail").and_then(Value::as_str).unwrap_or("")
                    ));
                }
            }
            // Failed operations that are not failed checks are
            // generations that returned `Err`.
            for _ in 0..unexplained {
                failures.push(format!("{}: a generation returned Err", workload.name));
            }
        }
        let (reps, traced) = details.split_at(REPS);
        // Same seed, same end state, in every rep.
        let all_ends: Vec<_> = reps.iter().map(ends).collect();
        for other in &all_ends[1..] {
            attempted += 1;
            let bad = disagreements(&all_ends[0], other, &[0, 1, 2, 3]);
            if !bad.is_empty() {
                failures.push(format!("{}: reps disagree on seeds {bad:?}", workload.name));
            }
        }

        println!("\n{}", workload.name);
        let mut e2e = Vec::new();
        let mut medians = Vec::new();
        for metric in &END_TO_END {
            let values: Vec<f64> = reps
                .iter()
                .filter_map(|d| d.get("metrics")?.get(metric.name)?.as_f64())
                .collect();
            let [q1, median, q3] = quartiles(&values);
            println!(
                "  {:<36} {median:>18.4} {:<8} [q1 {q1:.4}, q3 {q3:.4}] over {} reps, may worsen by {:.0} %",
                metric.name,
                metric.unit,
                values.len(),
                metric.bound * 100.0
            );
            medians.push((metric.name, Value::Float(median)));
            e2e.push((
                metric.name,
                object(vec![
                    ("unit", Value::Str(metric.unit.to_string())),
                    ("median", Value::Float(median)),
                    ("q1", Value::Float(q1)),
                    ("q3", Value::Float(q3)),
                    (
                        "values",
                        Value::Array(values.into_iter().map(Value::Float).collect()),
                    ),
                ]),
            ));
        }
        let layers: Vec<(&str, Value)> = PER_LAYER
            .iter()
            .map(|metric| {
                let value = traced[0]
                    .get("metrics")
                    .and_then(|m| m.get(metric.name))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                println!("  {:<36} {value:>18.4} {}", metric.name, metric.unit);
                (metric.name, Value::Float(value))
            })
            .collect();
        history_metrics.push((workload.name, object(medians)));
        workloads_out.push((
            workload.name,
            object(vec![
                ("why", Value::Str(workload.why.to_string())),
                ("end_to_end", object(e2e)),
                ("per_layer", object(layers)),
                (
                    "seed_runs",
                    reps.first()
                        .and_then(|d| d.get("seed_runs"))
                        .cloned()
                        .unwrap_or(Value::Null),
                ),
            ]),
        ));
    }

    // Tiers, routes and observability are bit-identical by contract:
    // the lander variants must end where lander_default ends.
    let ends_of = |name: &str| {
        runnable
            .iter()
            .position(|w| w.name == name)
            .map(|i| ends(&details[i][0]))
            .unwrap_or_default()
    };
    let baseline = ends_of("lander_default");
    for variant in ["lander_jit", "lander_observed"] {
        attempted += 1;
        let bad = disagreements(&baseline, &ends_of(variant), &[0, 1, 2]);
        if !bad.is_empty() {
            failures.push(format!(
                "{variant} and lander_default disagree on seeds {bad:?}"
            ));
        }
    }

    // One entry of `failures` per failed operation.
    let failed = failures.len() as u64;
    println!(
        "\nfailed_ops_share = {:.6} ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    for failure in &failures {
        println!("FAILED: {failure}");
    }

    let (commit, dirty) = report::git_state();
    let host = report::host_fingerprint();
    let results = object(vec![
        ("commit", Value::Str(commit.clone())),
        ("dirty", Value::Bool(dirty)),
        ("host", host.clone()),
        ("seed", Value::UInt(seed)),
        ("seconds", Value::Float(seconds)),
        ("quick", Value::Bool(quick)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        ("workloads", object(workloads_out)),
    ]);
    let results_path = out_dir.join(format!("results-{seed}.json"));
    let mut written = report::write_json(&results_path, &results);
    if !quick {
        written = written
            .and_then(|()| {
                report::write_json(
                    &report::benchmark_dir().join("../BENCHMARK.json"),
                    &report::benchmark_json(),
                )
            })
            .and_then(|()| {
                report::append_history(&object(vec![
                    ("commit", Value::Str(commit)),
                    ("dirty", Value::Bool(dirty)),
                    ("host", host),
                    ("seed", Value::UInt(seed)),
                    ("failed", Value::UInt(failed)),
                    ("end_to_end", object(history_metrics)),
                ]))
            });
    }
    println!("results: {}", results_path.display());
    match written {
        Ok(()) if failures.is_empty() => ExitCode::SUCCESS,
        Ok(()) => ExitCode::from(1),
        Err(err) => {
            eprintln!("cannot write results: {err}");
            ExitCode::from(2)
        }
    }
}
