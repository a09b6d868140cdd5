//! Result files: the per-process detail file, `BENCHMARK.json`, the
//! host fingerprint and the append-only history.

use crate::checks::Check;
use crate::measure::SeedRun;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use serde::Value;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// How long one run measures: `run_seconds` of `BENCHMARK.json`, and
/// the `--seconds` the `run` subcommand gives each of its children:
/// five sweeps of some nine seed-runs each. The driver's 4 + 22 x 6
/// runs then take about 40 of its 57 minutes.
pub const RUN_SECONDS: u64 = 16;

/// The benchmark's own directory (this package).
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn string(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// `{"name": {"value": v, "unit": u}, …}` for the named metrics.
pub fn metric_object<'a>(
    values: &Values,
    table: impl Iterator<Item = (&'a str, &'a str)>,
) -> Value {
    Value::Object(
        table
            .map(|(name, unit)| {
                (
                    name.to_string(),
                    object(vec![
                        ("value", Value::Float(values.get(name))),
                        ("unit", string(unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The last line of a benchmark process's standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: Value) -> String {
    serde_json::to_string(&object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted as u64)),
        ("failed", Value::UInt(failed as u64)),
        ("metrics", metrics),
    ]))
    .expect("a value tree always serializes")
}

/// Everything one benchmark process measured.
pub struct Outcome {
    pub values: Values,
    pub checks: Vec<Check>,
    /// Generations asked of the program, and how many returned `Err`.
    pub attempted: usize,
    pub failed: usize,
    /// The untraced pass's seed-runs (empty for a traced process).
    pub seed_runs: Vec<SeedRun>,
}

impl Outcome {
    /// Operations attempted: generations plus output checks.
    pub fn operations(&self) -> usize {
        self.attempted + self.checks.len()
    }

    /// Operations failed: generations that returned `Err` plus output
    /// checks that did not pass.
    pub fn failures(&self) -> usize {
        self.failed + self.checks.iter().filter(|c| !c.passed).count()
    }
}

/// What one benchmark process hands the `run` subcommand beside its
/// result line: the metrics in `names`, the checks, and the end state
/// of every complete seed-run.
pub fn detail(workload: &str, seed: u64, outcome: &Outcome, names: &[&str]) -> Value {
    let metrics = names
        .iter()
        .map(|name| (name.to_string(), Value::Float(outcome.values.get(name))))
        .collect();
    let checks = outcome
        .checks
        .iter()
        .map(|c| {
            object(vec![
                ("name", string(c.name)),
                ("passed", Value::Bool(c.passed)),
                ("detail", string(&c.detail)),
            ])
        })
        .collect();
    // Only complete seed-runs have an end state to compare.
    let ends = outcome
        .seed_runs
        .iter()
        .filter_map(|r| {
            r.end.map(|(steps, fingerprint, best_bits, sim_cycles)| {
                object(vec![
                    ("seed", Value::UInt(r.seed)),
                    ("steps", Value::UInt(steps)),
                    ("fingerprint", Value::UInt(fingerprint)),
                    ("best_fitness_bits", Value::UInt(best_bits)),
                    ("sim_cycles", Value::UInt(sim_cycles)),
                ])
            })
        })
        .collect();
    object(vec![
        ("workload", string(workload)),
        ("seed", Value::UInt(seed)),
        ("attempted", Value::UInt(outcome.operations() as u64)),
        ("failed", Value::UInt(outcome.failures() as u64)),
        ("metrics", Value::Object(metrics)),
        ("checks", Value::Array(checks)),
        ("seed_runs", Value::Array(ends)),
    ])
}

pub fn write_json(path: &Path, value: &Value) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let text = serde_json::to_string_pretty(value).expect("a value tree always serializes");
    std::fs::write(path, text + "\n")
}

/// `BENCHMARK.json`, generated from the workload and metric tables.
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    object(vec![
        (
            "command",
            Value::Array(command.iter().map(|s| string(s)).collect()),
        ),
        ("paths", Value::Array(vec![string("benchmark")])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| object(vec![("name", string(w.name)), ("why", string(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", string(m.name)),
                            ("unit", string(m.unit)),
                            ("better", string(m.better.as_str())),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", string(m.name)),
                            ("unit", string(m.unit)),
                            ("better", string(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Cores the harness may use.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `host_cores`, CPU model and compiler: results from different hosts
/// do not compare.
pub fn host_fingerprint() -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc =
        command_line("rustc", &["-V"], &benchmark_dir()).unwrap_or_else(|| "unknown".into());
    object(vec![
        ("host_cores", Value::UInt(host_cores() as u64)),
        ("cpu_model", string(&cpu_model)),
        ("rustc", string(&rustc)),
    ])
}

/// `(commit, dirty)` of the checkout; `("unknown", true)` outside git.
pub fn git_state() -> (String, bool) {
    let dir = benchmark_dir();
    match command_line("git", &["rev-parse", "HEAD"], &dir) {
        Some(commit) => {
            let dirty = command_line("git", &["status", "--porcelain"], &dir)
                .is_none_or(|status| !status.is_empty());
            (commit, dirty)
        }
        None => ("unknown".to_string(), true),
    }
}

/// Appends one line to the history. The file is only ever appended to.
pub fn append_history(line: &Value) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(benchmark_dir().join("history.ndjson"))?;
    let text = serde_json::to_string(line).expect("a value tree always serializes");
    file.write_all(text.as_bytes())?;
    file.write_all(b"\n")?;
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        // `run` regenerates the file; this keeps a hand edit of either
        // side from drifting unnoticed.
        let path = benchmark_dir().join("../BENCHMARK.json");
        let committed: Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(committed, benchmark_json());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::default();
        values.set("setup_s", 0.25);
        let line = result_line(
            true,
            10,
            0,
            metric_object(&values, [("setup_s", "s")].into_iter()),
        );
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
    }
}
