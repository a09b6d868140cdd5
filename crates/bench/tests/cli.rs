//! The CLI contract of `sweep` and `repro`: bad input prints
//! `error: …` and the usage line on stderr and exits 2 — never a panic —
//! and a small valid sweep prints its Pareto table. `trace_check
//! --ndjson` accepts a real INAX telemetry stream and exits 1 with a
//! diagnostic on a record that breaks the schema's rules.

use e3_telemetry::{JitRecord, PuCycles, TelemetryEvent, UtilizationBreakdown, UtilizationRecord};
use std::path::PathBuf;
use std::process::{Command, Output};

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .output()
        .expect("binary runs")
}

fn assert_rejected(binary: &str, args: &[&str]) {
    let output = run(binary, args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn sweep_rejects_workloads_it_cannot_price() {
    let sweep = env!("CARGO_BIN_EXE_sweep");
    // Below the smallest PU count swept, an empty population, a
    // network without outputs or inputs, no workers, an unknown flag.
    for args in [
        &["--population", "3"][..],
        &["--population", "0"],
        &["--outputs", "0"],
        &["--inputs", "0"],
        &["--threads", "0"],
        &["--frobnicate"],
    ] {
        assert_rejected(sweep, args);
    }
}

#[test]
fn repro_rejects_unknown_backends_and_experiments() {
    let repro = env!("CARGO_BIN_EXE_repro");
    assert_rejected(repro, &["run", "--backend", "warp"]);
    assert_rejected(repro, &["nosuch"]);
}

#[test]
fn sweep_prints_a_pareto_row_for_a_small_workload() {
    let output = run(
        env!("CARGO_BIN_EXE_sweep"),
        &["--env", "cartpole", "--population", "20"],
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    let table = stdout
        .split("Pareto frontier (cycles vs LUTs):")
        .nth(1)
        .expect("a Pareto section");
    // Header line, then at least one `PU PE cycles U(PU)% LUT DSP` row.
    let row: Vec<&str> = table
        .lines()
        .nth(2)
        .expect("a Pareto row")
        .split_whitespace()
        .collect();
    assert_eq!(row.len(), 6, "{row:?}");
    assert!(row[0].parse::<usize>().is_ok_and(|pu| pu <= 20), "{row:?}");
    assert!(row[3].ends_with('%'), "{row:?}");
}

/// A fresh path for one test's NDJSON file.
fn ndjson_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("e3-cli-{}-{tag}.ndjson", std::process::id()))
}

/// Writes `lines` as an NDJSON file and runs `trace_check --ndjson` on
/// it.
fn trace_check_lines(tag: &str, lines: &[String]) -> Output {
    let path = ndjson_path(tag);
    std::fs::write(&path, lines.join("\n") + "\n").expect("temp file writable");
    let output = run(
        env!("CARGO_BIN_EXE_trace_check"),
        &["--ndjson", path.to_str().unwrap()],
    );
    std::fs::remove_file(&path).ok();
    output
}

fn assert_flagged(output: &Output, diagnostic: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(diagnostic), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// The NDJSON stream of a quick CartPole run on E3-INAX.
fn inax_stream() -> Vec<String> {
    let path = ndjson_path("inax-run");
    let output = run(
        env!("CARGO_BIN_EXE_repro"),
        &[
            "run",
            "--env",
            "cartpole",
            "--backend",
            "inax",
            "--seed",
            "7",
            "--telemetry",
            path.to_str().unwrap(),
        ],
    );
    assert!(output.status.success(), "{output:?}");
    let text = std::fs::read_to_string(&path).expect("repro wrote the stream");
    std::fs::remove_file(&path).ok();
    text.lines().map(str::to_string).collect()
}

#[test]
fn trace_check_accepts_a_real_inax_stream_and_rejects_a_truncated_one() {
    let lines = inax_stream();
    assert!(lines
        .iter()
        .any(|line| line.starts_with("{\"Utilization\"")));
    let output = trace_check_lines("inax", &lines);
    assert!(output.status.success(), "{output:?}");

    let mut truncated = lines;
    let last = truncated.len() - 1;
    let cut = truncated[last].len() / 2;
    truncated[last].truncate(cut);
    let output = trace_check_lines("truncated", &truncated);
    assert_flagged(
        &output,
        &format!("line {}: not a telemetry record", last + 1),
    );
}

#[test]
fn trace_check_rejects_an_empty_jit_record() {
    let line = serde_json::to_string(&TelemetryEvent::Jit(JitRecord::default())).unwrap();
    let output = trace_check_lines("empty-jit", &[line]);
    assert_flagged(&output, "line 1: Jit record with every count zero");
}

#[test]
fn trace_check_rejects_a_pu_row_that_does_not_reconcile() {
    let record = UtilizationRecord {
        backend: "E3-INAX".to_string(),
        env: "cartpole".to_string(),
        total_cycles: 100,
        breakdown: UtilizationBreakdown {
            per_pu: vec![
                PuCycles {
                    busy: 60,
                    idle: 30,
                    stall: 10,
                },
                PuCycles {
                    busy: 60,
                    idle: 30,
                    stall: 9,
                },
            ],
            ..UtilizationBreakdown::default()
        },
    };
    let line = serde_json::to_string(&TelemetryEvent::Utilization(record)).unwrap();
    let output = trace_check_lines("unreconciled", &[line]);
    assert_flagged(&output, "line 1: Utilization PU 1");
}
