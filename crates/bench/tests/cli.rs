//! The CLI contract of `sweep` and `repro`: bad input prints
//! `error: …` and the usage line on stderr and exits 2 — never a panic —
//! and a small valid sweep prints its Pareto table.

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
