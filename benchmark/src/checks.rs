//! Output checks: is what the program computed correct?
//!
//! The program's contract is bit-identical results whatever the
//! thread count, tier, route, backend, collector, tracer or
//! checkpoint policy. So every workload is checked against a replay of
//! the same seed on the plainest configuration (one thread, CPU
//! interpreter, nothing attached).

use crate::measure::{islands_outcome, Drive, ScratchDir, SeedRun, Sink, Unit, CHECK_GENERATIONS};
use crate::workloads::{Variant, Workload};
use e3_islands::population_fingerprint;
use e3_platform::{BackendKind, E3Config, E3Platform};
use e3_telemetry::TelemetryEvent;
use std::path::Path;

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

fn check(name: &'static str, passed: bool, detail: String) -> Check {
    if !passed {
        eprintln!("output check failed: {name}: {detail}");
    }
    Check {
        name,
        passed,
        detail,
    }
}

/// `(steps, population fingerprint, simulated cycles)` after
/// [`CHECK_GENERATIONS`] generations of `config` on `backend`.
fn replay(config: E3Config, backend: BackendKind, seed: u64) -> Result<(u64, u64, u64), String> {
    let mut platform = E3Platform::new(config, backend, seed);
    let mut sink = Sink::default();
    for _ in 0..CHECK_GENERATIONS {
        platform.step_with(&mut sink).map_err(|e| e.to_string())?;
    }
    Ok((
        sink.steps,
        population_fingerprint(platform.population()),
        sink.sim_cycles,
    ))
}

/// Checks that the repeats of every seed-run of a pass ended alike,
/// and its first seed-run against the reference replay, plus what
/// only some workloads promise. Returns the checks made.
pub fn verify(workload: &Workload, runs: &[SeedRun]) -> Vec<Check> {
    let first = &runs[0];
    let differing: Vec<u64> = runs
        .iter()
        .filter(|r| r.repeat_mismatches > 0)
        .map(|r| r.seed)
        .collect();
    let mut checks = vec![check(
        "repeats_end_alike",
        differing.is_empty(),
        format!("seeds whose repeats differ in steps, fingerprint or best fitness: {differing:?}"),
    )];
    if workload.is_islands() {
        checks.push(islands_schedule_independence(workload, first.seed));
        return checks;
    }
    let Some(measured) = first.prefix else {
        // The run failed before the check point; its failed
        // generation is already counted.
        return checks;
    };
    let reference = replay(workload.reference_config(), BackendKind::Cpu, first.seed);
    checks.push(check(
        "matches_reference_replay",
        reference
            .as_ref()
            .is_ok_and(|r| (r.0, r.1) == (measured.0, measured.1)),
        format!(
            "measured (steps, fingerprint) = {:?}, reference = {reference:?}",
            (measured.0, measured.1)
        ),
    ));
    if workload.backend == BackendKind::Inax {
        let again = replay(
            workload.config(Path::new("")),
            BackendKind::Inax,
            first.seed,
        );
        checks.push(check(
            "sim_cycles_repeat",
            again.as_ref().is_ok_and(|r| *r == measured),
            format!("measured = {measured:?}, replayed = {again:?}"),
        ));
    }
    if workload.variant == Variant::Observed {
        checks.push(ndjson_parses_back(first));
    }
    checks
}

/// The archipelago's results may not depend on pool width or driver
/// count: a short run on 2 workers × 2 drivers must equal the same
/// run on 1 × 1.
fn islands_schedule_independence(workload: &Workload, seed: u64) -> Check {
    let short = workload.capped(20);
    let parallel = islands_outcome(short.islands_config(seed), 2);
    let mut serial_config = short.islands_config(seed);
    serial_config.base.threads = 1;
    let serial = islands_outcome(serial_config, 1);
    let same = matches!((&parallel, &serial), (Ok(a), Ok(b)) if a == b);
    check(
        "islands_schedule_independent",
        same,
        format!(
            "2x2 = {:?}, 1x1 = {:?}",
            parallel.map_err(|e| e.to_string()),
            serial.map_err(|e| e.to_string())
        ),
    )
}

fn scratch_of(run: &SeedRun) -> &Path {
    run.scratch.as_ref().map_or(Path::new(""), ScratchDir::path)
}

/// Every line of the NDJSON the observed run wrote parses back, one
/// `Generation` record per generation run.
fn ndjson_parses_back(run: &SeedRun) -> Check {
    let generations = run.generations;
    let path = scratch_of(run).join("events.ndjson");
    let records = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|text| {
            let mut generation_records = 0;
            for line in text.lines() {
                match serde_json::from_str::<TelemetryEvent>(line) {
                    Ok(TelemetryEvent::Generation(_)) => generation_records += 1,
                    Ok(_) => {}
                    Err(e) => return Err(format!("unparseable line: {e}")),
                }
            }
            Ok(generation_records)
        });
    check(
        "ndjson_parses_back",
        records == Ok(generations),
        format!("generation records = {records:?}, generations run = {generations}"),
    )
}

/// `E3Platform::resume` loads the newest snapshot an observed run
/// wrote. Loading a snapshot costs seconds (≈3 s after 10 generations,
/// ≈10 s after 100 on the sizing host — `store.recover_ms`), so the
/// check runs on a 10-generation observed run of its own, and in the
/// traced process only (one a workload, where the untraced ones are
/// many). `out_dir` is where it may write.
pub fn newest_snapshot_resumes(workload: &Workload, seed: u64, out_dir: &Path) -> Check {
    let brief = workload.capped(5);
    let dir = out_dir.join("check");
    let run = Drive {
        workload: &brief,
        unit: Unit::Platform,
        out_dir: &dir,
        spans: None,
    }
    .seed_run(seed, 0);
    let resumed = E3Platform::resume(brief.config(scratch_of(&run)), brief.backend, seed)
        .map_err(|e| e.to_string())
        .map(|platform| platform.map(|p| p.generation()));
    let failed = run.failed;
    drop(run);
    std::fs::remove_dir(&dir).ok();
    let newest = brief.total_generations();
    check(
        "newest_snapshot_resumes",
        failed == 0 && resumed == Ok(Some(newest)),
        format!("resumed at {resumed:?}, expected generation {newest}"),
    )
}
