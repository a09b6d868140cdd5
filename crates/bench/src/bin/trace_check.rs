//! `trace_check` — validate observability artifacts from a traced run.
//!
//! ```text
//! trace_check TRACE.json [METRICS.prom]
//! trace_check --metrics METRICS.prom
//! trace_check --ndjson TELEMETRY.ndjson
//! ```
//!
//! Checks that `TRACE.json` is a well-formed Chrome trace-event file
//! (the `{"traceEvents": [...]}` shape `repro --trace` and
//! `sweep --trace` emit): the event array is non-empty, every event is
//! a complete-phase (`"ph": "X"`) slice with `name`, `cat`, `ts`,
//! `dur`, `pid`, and `tid`, end times (`ts + dur`) are monotonically
//! nondecreasing in array order — the tracer records spans in
//! completion order, so a violation means the export is broken, not
//! merely reordered — and the slices of one `(pid, tid)` track nest:
//! two that overlap in time must hold one inside the other, or
//! Perfetto cannot draw the track.
//!
//! With a second argument, also checks that `METRICS.prom` parses as
//! Prometheus text exposition: every line is either a `# TYPE`/`# HELP`
//! comment or a `name value` sample with a finite numeric value, and
//! at least one sample is present. `--metrics FILE` runs the
//! exposition check alone (no trace file) — CI uses it to validate
//! scrapes fetched from the live `/metrics` endpoint.
//!
//! `--ndjson FILE` validates an NDJSON telemetry export (the
//! `--telemetry` stream of `repro`): every line must parse as an
//! `e3_telemetry::TelemetryEvent` — the schema is the type, so an
//! unknown record kind or a dropped key is a parse error — and the
//! values types cannot express must hold: finite `Generalization`
//! fitness numbers, a positive held-out scenario count, no empty `Jit`
//! record, and in every `Utilization` record each PU's
//! `busy + idle + stall` equal to the run's `total_cycles`.
//!
//! Exits 0 when everything holds, 1 with a diagnostic on stderr
//! otherwise. CI runs this after a short traced `repro` run.

use e3_telemetry::{PuCycles, TelemetryEvent, JIT_SERIES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (trace_path, metrics_path, ndjson_path) = match args.as_slice() {
        [flag, metrics] if flag == "--metrics" => (None, Some(metrics.as_str()), None),
        [flag, ndjson] if flag == "--ndjson" => (None, None, Some(ndjson.as_str())),
        [trace] => (Some(trace.as_str()), None, None),
        [trace, metrics] => (Some(trace.as_str()), Some(metrics.as_str()), None),
        _ => {
            eprintln!(
                "usage: trace_check TRACE.json [METRICS.prom] | \
                 trace_check --metrics FILE | trace_check --ndjson FILE"
            );
            return ExitCode::from(2);
        }
    };

    if let Some(trace_path) = trace_path {
        if let Err(msg) = check_trace(trace_path) {
            eprintln!("trace_check: {trace_path}: {msg}");
            return ExitCode::FAILURE;
        }
        println!("{trace_path}: OK");
    }
    if let Some(path) = metrics_path {
        if let Err(msg) = check_metrics(path) {
            eprintln!("trace_check: {path}: {msg}");
            return ExitCode::FAILURE;
        }
        println!("{path}: OK");
    }
    if let Some(path) = ndjson_path {
        if let Err(msg) = check_ndjson(path) {
            eprintln!("trace_check: {path}: {msg}");
            return ExitCode::FAILURE;
        }
        println!("{path}: OK");
    }
    ExitCode::SUCCESS
}

/// Validates an NDJSON telemetry export; returns a diagnostic on the
/// first violation.
fn check_ndjson(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let mut records = 0usize;
    let mut generalizations = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |msg: &str| format!("line {}: {msg}", lineno + 1);
        let event: TelemetryEvent = serde_json::from_str(line)
            .map_err(|e| at(&format!("not a telemetry record ({e}): {line}")))?;
        match event {
            TelemetryEvent::Generalization(pass) => {
                let numbers = [
                    ("train_fitness", pass.train_fitness),
                    ("holdout_fitness", pass.holdout_fitness),
                    ("holdout_min", pass.holdout_min),
                    ("holdout_max", pass.holdout_max),
                    ("holdout_std", pass.holdout_std),
                    ("gap", pass.gap),
                ];
                if let Some((key, _)) = numbers.iter().find(|(_, value)| !value.is_finite()) {
                    return Err(at(&format!("Generalization {key} is not finite")));
                }
                if pass.holdout_scenarios == 0 {
                    return Err(at("Generalization pass scored zero held-out scenarios"));
                }
                generalizations += 1;
            }
            TelemetryEvent::Jit(jit) => {
                if !jit.compile_seconds.is_finite() || jit.compile_seconds < 0.0 {
                    return Err(at(
                        "Jit compile_seconds is not a finite non-negative number",
                    ));
                }
                // The platform only emits a Jit record when the tier
                // did work, so an empty one is itself a violation.
                if jit.is_empty() {
                    return Err(at("Jit record with every count zero"));
                }
            }
            TelemetryEvent::Utilization(util) => {
                // Summed with overflow checks: a wrapped sum could
                // reconcile by accident.
                let reconciles = |row: &PuCycles| {
                    row.busy
                        .checked_add(row.idle)
                        .and_then(|sum| sum.checked_add(row.stall))
                        == Some(util.total_cycles)
                };
                let per_pu = &util.breakdown.per_pu;
                if let Some(pu) = per_pu.iter().position(|row| !reconciles(row)) {
                    let row = per_pu[pu];
                    return Err(at(&format!(
                        "Utilization PU {pu}: busy {} + idle {} + stall {} is not total_cycles {}",
                        row.busy, row.idle, row.stall, util.total_cycles
                    )));
                }
            }
            _ => {}
        }
        records += 1;
    }
    if records == 0 {
        return Err("no records — the telemetry stream is empty".to_string());
    }
    println!("  {records} records ({generalizations} generalization passes)");
    Ok(())
}

/// Validates a Chrome trace-event JSON file; returns a diagnostic on
/// the first violation.
fn check_trace(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let value: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = value
        .get("traceEvents")
        .ok_or("missing traceEvents key")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    if events.is_empty() {
        return Err("traceEvents is empty — the tracer recorded no spans".to_string());
    }
    let mut prev_end = 0u64;
    let mut slices = Vec::with_capacity(events.len());
    for (i, event) in events.iter().enumerate() {
        let context = |key: &str| format!("event {i}: missing or malformed {key}");
        event
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| context("name"))?;
        event
            .get("cat")
            .and_then(|v| v.as_str())
            .ok_or_else(|| context("cat"))?;
        let phase = event
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| context("ph"))?;
        if phase != "X" {
            return Err(format!(
                "event {i}: ph is {phase:?}, expected complete slice \"X\""
            ));
        }
        let ts = event
            .get("ts")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| context("ts"))?;
        let dur = event
            .get("dur")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| context("dur"))?;
        let pid = event
            .get("pid")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| context("pid"))?;
        let tid = event
            .get("tid")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| context("tid"))?;
        let end = ts
            .checked_add(dur)
            .ok_or_else(|| format!("event {i}: ts + dur overflows"))?;
        slices.push(Slice {
            track: (pid, tid),
            ts,
            end,
            index: i,
        });
        if end < prev_end {
            return Err(format!(
                "event {i}: end time {end}us precedes previous end {prev_end}us — \
                 spans must be completion-ordered"
            ));
        }
        prev_end = end;
    }
    check_nesting(&mut slices)?;
    println!(
        "  {} spans, completion-ordered and nested per track, {prev_end}us total",
        events.len()
    );
    Ok(())
}

/// One complete slice of a trace: its `(pid, tid)` track, start and
/// end in microseconds, and its index in the event array.
struct Slice {
    track: (u64, u64),
    ts: u64,
    end: u64,
    index: usize,
}

/// Checks that the slices of each track nest: per track, in start
/// order (a longer slice before a shorter one that starts with it),
/// every slice ends within each open slice it starts inside. Slices
/// that only touch — one ends as the next starts — do not overlap.
fn check_nesting(slices: &mut [Slice]) -> Result<(), String> {
    slices.sort_by_key(|s| (s.track, s.ts, std::cmp::Reverse(s.end)));
    let mut open: Vec<&Slice> = Vec::new();
    for slice in slices.iter() {
        while open
            .last()
            .is_some_and(|top| top.track != slice.track || top.end <= slice.ts)
        {
            open.pop();
        }
        if let Some(top) = open.last() {
            if slice.end > top.end {
                let (pid, tid) = slice.track;
                return Err(format!(
                    "event {} [{}, {}]us partially overlaps event {} [{}, {}]us \
                     on pid {pid} tid {tid} — the spans of one track must nest",
                    slice.index, slice.ts, slice.end, top.index, top.ts, top.end
                ));
            }
        }
        open.push(slice);
    }
    Ok(())
}

/// Validates a Prometheus text exposition dump; returns a diagnostic
/// on the first violation.
fn check_metrics(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let mut samples = 0usize;
    let mut jit_seen: Vec<&'static str> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            match words.next() {
                Some("TYPE") => {
                    let name = words
                        .next()
                        .ok_or(format!("line {}: # TYPE without a metric name", lineno + 1))?;
                    let kind = words
                        .next()
                        .ok_or(format!("line {}: # TYPE {name} without a kind", lineno + 1))?;
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {}: unknown metric type {kind:?}", lineno + 1));
                    }
                }
                Some("HELP") => {}
                _ => return Err(format!("line {}: unrecognized comment: {line}", lineno + 1)),
            }
            continue;
        }
        let (name, value) = line.rsplit_once(' ').ok_or(format!(
            "line {}: sample is not `name value`: {line}",
            lineno + 1
        ))?;
        if name.is_empty() {
            return Err(format!("line {}: empty metric name", lineno + 1));
        }
        let parsed: f64 = value
            .parse()
            .map_err(|_| format!("line {}: value {value:?} is not a number", lineno + 1))?;
        if !parsed.is_finite() {
            return Err(format!(
                "line {}: value {value:?} is not finite",
                lineno + 1
            ));
        }
        for series in JIT_SERIES {
            if name.starts_with(series) && !jit_seen.contains(&series) {
                jit_seen.push(series);
            }
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples — the metrics registry recorded nothing".to_string());
    }
    // The JIT series travel as a set: one of them without the rest
    // means the exporter dropped counters mid-family.
    if !jit_seen.is_empty() && jit_seen.len() != JIT_SERIES.len() {
        let missing: Vec<&str> = JIT_SERIES
            .into_iter()
            .filter(|series| !jit_seen.contains(series))
            .collect();
        return Err(format!(
            "scrape carries some e3_jit_* series but is missing {}",
            missing.join(", ")
        ));
    }
    println!("  {samples} samples");
    Ok(())
}
