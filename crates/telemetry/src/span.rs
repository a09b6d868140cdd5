//! Hierarchical span tracing with Chrome trace-event export.
//!
//! A [`Tracer`] records wall-clock spans — `run` → `generation` →
//! `eval` → `shard` → `individual` → `episode` — and renders them as
//! Chrome trace-event JSON (the `{"traceEvents": [...]}` format) that
//! loads directly into [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`.
//!
//! # Zero cost when disabled
//!
//! [`Tracer::disabled`] carries no allocation and no clock: every
//! [`Tracer::start`] on a disabled tracer returns an inert timer
//! without ever touching [`Instant::now`], so instrumented hot paths
//! pay a single branch. The tracer is write-only either way — results
//! must be bit-identical with tracing on or off (enforced by the
//! parity property tests in `e3-platform`).
//!
//! # Threading
//!
//! A [`Tracer`] is a cheap [`Clone`] (an `Arc` under the hood) and is
//! `Send + Sync`; exec-pool workers clone it into shard closures. Each
//! OS thread is assigned a stable small `tid` on first use so Perfetto
//! renders one track per worker. Span *end* timestamps are taken under
//! the tracer's lock, so the recorded span list is globally ordered by
//! completion time — `trace_check` relies on this monotonicity.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Next tid to hand out; tids are process-global so two tracers never
/// disagree about which track a thread belongs to.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The small per-thread track id used in trace output.
fn current_tid() -> u64 {
    THREAD_TID.with(|tid| *tid)
}

/// One key/value annotation attached to a span (rendered in the
/// Perfetto `args` panel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanArg {
    /// Annotation key, e.g. `"genome_index"`.
    pub key: String,
    /// Annotation value.
    pub value: f64,
}

/// One completed span, in microseconds relative to the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span name, e.g. `"generation"`.
    pub name: String,
    /// Category, e.g. `"platform"`, `"exec"`, `"inax"`.
    pub cat: String,
    /// Start time in microseconds since the tracer was created.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Track (thread) id the span ran on.
    pub tid: u64,
    /// Optional numeric annotations.
    pub args: Vec<SpanArg>,
}

#[derive(Debug)]
struct TracerShared {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

/// Records hierarchical wall-clock spans; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<TracerShared>>,
}

impl Tracer {
    /// A tracer that records nothing and never reads the clock. This
    /// is the `Default`.
    pub fn disabled() -> Self {
        Tracer { shared: None }
    }

    /// A tracer that records spans from this instant on.
    pub fn enabled() -> Self {
        Tracer {
            shared: Some(Arc::new(TracerShared {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Opens a span, closed by [`SpanTimer::finish`] or when the
    /// timer drops — whichever comes first. `finish` serves spans whose
    /// lifetime does not nest lexically (e.g. the platform's
    /// `generation` span, opened by the eval phase and finished by the
    /// evolve phase).
    pub fn start(&self, name: &str, cat: &str) -> SpanTimer {
        let live = self.shared.as_ref().map(|shared| LiveSpan {
            shared: Arc::clone(shared),
            start: Instant::now(),
            name: name.to_string(),
            cat: cat.to_string(),
            args: Vec::new(),
        });
        SpanTimer { live }
    }

    /// Snapshot of every span completed so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.shared {
            Some(shared) => shared.spans.lock().expect("tracer lock poisoned").clone(),
            None => Vec::new(),
        }
    }

    /// Number of spans completed so far.
    pub fn span_count(&self) -> usize {
        match &self.shared {
            Some(shared) => shared.spans.lock().expect("tracer lock poisoned").len(),
            None => 0,
        }
    }

    /// Renders every completed span as Chrome trace-event JSON
    /// (`{"traceEvents": [...]}`), loadable in Perfetto.
    pub(crate) fn chrome_trace_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
                json_string(&span.name),
                json_string(&span.cat),
                span.start_us,
                span.dur_us,
                span.tid,
            );
            if !span.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, arg) in span.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:{}", json_string(&arg.key), arg.value);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Writes `Tracer::chrome_trace_json` to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }
}

/// Minimal JSON string escaping (control chars, quote, backslash).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Debug)]
struct LiveSpan {
    shared: Arc<TracerShared>,
    start: Instant,
    name: String,
    cat: String,
    args: Vec<SpanArg>,
}

impl LiveSpan {
    fn finish(self) {
        let start_us = self
            .start
            .duration_since(self.shared.epoch)
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        let mut spans = self.shared.spans.lock().expect("tracer lock poisoned");
        // End time taken under the lock: the span list stays globally
        // ordered by completion time across threads.
        let end_us = self
            .shared
            .epoch
            .elapsed()
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        spans.push(SpanRecord {
            name: self.name,
            cat: self.cat,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            tid: current_tid(),
            args: self.args,
        });
    }
}

/// An open span, returned by [`Tracer::start`]; inert when the tracer
/// is disabled. [`SpanTimer::finish`] closes it, and so does dropping
/// it unfinished (at the end of a scope, or in a panic unwind).
#[derive(Debug)]
#[must_use = "a span timer measures until finished or dropped"]
pub struct SpanTimer {
    live: Option<LiveSpan>,
}

impl SpanTimer {
    /// Attaches a numeric annotation to the span (no-op when
    /// disabled).
    pub fn arg(&mut self, key: &str, value: f64) {
        if let Some(live) = &mut self.live {
            live.args.push(SpanArg {
                key: key.to_string(),
                value,
            });
        }
    }

    /// Closes the span now.
    pub fn finish(mut self) {
        if let Some(live) = self.live.take() {
            live.finish();
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            live.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(tracer.shared.is_none());
        {
            let _run = tracer.start("run", "platform");
            let timer = tracer.start("eval", "platform");
            timer.finish();
        }
        assert_eq!(tracer.span_count(), 0);
        assert_eq!(tracer.chrome_trace_json(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn spans_nest_and_complete_in_leaf_first_order() {
        let tracer = Tracer::enabled();
        {
            let _run = tracer.start("run", "platform");
            {
                let _gen = tracer.start("generation", "platform");
                let _eval = tracer.start("eval", "platform");
            }
        }
        let spans = tracer.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["eval", "generation", "run"]);
        // Completion order implies monotonically nondecreasing end
        // times, and children lie inside their parents.
        for pair in spans.windows(2) {
            assert!(pair[0].start_us + pair[0].dur_us <= pair[1].start_us + pair[1].dur_us);
        }
        let run = &spans[2];
        let eval = &spans[0];
        assert!(run.start_us <= eval.start_us);
        assert!(run.start_us + run.dur_us >= eval.start_us + eval.dur_us);
    }

    #[test]
    fn timer_args_surface_in_chrome_json() {
        let tracer = Tracer::enabled();
        let mut timer = tracer.start("individual", "exec");
        timer.arg("genome_index", 7.0);
        timer.finish();
        let json = tracer.chrome_trace_json();
        assert!(json.contains("\"name\":\"individual\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"genome_index\":7"));
        // Well-formed JSON by the crate's own parser.
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(value.get("traceEvents").is_some());
    }

    #[test]
    fn span_records_round_trip_through_json() {
        let record = SpanRecord {
            name: "shard".to_string(),
            cat: "exec".to_string(),
            start_us: 12,
            dur_us: 34,
            tid: 2,
            args: vec![SpanArg {
                key: "items".to_string(),
                value: 16.0,
            }],
        };
        let json = serde_json::to_string(&record).unwrap();
        let back: SpanRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn tracer_is_shared_across_clones_and_threads() {
        let tracer = Tracer::enabled();
        let clone = tracer.clone();
        let handle = std::thread::spawn(move || {
            let _span = clone.start("shard", "exec");
        });
        handle.join().unwrap();
        {
            let _span = tracer.start("eval", "platform");
        }
        assert_eq!(tracer.span_count(), 2);
        let spans = tracer.spans();
        assert_ne!(spans[0].tid, spans[1].tid, "worker got its own track");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
