//! Harness spans: recorded around the calls into the program, kept in
//! memory, written out when the benchmark ends.

use serde::Value;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// What a span belongs to. Workload and pass are the same for a whole
/// log and live on the log itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanIds {
    pub seed: u64,
    pub generation: Option<usize>,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<SpanId>,
    pub ids: SpanIds,
    /// Seconds since the log's epoch.
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An append-only list of spans sharing one epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub workload: String,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(workload: &str) -> Self {
        SpanLog {
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
        }
    }

    fn since_epoch(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Opens a span now; [`SpanLog::close`] ends it.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, ids: SpanIds) -> SpanId {
        let now = Instant::now();
        self.push(name, parent, ids, now, now)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_s = self.since_epoch(Instant::now());
    }

    /// Records a span whose ends were taken by the caller, so that no
    /// bookkeeping runs inside the interval being timed.
    pub fn push(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        ids: SpanIds,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            ids,
            start_s: self.since_epoch(start),
            end_s: self.since_epoch(end),
        });
        self.spans.len() - 1
    }

    /// Records a child span of known duration whose position inside
    /// the parent was not observed (the program reported only how long
    /// it took): it is placed at the parent's start.
    pub fn push_child_duration(&mut self, name: &str, parent: SpanId, seconds: f64) -> SpanId {
        let p = &self.spans[parent];
        let span = Span {
            name: name.to_string(),
            parent: Some(parent),
            ids: p.ids,
            start_s: p.start_s,
            end_s: p.start_s + seconds.min(p.duration_s()),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its direct children cover. Overlapping children
    /// are merged first, so time two children share is subtracted
    /// once, and children are clipped to the parent.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let start = span.start_s.max(p.start_s);
                let end = span.end_s.min(p.end_s);
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, intervals)| {
                intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for &(start, end) in intervals.iter() {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                (span.duration_s() - covered).max(0.0)
            })
            .collect()
    }

    /// Total self time per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(String, f64)> {
        let mut totals: Vec<(String, f64)> = Vec::new();
        for (span, self_s) in self.spans.iter().zip(self.self_times()) {
            match totals.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += self_s,
                None => totals.push((span.name.clone(), self_s)),
            }
        }
        totals
    }

    /// The log as a JSON value (one object per span).
    pub fn to_value(&self) -> Value {
        let self_times = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(self_times)
            .enumerate()
            .map(|(id, (span, self_s))| {
                Value::Object(vec![
                    ("id".into(), Value::UInt(id as u64)),
                    ("name".into(), Value::Str(span.name.clone())),
                    (
                        "parent".into(),
                        span.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("seed".into(), Value::UInt(span.ids.seed)),
                    (
                        "generation".into(),
                        span.ids
                            .generation
                            .map_or(Value::Null, |g| Value::UInt(g as u64)),
                    ),
                    ("start_s".into(), Value::Float(span.start_s)),
                    ("end_s".into(), Value::Float(span.end_s)),
                    ("self_s".into(), Value::Float(self_s)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("spans".into(), Value::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn log_with(intervals: &[(&str, Option<SpanId>, u64, u64)]) -> SpanLog {
        let mut log = SpanLog::new("test");
        let epoch = log.epoch;
        for &(name, parent, start_ms, end_ms) in intervals {
            log.push(
                name,
                parent,
                SpanIds::default(),
                epoch + Duration::from_millis(start_ms),
                epoch + Duration::from_millis(end_ms),
            );
        }
        log
    }

    fn close_to(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let log = log_with(&[
            ("generation", None, 0, 100),
            ("eval", Some(0), 0, 70),
            ("evolve", Some(0), 70, 95),
            ("exec", Some(1), 5, 65),
        ]);
        let self_times = log.self_times();
        assert!(close_to(self_times[0], 0.005), "100 - 70 - 25");
        assert!(close_to(self_times[1], 0.010), "70 - 60");
        assert!(close_to(self_times[2], 0.025));
        assert!(close_to(self_times[3], 0.060));
        // Self times of a tree add up to the root's duration.
        assert!(close_to(self_times.iter().sum::<f64>(), 0.100));
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let log = log_with(&[
            ("parent", None, 10, 50),
            ("a", Some(0), 10, 30),
            ("b", Some(0), 20, 40),
            ("overhang", Some(0), 45, 80),
        ]);
        // Covered: [10, 40] and [45, 50] = 35 of 40 ms.
        assert!(close_to(log.self_times()[0], 0.005));
    }

    #[test]
    fn duration_children_sit_inside_their_parent() {
        let mut log = log_with(&[("eval", None, 0, 10)]);
        log.push_child_duration("exec", 0, 0.004);
        log.push_child_duration("too_long", 0, 1.0);
        let self_times = log.self_times();
        assert!(close_to(log.spans[1].duration_s(), 0.004));
        assert!(close_to(log.spans[2].duration_s(), 0.010), "clipped");
        assert!(close_to(self_times[0], 0.0));
        let by_name = log.self_time_by_name();
        assert_eq!(by_name[0].0, "eval");
        assert_eq!(by_name.len(), 3);
    }
}
