//! A metrics registry: counters, gauges, and log-bucketed histograms
//! with Prometheus-style text exposition and a human-readable summary
//! table.
//!
//! The registry is a plain in-process data structure — no background
//! threads, no global state. [`MetricsRegistry::observe`] defines the
//! canonical mapping from [`TelemetryEvent`]s to metrics, and
//! [`MeteredCollector`] tees any collector through that mapping, so
//! `repro --metrics <path>` gets the same numbers whatever sink the
//! run writes to.
//!
//! Metric names follow Prometheus conventions (`e3_` prefix,
//! `_total` suffix on counters) and may carry a label set inline in
//! the name, e.g. `e3_pu_busy_cycles_total{pu="3"}` — the exposition
//! dump groups `# TYPE` lines by the base name before the `{`.

use crate::{Collector, TelemetryError, TelemetryEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote, and line feed become `\\`, `\"`, and `\n`
/// so any string — paths, error messages, env names — is safe inside
/// the `label="value"` quotes of a metric name.
pub(crate) fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Builds a metric name with an inline label set,
/// `base{key="value",...}`, escaping every value via
/// `escape_label_value`. With no labels the base name is returned
/// unchanged. This is the one sanctioned way to construct labeled
/// metric names — values that bypass it and carry raw `"`/`\`/newline
/// would corrupt the exposition dump.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = String::with_capacity(base.len() + 16 * labels.len());
    out.push_str(base);
    out.push('{');
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{key}=\"{}\"", escape_label_value(value));
    }
    out.push('}');
    out
}

/// Smallest histogram bucket upper bound, as a power of two
/// (`2^-20` ≈ 1 µs when observing seconds).
const MIN_EXP: i32 = -20;
/// Largest finite bucket upper bound, as a power of two
/// (`2^40` ≈ 1.1e12 — enough for cycle counts).
const MAX_EXP: i32 = 40;
/// Finite buckets plus the `+Inf` overflow bucket.
const NUM_BUCKETS: usize = (MAX_EXP - MIN_EXP + 1) as usize + 1;

/// A log2-bucketed histogram: bucket `i` counts observations `v` with
/// `v <= 2^(MIN_EXP + i)`, plus a `+Inf` overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub(crate) fn observe(&mut self, value: f64) {
        let index = if !value.is_finite() {
            NUM_BUCKETS - 1
        } else if value <= 2f64.powi(MIN_EXP) {
            0
        } else {
            let exp = value.log2().ceil() as i32;
            if exp > MAX_EXP {
                NUM_BUCKETS - 1
            } else {
                (exp - MIN_EXP) as usize
            }
        };
        self.buckets[index] += 1;
        self.count += 1;
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of observations.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or 0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest observation, or 0 when empty.
    pub(crate) fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// `(upper_bound, cumulative_count)` pairs for every non-empty
    /// prefix of buckets, ending with the `+Inf` bucket.
    fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut running = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            running += n;
            let bound = if i == NUM_BUCKETS - 1 {
                f64::INFINITY
            } else {
                2f64.powi(MIN_EXP + i as i32)
            };
            // Keep the dump compact: only bucket boundaries where the
            // cumulative count changes, plus the final +Inf bucket.
            if n > 0 || i == NUM_BUCKETS - 1 {
                out.push((bound, running));
            }
        }
        out
    }
}

/// Counters, gauges, and histograms keyed by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the counter `name` (created at 0).
    pub(crate) fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records `value` into the histogram `name`.
    pub(crate) fn histogram_observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// True when no metric has been touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The canonical [`TelemetryEvent`] → metrics mapping.
    pub(crate) fn observe(&mut self, event: &TelemetryEvent) {
        self.observe_scoped(&[], event);
    }

    /// [`MetricsRegistry::observe`] with an extra label scope merged
    /// into every metric the event produces — how a multi-run daemon
    /// keeps N concurrent runs apart in one registry (e.g.
    /// `scope = [("run", "run-0003")]` turns `e3_evals_total` into
    /// `e3_evals_total{run="run-0003"}`). Scope labels come first;
    /// event-intrinsic labels (island, pu, pe) are appended after.
    pub(crate) fn observe_scoped(&mut self, scope: &[(&str, &str)], event: &TelemetryEvent) {
        // Name builders: `plain` applies only the scope, `with` appends
        // one event-intrinsic label after the scope labels.
        let plain = |base: &str| labeled(base, scope);
        let with = |base: &str, key: &'static str, value: &str| {
            let mut labels: Vec<(&str, &str)> = scope.to_vec();
            labels.push((key, value));
            labeled(base, &labels)
        };
        match event {
            TelemetryEvent::Eval(eval) => {
                self.counter_add(&plain("e3_evals_total"), 1);
                self.counter_add(&plain("e3_env_steps_total"), eval.total_steps);
                self.gauge_set(&plain("e3_best_fitness"), eval.best_fitness);
                self.gauge_set(&plain("e3_mean_fitness"), eval.mean_fitness);
                self.histogram_observe(&plain("e3_eval_seconds"), eval.eval_seconds);
                self.histogram_observe(&plain("e3_env_seconds"), eval.env_seconds);
                if let Some(hw) = &eval.hw {
                    self.counter_add(&plain("e3_inax_cycles_total"), hw.total_cycles);
                    self.counter_add(&plain("e3_inax_setup_cycles_total"), hw.setup_cycles);
                    self.counter_add(
                        &plain("e3_inax_pe_active_cycles_total"),
                        hw.pe_active_cycles,
                    );
                    self.counter_add(&plain("e3_inax_dma_cycles_total"), hw.dma_cycles);
                    self.gauge_set(&plain("e3_inax_pu_utilization"), hw.pu_utilization);
                    self.gauge_set(&plain("e3_inax_pe_utilization"), hw.pe_utilization);
                }
            }
            TelemetryEvent::Exec(exec) => {
                self.counter_add(&plain("e3_exec_steals_total"), exec.steal_count);
                self.counter_add(&plain("e3_exec_cache_hits_total"), exec.cache_hits);
                self.counter_add(&plain("e3_exec_cache_misses_total"), exec.cache_misses);
                self.counter_add(
                    &plain("e3_exec_cache_evictions_total"),
                    exec.cache_evictions,
                );
                self.gauge_set(&plain("e3_exec_workers"), exec.workers as f64);
                self.gauge_set(&plain("e3_exec_cache_entries"), exec.cache_entries as f64);
                self.gauge_set(&plain("e3_exec_cache_hit_rate"), exec.cache_hit_rate);
                self.gauge_set(
                    &plain("e3_exec_worker_utilization"),
                    exec.worker_utilization,
                );
                if let Some(&depth) = exec.queue_depths.iter().max() {
                    self.gauge_set(&plain("e3_exec_queue_depth_max"), depth as f64);
                }
                for &seconds in &exec.shard_seconds {
                    self.histogram_observe(&plain("e3_exec_shard_seconds"), seconds);
                }
                self.histogram_observe(&plain("e3_exec_wall_seconds"), exec.wall_seconds);
            }
            TelemetryEvent::Jit(jit) => {
                self.counter_add(&plain("e3_jit_plans_compiled_total"), jit.compiled);
                self.counter_add(&plain("e3_jit_bytes_emitted_total"), jit.bytes);
                self.counter_add(&plain("e3_jit_fallbacks_total"), jit.fallbacks);
                self.counter_add(&plain("e3_jit_hot_activations_total"), jit.activations);
                self.gauge_set(&plain("e3_jit_resident_plans"), jit.resident as f64);
                self.histogram_observe(&plain("e3_jit_compile_seconds"), jit.compile_seconds);
            }
            TelemetryEvent::Generation(generation) => {
                self.counter_add(&plain("e3_generations_total"), 1);
                self.gauge_set(&plain("e3_species"), generation.species as f64);
                self.gauge_set(&plain("e3_modeled_seconds"), generation.modeled_seconds);
            }
            TelemetryEvent::Checkpoint(checkpoint) => {
                self.counter_add(&plain("e3_store_snapshots_written_total"), 1);
                self.counter_add(&plain("e3_store_bytes_written_total"), checkpoint.bytes);
                self.gauge_set(
                    &plain("e3_store_latest_generation"),
                    checkpoint.generation as f64,
                );
            }
            TelemetryEvent::Resume(resume) => {
                self.counter_add(&plain("e3_store_recoveries_total"), 1);
                self.counter_add(
                    &plain("e3_store_corrupt_skipped_total"),
                    resume.skipped_corrupt as u64,
                );
            }
            TelemetryEvent::Island(island) => {
                let index = island.island.to_string();
                self.counter_add(&with("e3_island_generations_total", "island", &index), 1);
                self.gauge_set(
                    &with("e3_island_generation", "island", &index),
                    island.generation as f64,
                );
                self.gauge_set(
                    &with("e3_island_best_fitness", "island", &index),
                    island.best_ever,
                );
                self.gauge_set(
                    &with("e3_island_species", "island", &index),
                    island.species as f64,
                );
                self.gauge_set(
                    &with("e3_island_retired", "island", &index),
                    if island.retired { 1.0 } else { 0.0 },
                );
            }
            TelemetryEvent::Migration(migration) => {
                let index = migration.island.to_string();
                self.counter_add(&with("e3_migrations_total", "island", &index), 1);
                self.counter_add(
                    &with("e3_immigrants_total", "island", &index),
                    migration.immigrants as u64,
                );
            }
            TelemetryEvent::Generalization(gen) => {
                self.counter_add(&plain("e3_generalization_passes_total"), 1);
                self.gauge_set(&plain("e3_generalization_train_fitness"), gen.train_fitness);
                self.gauge_set(
                    &plain("e3_generalization_holdout_fitness"),
                    gen.holdout_fitness,
                );
                self.gauge_set(&plain("e3_generalization_gap"), gen.gap);
                self.gauge_set(&plain("e3_generalization_spread"), gen.holdout_std);
            }
            TelemetryEvent::Summary(summary) => {
                self.counter_add(&plain("e3_runs_total"), 1);
                self.gauge_set(&plain("e3_solved"), if summary.solved { 1.0 } else { 0.0 });
                if let Some(joules) = summary.energy_joules {
                    self.gauge_set(&plain("e3_energy_joules"), joules);
                }
            }
            TelemetryEvent::Utilization(report) => {
                self.counter_add(&plain("e3_inax_dma_bytes_total"), report.dma_bytes);
                self.gauge_set(
                    &plain("e3_inax_weight_buffer_hwm_bytes"),
                    report.weight_buffer_hwm_bytes as f64,
                );
                self.gauge_set(
                    &plain("e3_inax_value_buffer_hwm_slots"),
                    report.value_buffer_hwm_slots as f64,
                );
                for row in &report.per_pu {
                    let index = row.pu.to_string();
                    self.counter_add(
                        &with("e3_pu_busy_cycles_total", "pu", &index),
                        row.busy_cycles,
                    );
                    self.counter_add(
                        &with("e3_pu_idle_cycles_total", "pu", &index),
                        row.idle_cycles,
                    );
                    self.counter_add(
                        &with("e3_pu_stall_cycles_total", "pu", &index),
                        row.stall_cycles,
                    );
                }
                for row in &report.per_pe {
                    let index = row.pe.to_string();
                    self.counter_add(
                        &with("e3_pe_busy_cycles_total", "pe", &index),
                        row.busy_cycles,
                    );
                    self.counter_add(
                        &with("e3_pe_idle_cycles_total", "pe", &index),
                        row.idle_cycles,
                    );
                }
            }
        }
    }

    /// Prometheus text exposition of every metric in the registry.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut typed: BTreeMap<&str, &str> = BTreeMap::new();
        for name in self.counters.keys() {
            typed.entry(base_name(name)).or_insert("counter");
        }
        for name in self.gauges.keys() {
            typed.entry(base_name(name)).or_insert("gauge");
        }
        for name in self.histograms.keys() {
            typed.entry(base_name(name)).or_insert("histogram");
        }
        let mut type_written: std::collections::BTreeSet<String> = Default::default();
        let mut write_type = |out: &mut String, name: &str| {
            let base = base_name(name);
            if !type_written.contains(base) {
                let kind = typed.get(base).copied().unwrap_or("untyped");
                let _ = writeln!(out, "# TYPE {base} {kind}");
                type_written.insert(base.to_string());
            }
        };
        for (name, value) in &self.counters {
            write_type(&mut out, name);
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            write_type(&mut out, name);
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, hist) in &self.histograms {
            write_type(&mut out, name);
            for (bound, cumulative) in hist.cumulative() {
                if bound.is_infinite() {
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                } else {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                }
            }
            let _ = writeln!(out, "{name}_sum {}", hist.sum());
            let _ = writeln!(out, "{name}_count {}", hist.count());
        }
        out
    }

    /// A human-readable end-of-run table of every metric.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|name| name.len())
            .max()
            .unwrap_or(6)
            .max(6);
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<width$}  {:>14}", "counter", "value");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name:<width$}  {value:>14}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "{:<width$}  {:>14}", "gauge", "value");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "{name:<width$}  {value:>14.6}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<width$}  {:>10}  {:>14}  {:>14}",
                "histogram", "count", "mean", "max"
            );
            for (name, hist) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{name:<width$}  {:>10}  {:>14.6}  {:>14.6}",
                    hist.count(),
                    hist.mean(),
                    hist.max()
                );
            }
        }
        out
    }
}

/// The metric name up to (not including) any `{label}` suffix.
fn base_name(name: &str) -> &str {
    match name.find('{') {
        Some(index) => &name[..index],
        None => name,
    }
}

/// Tees every event through a [`MetricsRegistry`] before forwarding it
/// to the wrapped collector. Purely additive: the inner collector sees
/// the exact same event stream it would without the wrapper.
#[derive(Debug)]
pub struct MeteredCollector<C> {
    inner: C,
    registry: MetricsRegistry,
}

impl<C> MeteredCollector<C> {
    /// Wraps `inner`, starting from an empty registry.
    pub fn new(inner: C) -> Self {
        MeteredCollector {
            inner,
            registry: MetricsRegistry::new(),
        }
    }

    /// Unwraps into the inner collector and the registry.
    pub fn into_parts(self) -> (C, MetricsRegistry) {
        (self.inner, self.registry)
    }
}

impl<C: Collector> Collector for MeteredCollector<C> {
    fn record(&mut self, event: &TelemetryEvent) -> Result<(), TelemetryError> {
        self.registry.observe(event);
        self.inner.record(event)
    }

    fn flush(&mut self) -> Result<(), TelemetryError> {
        self.inner.flush()
    }
}

/// A clonable, thread-safe handle to one [`MetricsRegistry`] — the
/// live registry a daemon shares between the runs that update it and
/// the observability plane that scrapes it. Every clone points at the
/// same registry; updates are visible to all holders immediately.
///
/// Lock discipline: every method takes the lock for one short,
/// non-blocking operation (a map update, the live sources, or a text
/// render), so a slow scraper can never hold up a recording run for
/// longer than one exposition dump.
#[derive(Clone, Default)]
pub struct SharedRegistry {
    inner: Arc<Mutex<Shared>>,
}

/// Writes gauges into the registry; the flag is `false` on the last
/// call, when its [`LiveSource`] handle drops.
type Source = Box<dyn Fn(&mut MetricsRegistry, bool) + Send>;

#[derive(Default)]
struct Shared {
    metrics: MetricsRegistry,
    sources: BTreeMap<String, Source>,
}

impl std::fmt::Debug for SharedRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedRegistry").finish_non_exhaustive()
    }
}

impl SharedRegistry {
    /// A handle to a fresh, empty registry.
    pub fn new() -> Self {
        SharedRegistry::default()
    }

    /// `MetricsRegistry::observe_scoped` under the lock.
    pub fn observe_scoped(&self, scope: &[(&str, &str)], event: &TelemetryEvent) {
        self.lock().metrics.observe_scoped(scope, event);
    }

    /// Registers `source` under `key` (replacing any source there) so
    /// that gauges mirroring live state are read at scrape time:
    /// [`SharedRegistry::prometheus_text`] calls `source(metrics, true)`
    /// under the registry lock before it renders, so it must not block.
    /// Dropping the returned handle calls `source(metrics, false)` once
    /// and drops the source with everything it captured.
    pub fn live_source(
        &self,
        key: &str,
        source: impl Fn(&mut MetricsRegistry, bool) + Send + 'static,
    ) -> LiveSource {
        self.lock()
            .sources
            .insert(key.to_string(), Box::new(source));
        LiveSource {
            registry: self.clone(),
            key: key.to_string(),
        }
    }

    /// Prometheus text exposition of the current state, after every
    /// live source has written its gauges.
    pub fn prometheus_text(&self) -> String {
        let mut shared = self.lock();
        let Shared { metrics, sources } = &mut *shared;
        for source in sources.values() {
            source(metrics, true);
        }
        metrics.prometheus_text()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Shared> {
        // A poisoned registry still holds valid metric maps (every
        // update is a single map operation), so keep serving.
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Keeps a [`SharedRegistry::live_source`] registered; see there.
#[derive(Debug)]
#[must_use = "dropping the handle removes the live source"]
pub struct LiveSource {
    registry: SharedRegistry,
    key: String,
}

impl Drop for LiveSource {
    fn drop(&mut self) {
        let mut shared = self.registry.lock();
        if let Some(source) = shared.sources.remove(&self.key) {
            source(&mut shared.metrics, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MetricsRegistry {
        /// Current value of a counter (0 if never touched).
        fn counter(&self, name: &str) -> u64 {
            self.counters.get(name).copied().unwrap_or(0)
        }

        /// Current value of a gauge, if set.
        fn gauge(&self, name: &str) -> Option<f64> {
            self.gauges.get(name).copied()
        }

        /// A histogram by name, if any observation was recorded.
        fn histogram(&self, name: &str) -> Option<&Histogram> {
            self.histograms.get(name)
        }
    }

    impl SharedRegistry {
        /// Runs `f` with exclusive access to the registry.
        fn with<T>(&self, f: impl FnOnce(&mut MetricsRegistry) -> T) -> T {
            f(&mut self.lock().metrics)
        }
    }
    use crate::{
        CheckpointRecord, EvalRecord, ExecRecord, HwCounters, MemoryCollector, PeCycleRow,
        PuCycleRow, ResumeRecord, RunSummary, UtilizationReport,
    };

    #[test]
    fn histogram_buckets_observations_by_log2() {
        let mut hist = Histogram::default();
        hist.observe(0.5);
        hist.observe(0.5);
        hist.observe(3.0);
        hist.observe(1e20); // overflow bucket
        assert_eq!(hist.count(), 4);
        assert!((hist.sum() - (0.5 + 0.5 + 3.0 + 1e20)).abs() < 1e6);
        assert_eq!(hist.max(), 1e20);
        let cumulative = hist.cumulative();
        let last = cumulative.last().unwrap();
        assert!(last.0.is_infinite());
        assert_eq!(last.1, 4);
        // 0.5 lands at le=0.5, 3.0 at le=4.
        assert!(cumulative.contains(&(0.5, 2)));
        assert!(cumulative.contains(&(4.0, 3)));
    }

    #[test]
    fn prometheus_text_groups_labeled_series_under_one_type_line() {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("e3_pu_busy_cycles_total{pu=\"0\"}", 10);
        registry.counter_add("e3_pu_busy_cycles_total{pu=\"1\"}", 20);
        registry.gauge_set("e3_solved", 1.0);
        registry.histogram_observe("e3_eval_seconds", 0.25);
        let text = registry.prometheus_text();
        assert_eq!(
            text.matches("# TYPE e3_pu_busy_cycles_total counter")
                .count(),
            1
        );
        assert!(text.contains("e3_pu_busy_cycles_total{pu=\"0\"} 10"));
        assert!(text.contains("e3_pu_busy_cycles_total{pu=\"1\"} 20"));
        assert!(text.contains("# TYPE e3_solved gauge"));
        assert!(text.contains("# TYPE e3_eval_seconds histogram"));
        assert!(text.contains("e3_eval_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("e3_eval_seconds_count 1"));
    }

    #[test]
    fn observe_maps_every_event_kind() {
        let mut registry = MetricsRegistry::new();
        registry.observe(&TelemetryEvent::Eval(EvalRecord {
            total_steps: 500,
            best_fitness: 9.0,
            hw: Some(HwCounters {
                total_cycles: 1000,
                ..Default::default()
            }),
            ..Default::default()
        }));
        registry.observe(&TelemetryEvent::Exec(ExecRecord {
            steal_count: 3,
            cache_hits: 7,
            cache_misses: 2,
            cache_entries: 12,
            cache_evictions: 4,
            queue_depths: vec![2, 5, 1],
            shard_seconds: vec![0.1, 0.2],
            ..Default::default()
        }));
        registry.observe(&TelemetryEvent::Jit(crate::JitRecord {
            generation: 3,
            compiled: 5,
            bytes: 9000,
            compile_seconds: 0.002,
            fallbacks: 1,
            activations: 4400,
            resident: 5,
            ..Default::default()
        }));
        registry.observe(&TelemetryEvent::Utilization(UtilizationReport {
            per_pu: vec![PuCycleRow {
                pu: 0,
                busy_cycles: 600,
                idle_cycles: 300,
                stall_cycles: 100,
            }],
            per_pe: vec![PeCycleRow {
                pe: 0,
                busy_cycles: 400,
                idle_cycles: 200,
            }],
            dma_bytes: 4096,
            ..Default::default()
        }));
        registry.observe(&TelemetryEvent::Checkpoint(CheckpointRecord {
            generation: 9,
            bytes: 2048,
            ..Default::default()
        }));
        registry.observe(&TelemetryEvent::Checkpoint(CheckpointRecord {
            generation: 10,
            bytes: 1024,
            ..Default::default()
        }));
        registry.observe(&TelemetryEvent::Resume(ResumeRecord {
            generation: 10,
            skipped_corrupt: 2,
            ..Default::default()
        }));
        registry.observe(&TelemetryEvent::Generalization(
            crate::GeneralizationRecord {
                generation: 4,
                train_fitness: 480.0,
                holdout_fitness: 420.0,
                gap: 60.0,
                holdout_std: 12.5,
                ..Default::default()
            },
        ));
        registry.observe(&TelemetryEvent::Summary(RunSummary {
            solved: true,
            ..Default::default()
        }));
        assert_eq!(registry.counter("e3_evals_total"), 1);
        assert_eq!(registry.counter("e3_env_steps_total"), 500);
        assert_eq!(registry.counter("e3_inax_cycles_total"), 1000);
        assert_eq!(registry.counter("e3_exec_steals_total"), 3);
        assert_eq!(registry.counter("e3_exec_cache_hits_total"), 7);
        assert_eq!(registry.counter("e3_exec_cache_misses_total"), 2);
        assert_eq!(registry.counter("e3_exec_cache_evictions_total"), 4);
        assert_eq!(registry.gauge("e3_exec_cache_entries"), Some(12.0));
        assert_eq!(registry.gauge("e3_exec_queue_depth_max"), Some(5.0));
        assert_eq!(
            registry.histogram("e3_exec_shard_seconds").unwrap().count(),
            2
        );
        assert_eq!(registry.counter("e3_pu_busy_cycles_total{pu=\"0\"}"), 600);
        assert_eq!(registry.counter("e3_pe_idle_cycles_total{pe=\"0\"}"), 200);
        assert_eq!(registry.counter("e3_inax_dma_bytes_total"), 4096);
        assert_eq!(registry.gauge("e3_solved"), Some(1.0));
        assert_eq!(registry.counter("e3_runs_total"), 1);
        assert_eq!(registry.counter("e3_store_snapshots_written_total"), 2);
        assert_eq!(registry.counter("e3_store_bytes_written_total"), 3072);
        assert_eq!(registry.counter("e3_store_recoveries_total"), 1);
        assert_eq!(registry.counter("e3_store_corrupt_skipped_total"), 2);
        assert_eq!(registry.gauge("e3_store_latest_generation"), Some(10.0));
        assert_eq!(registry.counter("e3_generalization_passes_total"), 1);
        assert_eq!(
            registry.gauge("e3_generalization_train_fitness"),
            Some(480.0)
        );
        assert_eq!(
            registry.gauge("e3_generalization_holdout_fitness"),
            Some(420.0)
        );
        assert_eq!(registry.gauge("e3_generalization_gap"), Some(60.0));
        assert_eq!(registry.gauge("e3_generalization_spread"), Some(12.5));
        assert_eq!(registry.counter("e3_jit_plans_compiled_total"), 5);
        assert_eq!(registry.counter("e3_jit_bytes_emitted_total"), 9000);
        assert_eq!(registry.counter("e3_jit_fallbacks_total"), 1);
        assert_eq!(registry.counter("e3_jit_hot_activations_total"), 4400);
        assert_eq!(registry.gauge("e3_jit_resident_plans"), Some(5.0));
        let compile = registry.histogram("e3_jit_compile_seconds").unwrap();
        assert_eq!(compile.count(), 1);
        assert!((compile.sum() - 0.002).abs() < 1e-12);
        let table = registry.summary_table();
        assert!(table.contains("e3_evals_total"));
        assert!(table.contains("e3_exec_shard_seconds"));
    }

    #[test]
    fn label_values_with_quotes_backslashes_and_newlines_are_escaped() {
        assert_eq!(
            escape_label_value("say \"hi\"\\path\nnext"),
            "say \\\"hi\\\"\\\\path\\nnext"
        );
        let name = labeled("e3_runs_total", &[("env", "Cart\"Pole\"\n\\v2")]);
        assert_eq!(name, "e3_runs_total{env=\"Cart\\\"Pole\\\"\\n\\\\v2\"}");
        let mut registry = MetricsRegistry::new();
        registry.counter_add(&name, 1);
        let text = registry.prometheus_text();
        // The exposition dump stays one sample per line — the raw
        // newline never leaks through — and the quotes stay balanced.
        assert!(text.contains("e3_runs_total{env=\"Cart\\\"Pole\\\"\\n\\\\v2\"} 1\n"));
        assert_eq!(text.lines().count(), 2, "TYPE line plus one sample");
    }

    #[test]
    fn labeled_with_no_labels_is_the_base_name() {
        assert_eq!(labeled("e3_evals_total", &[]), "e3_evals_total");
    }

    #[test]
    fn observe_scoped_prefixes_every_metric_with_the_scope() {
        let mut registry = MetricsRegistry::new();
        let scope = [("run", "run-0003")];
        registry.observe_scoped(&scope, &TelemetryEvent::Summary(RunSummary::default()));
        registry.observe_scoped(
            &scope,
            &TelemetryEvent::Island(crate::IslandRecord {
                island: 1,
                generation: 7,
                best_ever: 42.0,
                ..Default::default()
            }),
        );
        assert_eq!(registry.counter("e3_runs_total{run=\"run-0003\"}"), 1);
        assert_eq!(
            registry.counter("e3_island_generations_total{run=\"run-0003\",island=\"1\"}"),
            1
        );
        assert_eq!(
            registry.gauge("e3_island_generation{run=\"run-0003\",island=\"1\"}"),
            Some(7.0)
        );
        assert_eq!(
            registry.gauge("e3_island_best_fitness{run=\"run-0003\",island=\"1\"}"),
            Some(42.0)
        );
        // Unscoped names stay untouched.
        assert_eq!(registry.counter("e3_runs_total"), 0);
    }

    #[test]
    fn shared_registry_clones_point_at_one_registry() {
        let shared = SharedRegistry::new();
        assert!(shared.with(|registry| registry.is_empty()));
        let clone = shared.clone();
        clone.observe_scoped(&[], &TelemetryEvent::Summary(RunSummary::default()));
        shared.with(|registry| registry.gauge_set("e3_pool_evals_in_flight", 3.0));
        let snapshot = shared.with(|registry| registry.clone());
        assert_eq!(snapshot.counter("e3_runs_total"), 1);
        assert_eq!(snapshot.gauge("e3_pool_evals_in_flight"), Some(3.0));
        assert!(shared.prometheus_text().contains("e3_runs_total 1"));
    }

    #[test]
    fn metered_collector_forwards_the_identical_stream() {
        let mut metered = MeteredCollector::new(MemoryCollector::new());
        let event = TelemetryEvent::Summary(RunSummary::default());
        metered.record(&event).unwrap();
        metered.flush().unwrap();
        let (inner, registry) = metered.into_parts();
        assert_eq!(inner.events(), std::slice::from_ref(&event));
        assert_eq!(registry.counter("e3_runs_total"), 1);
    }
}
