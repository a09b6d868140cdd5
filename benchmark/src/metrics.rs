//! The metric tables: every name the benchmark reports, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` is
//! generated from these tables.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Measured with tracing off. Every bound is the contract's maximum:
/// on the sizing host the same seed's `gen_ms_p50` moves by 6 % (one
/// pool worker) to 16 % (two) between back-to-back runs, and the host
/// has slow stretches of minutes that add 15-45 %; see the README.
pub const END_TO_END: [EndToEndMetric; 3] = [
    EndToEndMetric {
        name: "env_steps_per_s",
        unit: "steps/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "gen_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric (traced run only; no bound).
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerMetric {
    LayerMetric { name, unit, better }
}

use Better::{Higher, Lower};

/// Layers are the crates. For exact counts (sizes, steps, simulated
/// cycles, modeled seconds) the direction is nominal: they must not
/// move at all in a change that only claims host speed.
pub const PER_LAYER: [LayerMetric; 60] = [
    layer("platform.gen_ms_p90", "ms", Lower),
    layer("platform.eval_ms_p50", "ms", Lower),
    layer("platform.evolve_ms_p50", "ms", Lower),
    layer("platform.eval_outside_exec_ms_p50", "ms", Lower),
    layer("platform.eval_probe_estimate_ms", "ms", Lower),
    layer("platform.eval_unattributed_pct", "%", Lower),
    layer("platform.construct_ms", "ms", Lower),
    layer("platform.modeled_s_total", "s", Lower),
    layer("exec.wall_ms_p50", "ms", Lower),
    layer("exec.worker_utilization", "ratio", Higher),
    layer("exec.shard_imbalance", "ratio", Lower),
    layer("exec.steals_per_gen", "count", Lower),
    layer("exec.queue_depth_max", "count", Lower),
    layer("exec.cache_hit_rate", "ratio", Higher),
    layer("exec.cache_evictions_per_gen", "count", Lower),
    layer("neat.compile_us_per_genome", "us", Lower),
    layer("neat.fingerprint_ns_per_genome", "ns", Lower),
    layer("neat.activate_ns", "ns", Lower),
    layer("neat.batch_build_us_per_pop", "us", Lower),
    layer("neat.batch_activate_ns_per_lane", "ns", Lower),
    layer("neat.evolve_ms_per_gen", "ms", Lower),
    layer("neat.mean_nodes", "count", Lower),
    layer("neat.mean_enabled_connections", "count", Lower),
    layer("neat.mean_levels", "count", Lower),
    layer("neat.species", "count", Higher),
    layer("envs.step_ns", "ns", Lower),
    layer("envs.batch_step_ns_per_lane", "ns", Lower),
    layer("envs.reset_ns", "ns", Lower),
    layer("envs.steps_per_gen", "count", Higher),
    layer("envs.mean_episode_len", "count", Higher),
    layer("jit.compile_us_per_plan", "us", Lower),
    layer("jit.code_bytes_per_plan", "bytes", Lower),
    layer("jit.native_activate_ns", "ns", Lower),
    layer("jit.native_vs_interp", "ratio", Lower),
    layer("jit.plans_compiled_per_gen", "count", Lower),
    layer("jit.native_fraction", "ratio", Higher),
    layer("jit.fallbacks", "count", Lower),
    layer("jit.resident_plans", "count", Higher),
    layer("inax.sim_cycles_total", "count", Lower),
    layer("inax.pu_utilization", "ratio", Higher),
    layer("inax.pe_utilization", "ratio", Higher),
    layer("inax.sim_cycles_per_host_s", "1/s", Higher),
    layer("inax.host_ns_per_wave", "ns", Lower),
    layer("telemetry.record_us_per_event", "us", Lower),
    layer("telemetry.events_per_gen", "count", Lower),
    layer("telemetry.bytes_per_gen", "bytes", Lower),
    layer("telemetry.spans_per_gen", "count", Lower),
    layer("telemetry.prometheus_text_ms", "ms", Lower),
    layer("store.save_ms_p50", "ms", Lower),
    layer("store.snapshot_bytes", "bytes", Lower),
    layer("store.recover_ms", "ms", Lower),
    layer("islands.gens_per_s_total", "1/s", Higher),
    layer("islands.migrations", "count", Higher),
    layer("islands.gen_ms_spread", "ratio", Lower),
    layer("serve.scrape_ms_p50", "ms", Lower),
    layer("serve.scrape_bytes", "bytes", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.timer_pair_ns", "ns", Lower),
    layer("bench.clock_ghz_p50", "GHz", Higher),
    layer("bench.peak_rss_mb", "MiB", Lower),
];

/// Named values measured by one run, in table order. A name the run
/// did not set reads zero (a layer the workload does not exercise).
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name) || END_TO_END.iter().any(|m| m.name == name),
            "{name} is not in a metric table"
        );
        // A probe that could not run (nothing to divide by) reads zero,
        // never NaN: the result line must stay valid JSON numbers.
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for (i, name) in names.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(!names[..i].contains(name), "{name} is used twice");
        }
        for m in &END_TO_END {
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_unit(m.unit), "{}", m.unit);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn unset_values_read_zero_and_non_finite_values_are_zeroed() {
        let mut values = Values::default();
        values.set("exec.wall_ms_p50", 2.5);
        values.set("exec.wall_ms_p50", 3.5);
        values.set("jit.native_vs_interp", f64::NAN);
        assert_eq!(values.get("exec.wall_ms_p50"), 3.5);
        assert_eq!(values.get("jit.native_vs_interp"), 0.0);
        assert_eq!(values.get("serve.scrape_bytes"), 0.0);
    }
}
