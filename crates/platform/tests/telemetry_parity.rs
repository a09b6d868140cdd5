//! Telemetry must be write-only: installing any collector yields
//! bit-identical runs, and the NDJSON schema stays stable.

use e3_envs::EnvId;
use e3_platform::telemetry::{Collector, MemoryCollector, NdjsonWriter, TelemetryEvent, Tracer};
use e3_platform::{
    Backend, BackendKind, CheckpointPolicy, E3Config, E3Platform, EvalError, RunError,
    ScenarioSpec, SwCostModel,
};
use proptest::prelude::*;

/// Cheap environments so the property runs many cases quickly.
const ENVS: [EnvId; 3] = [EnvId::CartPole, EnvId::MountainCar, EnvId::Pendulum];

fn quick_config(env: EnvId) -> E3Config {
    E3Config::builder(env)
        .population_size(24)
        .max_generations(3)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn any_collector_leaves_the_run_bit_identical(
        env_index in 0usize..3,
        backend_index in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let env = ENVS[env_index];
        let kind = BackendKind::ALL[backend_index];

        let plain = E3Platform::new(quick_config(env), kind, seed)
            .run()
            .expect("quick populations are feed-forward");
        let mut memory = MemoryCollector::new();
        let observed = E3Platform::new(quick_config(env), kind, seed)
            .run_with(&mut memory)
            .expect("quick populations are feed-forward");
        let mut ndjson = NdjsonWriter::new(Vec::new());
        let streamed = E3Platform::new(quick_config(env), kind, seed)
            .run_with(&mut ndjson)
            .expect("quick populations are feed-forward");

        // Bit-identical fitness trajectory and modeled timing,
        // whichever sink is installed.
        prop_assert_eq!(&plain, &observed);
        prop_assert_eq!(&plain, &streamed);

        // The captured telemetry agrees with the outcome it observed.
        let summary = memory.summaries().last().expect("run emits a summary");
        prop_assert_eq!(summary.generations, plain.generations_run);
        prop_assert_eq!(summary.best_fitness, plain.best_fitness);
        prop_assert_eq!(summary.modeled_seconds, plain.modeled_seconds);
        prop_assert_eq!(summary.solved, plain.solved);
        prop_assert_eq!(summary.backend.as_str(), kind.name());
        prop_assert_eq!(memory.generations().count(), plain.generations_run);
        prop_assert_eq!(memory.evals().count(), plain.generations_run);
        let trace: Vec<f64> = memory.generations().map(|g| g.best_fitness).collect();
        let expected: Vec<f64> = plain.trace.iter().map(|t| t.1).collect();
        prop_assert_eq!(trace, expected);
    }

    /// Span tracing must be write-only exactly like collectors: a run
    /// with an enabled tracer produces the same fitness trajectory,
    /// timing, and accounting as the untraced `NullCollector` run —
    /// and the recorded spans are well-formed (completion-ordered end
    /// times, the property `trace_check` validates on exported files).
    #[test]
    fn tracing_leaves_the_run_bit_identical(
        env_index in 0usize..3,
        backend_index in 0usize..3,
        seed in 0u64..1_000,
        threads in 1usize..4,
    ) {
        let env = ENVS[env_index];
        let kind = BackendKind::ALL[backend_index];

        let plain = E3Platform::new(quick_config(env), kind, seed)
            .run()
            .expect("quick populations are feed-forward");
        let tracer = Tracer::enabled();
        let mut config = quick_config(env);
        config.threads = threads;
        let mut traced_platform = E3Platform::new(config, kind, seed);
        traced_platform.set_tracer(tracer.clone());
        let traced = traced_platform
            .run()
            .expect("quick populations are feed-forward");

        prop_assert_eq!(&plain, &traced);
        let spans = tracer.spans();
        prop_assert!(!spans.is_empty(), "enabled tracer records spans");
        let mut prev_end = 0u64;
        for span in &spans {
            let end = span.start_us + span.dur_us;
            prop_assert!(end >= prev_end, "spans are completion-ordered");
            prev_end = end;
        }
        prop_assert_eq!(
            spans.iter().filter(|s| s.name == "run").count(), 1,
            "exactly one run span"
        );
        prop_assert_eq!(
            spans.iter().filter(|s| s.name == "generation").count(),
            plain.generations_run,
            "one generation span per generation"
        );
    }
}

/// Validates every line of an NDJSON stream against the pinned wire
/// format and returns the record kinds in stream order.
fn validate_ndjson_stream(text: &str) -> Vec<&'static str> {
    let lines: Vec<&str> = text.lines().collect();
    let mut kinds = Vec::new();
    for line in &lines {
        let value: serde_json::Value = serde_json::from_str(line).expect("valid JSON per line");
        if let Some(eval) = value.get("Eval") {
            for key in [
                "generation",
                "backend",
                "env",
                "population",
                "eval_seconds",
                "env_seconds",
                "total_steps",
                "best_fitness",
                "mean_fitness",
                "hw",
            ] {
                assert!(eval.get(key).is_some(), "Eval record missing {key}: {line}");
            }
            let hw = eval.get("hw").unwrap();
            for key in [
                "total_cycles",
                "pe_active_cycles",
                "pu_utilization",
                "steps",
            ] {
                assert!(hw.get(key).is_some(), "HwCounters missing {key}");
            }
            kinds.push("Eval");
        } else if let Some(generation) = value.get("Generation") {
            for key in [
                "generation",
                "backend",
                "env",
                "best_fitness",
                "species",
                "modeled_seconds",
                "split",
            ] {
                assert!(
                    generation.get(key).is_some(),
                    "Generation record missing {key}"
                );
            }
            kinds.push("Generation");
        } else if let Some(exec) = value.get("Exec") {
            for key in [
                "generation",
                "backend",
                "workers",
                "shards",
                "shard_seconds",
                "steal_count",
                "cache_hits",
                "cache_misses",
                "cache_entries",
                "cache_evictions",
                "cache_hit_rate",
                "worker_utilization",
                "queue_depths",
                "wall_seconds",
            ] {
                assert!(exec.get(key).is_some(), "Exec record missing {key}: {line}");
            }
            kinds.push("Exec");
        } else if let Some(util) = value.get("Utilization") {
            for key in ["backend", "env", "total_cycles", "breakdown"] {
                assert!(
                    util.get(key).is_some(),
                    "Utilization record missing {key}: {line}"
                );
            }
            let util = util.get("breakdown").unwrap();
            for key in [
                "per_pu",
                "per_pe",
                "weight_buffer_hwm_bytes",
                "value_buffer_hwm_slots",
                "dma_bytes",
            ] {
                assert!(
                    util.get(key).is_some(),
                    "Utilization breakdown missing {key}: {line}"
                );
            }
            let row = util
                .get("per_pu")
                .unwrap()
                .as_array()
                .expect("per_pu is an array")
                .first()
                .expect("at least one PU row");
            for key in ["busy", "idle", "stall"] {
                assert!(row.get(key).is_some(), "PuCycles missing {key}");
            }
            let row = util
                .get("per_pe")
                .unwrap()
                .as_array()
                .expect("per_pe is an array")
                .first()
                .expect("at least one PE row");
            for key in ["busy", "idle"] {
                assert!(row.get(key).is_some(), "PeLaneCycles missing {key}");
            }
            kinds.push("Utilization");
        } else if let Some(checkpoint) = value.get("Checkpoint") {
            for key in [
                "generation",
                "backend",
                "env",
                "path",
                "bytes",
                "best_fitness",
            ] {
                assert!(
                    checkpoint.get(key).is_some(),
                    "Checkpoint record missing {key}: {line}"
                );
            }
            assert!(
                checkpoint.get("bytes").unwrap().as_u64().unwrap_or(0) > 0,
                "checkpoints report their on-disk size"
            );
            kinds.push("Checkpoint");
        } else if let Some(resume) = value.get("Resume") {
            for key in ["generation", "backend", "env", "path", "skipped_corrupt"] {
                assert!(
                    resume.get(key).is_some(),
                    "Resume record missing {key}: {line}"
                );
            }
            kinds.push("Resume");
        } else if let Some(generalization) = value.get("Generalization") {
            for key in [
                "generation",
                "backend",
                "env",
                "train_fitness",
                "holdout_fitness",
                "holdout_scenarios",
                "holdout_min",
                "holdout_max",
                "holdout_std",
                "gap",
            ] {
                assert!(
                    generalization.get(key).is_some(),
                    "Generalization record missing {key}: {line}"
                );
            }
            assert!(
                generalization
                    .get("holdout_scenarios")
                    .unwrap()
                    .as_u64()
                    .unwrap_or(0)
                    > 0,
                "generalization passes sample at least one scenario"
            );
            kinds.push("Generalization");
        } else if let Some(summary) = value.get("Summary") {
            for key in [
                "backend",
                "env",
                "generations",
                "solved",
                "best_fitness",
                "modeled_seconds",
                "speedup_vs_cpu",
                "energy_joules",
                "split",
            ] {
                assert!(summary.get(key).is_some(), "Summary record missing {key}");
            }
            assert!(
                summary
                    .get("energy_joules")
                    .unwrap()
                    .as_f64()
                    .unwrap_or(0.0)
                    > 0.0,
                "platform runs report modeled energy"
            );
            kinds.push("Summary");
        } else {
            panic!("unknown record kind: {line}");
        }

        // Every line round-trips through the typed event.
        let event: TelemetryEvent = serde_json::from_str(line).unwrap();
        assert_eq!(serde_json::from_str::<serde_json::Value>(line).unwrap(), {
            let json = serde_json::to_string(&event).unwrap();
            serde_json::from_str::<serde_json::Value>(&json).unwrap()
        });
    }
    kinds
}

/// Pins the NDJSON wire format: record kinds, required keys, the
/// presence of hardware counters on INAX evaluations, and the
/// checkpoint/resume records a persisted run adds to the stream.
#[test]
fn ndjson_schema_is_stable() {
    let dir = std::env::temp_dir().join(format!("e3-ndjson-schema-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = quick_config(EnvId::CartPole);
    config.checkpoint = Some(CheckpointPolicy::new(dir.to_string_lossy().into_owned()).every(1));

    let mut sink = NdjsonWriter::new(Vec::new());
    E3Platform::new(config.clone(), BackendKind::Inax, 7)
        .run_with(&mut sink)
        .unwrap();
    let text = String::from_utf8(sink.into_inner()).unwrap();
    assert!(
        text.lines().count() >= 3,
        "at least eval + generation + summary"
    );
    let kinds = validate_ndjson_stream(&text);

    assert_eq!(kinds.last(), Some(&"Summary"), "summary closes the stream");
    assert_eq!(kinds.iter().filter(|k| **k == "Summary").count(), 1);
    assert_eq!(
        kinds.iter().filter(|k| **k == "Utilization").count(),
        1,
        "INAX runs emit exactly one utilization record"
    );
    assert_eq!(
        kinds[kinds.len() - 2],
        "Utilization",
        "utilization precedes the summary"
    );
    // `every(1)` checkpoints once per generation, right after the
    // Generation record.
    assert_eq!(
        kinds.iter().filter(|k| **k == "Checkpoint").count(),
        kinds.iter().filter(|k| **k == "Generation").count(),
        "one checkpoint per generation at every(1)"
    );
    for pair in kinds.windows(2) {
        if pair[1] == "Checkpoint" {
            assert_eq!(pair[0], "Generation", "checkpoints follow generations");
        }
    }
    assert!(!kinds.contains(&"Resume"), "a fresh run never resumes");

    // The resumed stream opens with a Resume record and closes with
    // the same Summary an uninterrupted run would emit.
    let mut resumed_sink = NdjsonWriter::new(Vec::new());
    E3Platform::resume(config, BackendKind::Inax, 7)
        .unwrap()
        .expect("checkpoints on disk")
        .run_with(&mut resumed_sink)
        .unwrap();
    let resumed_text = String::from_utf8(resumed_sink.into_inner()).unwrap();
    let resumed_kinds = validate_ndjson_stream(&resumed_text);
    assert_eq!(
        resumed_kinds.first(),
        Some(&"Resume"),
        "resume opens the stream"
    );
    assert_eq!(resumed_kinds.last(), Some(&"Summary"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Pins the `Generalization` record on the wire: a run with a held-out
/// distribution streams one schema-valid record per holdout cadence
/// tick, placed between the Exec and Generation records of its
/// generation, and the rest of the stream keeps its shape.
#[test]
fn ndjson_schema_covers_generalization_records() {
    use e3_envs::ScenarioDistribution;
    use e3_platform::{HoldoutConfig, ScenarioConfig};

    let mut config = quick_config(EnvId::CartPole);
    config.scenario = ScenarioConfig::default()
        .train(ScenarioDistribution::moderate())
        .scenarios_per_eval(2)
        .holdout(HoldoutConfig::new(ScenarioDistribution::shifted()).scenarios(4));

    let mut sink = NdjsonWriter::new(Vec::new());
    E3Platform::new(config, BackendKind::Inax, 7)
        .run_with(&mut sink)
        .unwrap();
    let text = String::from_utf8(sink.into_inner()).unwrap();
    let kinds = validate_ndjson_stream(&text);

    let generalizations = kinds.iter().filter(|k| **k == "Generalization").count();
    let generations = kinds.iter().filter(|k| **k == "Generation").count();
    assert_eq!(
        generalizations, generations,
        "default cadence emits one generalization pass per generation"
    );
    for window in kinds.windows(2) {
        if window[1] == "Generalization" {
            assert_eq!(
                window[0], "Exec",
                "generalization follows the generation's exec record"
            );
        }
    }
    assert_eq!(kinds.last(), Some(&"Summary"), "summary closes the stream");
}

/// A recurrent genome is reported as a typed error end-to-end through
/// `E3Platform::run`, not a panic (regression test for the fallible
/// backend API).
#[test]
fn recurrent_genome_surfaces_as_run_error() {
    use e3_neat::{InnovationTracker, NodeKind};

    let platform = E3Platform::new(quick_config(EnvId::CartPole), BackendKind::Cpu, 2);
    let genome = platform.population().genomes()[0].clone();
    let mut cyclic = genome;
    let mut tracker = InnovationTracker::with_reserved_nodes(cyclic.nodes().len());
    let output = cyclic
        .nodes()
        .iter()
        .find(|n| n.kind == NodeKind::Output)
        .expect("genome has an output node")
        .id;
    cyclic
        .add_connection_unchecked(output, output, 0.5, &mut tracker)
        .expect("self-loop is structurally new");

    let mut backend = Backend::cpu(SwCostModel::default());
    let err = backend
        .evaluate(&[cyclic], EnvId::CartPole, &ScenarioSpec::fixed(0, 1))
        .expect_err("cycle must be rejected");
    match err {
        EvalError::NotFeedForward { genome_index, .. } => assert_eq!(genome_index, 0),
        other => panic!("expected NotFeedForward, got {other:?}"),
    }
    // And the platform-level wrapper carries it as RunError::Eval.
    let run_err = RunError::from(err);
    assert!(matches!(
        run_err,
        RunError::Eval(EvalError::NotFeedForward { .. })
    ));
}

/// Forwarding through `&mut dyn Collector` and nested collectors keeps
/// event order.
#[test]
fn collector_forwarding_preserves_order() {
    let mut inner = MemoryCollector::new();
    {
        let mut via_ref: &mut dyn Collector = &mut inner;
        E3Platform::new(quick_config(EnvId::Pendulum), BackendKind::Gpu, 13)
            .run_with(&mut via_ref)
            .unwrap();
    }
    let kinds: Vec<&str> = inner
        .events()
        .iter()
        .map(|event| match event {
            TelemetryEvent::Eval(_) => "eval",
            TelemetryEvent::Exec(_) => "exec",
            TelemetryEvent::Jit(_) => "jit",
            TelemetryEvent::Generation(_) => "generation",
            TelemetryEvent::Utilization(_) => "utilization",
            TelemetryEvent::Checkpoint(_) => "checkpoint",
            TelemetryEvent::Resume(_) => "resume",
            TelemetryEvent::Island(_) => "island",
            TelemetryEvent::Migration(_) => "migration",
            TelemetryEvent::Generalization(_) => "generalization",
            TelemetryEvent::Summary(_) => "summary",
        })
        .collect();
    assert!(kinds.len() >= 4);
    assert_eq!(kinds.last(), Some(&"summary"));
    for triple in kinds[..kinds.len() - 1].chunks(3) {
        assert_eq!(
            triple,
            ["eval", "exec", "generation"],
            "each generation emits eval, exec, generation in order"
        );
    }
}
