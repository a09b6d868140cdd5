//! Bit-identical resume parity: for every backend and thread count, a
//! run interrupted at a checkpoint and resumed must reproduce the
//! uninterrupted run exactly — same `RunOutcome`, same telemetry
//! `Summary`, same per-generation fitness trajectory.

use e3_envs::EnvId;
use e3_platform::telemetry::{MemoryCollector, RunSummary, TelemetryEvent};
use e3_platform::{
    fingerprint, BackendKind, CheckpointPolicy, E3Config, E3Platform, JitConfig, RunError,
};
use e3_store::{RunStore, StoreError};
use serde::{Serialize, Value};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e3-resume-parity-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn base_config(threads: usize) -> E3Config {
    E3Config::builder(EnvId::CartPole)
        .population_size(20)
        .max_generations(4)
        .target_fitness(f64::INFINITY) // fixed-length run: exercises every generation
        .threads(threads)
        .build()
}

fn summary_of(collector: &MemoryCollector) -> RunSummary {
    collector
        .summaries()
        .next()
        .expect("run emits a summary")
        .clone()
}

/// Fitness-trajectory view of a collector's generation records.
fn trajectory(collector: &MemoryCollector) -> Vec<(usize, f64, f64)> {
    collector
        .generations()
        .map(|g| (g.generation, g.best_fitness, g.mean_fitness))
        .collect()
}

#[test]
fn resume_is_bit_identical_across_backends_and_threads() {
    for backend in BackendKind::ALL {
        for threads in [1usize, 4] {
            let tag = format!("{}-{threads}", backend.name());
            let dir = scratch(&tag);

            // Reference: the uninterrupted run (no checkpointing).
            let mut reference_collector = MemoryCollector::new();
            let reference = E3Platform::new(base_config(threads), backend, 33)
                .run_with(&mut reference_collector)
                .unwrap();

            // Interrupted: checkpoint every generation, crash after 2.
            let mut config = base_config(threads);
            config.checkpoint =
                Some(CheckpointPolicy::new(dir.to_string_lossy().into_owned()).every(1));
            let mut crashed_collector = MemoryCollector::new();
            {
                let mut platform = E3Platform::new(config.clone(), backend, 33);
                platform.step_with(&mut crashed_collector).unwrap();
                platform.step_with(&mut crashed_collector).unwrap();
                // Crash: the platform is dropped without a summary.
            }

            // Resumed: finish the run from the newest snapshot.
            let mut resumed_collector = MemoryCollector::new();
            let resumed_platform = E3Platform::resume(config, backend, 33)
                .unwrap()
                .unwrap_or_else(|| panic!("{tag}: checkpoint must be recoverable"));
            assert_eq!(resumed_platform.generation(), 2, "{tag}");
            let resumed = resumed_platform.run_with(&mut resumed_collector).unwrap();

            // The outcome struct is identical field-for-field: fitness
            // trajectory, modeled seconds, per-function profile,
            // accelerator accounting, complexity statistics.
            assert_eq!(resumed, reference, "{tag}: RunOutcome diverged");

            // The final Summary is identical too.
            assert_eq!(
                summary_of(&resumed_collector),
                summary_of(&reference_collector),
                "{tag}: RunSummary diverged"
            );

            // And the stitched generation stream (crashed portion +
            // resumed portion) matches the uninterrupted stream.
            let mut stitched = trajectory(&crashed_collector);
            stitched.extend(trajectory(&resumed_collector));
            assert_eq!(
                stitched,
                trajectory(&reference_collector),
                "{tag}: fitness trajectory diverged"
            );

            // The resumed stream announces where it picked up.
            let resume_record = resumed_collector
                .resumes()
                .next()
                .unwrap_or_else(|| panic!("{tag}: missing Resume record"));
            assert_eq!(resume_record.generation, 2, "{tag}");
            assert_eq!(resume_record.backend, backend.name(), "{tag}");

            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Resuming at a different thread count than the crashed run still
/// reproduces the reference: the schedule is not part of the state.
#[test]
fn resume_across_thread_counts_is_bit_identical() {
    let dir = scratch("cross-threads");
    let reference = E3Platform::new(base_config(1), BackendKind::Cpu, 12)
        .run()
        .unwrap();

    let mut config = base_config(4);
    config.checkpoint = Some(CheckpointPolicy::new(dir.to_string_lossy().into_owned()));
    {
        let mut platform = E3Platform::new(config.clone(), BackendKind::Cpu, 12);
        platform.step_generation().unwrap();
    }
    // Resume single-threaded what crashed four-threaded.
    let mut config_serial = config.clone();
    config_serial.threads = 1;
    let resumed = E3Platform::resume(config_serial, BackendKind::Cpu, 12)
        .unwrap()
        .expect("checkpoint recoverable across thread counts")
        .run()
        .unwrap();
    assert_eq!(resumed, reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// The execution tier is not part of a run's identity: a run
/// checkpointed with the tier off resumes with it on, and the
/// continuation still reproduces the uninterrupted run bit for bit.
#[test]
fn a_run_checkpointed_without_the_tier_resumes_with_it() {
    let dir = scratch("tier-on");
    let reference = E3Platform::new(base_config(1), BackendKind::Cpu, 21)
        .run()
        .unwrap();

    let mut config = base_config(1);
    config.checkpoint = Some(CheckpointPolicy::new(dir.to_string_lossy().into_owned()));
    {
        let mut platform = E3Platform::new(config.clone(), BackendKind::Cpu, 21);
        platform.step_generation().unwrap();
        platform.step_generation().unwrap();
    }
    config.jit = JitConfig {
        enabled: true,
        hot_threshold: 1,
    };
    let mut telemetry = MemoryCollector::new();
    let resumed = E3Platform::resume(config, BackendKind::Cpu, 21)
        .expect("toggling the tier must not orphan the checkpoint")
        .expect("checkpoint recoverable with the tier on")
        .run_with(&mut telemetry)
        .unwrap();
    assert_eq!(resumed, reference);
    assert!(
        telemetry.jits().count() > 0,
        "the resumed portion ran with the tier on"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The NDJSON event stream of a checkpointed run is a superset of the
/// plain run's stream: removing Checkpoint/Resume records yields the
/// identical event sequence (checkpointing is write-only observation).
#[test]
fn checkpoint_events_are_purely_additive() {
    let dir = scratch("additive");
    let mut plain_collector = MemoryCollector::new();
    E3Platform::new(base_config(1), BackendKind::Inax, 9)
        .run_with(&mut plain_collector)
        .unwrap();

    let mut config = base_config(1);
    config.checkpoint = Some(CheckpointPolicy::new(dir.to_string_lossy().into_owned()).every(2));
    let mut checkpointed_collector = MemoryCollector::new();
    E3Platform::new(config, BackendKind::Inax, 9)
        .run_with(&mut checkpointed_collector)
        .unwrap();

    // Exec records carry wall-clock scheduling measurements that vary
    // run to run by design; zero them so only deterministic content is
    // compared.
    let normalize = |events: &[TelemetryEvent]| -> Vec<TelemetryEvent> {
        events
            .iter()
            .filter(|event| {
                !matches!(
                    event,
                    TelemetryEvent::Checkpoint(_) | TelemetryEvent::Resume(_)
                )
            })
            .cloned()
            .map(|event| match event {
                TelemetryEvent::Exec(mut exec) => {
                    exec.shard_seconds.clear();
                    exec.wall_seconds = 0.0;
                    exec.worker_utilization = 0.0;
                    TelemetryEvent::Exec(exec)
                }
                other => other,
            })
            .collect()
    };
    assert_eq!(
        normalize(checkpointed_collector.events()),
        normalize(plain_collector.events())
    );
    assert_eq!(checkpointed_collector.checkpoints().count(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// The value of `key` in the object `value`.
fn field<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(fields) = value else {
        panic!("the parent of `{key}` is not an object");
    };
    fields
        .iter_mut()
        .find(|(name, _)| name == key)
        .map(|(_, found)| found)
        .unwrap_or_else(|| panic!("no field `{key}`"))
}

/// The store decodes only the shape it writes: a snapshot whose
/// population lacks its RNG state cannot continue the run's random
/// stream, so resuming from it is a typed decode error rather than a
/// run on a reseeded stream.
#[test]
fn a_snapshot_without_rng_state_fails_to_resume() {
    let dir = scratch("no-rng-state");
    let mut config = base_config(1);
    config.checkpoint = Some(CheckpointPolicy::new(dir.to_string_lossy().into_owned()));
    let mut platform = E3Platform::new(config.clone(), BackendKind::Cpu, 5);
    platform.step_generation().unwrap();
    platform.step_generation().unwrap();

    let mut state = platform.capture_state().to_value();
    *field(field(&mut state, "population"), "rng_state") = Value::Null;
    let mut store = RunStore::open(&dir, fingerprint(&config, BackendKind::Cpu, 5), 3).unwrap();
    store.save(platform.generation() + 1, None, &state).unwrap();
    drop(platform);

    match E3Platform::resume(config, BackendKind::Cpu, 5) {
        Err(RunError::Store(StoreError::Decode(_))) => {}
        Err(other) => panic!("expected a decode error, got {other}"),
        Ok(resumed) => panic!(
            "a snapshot without rng_state resumed (at generation {:?})",
            resumed.map(|p| p.generation())
        ),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot whose file name and header say one generation and whose
/// payload says another is corrupt: resume skips it, counts it, and
/// falls back to the next older snapshot — and the `Resume` record
/// names the generation that actually resumes.
#[test]
fn a_snapshot_named_for_another_generation_is_skipped() {
    let dir = scratch("misnamed");
    let mut config = base_config(1);
    config.checkpoint = Some(CheckpointPolicy::new(dir.to_string_lossy().into_owned()).every(1));
    let reference = E3Platform::new(base_config(1), BackendKind::Cpu, 5)
        .run()
        .unwrap();
    {
        let mut platform = E3Platform::new(config.clone(), BackendKind::Cpu, 5);
        platform.step_generation().unwrap();
        platform.step_generation().unwrap();
        // gen-2 is intact; a copy of its state lands as gen-3.
        let state = platform.capture_state();
        assert_eq!(state.generation, 2);
        let mut store = RunStore::open(&dir, fingerprint(&config, BackendKind::Cpu, 5), 3).unwrap();
        store.save(3, None, &state).unwrap();
    }

    let mut collector = MemoryCollector::new();
    let resumed = E3Platform::resume(config, BackendKind::Cpu, 5)
        .unwrap()
        .expect("the gen-2 snapshot is intact");
    assert_eq!(resumed.generation(), 2);
    let outcome = resumed.run_with(&mut collector).unwrap();
    let record = collector.resumes().next().expect("a Resume record");
    assert_eq!(
        record.generation, 2,
        "Resume names the generation that resumes"
    );
    assert_eq!(
        record.skipped_corrupt, 1,
        "the misnamed snapshot is counted"
    );
    assert_eq!(outcome, reference, "the fallback resumes bit-identically");
    std::fs::remove_dir_all(&dir).ok();
}
