//! End-to-end observability round trip: submit a real run through the
//! manager, hit every endpoint over real TCP, and shut down cleanly —
//! and the gate that serving is inert: a run scraped mid-flight ends
//! with the populations and NDJSON bytes of a server-less run.

use e3_envs::EnvId;
use e3_islands::{IslandsConfig, RunManager, RunSnapshot, RunStatus, SubmitOptions};
use e3_platform::{BackendKind, E3Config};
use e3_serve::{http_get, http_request, serve, tail_events, Health, ServeOptions};
use e3_telemetry::SharedRegistry;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

fn tiny_config(seed: u64) -> IslandsConfig {
    config(seed, 12, 3)
}

fn config(seed: u64, population: usize, generations: usize) -> IslandsConfig {
    let base = E3Config::builder(EnvId::CartPole)
        .population_size(population)
        .max_generations(generations)
        .target_fitness(f64::INFINITY)
        .threads(2)
        .build();
    IslandsConfig::builder(base)
        .backend(BackendKind::Cpu)
        .islands(2)
        .migration_interval(2)
        .emigrants(1)
        .seed(seed)
        .build()
}

fn submit_options() -> SubmitOptions {
    SubmitOptions {
        drivers: 1,
        ndjson: None,
    }
}

#[test]
fn every_endpoint_round_trips_over_tcp() {
    let manager = Arc::new(Mutex::new(RunManager::with_registry(SharedRegistry::new())));
    let mut server = serve(Arc::clone(&manager), ServeOptions::default()).expect("bind");
    let addr = server.local_addr();

    let index = http_get(addr, "/", TIMEOUT).expect("GET /");
    assert_eq!(index.status, 200);
    assert!(index.body.contains("/metrics"));

    // Before any run: healthy daemon, empty listings, empty registry.
    let health = http_get(addr, "/healthz", TIMEOUT).expect("GET /healthz");
    assert_eq!(health.status, 200);
    let health: Health = serde_json::from_str(&health.body).expect("health JSON");
    assert_eq!(health.status, "ok");
    assert!(health.runs.is_empty());
    assert_eq!(
        http_get(addr, "/runs", TIMEOUT).expect("GET /runs").body,
        "[]"
    );
    assert_eq!(
        http_get(addr, "/runs/run-0099", TIMEOUT)
            .expect("unknown run")
            .status,
        404
    );
    assert_eq!(
        http_get(addr, "/runs/run-0099/events", TIMEOUT)
            .expect("unknown stream")
            .status,
        404
    );

    let id = manager
        .lock()
        .expect("manager lock")
        .submit(tiny_config(7), submit_options())
        .expect("submit");

    // The stream replays the flight recorder, so tailing is race-free
    // even if the run already finished.
    let events =
        tail_events(addr, &format!("/runs/{id}/events?limit=3"), 3, TIMEOUT).expect("tail events");
    assert!(!events.is_empty());
    for line in &events {
        let record: serde_json::Value = serde_json::from_str(line).expect("NDJSON record");
        assert!(matches!(record, serde_json::Value::Object(_)));
    }

    manager
        .lock()
        .expect("manager lock")
        .join(id)
        .expect("known run")
        .expect("run succeeds");

    let health: Health =
        serde_json::from_str(&http_get(addr, "/healthz", TIMEOUT).expect("healthz").body)
            .expect("health JSON");
    assert_eq!(health.runs.len(), 1);
    assert_eq!(health.runs[0].status, "finished");

    let listing: Vec<RunSnapshot> =
        serde_json::from_str(&http_get(addr, "/runs", TIMEOUT).expect("runs").body)
            .expect("runs JSON");
    assert_eq!(listing.len(), 1);
    assert_eq!(listing[0].status, "finished");

    let snapshot: RunSnapshot = serde_json::from_str(
        &http_get(addr, &format!("/runs/{id}"), TIMEOUT)
            .expect("run snapshot")
            .body,
    )
    .expect("snapshot JSON");
    assert_eq!(snapshot.id, id.to_string());
    assert_eq!(snapshot.islands.len(), 2);
    assert!(snapshot.islands.iter().all(|row| row.generation == 3));

    let metrics = http_get(addr, "/metrics", TIMEOUT).expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("# TYPE"));
    assert!(metrics.body.contains(&format!(
        "e3_island_generation{{run=\"{id}\",island=\"0\"}}"
    )));

    server.shutdown();
    // After shutdown the listener is gone: new connections fail.
    assert!(http_get(addr, "/metrics", Duration::from_millis(500)).is_err());
}

#[test]
fn stop_endpoints_round_trip_over_tcp() {
    let manager = Arc::new(Mutex::new(RunManager::with_registry(SharedRegistry::new())));
    let mut server = serve(Arc::clone(&manager), ServeOptions::default()).expect("bind");
    let addr = server.local_addr();

    // Unknown / malformed ids: 404 on both routes.
    assert_eq!(
        http_request(addr, "DELETE", "/runs/run-0099", TIMEOUT)
            .expect("DELETE unknown")
            .status,
        404
    );
    assert_eq!(
        http_request(addr, "POST", "/runs/nonsense/stop", TIMEOUT)
            .expect("POST malformed")
            .status,
        404
    );
    // Methods that match no route: 405.
    assert_eq!(
        http_request(addr, "PUT", "/runs/run-0001", TIMEOUT)
            .expect("PUT")
            .status,
        405
    );
    assert_eq!(
        http_request(addr, "POST", "/metrics", TIMEOUT)
            .expect("POST metrics")
            .status,
        405
    );

    let id = manager
        .lock()
        .expect("manager lock")
        .submit(tiny_config(11), submit_options())
        .expect("submit");

    // DELETE /runs/{id} stops the run and returns its final snapshot.
    let stopped = http_request(addr, "DELETE", &format!("/runs/{id}"), TIMEOUT).expect("DELETE");
    assert_eq!(stopped.status, 200);
    let snapshot: RunSnapshot = serde_json::from_str(&stopped.body).expect("snapshot JSON");
    assert_eq!(snapshot.id, id.to_string());
    assert!(
        snapshot.status == "finished" || snapshot.status == "stopped",
        "run must have wound down, got {:?}",
        snapshot.status
    );

    // The POST alias replays the cached outcome idempotently.
    let again =
        http_request(addr, "POST", &format!("/runs/{id}/stop"), TIMEOUT).expect("POST stop");
    assert_eq!(again.status, 200);
    let replay: RunSnapshot = serde_json::from_str(&again.body).expect("snapshot JSON");
    assert_eq!(replay.id, snapshot.id);
    assert_eq!(replay.status, snapshot.status);

    server.shutdown();
}

/// Serving must be inert. The same config runs twice through the
/// manager — bare, then with the server attached and `/metrics`,
/// `/runs/{id}` and a tailed `/events` stream hit while it is in
/// flight — and must end with identical island populations and
/// byte-identical NDJSON (one driver makes the event order
/// deterministic). The final scrape carries the per-run and per-island
/// series and parses as Prometheus text exposition.
#[test]
fn a_run_scraped_mid_flight_matches_a_server_less_run() {
    let dir = std::env::temp_dir().join(format!("e3-serve-inert-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let with_ndjson = |path: &Path| SubmitOptions {
        ndjson: Some(path.to_string_lossy().into_owned()),
        ..submit_options()
    };
    let fingerprints = |outcome: &e3_islands::ArchipelagoOutcome| -> Vec<u64> {
        outcome
            .islands
            .iter()
            .map(|island| island.population_fingerprint)
            .collect()
    };

    let bare_path = dir.join("bare.ndjson");
    let mut bare = RunManager::new();
    let id = bare
        .submit(config(42, 48, 8), with_ndjson(&bare_path))
        .expect("submit");
    let bare_outcome = bare.join(id).expect("known run").expect("run succeeds");

    let served_path = dir.join("served.ndjson");
    let manager = Arc::new(Mutex::new(RunManager::with_registry(SharedRegistry::new())));
    let mut server = serve(Arc::clone(&manager), ServeOptions::default()).expect("bind");
    let addr = server.local_addr();
    let id = manager
        .lock()
        .expect("manager lock")
        .submit(config(42, 48, 8), with_ndjson(&served_path))
        .expect("submit");
    let events =
        tail_events(addr, &format!("/runs/{id}/events?limit=5"), 5, TIMEOUT).expect("tail events");
    assert!(!events.is_empty());
    loop {
        assert_eq!(
            http_get(addr, "/metrics", TIMEOUT).expect("scrape").status,
            200
        );
        let snapshot = http_get(addr, &format!("/runs/{id}"), TIMEOUT).expect("snapshot");
        assert_eq!(snapshot.status, 200);
        let status = manager.lock().expect("manager lock").status(id);
        if !matches!(status, Some(RunStatus::Running)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let served_outcome = manager
        .lock()
        .expect("manager lock")
        .join(id)
        .expect("known run")
        .expect("run succeeds");
    let scrape = http_get(addr, "/metrics", TIMEOUT)
        .expect("final scrape")
        .body;
    server.shutdown();

    assert_eq!(fingerprints(&served_outcome), fingerprints(&bare_outcome));
    assert!(
        std::fs::read(&served_path).expect("served ndjson")
            == std::fs::read(&bare_path).expect("bare ndjson"),
        "serving injected, dropped or reordered telemetry"
    );
    for series in [
        "e3_island_generation{",
        "e3_island_best_fitness{",
        "e3_run_up{",
    ] {
        assert!(scrape.contains(series), "final scrape lacks {series}");
    }
    // And the live page is well-formed exposition text: comments, or
    // `name value` samples with finite values.
    for line in scrape.lines().filter(|line| !line.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').expect("sample is `name value`");
        assert!(
            !name.is_empty() && value.parse::<f64>().is_ok_and(f64::is_finite),
            "malformed sample: {line}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
