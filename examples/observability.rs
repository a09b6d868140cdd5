//! Launch the live observability plane over a real archipelago run,
//! print the curl lines to poke it with, and serve until the run
//! completes.
//!
//! ```text
//! cargo run --release --example observability
//! # in another terminal, while it runs:
//! #   curl -s http://127.0.0.1:PORT/metrics | grep e3_island
//! #   curl -s http://127.0.0.1:PORT/healthz
//! #   curl -sN http://127.0.0.1:PORT/runs/run-0000/events
//! ```
//!
//! Set `E3_SERVE_HOLD_SECS` to keep serving after the run finishes
//! (for leisurely curling); default is a 3-second grace period.

use e3::envs::EnvId;
use e3::islands::{IslandsConfig, RunManager, SubmitOptions};
use e3::platform::{BackendKind, E3Config};
use e3::serve::{serve, ServeOptions};
use e3::telemetry::SharedRegistry;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn main() {
    // A workload big enough to watch live: 4 islands x 40 generations.
    let base = E3Config::builder(EnvId::CartPole)
        .population_size(100)
        .max_generations(40)
        .target_fitness(f64::INFINITY)
        .threads(2)
        .build();
    let config = IslandsConfig::builder(base)
        .backend(BackendKind::Cpu)
        .islands(4)
        .migration_interval(5)
        .emigrants(2)
        .seed(42)
        .build();

    let manager = Arc::new(Mutex::new(RunManager::with_registry(SharedRegistry::new())));
    let server = serve(Arc::clone(&manager), ServeOptions::default()).expect("bind server");
    let url = server.url();

    let id = manager
        .lock()
        .expect("manager lock")
        .submit(
            config,
            SubmitOptions {
                drivers: 2,
                ndjson: None,
            },
        )
        .expect("submit run");

    println!("observability plane up at {url}");
    println!("  curl -s {url}/metrics | grep e3_island");
    println!("  curl -s {url}/healthz");
    println!("  curl -s {url}/runs/{id}");
    println!("  curl -sN {url}/runs/{id}/events      # streaming NDJSON tail");
    println!();

    let outcome = manager
        .lock()
        .expect("manager lock")
        .join(id)
        .expect("run is known")
        .expect("run succeeds");
    let (best_island, best) = outcome.best.as_ref().expect("run produced a champion");
    let total_generations: usize = outcome.islands.iter().map(|i| i.generations_run).sum();
    println!(
        "run {id} finished: best fitness {:.2} on island {best_island} after {} total generations",
        best.fitness, total_generations
    );

    let hold = std::env::var("E3_SERVE_HOLD_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3u64);
    println!("serving the finished run for {hold}s more (E3_SERVE_HOLD_SECS to change)...");
    std::thread::sleep(Duration::from_secs(hold));
}
