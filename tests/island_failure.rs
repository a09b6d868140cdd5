//! A panicking island fails the archipelago run with a typed error
//! naming the island, instead of leaving its migration partner parked
//! on a packet that never comes.

use e3::envs::EnvId;
use e3::islands::{run_islands, IslandsConfig, RunOptions, SharedCollector, Topology};
use e3::platform::E3Config;
use e3::telemetry::{Collector, TelemetryError, TelemetryEvent};
use std::sync::mpsc;
use std::time::Duration;

/// Panics on island 0's generation-1 `Island` record.
struct PanicsOnIslandZero;

impl Collector for PanicsOnIslandZero {
    fn record(&mut self, event: &TelemetryEvent) -> Result<(), TelemetryError> {
        if matches!(event, TelemetryEvent::Island(r) if r.island == 0 && r.generation == 1) {
            panic!("collector failure");
        }
        Ok(())
    }
}

#[test]
fn a_panicking_island_fails_the_run_instead_of_hanging_it() {
    for drivers in [1, 2] {
        let (tx, rx) = mpsc::channel();
        // On its own thread, so a hung run fails this test instead of
        // hanging the suite.
        let run = std::thread::spawn(move || {
            let base = E3Config::builder(EnvId::CartPole)
                .population_size(16)
                .max_generations(6)
                .target_fitness(f64::INFINITY)
                .build();
            let config = IslandsConfig::builder(base)
                .islands(2)
                .topology(Topology::Ring)
                .migration_interval(2)
                .build();
            let collector = SharedCollector::new(PanicsOnIslandZero);
            let result = run_islands(config, &RunOptions::with_drivers(drivers), &collector);
            let _ = tx.send(result.map(|_| ()));
        });
        let result = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|err| panic!("drivers={drivers}: the run did not return: {err}"));
        run.join().expect("the run's thread returned");
        let message = result
            .expect_err("a panicking island fails the run")
            .to_string();
        assert!(
            message.contains("island 0 panicked: collector failure"),
            "drivers={drivers}: {message}"
        );
    }
}
