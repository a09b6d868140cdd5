//! The snapshot payload and the JSON tree are two sinks of one
//! serialization walk and cannot disagree: for a real `RunState` on
//! every backend, the binary stream decodes to exactly the tree
//! `to_value()` builds (floats by bits), and reads back as a state that
//! serializes to that tree again.

use e3_envs::EnvId;
use e3_platform::{BackendKind, E3Config, E3Platform, RunState};
use serde::{Deserialize, Serialize};

#[test]
fn run_state_streams_to_the_tree_json_renders() {
    for backend in BackendKind::ALL {
        let config = E3Config::builder(EnvId::CartPole)
            .population_size(20)
            .max_generations(10)
            .target_fitness(f64::INFINITY)
            .build();
        let mut platform = E3Platform::new(config, backend, 21);
        for _ in 0..3 {
            platform.step_generation().unwrap();
        }
        let state = platform.capture_state();
        // The INAX run is the one whose accelerator accounting is live.
        let accelerated = backend == BackendKind::Inax;
        assert_eq!(state.hw_report.is_some(), accelerated, "{backend:?}");
        assert_eq!(state.hw_utilization.is_some(), accelerated, "{backend:?}");

        let tree = state.to_value();
        let mut bytes = Vec::new();
        serde::bin::encode_into(&state, &mut bytes).unwrap();
        let decoded = serde::bin::decode(&bytes).unwrap();
        assert!(decoded.same_bits(&tree), "{backend:?}: sinks disagree");

        let back = RunState::from_value(&decoded).unwrap();
        assert!(back.to_value().same_bits(&tree), "{backend:?}: read-back");
        // The stream is a function of the value alone.
        let mut again = Vec::new();
        serde::bin::encode_into(&back, &mut again).unwrap();
        assert_eq!(again, bytes, "{backend:?}");
    }
}
