//! Snapshots written before format v2 stay readable for one release.
//!
//! `fixtures/v1/` is a checkpoint directory written by the last commit
//! whose store emitted `e3snap 1` (JSON payload). Recovery must read it
//! through the same `from_value` path as a v2 file, and the next save
//! beside it must be a v2 file.

use e3_store::{RunFingerprint, RunStore, FORMAT_VERSION};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Kind {
    Input,
    Hidden { layer: usize },
    Output(f64),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Node {
    id: usize,
    kind: Kind,
    bias: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct OldState {
    name: String,
    generation: usize,
    nodes: Vec<Node>,
    trace: Vec<(f64, f64)>,
    counters: BTreeMap<String, u64>,
    best: Option<f64>,
    rng_state: Option<[u64; 4]>,
    offset: i64,
}

/// What the fixture's writer saved at generation 3.
fn written() -> OldState {
    OldState {
        name: "written by format v1 (PR 17, 8f5402a)".to_string(),
        generation: 3,
        nodes: vec![
            Node {
                id: 0,
                kind: Kind::Input,
                bias: 0.0,
            },
            Node {
                id: 5,
                kind: Kind::Hidden { layer: 1 },
                bias: -0.75,
            },
            Node {
                id: 2,
                kind: Kind::Output(0.1),
                bias: 1.0 / 3.0,
            },
        ],
        trace: vec![(0.5, 12.0), (1.25, 200.0)],
        counters: [("evals".to_string(), 600), ("steps".to_string(), u64::MAX)]
            .into_iter()
            .collect(),
        best: Some(200.0),
        rng_state: Some([1, 2, 3, u64::MAX - 1]),
        offset: -42,
    }
}

#[test]
fn a_v1_directory_recovers_and_continues_as_v2() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1");
    let dir = std::env::temp_dir().join(format!("e3-store-v1-fixture-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    for name in ["gen-00000003.e3snap", "manifest.json"] {
        fs::copy(fixture.join(name), dir.join(name)).unwrap();
    }
    let old = fs::read(dir.join("gen-00000003.e3snap")).unwrap();
    assert!(old.starts_with(b"e3snap 1\n"), "the fixture is a v1 file");

    let fp = RunFingerprint {
        config_hash: 0x0e3f_1c70,
        backend: "E3-CPU".to_string(),
        seed: 7,
    };
    let mut store = RunStore::open(&dir, fp, 3).unwrap();
    assert_eq!(store.latest_generation(), Some(3), "v1 manifest is read");
    let recovered = store.recover::<OldState>().unwrap().unwrap();
    assert_eq!(recovered.generation, 3);
    assert_eq!(recovered.best_fitness, Some(200.0));
    assert_eq!(recovered.skipped_corrupt, 0);
    assert_eq!(recovered.state, written());

    // The run continues: the next snapshot beside the old one is v2,
    // and is what recovery now lands on.
    let mut next = recovered.state;
    next.generation = 4;
    let path = store.save(4, Some(201.0), &next).unwrap();
    let new = fs::read(&path).unwrap();
    assert_eq!(FORMAT_VERSION, 2);
    assert!(new.starts_with(b"e3snap 2\n"));
    assert_eq!(fs::read(dir.join("gen-00000003.e3snap")).unwrap(), old);
    let recovered = store.recover::<OldState>().unwrap().unwrap();
    assert_eq!(recovered.generation, 4);
    assert_eq!(recovered.state, next);
    fs::remove_dir_all(&dir).ok();
}
