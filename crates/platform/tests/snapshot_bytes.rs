//! Snapshot bytes as a trust boundary, and as a cost.
//!
//! This binary installs a counting allocator, so it can show two
//! things no assertion on values can: `RunStore::save` streams a
//! `RunState` without building a tree of it, and no byte string —
//! however hostile — makes the readers allocate more than a small
//! multiple of its length. The tests take a lock: the counters are
//! process-wide.

mod common;

use common::counted;
use e3_envs::EnvId;
use e3_platform::{fingerprint, BackendKind, E3Config, E3Platform, RunState};
use e3_store::{format, RunStore, StoreError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e3-snapshot-bytes-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(population: usize) -> E3Config {
    E3Config::builder(EnvId::CartPole)
        .population_size(population)
        .max_generations(10)
        .target_fitness(f64::INFINITY)
        .build()
}

/// A store for `config` on the CPU backend, seed 5, and a state two
/// generations into that run.
fn store_and_state(tag: &str, population: usize) -> (RunStore, RunState, PathBuf) {
    let config = config(population);
    let mut platform = E3Platform::new(config.clone(), BackendKind::Cpu, 5);
    platform.step_generation().unwrap();
    platform.step_generation().unwrap();
    let dir = scratch(tag);
    let store = RunStore::open(&dir, fingerprint(&config, BackendKind::Cpu, 5), 3).unwrap();
    (store, platform.capture_state(), dir)
}

#[test]
fn a_save_streams_the_state_without_building_a_tree() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut store, state, dir) = store_and_state("stream", 100);
    let (tree, tree_allocations, _) = counted(|| state.to_value());
    drop(tree);
    // The tree costs at least one allocation per struct in the state;
    // a save costs its buffer's growth, the encoder's small tables and
    // the two text documents beside the payload.
    let (first, first_allocations, _) = counted(|| store.save(2, None, &state));
    first.unwrap();
    let (second, _, second_largest) = counted(|| store.save(3, None, &state));
    let file = std::fs::read(second.unwrap()).unwrap();
    let payload_len = format::decode(&file).unwrap().1.len();
    assert!(tree_allocations > 5_000, "tree: {tree_allocations}");
    assert!(
        first_allocations * 10 < tree_allocations,
        "save made {first_allocations} allocations, the tree {tree_allocations}"
    );
    // The payload buffer is kept and written in place: the next save
    // neither regrows it nor joins it to its header.
    assert!(
        second_largest < payload_len / 2,
        "a {second_largest} B allocation beside a {payload_len} B payload"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `bytes` through every reader a snapshot file meets, as
/// `RunStore::recover` chains them. Returns how far it got.
fn read_all(bytes: &[u8]) -> usize {
    let Ok((_, payload)) = format::decode(bytes) else {
        return 0;
    };
    let Ok(value) = serde::bin::decode(payload) else {
        return 1;
    };
    match RunState::from_value(&value) {
        Err(_) => 2,
        Ok(_) => 3,
    }
}

/// One seeded mutation: flip a bit, truncate, splice a range over
/// another place, or extend with noise.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        bytes.push(rng.gen());
        return;
    }
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0..4) {
        0 => bytes[at] ^= 1u8 << rng.gen_range(0..8u32),
        1 => bytes.truncate(at),
        2 => {
            let from = rng.gen_range(0..bytes.len());
            let len = rng.gen_range(0..=(bytes.len() - from).min(64));
            let piece = bytes[from..from + len].to_vec();
            bytes.splice(at..at.min(bytes.len()), piece);
        }
        _ => {
            let extra = rng.gen_range(1..32);
            bytes.extend((0..extra).map(|_| rng.gen::<u8>()));
        }
    }
}

#[test]
fn hostile_bytes_are_typed_errors_and_never_balloon() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut store, state, dir) = store_and_state("hostile", 12);
    let fp = store.fingerprint().clone();
    let path = store.save(2, Some(1.0), &state).unwrap();
    let file = std::fs::read(&path).unwrap();
    assert_eq!(read_all(&file), 3, "the seed file is valid");
    let (_, payload) = format::decode(&file).unwrap();
    // A hostile writer can checksum too: payload mutations are sealed
    // under a fresh header so they reach the payload decoder.
    let seal = |payload: &[u8]| {
        let (mut sealed, _) = format::encode_head(&fp, 2, Some(1.0), payload).unwrap();
        sealed.extend_from_slice(payload);
        sealed
    };

    let mut rng = StdRng::seed_from_u64(0xe3_5eed);
    let mut reached = [0usize; 4];
    for case in 0..12_000 {
        // Raw file damage on even cases, sealed payload damage on odd.
        let mut bytes = if case % 2 == 0 {
            file.clone()
        } else {
            payload.to_vec()
        };
        for _ in 0..rng.gen_range(1..4) {
            mutate(&mut rng, &mut bytes);
        }
        if case % 2 == 1 {
            bytes = seal(&bytes);
        }
        let (stage, _, largest) = counted(|| read_all(&bytes));
        reached[stage] += 1;
        assert!(
            largest <= 64 * bytes.len() + 4096,
            "case {case}: a {largest} B allocation for {} B of input",
            bytes.len()
        );
    }
    // The driver reaches every reader, not just the checksum.
    assert!(reached.iter().all(|&n| n > 100), "{reached:?}");

    // Named attacks on the payload decoder, through `recover`: each is
    // a typed `Decode` error.
    let mut deep = [0x08u8, 1].repeat(1000);
    deep.push(0x00);
    let mut trailing = payload.to_vec();
    trailing.push(0x00);
    let attacks: [(&str, Vec<u8>); 5] = [
        (
            "length of u64::MAX",
            [vec![0x08], vec![0xff; 9], vec![0x01]].concat(),
        ),
        ("undefined string id", vec![0x07, 5]),
        ("nesting past the cap", deep),
        ("invalid UTF-8", vec![0x06, 2, 0xc3, 0x28]),
        ("trailing garbage", trailing),
    ];
    for (name, payload) in attacks {
        std::fs::write(&path, seal(&payload)).unwrap();
        let (result, _, largest) = counted(|| store.recover::<RunState>());
        assert!(
            matches!(result, Err(StoreError::Decode(_))),
            "{name}: {result:?}"
        );
        assert!(largest <= 64 * file.len() + 4096, "{name}: {largest} B");
    }
    std::fs::remove_dir_all(&dir).ok();
}
