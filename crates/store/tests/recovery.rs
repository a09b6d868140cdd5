//! Recovery from the two things the write protocol cannot prevent:
//! media corruption of a snapshot that landed intact, and a snapshot a
//! crash left unpruned. Every state a crash itself can leave is the
//! root test `crash_points`.

use e3_store::{RunFingerprint, RunStore};
use std::fs;
use std::path::{Path, PathBuf};

fn fp() -> RunFingerprint {
    RunFingerprint {
        config_hash: 0x5eed,
        backend: "E3-CPU".to_string(),
        seed: 42,
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e3-store-recovery-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn snapshot(dir: &Path, generation: usize) -> PathBuf {
    dir.join(format!("gen-{generation:08}.e3snap"))
}

/// Generations of the `gen-*.e3snap` files in `dir`, ascending.
fn snapshots(dir: &Path) -> Vec<usize> {
    let mut generations: Vec<usize> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            name.strip_prefix("gen-")?
                .strip_suffix(".e3snap")?
                .parse()
                .ok()
        })
        .collect();
    generations.sort_unstable();
    generations
}

/// Damage done to a snapshot file's bytes.
type Damage = fn(&mut Vec<u8>);

/// Position of the first occurrence of `needle` in `bytes`.
fn find(bytes: &[u8], needle: &[u8]) -> usize {
    bytes
        .windows(needle.len())
        .position(|w| w == needle)
        .unwrap()
}

/// Media corruption, one case per region of a snapshot file: the
/// magic line, the header line, the payload, and a file cut short;
/// then two header edits that still parse: another run's backend, and
/// another best fitness.
const DAMAGE: [(&str, Damage); 6] = [
    ("bit flip in the magic line", |b| b[0] ^= 0x01),
    ("bit flip in the header", |b| {
        let header = b.iter().position(|&c| c == b'\n').unwrap() + 1;
        b[header] ^= 0x01;
    }),
    ("bit flip in the payload", |b| {
        let last = b.len() - 1;
        b[last] ^= 0x01;
    }),
    ("truncation", |b| b.truncate(b.len() * 3 / 4)),
    ("bit flip in the backend", |b| {
        let at = find(b, b"E3-CPU") + 3;
        b[at] ^= 0x01;
    }),
    ("best fitness changed in the header", |b| {
        let at = find(b, b"\"best_fitness\":") + 15;
        match b[at] {
            b'n' => b[at..at + 4].copy_from_slice(b"9e99"),
            digit => b[at] = b'0' + (digit - b'0' + 1) % 10,
        }
    }),
];

fn damage(path: &Path, how: Damage) {
    let mut bytes = fs::read(path).unwrap();
    how(&mut bytes);
    fs::write(path, bytes).unwrap();
}

#[test]
fn a_damaged_newest_snapshot_falls_back_to_the_previous_one() {
    for (i, (what, how)) in DAMAGE.into_iter().enumerate() {
        let dir = scratch(&format!("newest-{i}"));
        let mut store = RunStore::open(&dir, fp(), 5).unwrap();
        for generation in 0..3 {
            store
                .save(
                    generation,
                    Some(generation as f64),
                    &vec![generation as u64],
                )
                .unwrap();
        }
        damage(&snapshot(&dir, 2), how);

        // Recover through a fresh store, as a restarted process would.
        let mut reopened = RunStore::open(&dir, fp(), 5).unwrap();
        let recovered = reopened
            .recover::<Vec<u64>>()
            .unwrap_or_else(|e| panic!("{what}: recovery errored: {e}"))
            .unwrap_or_else(|| panic!("{what}: no snapshot recovered"));
        assert_eq!(recovered.generation, 1, "{what}");
        assert_eq!(recovered.state, vec![1], "{what}");
        assert_eq!(recovered.skipped_corrupt, 1, "{what}");
        assert_eq!(reopened.stats().corrupt_skipped, 1, "{what}");
        assert_eq!(reopened.stats().recoveries, 1, "{what}");
        // The damaged file stays for a post-mortem.
        assert_eq!(snapshots(&dir), vec![0, 1, 2], "{what}");
        fs::remove_dir_all(&dir).ok();
    }
}

/// A run of consecutive damaged snapshots is walked past: the scan
/// keeps going back until something validates.
#[test]
fn recovery_walks_past_several_damaged_generations() {
    let dir = scratch("several");
    let mut store = RunStore::open(&dir, fp(), 10).unwrap();
    for generation in 0..=DAMAGE.len() {
        store
            .save(generation, Some(1.0), &format!("state {generation}"))
            .unwrap();
    }
    for (i, (_, how)) in DAMAGE.into_iter().enumerate() {
        damage(&snapshot(&dir, i + 1), how);
    }
    let recovered = store.recover::<String>().unwrap().unwrap();
    assert_eq!(recovered.generation, 0);
    assert_eq!(recovered.state, "state 0");
    assert_eq!(recovered.skipped_corrupt, DAMAGE.len());
    fs::remove_dir_all(&dir).ok();
}

/// If every snapshot is damaged, recovery reports "nothing to resume":
/// no panic, no error, no fabricated state.
#[test]
fn all_snapshots_damaged_recovers_to_none() {
    let dir = scratch("all-damaged");
    let mut store = RunStore::open(&dir, fp(), 10).unwrap();
    for (generation, (_, how)) in DAMAGE.into_iter().enumerate() {
        store.save(generation, None, &0u8).unwrap();
        damage(&snapshot(&dir, generation), how);
    }
    assert!(store.recover::<u8>().unwrap().is_none());
    assert_eq!(store.stats().corrupt_skipped, DAMAGE.len() as u64);
    fs::remove_dir_all(&dir).ok();
}

/// Saving a damaged generation again overwrites the wreckage and makes
/// it recoverable.
#[test]
fn re_saving_a_damaged_generation_heals_it() {
    let dir = scratch("heal");
    let mut store = RunStore::open(&dir, fp(), 5).unwrap();
    store.save(7, Some(1.0), &"first try".to_string()).unwrap();
    damage(&snapshot(&dir, 7), DAMAGE[3].1);
    assert!(store.recover::<String>().unwrap().is_none());
    store.save(7, Some(1.0), &"second try".to_string()).unwrap();
    let recovered = store.recover::<String>().unwrap().unwrap();
    assert_eq!(recovered.generation, 7);
    assert_eq!(recovered.state, "second try");
    fs::remove_dir_all(&dir).ok();
}

/// `keep_last` 2, saves 0, 1, 2 with rising fitness: saving 2 evicts 0.
/// A crash after gen 2's rename is durable and before the unlink leaves
/// gen 0 on disk. Opening the directory must prune it, or no later save
/// ever will.
#[test]
fn recovery_prunes_a_snapshot_a_crash_left_behind() {
    let dir = scratch("leak");
    let mut store = RunStore::open(&dir, fp(), 2).unwrap();
    store.save(0, Some(0.0), &0u32).unwrap();
    store.save(1, Some(1.0), &1u32).unwrap();
    let gen_0 = fs::read(snapshot(&dir, 0)).unwrap();
    store.save(2, Some(2.0), &2u32).unwrap();
    drop(store);
    fs::write(snapshot(&dir, 0), gen_0).unwrap();

    let mut resumed = RunStore::open(&dir, fp(), 2).unwrap();
    assert_eq!(snapshots(&dir), vec![1, 2]);
    let recovered = resumed.recover::<u32>().unwrap().unwrap();
    assert_eq!((recovered.generation, recovered.state), (2, 2));
    for generation in 3..=6 {
        resumed
            .save(generation, Some(generation as f64), &(generation as u32))
            .unwrap();
    }
    assert_eq!(snapshots(&dir), vec![5, 6]);
    fs::remove_dir_all(&dir).ok();
}

/// Whatever fitness a damaged file's header claims, it never protects
/// that file as the best one: once an intact snapshot is newer, opening
/// the directory prunes it, and retention keeps the intact best.
#[test]
fn a_damaged_snapshot_is_never_kept_as_the_best() {
    for (i, (what, how)) in DAMAGE.into_iter().enumerate() {
        let dir = scratch(&format!("damaged-best-{i}"));
        let mut store = RunStore::open(&dir, fp(), 1).unwrap();
        for (generation, fitness) in [(0, 9.0), (1, 1.0), (2, 2.0)] {
            store
                .save(generation, Some(fitness), &(generation as u32))
                .unwrap();
        }
        // Generation 0 is the best and stays beside the newest.
        assert_eq!(snapshots(&dir), vec![0, 2], "{what}");
        damage(&snapshot(&dir, 0), how);

        let mut reopened = RunStore::open(&dir, fp(), 1).unwrap();
        assert_eq!(snapshots(&dir), vec![2], "{what}");
        reopened.save(3, Some(1.0), &3u32).unwrap();
        assert_eq!(snapshots(&dir), vec![2, 3], "{what}");
        fs::remove_dir_all(&dir).ok();
    }
}
