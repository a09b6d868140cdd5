//! A crash at every step of the store's write protocol.
//!
//! A recording [`Disk`] wraps the real one and logs every filesystem
//! call a sequence of saves makes. For every prefix of the log that
//! ends between two calls, or inside a temp file's write, the state a
//! crash there leaves is rebuilt in a fresh directory, once for each
//! way of keeping or losing the directory creations, renames and unlinks
//! that no directory sync has made durable yet, and the run resumes from
//! it. The crash model, after ALICE (Pillai et al., OSDI 2014):
//!
//! * a file's bytes are durable once `write_synced` returns; a crash
//!   inside it leaves the temp file half written;
//! * a rename or an unlink is durable once its directory is synced;
//! * a new directory is durable once its parent is synced; a lost
//!   directory loses everything under it. Creating a directory that
//!   already exists creates nothing, so it is not logged.

use e3::envs::EnvId;
use e3::platform::{fingerprint, BackendKind, CheckpointPolicy, E3Config, E3Platform, RunState};
use e3_store::{Disk, MultiStore, RunFingerprint, RunStore, StdDisk};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One filesystem call, with paths relative to the recorded root.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    CreateDir(PathBuf),
    Read(PathBuf),
    ReadDir(PathBuf),
    Write(PathBuf, Vec<u8>),
    Rename(PathBuf, PathBuf),
    SyncDir(PathBuf),
    Remove(PathBuf),
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let show = |p: &Path| match p.as_os_str().is_empty() {
            true => ".".to_string(),
            false => p.display().to_string(),
        };
        match self {
            Op::CreateDir(d) => write!(f, "mkdir {}", show(d)),
            Op::Read(p) => write!(f, "read {}", show(p)),
            Op::ReadDir(d) => write!(f, "readdir {}", show(d)),
            Op::Write(p, _) => write!(f, "write+sync {}", show(p)),
            Op::Rename(from, to) => write!(f, "rename {} {}", show(from), show(to)),
            Op::SyncDir(d) => write!(f, "syncdir {}", show(d)),
            Op::Remove(p) => write!(f, "remove {}", show(p)),
        }
    }
}

/// The real disk, logging every call it passes on.
#[derive(Debug)]
struct Recorder {
    root: PathBuf,
    log: Mutex<Vec<Op>>,
}

impl Recorder {
    fn new(root: &Path) -> Arc<Self> {
        // The root's parent lies outside the recorded tree, so it
        // exists before the store starts, as a checkpoint directory's
        // parent does.
        fs::create_dir_all(root.parent().unwrap()).unwrap();
        Arc::new(Recorder {
            root: root.to_path_buf(),
            log: Mutex::new(Vec::new()),
        })
    }

    /// `path` relative to the root; the root's own parent is `..`.
    fn rel(&self, path: &Path) -> PathBuf {
        if self.root.parent() == Some(path) {
            return PathBuf::from("..");
        }
        path.strip_prefix(&self.root)
            .expect("the store stays under its root")
            .to_path_buf()
    }

    fn push(&self, op: Op) {
        self.log.lock().unwrap().push(op);
    }

    fn take(&self) -> Vec<Op> {
        std::mem::take(&mut *self.log.lock().unwrap())
    }
}

impl Disk for Recorder {
    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        StdDisk.create_dir(dir)?;
        self.push(Op::CreateDir(self.rel(dir)));
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.push(Op::Read(self.rel(path)));
        StdDisk.read(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.push(Op::ReadDir(self.rel(dir)));
        StdDisk.read_dir(dir)
    }

    fn write_synced(&self, path: &Path, parts: &[&[u8]]) -> io::Result<()> {
        self.push(Op::Write(self.rel(path), parts.concat()));
        StdDisk.write_synced(path, parts)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.push(Op::Rename(self.rel(from), self.rel(to)));
        StdDisk.rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) {
        self.push(Op::SyncDir(self.rel(dir)));
        StdDisk.sync_dir(dir);
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.push(Op::Remove(self.rel(path)));
        StdDisk.remove(path)
    }
}

/// What a crash leaves: directories and files (relative path → bytes).
#[derive(Debug, Default)]
struct CrashState {
    label: String,
    dirs: BTreeSet<PathBuf>,
    files: BTreeMap<PathBuf, Vec<u8>>,
}

impl CrashState {
    /// Writes the state into `dir`, which must not exist yet.
    fn materialise(&self, dir: &Path) {
        fs::create_dir_all(dir).unwrap();
        for d in &self.dirs {
            fs::create_dir_all(dir.join(d)).unwrap();
        }
        for (path, bytes) in &self.files {
            fs::write(dir.join(path), bytes).unwrap();
        }
    }

    /// Generations of the `gen-*.e3snap` files under `subdir`.
    fn generations(&self, subdir: &str) -> Vec<usize> {
        self.files
            .keys()
            .filter(|p| p.parent() == Some(Path::new(subdir)))
            .filter_map(|p| snapshot_generation(p.file_name()?.to_str()?))
            .collect()
    }
}

fn snapshot_generation(name: &str) -> Option<usize> {
    name.strip_prefix("gen-")?
        .strip_suffix(".e3snap")?
        .parse()
        .ok()
}

/// The directory holding `path`; the root's is `..`.
fn parent(path: &Path) -> PathBuf {
    path.parent().unwrap_or(Path::new("..")).to_path_buf()
}

/// Every state a crash during `log` can leave.
fn crash_states(log: &[Op]) -> Vec<CrashState> {
    let ops: Vec<&Op> = log
        .iter()
        .filter(|op| !matches!(op, Op::Read(_) | Op::ReadDir(_)))
        .collect();
    let mut states = Vec::new();
    for n in 0..=ops.len() {
        let done = &ops[..n];
        // Directory creations, renames and unlinks whose directory has
        // not been synced since.
        let volatile: Vec<usize> = (0..n)
            .filter(|&i| {
                let dir = match done[i] {
                    Op::CreateDir(d) => parent(d),
                    Op::Rename(_, to) => parent(to),
                    Op::Remove(path) => parent(path),
                    _ => return false,
                };
                !done[i + 1..]
                    .iter()
                    .any(|op| matches!(op, Op::SyncDir(d) if *d == dir))
            })
            .collect();
        // A protocol that syncs its directories leaves few; one that
        // does not would have this loop enumerate 2^n states.
        assert!(
            volatile.len() <= 6,
            "after call {n}: {} creations, renames and unlinks not yet synced",
            volatile.len()
        );
        let torn = match ops.get(n) {
            Some(Op::Write(path, bytes)) => Some((path, &bytes[..bytes.len() / 2])),
            _ => None,
        };
        for inside_write in [false, true] {
            if inside_write && torn.is_none() {
                continue;
            }
            for lost_mask in 0..1u32 << volatile.len() {
                let lost: Vec<usize> = (0..volatile.len())
                    .filter(|bit| lost_mask >> bit & 1 == 1)
                    .map(|bit| volatile[bit])
                    .collect();
                let mut state = CrashState {
                    label: match n {
                        0 => "crash before the first call".to_string(),
                        _ => format!("crash after call {n}, `{}`", ops[n - 1]),
                    },
                    ..CrashState::default()
                };
                let mut lost_dirs = Vec::new();
                for (i, op) in done.iter().enumerate() {
                    if lost.contains(&i) {
                        state.label += &format!(", lost `{op}`");
                        if let Op::CreateDir(d) = op {
                            lost_dirs.push(d.clone());
                        }
                        continue;
                    }
                    match op {
                        Op::CreateDir(d) => {
                            state.dirs.insert(d.clone());
                        }
                        Op::Write(path, bytes) => {
                            state.files.insert(path.clone(), bytes.clone());
                        }
                        Op::Rename(from, to) => {
                            let bytes = state.files.remove(from).expect("renamed file exists");
                            state.files.insert(to.clone(), bytes);
                        }
                        Op::Remove(path) => {
                            state.files.remove(path);
                        }
                        Op::SyncDir(_) | Op::Read(_) | Op::ReadDir(_) => {}
                    }
                }
                if let (true, Some((path, half))) = (inside_write, torn) {
                    state.label += &format!(", inside `{}`", ops[n]);
                    state.files.insert(path.clone(), half.to_vec());
                }
                let survives = |path: &PathBuf| !lost_dirs.iter().any(|d| path.starts_with(d));
                state.dirs.retain(survives);
                state.files.retain(|path, _| survives(path));
                states.push(state);
            }
        }
    }
    states
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e3-crash-points-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// The `gen-*.e3snap` files of a checkpoint directory, by name.
fn snapshot_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| snapshot_generation(name).is_some())
        .map(|name| {
            let bytes = fs::read(dir.join(&name)).unwrap();
            (name, bytes)
        })
        .collect()
}

const SEED: u64 = 31;

/// A CartPole run that checkpoints all of its five generations and
/// keeps the last two, so saves three to five each prune one.
fn run_config(dir: &Path) -> E3Config {
    E3Config::builder(EnvId::CartPole)
        .population_size(16)
        .max_generations(5)
        .target_fitness(f64::INFINITY)
        .threads(1)
        .checkpoint(
            CheckpointPolicy::new(dir.to_string_lossy().into_owned())
                .every(1)
                .keep_last(2),
        )
        .build()
}

#[test]
fn a_run_resumes_bit_identically_from_every_crash_point() {
    let work = scratch("run");
    // The uninterrupted run, checkpointing as it goes.
    let reference_dir = work.join("reference");
    let config = run_config(&reference_dir);
    let reference = E3Platform::new(config.clone(), BackendKind::Cpu, SEED)
        .run()
        .unwrap();
    // `Debug` prints each f64 so that it parses back to the same bits.
    let reference_bits = format!("{reference:?}");
    let reference_snapshots = snapshot_files(&reference_dir);

    // The saves `E3Platform::write_checkpoint` made, replayed through
    // a recording store.
    let mut saves: Vec<(usize, Option<f64>, RunState)> = Vec::new();
    let mut platform = E3Platform::new(
        E3Config {
            checkpoint: None,
            ..config.clone()
        },
        BackendKind::Cpu,
        SEED,
    );
    while !platform.finished() {
        platform.step_generation().unwrap();
        let best = platform.population().best().map(|b| b.fitness);
        saves.push((platform.generation(), best, platform.capture_state()));
    }
    assert!(saves.len() >= 4, "{} saves", saves.len());
    let recorded_dir = work.join("recorded");
    let recorder = Recorder::new(&recorded_dir);
    let fp = fingerprint(&config, BackendKind::Cpu, SEED);
    let mut store = RunStore::open_on(&recorded_dir, fp, 2, recorder.clone()).unwrap();
    for (generation, best, state) in &saves {
        store.save(*generation, *best, state).unwrap();
    }
    assert_eq!(
        snapshot_files(&recorded_dir),
        reference_snapshots,
        "the replay writes what the run wrote"
    );

    let states = crash_states(&recorder.take());
    let mut fresh_starts = 0;
    for (i, state) in states.iter().enumerate() {
        let label = &state.label;
        let dir = work.join(format!("crash-{i}"));
        state.materialise(&dir);
        let config = run_config(&dir);
        let newest = state.generations("").into_iter().max();
        let outcome = match E3Platform::resume(config.clone(), BackendKind::Cpu, SEED) {
            Err(e) => panic!("{label}: resume failed: {e}"),
            Ok(Some(resumed)) => {
                assert_eq!(Some(resumed.generation()), newest, "{label}");
                resumed.run()
            }
            Ok(None) => {
                assert_eq!(newest, None, "{label}: a snapshot was durable");
                fresh_starts += 1;
                E3Platform::new(config, BackendKind::Cpu, SEED).run()
            }
        };
        let outcome = outcome.unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
        assert_eq!(format!("{outcome:?}"), reference_bits, "{label}");
        let left_behind = snapshot_files(&dir);
        assert_eq!(
            left_behind.keys().collect::<Vec<_>>(),
            reference_snapshots.keys().collect::<Vec<_>>(),
            "{label}: the snapshots left behind"
        );
        assert!(
            left_behind == reference_snapshots,
            "{label}: snapshot bytes"
        );
        fs::remove_dir_all(&dir).ok();
    }
    eprintln!(
        "run level: {} crash states over {} saves, {fresh_starts} of them Ok(None)",
        states.len(),
        saves.len()
    );
    fs::remove_dir_all(&work).ok();
}

fn island_fp(island: u64) -> RunFingerprint {
    RunFingerprint {
        config_hash: 0xa11ce,
        backend: "E3-CPU".to_string(),
        seed: island,
    }
}

const NAMESPACES: [&str; 2] = ["island-0000", "island-0001"];
const BOUNDARIES: usize = 4;

fn island_state(island: usize, generation: usize) -> Vec<u64> {
    vec![island as u64, generation as u64]
}

fn packet_name(generation: usize) -> String {
    format!("mig-{generation:08}.json")
}

fn packet(island: usize, generation: usize) -> Vec<u64> {
    vec![island as u64, generation as u64, 0xfeed]
}

#[test]
fn an_archipelago_reopens_from_every_crash_point() {
    let work = scratch("multi");
    // The island scheduler's shape: at each boundary every island
    // persists its migration packet, then checkpoints; the two
    // islands alternate.
    let recorded_dir = work.join("recorded");
    let recorder = Recorder::new(&recorded_dir);
    let mut multi = MultiStore::open_on(&recorded_dir, recorder.clone()).unwrap();
    let mut stores: Vec<RunStore> = (0..2)
        .map(|island| {
            multi
                .store_for(NAMESPACES[island], island_fp(island as u64), 2)
                .unwrap()
        })
        .collect();
    for generation in 1..=BOUNDARIES {
        for (island, store) in stores.iter_mut().enumerate() {
            multi
                .save_sidecar(
                    NAMESPACES[island],
                    &packet_name(generation),
                    &packet(island, generation),
                )
                .unwrap();
            store
                .save(
                    generation,
                    Some(generation as f64),
                    &island_state(island, generation),
                )
                .unwrap();
        }
    }

    let states = crash_states(&recorder.take());
    let mut empty_recoveries = 0;
    for (i, state) in states.iter().enumerate() {
        let label = &state.label;
        let dir = work.join(format!("crash-{i}"));
        state.materialise(&dir);
        let mut multi =
            MultiStore::open(&dir).unwrap_or_else(|e| panic!("{label}: reopen failed: {e}"));
        for (island, namespace) in NAMESPACES.into_iter().enumerate() {
            let mut store = multi
                .store_for(namespace, island_fp(island as u64), 2)
                .unwrap_or_else(|e| panic!("{label}: {namespace} does not bind: {e}"));
            let recovered = store
                .recover::<Vec<u64>>()
                .unwrap_or_else(|e| panic!("{label}: {namespace} does not recover: {e}"));
            let newest = state.generations(namespace).into_iter().max();
            assert_eq!(
                recovered.as_ref().map(|r| r.generation),
                newest,
                "{label}: {namespace}"
            );
            match recovered {
                Some(r) => assert_eq!(r.state, island_state(island, r.generation), "{label}"),
                None => empty_recoveries += 1,
            }
            for generation in 1..=BOUNDARIES {
                let name = packet_name(generation);
                let loaded = multi
                    .load_sidecar::<Vec<u64>>(namespace, &name)
                    .unwrap_or_else(|e| panic!("{label}: {namespace}/{name}: {e}"));
                let present = state.files.contains_key(&Path::new(namespace).join(&name));
                let expected = present.then(|| packet(island, generation));
                assert_eq!(loaded, expected, "{label}: {namespace}/{name}");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }
    eprintln!(
        "multi-run: {} crash states, {empty_recoveries} namespace recoveries Ok(None)",
        states.len()
    );
    fs::remove_dir_all(&work).ok();
}

/// The protocol's order, call by call, for a save that evicts: the
/// snapshot as temp write + sync, rename, directory sync; then the
/// unlink. The directory is the only index, so there is nothing else
/// to write. Adding, dropping or reordering a filesystem call fails
/// here.
#[test]
fn a_save_that_evicts_makes_exactly_these_calls() {
    let dir = scratch("order");
    let recorder = Recorder::new(&dir);
    let mut store = RunStore::open_on(&dir, island_fp(0), 1, recorder.clone()).unwrap();
    // Opening creates the directory and syncs its parent, so the new
    // directory is durable before any snapshot lands in it.
    let opening: Vec<String> = recorder.take().iter().map(Op::to_string).collect();
    assert_eq!(opening, ["mkdir .", "syncdir ..", "readdir ."]);
    store.save(0, Some(0.0), &0u32).unwrap();
    recorder.take();
    store.save(1, Some(1.0), &1u32).unwrap();
    let calls: Vec<String> = recorder.take().iter().map(Op::to_string).collect();
    assert_eq!(
        calls,
        [
            "write+sync .tmp.gen-00000001.e3snap",
            "rename .tmp.gen-00000001.e3snap gen-00000001.e3snap",
            "syncdir .",
            "remove gen-00000000.e3snap",
        ]
    );
    fs::remove_dir_all(&dir).ok();
}
