//! `e3-store`: crash-safe run persistence for the E3 platform.
//!
//! The E3 paper targets edge deployments that learn autonomously over
//! hours or days — a power cut must not throw away a run, and a
//! resumed run must be indistinguishable from one that never stopped.
//! This crate provides the storage half of that contract:
//!
//! * **Versioned snapshot format** ([`format`](mod@format)) — magic + format
//!   version + run fingerprint + checksummed binary payload, so torn,
//!   short, and bit-flipped files are all detectable. The payload is
//!   streamed from the state's fields into a buffer the store keeps
//!   across saves; no intermediate tree or text is built.
//! * **Atomic writes** — each snapshot goes to a temp file, is
//!   `fsync`ed, and is renamed into place; the directory is synced so
//!   the rename itself survives a crash.
//! * **Manifest + recovery** (`manifest`) — `manifest.json` points
//!   at the latest generation, but recovery never trusts it blindly:
//!   it scans the directory newest-first and resumes from the newest
//!   snapshot that validates, skipping torn ones.
//! * **Retention** — keep the last *N* snapshots plus the best-so-far
//!   generation; everything else is pruned after each save.
//! * **Fault injection** (`fault`) — a [`StoreFault`] armed on the
//!   store sabotages the next save, so crash recovery is testable
//!   without actually cutting power.
//!
//! The store is generic over the payload: it persists any
//! `Serialize`/`Deserialize` state and leaves *what* to capture to
//! the caller (`e3-platform` captures a full `RunState`, which is what
//! makes resume bit-identical).
//!
//! ```
//! use e3_store::{RunStore, RunFingerprint};
//!
//! let dir = std::env::temp_dir().join(format!("e3-store-doc-{}", std::process::id()));
//! let fingerprint = RunFingerprint { config_hash: 42, backend: "E3-CPU".into(), seed: 7 };
//! let mut store = RunStore::open(&dir, fingerprint, 3)?;
//! store.save(0, Some(1.5), &vec![1u32, 2, 3])?;
//! let recovered = store.recover::<Vec<u32>>()?.expect("snapshot present");
//! assert_eq!(recovered.generation, 0);
//! assert_eq!(recovered.state, vec![1, 2, 3]);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), e3_store::StoreError>(())
//! ```

mod fault;
pub mod format;
mod manifest;
mod multi;

pub use fault::StoreFault;
pub use format::{RunFingerprint, FORMAT_VERSION};
pub use multi::MultiStore;

use manifest::{Manifest, ManifestEntry, MANIFEST_FILE};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// When and where the platform checkpoints a run.
///
/// Lives here (rather than in `e3-platform`) so the policy can be
/// embedded in `E3Config` without a dependency cycle. The directory is
/// a `String` because the policy itself is serialized into run
/// configuration JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Checkpoint directory (created on first save).
    pub dir: String,
    /// Snapshot every `every` generations (≥ 1).
    pub every: usize,
    /// Keep the last `keep_last` snapshots plus the best-so-far one.
    pub keep_last: usize,
}

impl CheckpointPolicy {
    /// A policy that snapshots every generation and keeps the last 3.
    pub fn new(dir: impl Into<String>) -> Self {
        CheckpointPolicy {
            dir: dir.into(),
            every: 1,
            keep_last: 3,
        }
    }

    /// Sets the checkpoint interval in generations (clamped to ≥ 1).
    pub fn every(mut self, every: usize) -> Self {
        self.every = every.max(1);
        self
    }

    /// Sets how many trailing snapshots to retain (clamped to ≥ 1).
    pub fn keep_last(mut self, keep_last: usize) -> Self {
        self.keep_last = keep_last.max(1);
        self
    }
}

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (path and OS message).
    Io {
        /// Path the operation touched.
        path: String,
        /// The underlying OS error text.
        message: String,
    },
    /// The run state failed to serialize.
    Encode(String),
    /// A validated snapshot's payload failed to deserialize (type
    /// mismatch between writer and reader).
    Decode(String),
    /// A snapshot or manifest belongs to a different run (config,
    /// backend, or seed differs). Resuming it would silently change
    /// results, so the store refuses.
    FingerprintMismatch {
        /// File whose fingerprint disagreed.
        path: String,
    },
    /// A namespace inside a shared parent directory is already bound
    /// to a different run — e.g. island 1's snapshots offered to
    /// island 2, or a parent directory reused with a different island
    /// layout. Distinct from [`StoreError::FingerprintMismatch`] so
    /// multi-run callers can tell "wrong file in my directory" from
    /// "wrong directory entirely".
    NamespaceMismatch {
        /// The namespace (subdirectory) whose binding disagreed.
        namespace: String,
        /// The registry or snapshot path that exposed the mixup.
        path: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "store I/O error at {path}: {message}"),
            StoreError::Encode(msg) => write!(f, "failed to encode run state: {msg}"),
            StoreError::Decode(msg) => write!(f, "failed to decode run state: {msg}"),
            StoreError::FingerprintMismatch { path } => {
                write!(
                    f,
                    "{path} belongs to a different run (config/backend/seed mismatch)"
                )
            }
            StoreError::NamespaceMismatch { namespace, path } => {
                write!(
                    f,
                    "namespace {namespace} at {path} is bound to a different run \
                     (cross-island snapshot mixup)"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Counters the store accumulates; mirrored into the telemetry
/// `MetricsRegistry` as `e3_store_*` metrics by the platform.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Intact snapshots written (faulted writes do not count).
    pub snapshots_written: u64,
    /// Bytes of snapshot data written, including faulted writes.
    pub bytes_written: u64,
    /// Successful recoveries (a `recover` call that found a snapshot).
    pub recoveries: u64,
    /// Corrupt or torn snapshot files skipped during recovery.
    pub corrupt_skipped: u64,
}

/// A successfully recovered snapshot.
#[derive(Debug, Clone)]
pub struct Recovered<T> {
    /// Generation the snapshot captured.
    pub generation: usize,
    /// Best fitness recorded at capture time.
    pub best_fitness: Option<f64>,
    /// Corrupt files skipped before this snapshot validated.
    pub skipped_corrupt: usize,
    /// File the state was read from.
    pub path: PathBuf,
    /// The deserialized run state.
    pub state: T,
}

/// A crash-safe snapshot store rooted at one checkpoint directory.
///
/// One store instance belongs to one run, identified by its
/// [`RunFingerprint`]; snapshots and manifests from a different run
/// are refused rather than resumed.
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
    fingerprint: RunFingerprint,
    keep_last: usize,
    manifest: Manifest,
    stats: StoreStats,
    pending_fault: Option<StoreFault>,
    /// The encoded payload of the last save, kept for its capacity.
    payload: Vec<u8>,
}

/// Snapshot file name for a generation (`gen-00000042.e3snap`).
/// Zero-padded so lexical and numeric order agree.
pub(crate) fn snapshot_file_name(generation: usize) -> String {
    format!("gen-{generation:08}.e3snap")
}

fn parse_snapshot_file_name(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("gen-")?.strip_suffix(".e3snap")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

pub(crate) fn io_err(path: &Path, err: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        message: err.to_string(),
    }
}

impl RunStore {
    /// Opens (creating if necessary) a checkpoint directory for the
    /// run identified by `fingerprint`.
    ///
    /// An existing readable manifest must match the fingerprint; a
    /// missing or unparseable manifest is tolerated (recovery scans
    /// the directory anyway) and is rebuilt on the next save.
    pub fn open(
        dir: impl AsRef<Path>,
        fingerprint: RunFingerprint,
        keep_last: usize,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest = match fs::read_to_string(&manifest_path) {
            Ok(text) => match serde_json::from_str::<Manifest>(&text) {
                Ok(m) if m.fingerprint == fingerprint => m,
                Ok(_) => {
                    return Err(StoreError::FingerprintMismatch {
                        path: manifest_path.display().to_string(),
                    })
                }
                // A torn manifest is recoverable state, not an error.
                Err(_) => Manifest::new(fingerprint.clone()),
            },
            Err(_) => Manifest::new(fingerprint.clone()),
        };
        Ok(RunStore {
            dir,
            fingerprint,
            keep_last: keep_last.max(1),
            manifest,
            stats: StoreStats::default(),
            pending_fault: None,
            payload: Vec::new(),
        })
    }

    /// The run identity snapshots are stamped with.
    pub fn fingerprint(&self) -> &RunFingerprint {
        &self.fingerprint
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Newest generation the manifest knows about. Prefer
    /// [`RunStore::recover`], which validates against the directory.
    pub fn latest_generation(&self) -> Option<usize> {
        self.manifest.latest_generation
    }

    /// Arms a fault for the next [`RunStore::save`] call. The fault
    /// fires once and disarms itself.
    pub fn inject_fault(&mut self, fault: StoreFault) {
        self.pending_fault = Some(fault);
    }

    /// Serializes `state` and writes the generation snapshot
    /// atomically: temp file, `fsync`, rename, directory sync, then
    /// the manifest (same protocol) and retention pruning.
    ///
    /// If a fault is armed, the write is sabotaged instead: the
    /// (possibly corrupted) bytes land at the final path and the
    /// manifest is left untouched, modelling a crash mid-protocol.
    pub fn save<T: Serialize>(
        &mut self,
        generation: usize,
        best_fitness: Option<f64>,
        state: &T,
    ) -> Result<PathBuf, StoreError> {
        self.payload.clear();
        serde::bin::encode_into(state, &mut self.payload)
            .map_err(|e| StoreError::Encode(e.to_string()))?;
        let (head, payload_fnv) =
            format::encode_head(&self.fingerprint, generation, best_fitness, &self.payload)
                .map_err(StoreError::Encode)?;
        let file = snapshot_file_name(generation);
        let path = self.dir.join(&file);

        if let Some(fault) = self.pending_fault.take() {
            // A simulated crash: whatever survives lands directly at
            // the final path, and the manifest never gets updated.
            let bytes = [head.as_slice(), &self.payload].concat();
            let damaged = fault.corrupt(&bytes, head.len());
            self.stats.bytes_written += damaged.len() as u64;
            fs::write(&path, &damaged).map_err(|e| io_err(&path, e))?;
            return Ok(path);
        }

        write_atomic_in(&self.dir, &file, &[&head, &self.payload])?;
        let bytes = (head.len() + self.payload.len()) as u64;
        self.stats.snapshots_written += 1;
        self.stats.bytes_written += bytes;

        self.manifest.format_version = FORMAT_VERSION;
        let evicted = self.manifest.admit(
            ManifestEntry {
                generation,
                file,
                bytes,
                payload_fnv,
                best_fitness: best_fitness.filter(|f| f.is_finite()),
            },
            self.keep_last,
        );
        self.write_manifest()?;
        for entry in evicted {
            // Pruning is best-effort; a leftover snapshot is harmless.
            fs::remove_file(self.dir.join(&entry.file)).ok();
        }
        Ok(path)
    }

    /// Finds and deserializes the newest intact snapshot.
    ///
    /// Scans the directory for `gen-*.e3snap` files newest-first and
    /// returns the first one that fully validates (magic, version,
    /// length, checksum) — torn, short, and corrupt files are counted
    /// and skipped, never fatal. The manifest is only bookkeeping, so
    /// a stale one (crash between snapshot and manifest writes) is
    /// corrected here rather than trusted. Corrupt files are left in
    /// place for post-mortems; the next save at that generation
    /// overwrites them.
    ///
    /// Returns `Ok(None)` when no intact snapshot exists. An intact
    /// snapshot from a *different* run is an error, not a skip.
    pub fn recover<T: Deserialize>(&mut self) -> Result<Option<Recovered<T>>, StoreError> {
        let mut generations: Vec<(usize, String)> = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(generation) = parse_snapshot_file_name(&name) {
                generations.push((generation, name));
            }
        }
        generations.sort();
        generations.reverse();

        let mut skipped = 0usize;
        for (generation, name) in generations {
            let path = self.dir.join(&name);
            let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
            let (header, payload) = match format::decode(&bytes) {
                Ok(parts) => parts,
                Err(_) => {
                    skipped += 1;
                    self.stats.corrupt_skipped += 1;
                    continue;
                }
            };
            if header.fingerprint != self.fingerprint {
                return Err(StoreError::FingerprintMismatch {
                    path: path.display().to_string(),
                });
            }
            let value = format::payload_value(header.format_version, payload)
                .map_err(StoreError::Decode)?;
            let state = T::from_value(&value).map_err(|e| StoreError::Decode(e.to_string()))?;
            self.stats.recoveries += 1;
            // Reconcile a possibly-stale manifest with what the scan
            // actually found.
            if self.manifest.latest_generation != Some(generation) {
                self.manifest.admit(
                    ManifestEntry {
                        generation,
                        file: name,
                        bytes: bytes.len() as u64,
                        payload_fnv: header.payload_fnv,
                        best_fitness: header.best_fitness,
                    },
                    self.keep_last,
                );
                self.write_manifest()?;
            }
            return Ok(Some(Recovered {
                generation,
                best_fitness: header.best_fitness,
                skipped_corrupt: skipped,
                path,
                state,
            }));
        }
        Ok(None)
    }

    fn write_manifest(&self) -> Result<(), StoreError> {
        let json = serde_json::to_string_pretty(&self.manifest)
            .map_err(|e| StoreError::Encode(e.to_string()))?;
        write_atomic_in(&self.dir, MANIFEST_FILE, &[json.as_bytes()])
    }
}

/// Temp file + `fsync` + rename + directory sync. After this returns,
/// either the old file or the complete new file is on disk — never a
/// mix. Shared by snapshot, manifest, and sidecar writes. The file is
/// `parts` back to back, so a header and a payload need no joining.
pub(crate) fn write_atomic_in(dir: &Path, name: &str, parts: &[&[u8]]) -> Result<(), StoreError> {
    let tmp = dir.join(format!(".tmp.{name}"));
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        for part in parts {
            f.write_all(part).map_err(|e| io_err(&tmp, e))?;
        }
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    let target = dir.join(name);
    fs::rename(&tmp, &target).map_err(|e| io_err(&target, e))?;
    // Sync the directory so the rename survives a crash too.
    // Best-effort: not every filesystem supports opening a dir.
    if let Ok(d) = fs::File::open(dir) {
        d.sync_all().ok();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> RunFingerprint {
        RunFingerprint {
            config_hash: 0xabcd,
            backend: "E3-CPU".to_string(),
            seed: 11,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("e3-store-test-{}-{tag}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn save_then_recover_round_trips() {
        let dir = scratch("roundtrip");
        let mut store = RunStore::open(&dir, fp(), 3).unwrap();
        store.save(0, Some(1.0), &vec![10u64, 20]).unwrap();
        store.save(1, Some(2.0), &vec![30u64]).unwrap();
        let recovered = store.recover::<Vec<u64>>().unwrap().unwrap();
        assert_eq!(recovered.generation, 1);
        assert_eq!(recovered.state, vec![30]);
        assert_eq!(recovered.best_fitness, Some(2.0));
        assert_eq!(recovered.skipped_corrupt, 0);
        assert_eq!(store.stats().snapshots_written, 2);
        assert_eq!(store.stats().recoveries, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_directory_recovers_to_none() {
        let dir = scratch("empty");
        let mut store = RunStore::open(&dir, fp(), 3).unwrap();
        assert!(store.recover::<Vec<u64>>().unwrap().is_none());
        assert_eq!(store.stats().recoveries, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_prunes_files_on_disk() {
        let dir = scratch("retention");
        let mut store = RunStore::open(&dir, fp(), 2).unwrap();
        // Best fitness peaks at generation 1.
        for (generation, fitness) in [(0, 1.0), (1, 9.0), (2, 2.0), (3, 3.0), (4, 4.0)] {
            store.save(generation, Some(fitness), &generation).unwrap();
        }
        let mut on_disk: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".e3snap"))
            .collect();
        on_disk.sort();
        // Last two plus the best-so-far generation.
        assert_eq!(
            on_disk,
            vec![
                snapshot_file_name(1),
                snapshot_file_name(3),
                snapshot_file_name(4)
            ]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopened_store_sees_the_manifest() {
        let dir = scratch("reopen");
        {
            let mut store = RunStore::open(&dir, fp(), 3).unwrap();
            store.save(5, Some(1.5), &"state".to_string()).unwrap();
        }
        let store = RunStore::open(&dir, fp(), 3).unwrap();
        assert_eq!(store.latest_generation(), Some(5));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn alien_manifest_is_refused() {
        let dir = scratch("alien");
        {
            let mut store = RunStore::open(&dir, fp(), 3).unwrap();
            store.save(0, None, &1u32).unwrap();
        }
        let other = RunFingerprint {
            config_hash: 999,
            ..fp()
        };
        let err = RunStore::open(&dir, other, 3).unwrap_err();
        assert!(matches!(err, StoreError::FingerprintMismatch { .. }));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn alien_snapshot_is_refused_at_recovery() {
        let dir = scratch("alien-snap");
        {
            let mut store = RunStore::open(&dir, fp(), 3).unwrap();
            store.save(0, None, &1u32).unwrap();
        }
        // Remove the manifest so open() succeeds with a different
        // fingerprint, then let recovery hit the mismatched snapshot.
        fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let other = RunFingerprint {
            seed: 12345,
            ..fp()
        };
        let mut store = RunStore::open(&dir, other, 3).unwrap();
        let err = store.recover::<u32>().unwrap_err();
        assert!(matches!(err, StoreError::FingerprintMismatch { .. }));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_file_names_sort_with_generations() {
        assert_eq!(snapshot_file_name(42), "gen-00000042.e3snap");
        assert_eq!(parse_snapshot_file_name("gen-00000042.e3snap"), Some(42));
        assert_eq!(parse_snapshot_file_name("gen-.e3snap"), None);
        assert_eq!(parse_snapshot_file_name("manifest.json"), None);
        assert_eq!(parse_snapshot_file_name(".tmp.gen-00000001.e3snap"), None);
        assert!(snapshot_file_name(9) < snapshot_file_name(10));
    }

    #[test]
    fn non_snapshot_files_are_ignored_by_recovery() {
        let dir = scratch("ignore");
        let mut store = RunStore::open(&dir, fp(), 3).unwrap();
        store.save(2, None, &7u32).unwrap();
        fs::write(dir.join("notes.txt"), b"not a snapshot").unwrap();
        let recovered = store.recover::<u32>().unwrap().unwrap();
        assert_eq!(recovered.generation, 2);
        assert_eq!(recovered.skipped_corrupt, 0);
        fs::remove_dir_all(&dir).ok();
    }
}
