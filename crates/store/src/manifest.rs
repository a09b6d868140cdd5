//! The run manifest: `manifest.json` at the root of a checkpoint
//! directory.
//!
//! The manifest points at the latest valid generation snapshot and
//! records retention bookkeeping (which snapshots exist, which holds
//! the best fitness so far). It is written atomically *after* the
//! snapshot it references, so a crash between the two leaves a
//! *stale* manifest: one pointing at generation `G` while an intact
//! `G+1` snapshot already sits in the directory. Recovery therefore
//! treats the manifest as a hint only — it always re-validates
//! against the directory scan and picks the newest intact snapshot
//! (see `RunStore::recover`), which also makes a torn or missing
//! manifest harmless.

use crate::format::{RunFingerprint, FORMAT_VERSION};
use serde::{Deserialize, Serialize};

/// File name of the manifest inside a checkpoint directory.
pub(crate) const MANIFEST_FILE: &str = "manifest.json";

/// One retained snapshot, as the manifest records it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ManifestEntry {
    /// Generation the snapshot captured.
    pub generation: usize,
    /// Snapshot file name (relative to the checkpoint directory).
    pub file: String,
    /// Total file size in bytes.
    pub bytes: u64,
    /// FNV-1a 64 checksum of the payload section.
    pub payload_fnv: u64,
    /// Best fitness at capture time (absent when non-finite).
    pub best_fitness: Option<f64>,
}

/// The manifest document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Manifest {
    /// Snapshot format version the directory was written with.
    pub format_version: u32,
    /// Which run this directory belongs to.
    pub fingerprint: RunFingerprint,
    /// Generation of the newest snapshot the writer knows about.
    pub latest_generation: Option<usize>,
    /// Generation holding the best fitness so far (never pruned).
    pub best_generation: Option<usize>,
    /// Every snapshot the writer believes is on disk, oldest first.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// An empty manifest for a fresh run directory.
    pub(crate) fn new(fingerprint: RunFingerprint) -> Self {
        Manifest {
            format_version: FORMAT_VERSION,
            fingerprint,
            latest_generation: None,
            best_generation: None,
            entries: Vec::new(),
        }
    }

    /// Records a newly written snapshot and returns the entries that
    /// fall outside the retention set (keep-last-`keep_last` plus the
    /// best-so-far snapshot) — the caller deletes those files.
    pub(crate) fn admit(&mut self, entry: ManifestEntry, keep_last: usize) -> Vec<ManifestEntry> {
        self.entries.retain(|e| e.generation != entry.generation);
        self.entries.push(entry);
        self.entries.sort_by_key(|e| e.generation);
        let latest = self.entries.last().expect("just pushed").generation;
        self.latest_generation = Some(latest);

        // Best-so-far: highest recorded fitness, newest generation
        // breaking ties (entries are generation-sorted, so a later
        // equal fitness wins).
        let mut best: Option<(f64, usize)> = None;
        for e in &self.entries {
            let fitness = e.best_fitness.unwrap_or(f64::NEG_INFINITY);
            if best.is_none_or(|(bf, _)| fitness >= bf) {
                best = Some((fitness, e.generation));
            }
        }
        self.best_generation = best.map(|(_, generation)| generation);

        let keep_from = self.entries.len().saturating_sub(keep_last.max(1));
        let kept_tail: Vec<usize> = self.entries[keep_from..]
            .iter()
            .map(|e| e.generation)
            .collect();
        let keep = |generation: usize| {
            kept_tail.contains(&generation) || Some(generation) == self.best_generation
        };
        let evicted: Vec<ManifestEntry> = self
            .entries
            .iter()
            .filter(|e| !keep(e.generation))
            .cloned()
            .collect();
        self.entries.retain(|e| keep(e.generation));
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> RunFingerprint {
        RunFingerprint {
            config_hash: 1,
            backend: "E3-CPU".to_string(),
            seed: 0,
        }
    }

    fn entry(generation: usize, fitness: f64) -> ManifestEntry {
        ManifestEntry {
            generation,
            file: format!("gen-{generation:08}.e3snap"),
            bytes: 100,
            payload_fnv: 0,
            best_fitness: Some(fitness),
        }
    }

    #[test]
    fn retention_keeps_last_n_plus_best() {
        let mut manifest = Manifest::new(fp());
        // Fitness peaks at generation 2, then declines.
        let fitness = [1.0, 2.0, 9.0, 3.0, 4.0, 5.0];
        let mut evicted_all = Vec::new();
        for (generation, &f) in fitness.iter().enumerate() {
            evicted_all.extend(manifest.admit(entry(generation, f), 2));
        }
        let kept: Vec<usize> = manifest.entries.iter().map(|e| e.generation).collect();
        // Last two (4, 5) plus the best (2).
        assert_eq!(kept, vec![2, 4, 5]);
        assert_eq!(manifest.latest_generation, Some(5));
        assert_eq!(manifest.best_generation, Some(2));
        let evicted: Vec<usize> = evicted_all.iter().map(|e| e.generation).collect();
        assert_eq!(evicted, vec![0, 1, 3]);
    }

    #[test]
    fn ties_prefer_the_newer_generation() {
        let mut manifest = Manifest::new(fp());
        manifest.admit(entry(0, 5.0), 10);
        manifest.admit(entry(1, 5.0), 10);
        assert_eq!(manifest.best_generation, Some(1));
    }

    #[test]
    fn readmitting_a_generation_replaces_it() {
        let mut manifest = Manifest::new(fp());
        manifest.admit(entry(3, 1.0), 4);
        let mut replacement = entry(3, 2.0);
        replacement.bytes = 999;
        manifest.admit(replacement, 4);
        assert_eq!(manifest.entries.len(), 1);
        assert_eq!(manifest.entries[0].bytes, 999);
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let mut manifest = Manifest::new(fp());
        manifest.admit(entry(0, 1.5), 3);
        manifest.admit(entry(1, 2.5), 3);
        let json = serde_json::to_string(&manifest).unwrap();
        let back: Manifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, manifest);
    }
}
