//! Multiple runs sharing one parent checkpoint directory.
//!
//! A [`RunStore`] assumes one run per directory: one fingerprint, one
//! snapshot sequence. An island-evolution run breaks that assumption —
//! N islands checkpoint concurrently, and they should live under a
//! single parent directory so an operator can point one
//! `--checkpoint-dir` at the whole archipelago.
//!
//! [`MultiStore`] provides the scoping: each run gets a *namespace*
//! (a subdirectory, e.g. `island-00/`), and a registry file at the
//! parent root records which fingerprint each namespace is bound to.
//! Opening a namespace with a different fingerprint is a typed
//! [`StoreError::NamespaceMismatch`] — a cross-island snapshot mixup
//! is refused before any snapshot is read, not silently resumed.
//!
//! A torn or missing registry is rebuilt from use. Every snapshot
//! still carries its own checksummed fingerprint, which
//! [`RunStore::open`] checks, so even a hand-scrambled directory
//! layout cannot smuggle one island's state into another. The registry
//! is still needed: a namespace can hold sidecars before its first
//! snapshot, and there the registry is the only record of which run
//! the namespace belongs to.
//!
//! Namespaces can also hold *sidecar* files — small atomic JSON
//! documents next to the snapshots. The islands scheduler persists
//! migration packets this way so a killed daemon can replay exchanges
//! whose source islands have already moved past them.

use crate::{
    create_dir_durable, io_err, write_atomic_in, Disk, RunFingerprint, RunStore, StdDisk,
    StoreError,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Registry file at the parent root mapping namespaces to the run
/// fingerprints they are bound to.
pub(crate) const NAMESPACE_REGISTRY_FILE: &str = "namespaces.json";

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct NamespaceRegistry {
    format_version: u32,
    namespaces: BTreeMap<String, RunFingerprint>,
}

/// A parent directory sharing crash-safe stores between many runs,
/// each scoped to its own namespaced subdirectory.
///
/// ```
/// use e3_store::{MultiStore, RunFingerprint};
///
/// let dir = std::env::temp_dir().join(format!("e3-multi-doc-{}", std::process::id()));
/// let mut multi = MultiStore::open(&dir)?;
/// let fp = RunFingerprint { config_hash: 1, backend: "E3-CPU".into(), seed: 7 };
/// let mut store = multi.store_for("island-00", fp, 3)?;
/// store.save(0, None, &vec![1u8, 2, 3])?;
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), e3_store::StoreError>(())
/// ```
#[derive(Debug)]
pub struct MultiStore {
    parent: PathBuf,
    registry: NamespaceRegistry,
    disk: Arc<dyn Disk>,
}

/// A namespace must be a plain directory name: no separators, no
/// leading dot (dot-files are temp/registry artifacts).
fn validate_namespace(namespace: &str) {
    assert!(
        !namespace.is_empty()
            && !namespace.starts_with('.')
            && namespace
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.'),
        "invalid store namespace {namespace:?}: use [A-Za-z0-9._-], not starting with '.'"
    );
}

impl MultiStore {
    /// Opens (creating if necessary) a shared parent directory.
    ///
    /// A readable registry is loaded; a missing or torn one is
    /// tolerated and rebuilt as namespaces are (re)bound — the
    /// fingerprint in every snapshot's header keeps each namespace
    /// that holds a snapshot self-validating regardless.
    pub fn open(parent: impl AsRef<Path>) -> Result<Self, StoreError> {
        MultiStore::open_on(parent, Arc::new(StdDisk))
    }

    /// [`MultiStore::open`] on the given disk, which every namespace's
    /// [`RunStore`] shares.
    pub fn open_on(parent: impl AsRef<Path>, disk: Arc<dyn Disk>) -> Result<Self, StoreError> {
        let parent = parent.as_ref().to_path_buf();
        create_dir_durable(&*disk, &parent)?;
        let path = parent.join(NAMESPACE_REGISTRY_FILE);
        let registry = match disk.read(&path).map(String::from_utf8) {
            Ok(Ok(text)) => serde_json::from_str(&text).unwrap_or_default(),
            _ => NamespaceRegistry::default(),
        };
        Ok(MultiStore {
            parent,
            registry,
            disk,
        })
    }

    /// Absolute path of a namespace's subdirectory (which may not
    /// exist yet).
    pub(crate) fn namespace_dir(&self, namespace: &str) -> PathBuf {
        validate_namespace(namespace);
        self.parent.join(namespace)
    }

    /// Opens the [`RunStore`] for one namespace, binding the namespace
    /// to `fingerprint` in the shared registry.
    ///
    /// # Errors
    ///
    /// [`StoreError::NamespaceMismatch`] when the registry already
    /// binds this namespace to a *different* fingerprint — the caller
    /// is about to read another run's snapshots, which would silently
    /// change results. Re-opening with the same fingerprint (the
    /// resume path) is fine.
    ///
    /// # Panics
    ///
    /// Panics if `namespace` is not a plain directory name (see
    /// `MultiStore::namespace_dir`).
    pub fn store_for(
        &mut self,
        namespace: &str,
        fingerprint: RunFingerprint,
        keep_last: usize,
    ) -> Result<RunStore, StoreError> {
        let dir = self.namespace_dir(namespace);
        let bound = self.registry.namespaces.get(namespace);
        if bound.is_some_and(|bound| *bound != fingerprint) {
            return Err(StoreError::NamespaceMismatch {
                namespace: namespace.to_string(),
                path: self
                    .parent
                    .join(NAMESPACE_REGISTRY_FILE)
                    .display()
                    .to_string(),
            });
        }
        let unbound = bound.is_none();
        // Opening the namespace checks every snapshot's fingerprint, so
        // a registry rebuilt after a torn write cannot mask a mixup.
        // Translate that lower-level refusal into the namespace-typed
        // error: at this layer the caller knows *which island* it was
        // opening, and the distinction is the whole point.
        let store = RunStore::open_on(&dir, fingerprint.clone(), keep_last, self.disk.clone())
            .map_err(|err| match err {
                StoreError::FingerprintMismatch { path } => StoreError::NamespaceMismatch {
                    namespace: namespace.to_string(),
                    path,
                },
                other => other,
            })?;
        // Bind only a namespace whose snapshots agree: binding a refused
        // one would lock its own run out of it.
        if unbound {
            self.registry
                .namespaces
                .insert(namespace.to_string(), fingerprint);
            self.write_registry()?;
        }
        Ok(store)
    }

    /// Atomically writes a JSON sidecar document into a namespace.
    ///
    /// Sidecars live next to the namespace's snapshots and survive the
    /// same crash model (temp + fsync + rename). `name` must end in
    /// `.json` and is validated like a namespace.
    pub fn save_sidecar<T: Serialize>(
        &self,
        namespace: &str,
        name: &str,
        value: &T,
    ) -> Result<PathBuf, StoreError> {
        validate_namespace(name);
        let dir = self.namespace_dir(namespace);
        create_dir_durable(&*self.disk, &dir)?;
        let json = serde_json::to_string(value).map_err(|e| StoreError::Encode(e.to_string()))?;
        write_atomic_in(&*self.disk, &dir, name, &[json.as_bytes()])?;
        Ok(dir.join(name))
    }

    /// Reads a JSON sidecar back, returning `Ok(None)` when the file
    /// does not exist (never written, or lost with the crash it was
    /// meant to survive — callers treat both as "no packet").
    pub fn load_sidecar<T: Deserialize>(
        &self,
        namespace: &str,
        name: &str,
    ) -> Result<Option<T>, StoreError> {
        validate_namespace(name);
        let path = self.namespace_dir(namespace).join(name);
        let bytes = match self.disk.read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, e)),
        };
        // A torn sidecar cannot happen under the atomic-write protocol,
        // but a decode failure (schema drift) is a real error.
        let text = String::from_utf8(bytes).map_err(|e| StoreError::Decode(e.to_string()))?;
        serde_json::from_str(&text)
            .map(Some)
            .map_err(|e| StoreError::Decode(e.to_string()))
    }

    /// Names of the sidecar files in a namespace whose name starts
    /// with `prefix`, in lexical order.
    pub fn list_sidecars(&self, namespace: &str, prefix: &str) -> Result<Vec<String>, StoreError> {
        let dir = self.namespace_dir(namespace);
        let mut names = match self.disk.read_dir(&dir) {
            Ok(names) => names,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(&dir, e)),
        };
        names.retain(|name| name.starts_with(prefix) && !name.starts_with('.'));
        names.sort();
        Ok(names)
    }

    fn write_registry(&self) -> Result<(), StoreError> {
        let json = serde_json::to_string_pretty(&self.registry)
            .map_err(|e| StoreError::Encode(e.to_string()))?;
        write_atomic_in(
            &*self.disk,
            &self.parent,
            NAMESPACE_REGISTRY_FILE,
            &[json.as_bytes()],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn fp(seed: u64) -> RunFingerprint {
        RunFingerprint {
            config_hash: 0xfeed,
            backend: "E3-CPU".to_string(),
            seed,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("e3-multi-test-{}-{tag}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn namespaces_are_independent_stores() {
        let dir = scratch("independent");
        let mut multi = MultiStore::open(&dir).unwrap();
        let mut a = multi.store_for("island-00", fp(0), 3).unwrap();
        let mut b = multi.store_for("island-01", fp(1), 3).unwrap();
        a.save(0, Some(1.0), &"a-state".to_string()).unwrap();
        b.save(5, Some(2.0), &"b-state".to_string()).unwrap();
        let ra = a.recover::<String>().unwrap().unwrap();
        let rb = b.recover::<String>().unwrap().unwrap();
        assert_eq!((ra.generation, ra.state.as_str()), (0, "a-state"));
        assert_eq!((rb.generation, rb.state.as_str()), (5, "b-state"));
        assert_eq!(multi.registry.namespaces.len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cross_island_mixup_is_a_namespace_mismatch() {
        let dir = scratch("mixup");
        {
            let mut multi = MultiStore::open(&dir).unwrap();
            let mut store = multi.store_for("island-00", fp(0), 3).unwrap();
            store.save(0, None, &1u32).unwrap();
        }
        // Reopen the parent and offer island 1's fingerprint for
        // island 0's namespace.
        let mut multi = MultiStore::open(&dir).unwrap();
        let err = multi.store_for("island-00", fp(1), 3).unwrap_err();
        assert!(
            matches!(err, StoreError::NamespaceMismatch { ref namespace, .. }
            if namespace == "island-00")
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_registry_still_refuses_mixups_via_snapshot_header() {
        let dir = scratch("torn-registry");
        {
            let mut multi = MultiStore::open(&dir).unwrap();
            let mut store = multi.store_for("island-00", fp(0), 3).unwrap();
            store.save(0, None, &1u32).unwrap();
        }
        // Simulate a crash that tore the registry: the fingerprint in
        // the namespace's snapshot header must still surface the
        // mixup, typed as a namespace mismatch.
        fs::write(dir.join(NAMESPACE_REGISTRY_FILE), b"{ torn").unwrap();
        let mut multi = MultiStore::open(&dir).unwrap();
        let err = multi.store_for("island-00", fp(1), 3).unwrap_err();
        assert!(matches!(err, StoreError::NamespaceMismatch { .. }));
        // The refusal binds nothing: the namespace's own run still
        // opens, now and after a restart.
        multi.store_for("island-00", fp(0), 3).unwrap();
        let mut multi = MultiStore::open(&dir).unwrap();
        multi.store_for("island-00", fp(0), 3).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_with_same_fingerprint_resumes() {
        let dir = scratch("reopen");
        {
            let mut multi = MultiStore::open(&dir).unwrap();
            let mut store = multi.store_for("island-02", fp(2), 3).unwrap();
            store.save(7, Some(3.5), &42u64).unwrap();
        }
        let mut multi = MultiStore::open(&dir).unwrap();
        let mut store = multi.store_for("island-02", fp(2), 3).unwrap();
        let recovered = store.recover::<u64>().unwrap().unwrap();
        assert_eq!(recovered.generation, 7);
        assert_eq!(recovered.state, 42);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sidecars_round_trip_and_list_in_order() {
        let dir = scratch("sidecar");
        let multi = MultiStore::open(&dir).unwrap();
        assert_eq!(
            multi
                .load_sidecar::<Vec<u32>>("island-00", "mig-00000002.json")
                .unwrap(),
            None
        );
        multi
            .save_sidecar("island-00", "mig-00000010.json", &vec![4u32, 5])
            .unwrap();
        multi
            .save_sidecar("island-00", "mig-00000002.json", &vec![1u32])
            .unwrap();
        assert_eq!(
            multi
                .load_sidecar::<Vec<u32>>("island-00", "mig-00000002.json")
                .unwrap(),
            Some(vec![1])
        );
        assert_eq!(
            multi.list_sidecars("island-00", "mig-").unwrap(),
            vec!["mig-00000002.json", "mig-00000010.json"]
        );
        assert!(multi.list_sidecars("island-09", "mig-").unwrap().is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "invalid store namespace")]
    fn path_separators_in_namespaces_are_rejected() {
        let dir = scratch("badname");
        let multi = MultiStore::open(&dir).unwrap();
        let _ = multi.namespace_dir("../escape");
    }
}
