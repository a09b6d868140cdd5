//! Archipelago configuration: how many islands, how they are wired,
//! and when they exchange individuals.
//!
//! Everything in [`IslandsConfig`] is part of the determinism
//! contract: two runs with equal configs produce bit-identical final
//! populations on every island, regardless of worker count, driver
//! count, or scheduler interleaving. Knobs that must *not* affect
//! results (drivers, pickup order, stop flags) live in
//! [`crate::scheduler::RunOptions`] instead.

use e3_platform::{BackendKind, E3Config};
use e3_store::CheckpointPolicy;
use serde::{Deserialize, Serialize};

/// How emigrants flow between islands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// Each island receives from its predecessor `(i - 1) mod N` —
    /// one source per island, slow diffusion around the ring.
    Ring,
    /// Each island receives from every other island.
    FullyConnected,
}

impl Topology {
    /// The islands that send emigrants **to** `island`, in ascending
    /// order (the merge order of the deterministic integration).
    /// Empty for a single-island archipelago: an island never sources
    /// from itself.
    pub(crate) fn sources(self, island: usize, islands: usize) -> Vec<usize> {
        assert!(island < islands, "island index out of range");
        if islands <= 1 {
            return Vec::new();
        }
        match self {
            Topology::Ring => vec![(island + islands - 1) % islands],
            Topology::FullyConnected => (0..islands).filter(|&s| s != island).collect(),
        }
    }
}

/// Derives island `i`'s base seed from the archipelago seed.
///
/// Island 0 keeps the archipelago seed unchanged, so a single-island
/// run is bit-identical to a plain [`e3_platform::E3Platform`] run of
/// the same config — the parity gate `repro islands` enforces.
/// Other islands get decorrelated streams via the same SplitMix64
/// mixing the executor uses for per-individual RNG.
pub fn island_seed(base_seed: u64, island: usize) -> u64 {
    if island == 0 {
        return base_seed;
    }
    e3_exec::rng::stream_seed(base_seed, 0x15_1a4d, island as u64)
}

/// The checkpoint namespace (subdirectory) of one island.
pub(crate) fn namespace(island: usize) -> String {
    format!("island-{island:04}")
}

/// Configuration of one archipelago run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IslandsConfig {
    /// The per-island platform configuration. Its `checkpoint` field
    /// must be `None` — island checkpointing is configured through
    /// [`IslandsConfig::checkpoint`], which namespaces a shared parent
    /// directory per island.
    pub base: E3Config,
    /// Evaluation backend every island runs on.
    pub backend: BackendKind,
    /// Number of islands (≥ 1).
    pub islands: usize,
    /// Migration topology.
    pub topology: Topology,
    /// Exchange individuals every `K` generations: the boundary after
    /// evaluating generation `g` is a migration boundary when
    /// `(g + 1) % K == 0`.
    pub migration_interval: usize,
    /// Top-`M` individuals each island publishes at a boundary.
    pub emigrants: usize,
    /// Archipelago seed; island `i` runs on [`island_seed`]`(seed, i)`.
    pub seed: u64,
    /// Shared-parent checkpoint policy: `dir` is the archipelago root
    /// and each island checkpoints into `dir/island-NNNN/` with the
    /// policy's `every`/`keep_last`. `None` disables persistence.
    pub checkpoint: Option<CheckpointPolicy>,
}

impl IslandsConfig {
    /// Starts a builder around a per-island platform config.
    pub fn builder(base: E3Config) -> IslandsConfigBuilder {
        IslandsConfigBuilder {
            config: IslandsConfig {
                base,
                backend: BackendKind::Cpu,
                islands: 4,
                topology: Topology::Ring,
                migration_interval: 5,
                emigrants: 2,
                seed: 42,
                checkpoint: None,
            },
        }
    }

    /// The sources of one island under this config's topology.
    pub(crate) fn sources(&self, island: usize) -> Vec<usize> {
        self.topology.sources(island, self.islands)
    }

    /// Whether the boundary after evaluating generation `g` is a
    /// migration boundary (only meaningful with more than one island).
    pub(crate) fn is_boundary(&self, generation: usize) -> bool {
        self.islands > 1 && (generation + 1).is_multiple_of(self.migration_interval.max(1))
    }

    /// The platform config island `island` runs: the base config with
    /// the checkpoint policy re-pointed at the island's namespace
    /// subdirectory.
    pub(crate) fn island_config(&self, island: usize) -> E3Config {
        assert!(island < self.islands, "island index out of range");
        let mut config = self.base.clone();
        config.checkpoint = self.checkpoint.as_ref().map(|policy| {
            let dir = format!("{}/{}", policy.dir, namespace(island));
            CheckpointPolicy::new(dir)
                .every(policy.every)
                .keep_last(policy.keep_last)
        });
        config
    }
}

/// Builder for [`IslandsConfig`].
#[derive(Debug, Clone)]
pub struct IslandsConfigBuilder {
    config: IslandsConfig,
}

impl IslandsConfigBuilder {
    /// Sets the evaluation backend (default: CPU).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.config.backend = backend;
        self
    }

    /// Sets the number of islands (default: 4).
    pub fn islands(mut self, islands: usize) -> Self {
        self.config.islands = islands;
        self
    }

    /// Sets the migration topology (default: ring).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.config.topology = topology;
        self
    }

    /// Sets the migration interval `K` (default: 5).
    pub fn migration_interval(mut self, k: usize) -> Self {
        self.config.migration_interval = k;
        self
    }

    /// Sets the emigrant count `M` per boundary (default: 2).
    pub fn emigrants(mut self, m: usize) -> Self {
        self.config.emigrants = m;
        self
    }

    /// Sets the archipelago seed (default: 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Installs a shared-parent checkpoint policy (see
    /// [`IslandsConfig::checkpoint`]).
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.config.checkpoint = Some(policy);
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics when the config cannot uphold the determinism contract:
    /// zero islands, a zero migration interval, a base config that
    /// carries its own checkpoint policy, or a worst-case immigrant
    /// wave (`M × max-sources`) that outnumbers the population.
    pub fn build(self) -> IslandsConfig {
        let c = self.config;
        assert!(c.islands >= 1, "need at least one island");
        assert!(c.migration_interval >= 1, "migration interval must be ≥ 1");
        assert!(
            c.base.checkpoint.is_none(),
            "configure island checkpointing via IslandsConfig::checkpoint, \
             not the base E3Config (islands namespace a shared parent dir)"
        );
        let max_sources = (0..c.islands)
            .map(|i| c.sources(i).len())
            .max()
            .unwrap_or(0);
        assert!(
            c.emigrants * max_sources < c.base.neat.population_size,
            "an immigrant wave ({} emigrants × {} sources) must be smaller \
             than the population ({})",
            c.emigrants,
            max_sources,
            c.base.neat.population_size
        );
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_envs::EnvId;

    fn base() -> E3Config {
        E3Config::builder(EnvId::CartPole)
            .population_size(20)
            .max_generations(4)
            .build()
    }

    #[test]
    fn ring_sources_are_the_predecessor() {
        assert_eq!(Topology::Ring.sources(0, 4), vec![3]);
        assert_eq!(Topology::Ring.sources(2, 4), vec![1]);
        assert!(Topology::Ring.sources(0, 1).is_empty());
    }

    #[test]
    fn fully_connected_sources_are_everyone_else_ascending() {
        assert_eq!(Topology::FullyConnected.sources(1, 4), vec![0, 2, 3]);
        assert!(Topology::FullyConnected.sources(0, 1).is_empty());
    }

    #[test]
    fn island_zero_keeps_the_archipelago_seed() {
        assert_eq!(island_seed(42, 0), 42);
        assert_ne!(island_seed(42, 1), 42);
        assert_ne!(island_seed(42, 1), island_seed(42, 2));
        assert_ne!(island_seed(42, 1), island_seed(43, 1));
    }

    #[test]
    fn boundaries_follow_the_interval() {
        let config = IslandsConfig::builder(base())
            .islands(2)
            .migration_interval(3)
            .build();
        let boundaries: Vec<usize> = (0..10).filter(|&g| config.is_boundary(g)).collect();
        assert_eq!(boundaries, vec![2, 5, 8]);
        let solo = IslandsConfig::builder(base()).islands(1).build();
        assert!((0..10).all(|g| !solo.is_boundary(g)));
    }

    #[test]
    fn island_configs_namespace_the_checkpoint_dir() {
        let config = IslandsConfig::builder(base())
            .islands(2)
            .checkpoint(CheckpointPolicy::new("/tmp/archi").every(2).keep_last(3))
            .build();
        let c1 = config.island_config(1);
        let policy = c1.checkpoint.expect("namespaced policy");
        assert_eq!(policy.dir, "/tmp/archi/island-0001");
        assert_eq!(policy.every, 2);
        assert_eq!(policy.keep_last, 3);
        assert!(config.island_config(0).checkpoint.is_some());
    }

    #[test]
    #[should_panic(expected = "immigrant wave")]
    fn oversized_immigrant_waves_are_rejected() {
        let _ = IslandsConfig::builder(base())
            .islands(4)
            .topology(Topology::FullyConnected)
            .emigrants(7)
            .build();
    }
}
