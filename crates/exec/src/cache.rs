//! Per-worker compiled-plan cache.
//!
//! Unchanged elites and champions survive generations verbatim, so a
//! worker can keep their compiled [`NetPlan`] across generations: the
//! cache is keyed by [`Genome::fingerprint`], a lookup for an unchanged
//! genome returns the previously compiled plan (wrapped in its
//! [`Network`] executor), and any mutation changes the fingerprint, so
//! a mutated genome can never be served a stale phenotype.
//!
//! # Who consults it, and why not everyone
//!
//! A lookup is not free: the fingerprint is a byte-wise hash over the
//! whole genome (~1.7 µs at LunarLander sizes) and compiling the plan
//! afresh costs about the same (~1.9 µs), while only the survivors of
//! a generation can hit (measured hit rate 0.01 on LunarLander, 0.36
//! on CartPole). So `fingerprint + (1 − h) · compile` beats plain
//! `compile` only above h ≈ 0.9, which evolution never reaches: a
//! caller that needs nothing but the plan should call
//! [`NetPlan::compile`] itself, and the platform's lockstep kernel
//! does. The cache is for callers to whom an entry is worth more than
//! a recompile:
//!
//! * the **tiered route** (the per-genome software kernel): every
//!   entry carries a use counter, and [`DecodeCache::get_or_tiered`]
//!   promotes entries that cross the configured
//!   [`JitConfig::hot_threshold`] to a natively compiled
//!   [`CompiledPlan`] (see `e3-jit`) — hotness and native code are
//!   state a recompile cannot rebuild. The interpreter stays the
//!   oracle — both tiers are bit-identical — so promotion can only
//!   change speed and telemetry, never results;
//! * the **INAX wave kernel**, which reads [`TierExec::plan`] to build
//!   the hardware layout and keeps the cache because its host time is
//!   the simulator's, not CreateNet's.
//!
//! Reusing a cached [`Network`] across episodes is safe because
//! `activate` overwrites every value-buffer slot on each pass — the
//! executor carries no hidden episode state.

use e3_jit::{CompiledPlan, JitConfig};
use e3_neat::{DecodeError, ForwardPass, Genome, NetPlan, Network};
use std::collections::HashMap;
use std::time::Instant;

struct CacheEntry {
    net: Network,
    last_used: u64,
    /// Lookups that returned this entry since it was decoded — the
    /// hotness signal tier promotion reads.
    uses: u64,
    /// Native tier, present once the entry crossed the hot threshold
    /// and compiled successfully.
    jit: Option<CompiledPlan>,
    /// Compilation failed once; never retried (the failure is a
    /// property of the plan or the platform, not of the moment).
    jit_failed: bool,
}

impl CacheEntry {
    fn new(net: Network) -> Self {
        CacheEntry {
            net,
            last_used: 0,
            uses: 0,
            jit: None,
            jit_failed: false,
        }
    }
}

/// Counters drained from a [`DecodeCache`] by
/// [`DecodeCache::take_counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled a fresh plan.
    pub misses: u64,
    /// Entries evicted by [`DecodeCache::begin_job`] epoch turnover.
    pub evictions: u64,
    /// Plans promoted to the native tier.
    pub jit_compiled: u64,
    /// Machine-code bytes emitted by those promotions.
    pub jit_bytes: u64,
    /// Nanoseconds spent compiling (observability only — never fed
    /// back into scheduling).
    pub jit_compile_nanos: u64,
    /// Promotion attempts that failed and fell back to the interpreter.
    pub jit_fallbacks: u64,
    /// Forward passes executed on the native tier (drained from every
    /// resident and evicted [`CompiledPlan`]).
    pub jit_activations: u64,
}

/// A genome-fingerprint-keyed cache of compiled network plans.
///
/// Entries not used for two consecutive jobs (generations) are evicted
/// at the next [`DecodeCache::begin_job`], bounding the cache to the
/// working set of the current population.
#[derive(Default)]
pub struct DecodeCache {
    entries: HashMap<u64, CacheEntry>,
    epoch: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    jit: JitConfig,
    jit_compiled: u64,
    jit_bytes: u64,
    jit_compile_nanos: u64,
    jit_fallbacks: u64,
    jit_activations: u64,
}

/// The execution tier [`DecodeCache::get_or_tiered`] selected for a
/// genome: the interpreted [`Network`], or (for hot entries under an
/// enabled [`JitConfig`]) its natively compiled twin plus a shared
/// borrow of the network for plan inspection (costing, metrics).
///
/// Both tiers are bit-identical by `e3-jit`'s contract, so the choice
/// may only affect speed and telemetry, never results.
#[derive(Debug)]
pub enum TierExec<'a> {
    /// The plan interpreter — always available.
    Interpreted(&'a mut Network),
    /// The native tier, with the backing network alongside.
    Compiled {
        /// The interpreted twin (for [`NetPlan`] inspection).
        net: &'a Network,
        /// The natively compiled executor.
        jit: &'a mut CompiledPlan,
    },
}

impl TierExec<'_> {
    /// The interpreted network backing either tier (for plan
    /// inspection — costing, complexity metrics).
    pub fn net(&self) -> &Network {
        match self {
            TierExec::Interpreted(net) => net,
            TierExec::Compiled { net, .. } => net,
        }
    }

    /// The compiled plan backing either tier.
    pub fn plan(&self) -> &NetPlan {
        self.net().plan()
    }

    /// The selected tier as the episode-kernel execution seam.
    pub fn forward(&mut self) -> &mut dyn ForwardPass {
        match self {
            TierExec::Interpreted(net) => *net,
            TierExec::Compiled { jit, .. } => *jit,
        }
    }

    /// Whether the native tier was selected.
    pub fn is_compiled(&self) -> bool {
        matches!(self, TierExec::Compiled { .. })
    }
}

impl DecodeCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        DecodeCache::default()
    }

    /// Starts a new job (generation): advances the epoch and evicts
    /// every entry not used in the previous job. Evicted native-tier
    /// plans have their activation counters drained first so no
    /// telemetry is lost with them.
    pub fn begin_job(&mut self) {
        self.epoch += 1;
        let horizon = self.epoch.saturating_sub(1);
        let before = self.entries.len();
        let mut drained = 0u64;
        self.entries.retain(|_, e| {
            if e.last_used >= horizon {
                return true;
            }
            if let Some(jit) = e.jit.as_mut() {
                drained += jit.take_activations();
            }
            false
        });
        self.jit_activations += drained;
        self.evictions += (before - self.entries.len()) as u64;
    }

    /// Installs the tiered-execution policy. Entries already resident
    /// keep their compiled tier; future promotions follow the new
    /// policy.
    pub fn set_jit(&mut self, config: JitConfig) {
        self.jit = config;
    }

    /// The cache's one lookup: returns the selected execution tier for
    /// `genome`, compiling its plan (and counting a miss) on first sight
    /// of the fingerprint, then promoting the entry to the native tier
    /// once its use count crosses the configured hot threshold. With
    /// the default (disabled) [`JitConfig`] nothing is ever promoted
    /// and every lookup yields [`TierExec::Interpreted`].
    ///
    /// A failed compilation is counted as a fallback, marks the entry
    /// so it is never retried, and keeps the interpreter — promotion
    /// is an optimization, never a requirement.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the genome is not feed-forward.
    pub fn get_or_tiered(&mut self, genome: &Genome) -> Result<TierExec<'_>, DecodeError> {
        let key = genome.fingerprint();
        let entry = match self.entries.entry(key) {
            std::collections::hash_map::Entry::Occupied(slot) => {
                self.hits += 1;
                slot.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                self.misses += 1;
                let net = genome.decode()?;
                slot.insert(CacheEntry::new(net))
            }
        };
        entry.last_used = self.epoch;
        entry.uses += 1;
        if self.jit.enabled
            && entry.jit.is_none()
            && !entry.jit_failed
            && entry.uses >= self.jit.hot_threshold
        {
            let t0 = Instant::now();
            match CompiledPlan::compile(entry.net.plan()) {
                Ok(compiled) => {
                    self.jit_compile_nanos += t0.elapsed().as_nanos() as u64;
                    self.jit_compiled += 1;
                    self.jit_bytes += compiled.code_bytes() as u64;
                    entry.jit = Some(compiled);
                }
                Err(_) => {
                    entry.jit_failed = true;
                    self.jit_fallbacks += 1;
                }
            }
        }
        match entry.jit.as_mut() {
            Some(jit) => Ok(TierExec::Compiled {
                net: &entry.net,
                jit,
            }),
            None => Ok(TierExec::Interpreted(&mut entry.net)),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries currently holding a native-tier plan — a
    /// gauge, like [`DecodeCache::len`].
    pub fn jit_resident(&self) -> usize {
        self.entries.values().filter(|e| e.jit.is_some()).count()
    }

    /// Takes and resets the hit/miss/eviction and JIT counters,
    /// draining every resident [`CompiledPlan`]'s activation count
    /// along the way. The current entry counts are *not* reset — they
    /// are gauges, read via [`DecodeCache::len`] and
    /// [`DecodeCache::jit_resident`].
    pub fn take_counters(&mut self) -> CacheCounters {
        let mut jit_activations = std::mem::take(&mut self.jit_activations);
        for entry in self.entries.values_mut() {
            if let Some(jit) = entry.jit.as_mut() {
                jit_activations += jit.take_activations();
            }
        }
        CacheCounters {
            hits: std::mem::take(&mut self.hits),
            misses: std::mem::take(&mut self.misses),
            evictions: std::mem::take(&mut self.evictions),
            jit_compiled: std::mem::take(&mut self.jit_compiled),
            jit_bytes: std::mem::take(&mut self.jit_bytes),
            jit_compile_nanos: std::mem::take(&mut self.jit_compile_nanos),
            jit_fallbacks: std::mem::take(&mut self.jit_fallbacks),
            jit_activations,
        }
    }
}

impl std::fmt::Debug for DecodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeCache")
            .field("entries", &self.entries.len())
            .field("epoch", &self.epoch)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("evictions", &self.evictions)
            .field("jit", &self.jit)
            .field("jit_resident", &self.jit_resident())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_neat::{Genome, InnovationTracker, NeatConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn counters(hits: u64, misses: u64, evictions: u64) -> CacheCounters {
        CacheCounters {
            hits,
            misses,
            evictions,
            ..CacheCounters::default()
        }
    }

    fn genome() -> (Genome, NeatConfig, InnovationTracker, StdRng) {
        let config = NeatConfig::new(3, 2);
        let mut tracker = InnovationTracker::with_reserved_nodes(5);
        let mut rng = StdRng::seed_from_u64(5);
        let g = Genome::initial(&config, &mut tracker, &mut rng);
        (g, config, tracker, rng)
    }

    /// One forward pass through whichever tier the lookup selected.
    fn activate(cache: &mut DecodeCache, genome: &Genome, inputs: &[f64]) -> Vec<f64> {
        let mut tier = cache.get_or_tiered(genome).expect("decodes");
        tier.forward().activate_into(inputs).to_vec()
    }

    #[test]
    fn second_lookup_hits_the_first_one_s_plan() {
        let (g, _, _, _) = genome();
        let mut cache = DecodeCache::new();
        cache.begin_job();
        let plan = cache.get_or_tiered(&g).expect("compiles").plan().clone();
        assert_eq!(plan, *g.decode().expect("decodes").plan());
        cache.get_or_tiered(&g).expect("decodes");
        assert_eq!(cache.take_counters(), counters(1, 1, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn mutated_genome_never_served_stale_network() {
        let (mut g, config, mut tracker, mut rng) = genome();
        let mut cache = DecodeCache::new();
        cache.begin_job();
        let inputs = vec![0.25, -0.5, 1.0];
        let before = activate(&mut cache, &g, &inputs);
        // Mutate until the phenotype output actually changes.
        let mut after = before.clone();
        for _ in 0..100 {
            g.mutate(&config, &mut tracker, &mut rng);
            after = activate(&mut cache, &g, &inputs);
            if after != before {
                break;
            }
        }
        assert_ne!(
            before, after,
            "mutated genome decoded fresh, not from cache"
        );
        // The cached entry for the pre-mutation genome must equal a
        // fresh decode of it too (the entry itself is never mutated).
        let unmutated = genome().0;
        let cached = activate(&mut cache, &unmutated, &inputs);
        let fresh = unmutated.decode().expect("decodes").activate(&inputs);
        assert_eq!(cached, fresh);
    }

    #[test]
    fn eviction_drops_entries_unused_for_two_jobs() {
        let (g, config, mut tracker, mut rng) = genome();
        let mut other = g.clone();
        for _ in 0..20 {
            other.mutate(&config, &mut tracker, &mut rng);
        }
        assert_ne!(g.fingerprint(), other.fingerprint());
        let mut cache = DecodeCache::new();
        cache.begin_job(); // epoch 1
        cache.get_or_tiered(&g).expect("decodes");
        cache.get_or_tiered(&other).expect("decodes");
        assert_eq!(cache.len(), 2);
        cache.begin_job(); // epoch 2: both used at epoch 1, kept
        cache.get_or_tiered(&g).expect("decodes");
        assert_eq!(cache.len(), 2);
        cache.begin_job(); // epoch 3: `other` last used at epoch 1, evicted
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.take_counters(),
            counters(1, 2, 1),
            "the epoch turnover is counted as one eviction"
        );
        cache.get_or_tiered(&other).expect("decodes");
        assert_eq!(
            cache.take_counters(),
            counters(0, 1, 0),
            "evicted entry re-decodes"
        );
    }

    #[test]
    fn a_disabled_policy_never_promotes() {
        let (g, _, _, _) = genome();
        let mut cache = DecodeCache::new();
        cache.begin_job();
        for _ in 0..10 {
            let tier = cache.get_or_tiered(&g).expect("decodes");
            assert!(
                !tier.is_compiled(),
                "disabled config must never promote an entry"
            );
        }
        assert_eq!(cache.take_counters(), counters(9, 1, 0));
        assert_eq!(cache.jit_resident(), 0);
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn hot_entries_promote_and_stay_bit_identical() {
        let (g, _, _, _) = genome();
        let inputs = vec![0.25, -0.5, 1.0];
        let reference = g.decode().expect("decodes").activate(&inputs);
        let mut cache = DecodeCache::new();
        cache.set_jit(JitConfig {
            enabled: true,
            hot_threshold: 3,
        });
        cache.begin_job();
        for use_count in 1..=5u64 {
            let mut tier = cache.get_or_tiered(&g).expect("decodes");
            assert_eq!(
                tier.is_compiled(),
                use_count >= 3,
                "promotion happens exactly at the threshold"
            );
            let out = match &mut tier {
                TierExec::Interpreted(net) => net.activate(&inputs),
                TierExec::Compiled { jit, .. } => jit.activate(&inputs),
            };
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
                "tiers drifted at use {use_count}"
            );
        }
        assert_eq!(cache.jit_resident(), 1);
        let c = cache.take_counters();
        assert_eq!((c.hits, c.misses), (4, 1));
        assert_eq!(c.jit_compiled, 1);
        assert!(c.jit_bytes > 0);
        assert_eq!(c.jit_fallbacks, 0);
        assert_eq!(c.jit_activations, 3, "uses 3..=5 ran on the native tier");
        // Drained counters reset; the resident plan keeps executing.
        let TierExec::Compiled { jit, .. } = cache.get_or_tiered(&g).expect("decodes") else {
            panic!("entry stays promoted");
        };
        jit.activate(&inputs);
        assert_eq!(cache.take_counters().jit_activations, 1);
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn eviction_drains_native_tier_activations() {
        let (g, _, _, _) = genome();
        let mut cache = DecodeCache::new();
        cache.set_jit(JitConfig {
            enabled: true,
            hot_threshold: 1,
        });
        cache.begin_job(); // epoch 1
        let mut tier = cache.get_or_tiered(&g).expect("decodes");
        if let TierExec::Compiled { jit, .. } = &mut tier {
            jit.activate(&[0.1, 0.2, 0.3]);
        } else {
            panic!("threshold 1 promotes on first use");
        }
        cache.begin_job(); // epoch 2: kept (used at epoch 1)
        cache.begin_job(); // epoch 3: evicted, activation drained
        assert_eq!(cache.len(), 0);
        let c = cache.take_counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(
            c.jit_activations, 1,
            "activations of evicted plans survive into the counters"
        );
    }

    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    #[test]
    fn unsupported_targets_fall_back_to_the_interpreter() {
        let (g, _, _, _) = genome();
        let mut cache = DecodeCache::new();
        cache.set_jit(JitConfig {
            enabled: true,
            hot_threshold: 1,
        });
        cache.begin_job();
        for _ in 0..3 {
            let tier = cache.get_or_tiered(&g).expect("decodes");
            assert!(!tier.is_compiled(), "no native tier off x86-64 Linux");
        }
        let c = cache.take_counters();
        assert_eq!(c.jit_fallbacks, 1, "the failed compile is not retried");
        assert_eq!(c.jit_compiled, 0);
    }
}
