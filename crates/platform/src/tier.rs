//! The tiered plan cache of the evaluation kernel.
//!
//! Unchanged elites and champions survive generations verbatim, so
//! their compiled [`NetPlan`] can be kept: a [`DecodeCache`] is keyed
//! by [`Genome::fingerprint`] and a lookup for an unchanged genome
//! returns the previously compiled plan. The 64-bit key is only a hint: every entry keeps its
//! genome and a hit is served only after `Genome: PartialEq` confirms
//! it, so a collision is a miss that replaces the entry, never another
//! genome's phenotype.
//!
//! # Who consults it, and why nobody else
//!
//! A lookup costs a byte-wise hash over the whole genome (1.84 µs at
//! LunarLander sizes), more than compiling the plan afresh (1.0–1.2 µs),
//! and only a generation's survivors can hit. So
//! `fingerprint + (1 − h) · compile` never beats a plain `compile`, and
//! a backend that needs nothing but the plan compiles it afresh:
//! **E3-CPU and E3-GPU with
//! the tier off** (hit rate 0.01 on LunarLander — EXPERIMENTS.md
//! "Where the time goes") and **E3-INAX** (0.36 on CartPole;
//! `cartpole_inax` reads +2 % `env_steps_per_s` without the lookup —
//! EXPERIMENTS.md "INAX off the cache").
//!
//! That leaves the one caller to whom an entry is worth more than a
//! recompile, the **kernel with the tier on**: every entry
//! carries a use counter, and [`DecodeCache::get_or_tiered`] promotes
//! entries that cross [`JitConfig::hot_threshold`] to a natively
//! compiled [`CompiledPlan`] (see `e3-jit`) — hotness and native code
//! are state a recompile cannot rebuild. Both tiers are bit-identical,
//! so promotion can only change speed and telemetry, never results.
//!
//! # Who owns it
//!
//! A [`Tier`] is construction-time state of one `Backend`, which
//! turns the epoch and drains the counters around its own `run_shards`
//! call: an entry's lifetime is counted in *this run's* generations
//! even when many runs alternate on one shared pool. (Hung off the
//! pool's workers, the epoch would turn once per *job*, and two
//! alternating runs would evict each other's entries before either
//! could hit.)
//!
//! A cached [`NetPlan`] is immutable: the value buffers its episodes
//! walk belong to the shard, so an entry carries no episode state.

use e3_jit::{CompiledPlan, JitConfig};
use e3_neat::{DecodeError, Genome, NetPlan};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

#[derive(Debug)]
struct CacheEntry {
    /// The genome `plan` was compiled from: what a hit is confirmed
    /// against, since the 64-bit key alone can collide.
    genome: Genome,
    plan: NetPlan,
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
    fn new(genome: &Genome) -> Result<Self, DecodeError> {
        Ok(CacheEntry {
            plan: NetPlan::compile(genome)?,
            genome: genome.clone(),
            last_used: 0,
            uses: 0,
            jit: None,
            jit_failed: false,
        })
    }
}

/// A genome-fingerprint-keyed cache of compiled network plans.
///
/// Entries not used for two consecutive jobs (generations) are evicted
/// at the next [`DecodeCache::begin_job`], bounding the cache to the
/// working set of the current population.
#[derive(Debug, Default)]
pub(crate) struct DecodeCache {
    entries: HashMap<u64, CacheEntry>,
    epoch: u64,
    jit: JitConfig,
    /// Accumulated since the last [`DecodeCache::take_counters`]; the
    /// two gauges stay zero here.
    counters: TierStats,
}

/// The execution tier [`DecodeCache::get_or_tiered`] selected for a
/// genome: the interpreted [`NetPlan`], or (for hot entries under an
/// enabled [`JitConfig`]) its natively compiled twin plus a shared
/// borrow of the plan for inspection (costing, metrics).
///
/// Both tiers are bit-identical by `e3-jit`'s contract, so the choice
/// may only affect speed and telemetry, never results.
#[derive(Debug)]
pub(crate) enum TierExec<'a> {
    /// The plan interpreter — always available.
    Interpreted(&'a NetPlan),
    /// The native tier, with the backing plan alongside.
    Compiled {
        /// The interpreted twin (for inspection).
        plan: &'a NetPlan,
        /// The natively compiled executor.
        jit: &'a mut CompiledPlan,
    },
}

impl TierExec<'_> {
    /// The compiled plan backing either tier (for the lane walk,
    /// costing and complexity metrics) and, on the native tier, its
    /// scalar twin.
    pub(crate) fn split(&mut self) -> (&NetPlan, Option<&mut CompiledPlan>) {
        match self {
            TierExec::Interpreted(plan) => (plan, None),
            TierExec::Compiled { plan, jit } => (plan, Some(*jit)),
        }
    }
}

impl DecodeCache {
    /// Creates an empty cache promoting under `policy`.
    pub(crate) fn new(policy: JitConfig) -> Self {
        DecodeCache {
            jit: policy,
            ..DecodeCache::default()
        }
    }

    /// Starts a new job (generation): advances the epoch and evicts
    /// every entry not used in the previous job. Evicted native-tier
    /// plans have their activation counters drained first so no
    /// telemetry is lost with them.
    pub(crate) fn begin_job(&mut self) {
        self.epoch += 1;
        let horizon = self.epoch.saturating_sub(1);
        let counters = &mut self.counters;
        self.entries.retain(|_, e| {
            if e.last_used >= horizon {
                return true;
            }
            if let Some(jit) = e.jit.as_mut() {
                counters.jit_activations += jit.take_activations();
            }
            counters.cache_evictions += 1;
            false
        });
    }

    /// The cache's one lookup: returns the selected execution tier for
    /// `genome`, compiling its plan (and counting a miss) on first sight
    /// of the genome, then promoting the entry to the native tier
    /// once its use count crosses the configured hot threshold. With
    /// a disabled [`JitConfig`] nothing is ever promoted and every
    /// lookup yields [`TierExec::Interpreted`].
    ///
    /// A failed compilation is counted as a fallback, marks the entry
    /// so it is never retried, and keeps the interpreter — promotion
    /// is an optimization, never a requirement.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the genome is not feed-forward.
    pub(crate) fn get_or_tiered(&mut self, genome: &Genome) -> Result<TierExec<'_>, DecodeError> {
        self.lookup(genome.fingerprint(), genome)
    }

    /// [`DecodeCache::get_or_tiered`] under a caller-supplied key. An
    /// entry is a hit only if it was decoded from an equal genome; another
    /// genome under the same key is a miss whose fresh decode replaces the
    /// entry, unreported native activations and all.
    fn lookup(&mut self, key: u64, genome: &Genome) -> Result<TierExec<'_>, DecodeError> {
        let entry = match self.entries.entry(key) {
            Entry::Occupied(slot) if slot.get().genome == *genome => {
                self.counters.cache_hits += 1;
                slot.into_mut()
            }
            slot => {
                self.counters.cache_misses += 1;
                slot.insert_entry(CacheEntry::new(genome)?).into_mut()
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
            match CompiledPlan::compile(&entry.plan) {
                Ok(compiled) => {
                    self.counters.jit_compile_seconds += t0.elapsed().as_secs_f64();
                    self.counters.jit_compiled += 1;
                    self.counters.jit_bytes += compiled.code_bytes() as u64;
                    entry.jit = Some(compiled);
                }
                Err(_) => {
                    entry.jit_failed = true;
                    self.counters.jit_fallbacks += 1;
                }
            }
        }
        match entry.jit.as_mut() {
            Some(jit) => Ok(TierExec::Compiled {
                plan: &entry.plan,
                jit,
            }),
            None => Ok(TierExec::Interpreted(&entry.plan)),
        }
    }

    /// Number of cached plans.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of entries currently holding a native-tier plan — a
    /// gauge, like [`DecodeCache::len`].
    pub(crate) fn jit_resident(&self) -> usize {
        self.entries.values().filter(|e| e.jit.is_some()).count()
    }

    /// Takes and resets the hit/miss/eviction and JIT counters,
    /// draining every resident [`CompiledPlan`]'s activation count
    /// along the way. The current entry counts are *not* reset — they
    /// are gauges, read via [`DecodeCache::len`] and
    /// [`DecodeCache::jit_resident`].
    pub(crate) fn take_counters(&mut self) -> TierStats {
        for entry in self.entries.values_mut() {
            if let Some(jit) = entry.jit.as_mut() {
                self.counters.jit_activations += jit.take_activations();
            }
        }
        std::mem::take(&mut self.counters)
    }
}

/// What a [`Tier`] did during one evaluation, summed over its
/// per-worker caches — the `cache_*`/`jit_*` values of the `Exec` and
/// `Jit` telemetry records. All zero for a backend with no tier.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct TierStats {
    /// Lookups served from a cache.
    pub cache_hits: u64,
    /// Lookups that compiled a fresh plan.
    pub cache_misses: u64,
    /// Compiled plans resident at the end of the evaluation (a gauge,
    /// not a rate).
    pub cache_entries: u64,
    /// Entries evicted by this evaluation's epoch turnover
    /// ([`DecodeCache::begin_job`]).
    pub cache_evictions: u64,
    /// Plans promoted to the native (JIT) tier.
    pub jit_compiled: u64,
    /// Machine-code bytes emitted by those promotions.
    pub jit_bytes: u64,
    /// Seconds spent compiling plans to native code.
    pub jit_compile_seconds: f64,
    /// Promotion attempts that failed and kept the interpreter.
    pub jit_fallbacks: u64,
    /// Forward passes executed on the native tier (drained from every
    /// resident and evicted [`CompiledPlan`]).
    pub jit_activations: u64,
    /// Natively compiled plans resident at the end of the evaluation
    /// (a gauge, like `cache_entries`).
    pub jit_resident: u64,
}

impl TierStats {
    /// Fraction of lookups served from cache (0 when no lookups
    /// happened).
    pub(crate) fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// One backend's tier: a [`DecodeCache`] per executor worker index.
/// Shard tasks hold a clone, which shares the caches; the locks are
/// uncontended — a backend has one evaluation in flight and a worker
/// runs one shard at a time.
#[derive(Debug, Clone)]
pub(crate) struct Tier {
    policy: JitConfig,
    slots: Arc<[Mutex<DecodeCache>]>,
}

impl Tier {
    /// A tier promoting under `policy`, empty until its first run.
    pub(crate) fn new(policy: JitConfig) -> Self {
        Tier {
            policy,
            slots: Arc::new([]),
        }
    }

    /// Starts one evaluation on `workers` workers: turns every cache's
    /// epoch, evicting what the previous two evaluations of *this*
    /// backend did not use, and returns the handle its shard tasks
    /// share. (A backend moved to an executor of another width starts
    /// over with empty caches.)
    pub(crate) fn begin_run(&mut self, workers: usize) -> Tier {
        if self.slots.len() != workers {
            self.slots = (0..workers)
                .map(|_| Mutex::new(DecodeCache::new(self.policy)))
                .collect();
        }
        for worker in 0..workers {
            self.cache(worker).begin_job();
        }
        self.clone()
    }

    /// The cache of worker `worker`, held for one shard. A shard that
    /// panicked mid-lookup leaves at worst a stale entry behind, so a
    /// poisoned lock is still good.
    pub(crate) fn cache(&self, worker: usize) -> MutexGuard<'_, DecodeCache> {
        self.slots[worker]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Ends one evaluation: drains every cache's counters and reads
    /// its gauges.
    pub(crate) fn end_run(&self) -> TierStats {
        let mut stats = TierStats::default();
        for worker in 0..self.slots.len() {
            let mut cache = self.cache(worker);
            let drained = cache.take_counters();
            stats.cache_hits += drained.cache_hits;
            stats.cache_misses += drained.cache_misses;
            stats.cache_entries += cache.len() as u64;
            stats.cache_evictions += drained.cache_evictions;
            stats.jit_compiled += drained.jit_compiled;
            stats.jit_bytes += drained.jit_bytes;
            stats.jit_compile_seconds += drained.jit_compile_seconds;
            stats.jit_fallbacks += drained.jit_fallbacks;
            stats.jit_activations += drained.jit_activations;
            stats.jit_resident += cache.jit_resident() as u64;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_neat::{Genome, InnovationTracker, NeatConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn counters(cache_hits: u64, cache_misses: u64, cache_evictions: u64) -> TierStats {
        TierStats {
            cache_hits,
            cache_misses,
            cache_evictions,
            ..TierStats::default()
        }
    }

    fn genome() -> (Genome, NeatConfig, InnovationTracker, StdRng) {
        let config = NeatConfig::new(3, 2);
        let mut tracker = InnovationTracker::with_reserved_nodes(5);
        let mut rng = StdRng::seed_from_u64(5);
        let g = Genome::initial(&config, &mut tracker, &mut rng);
        (g, config, tracker, rng)
    }

    /// One forward pass through the tier `tier` selected.
    fn forward(tier: &mut TierExec, inputs: &[f64]) -> Vec<f64> {
        match tier.split() {
            (_, Some(native)) => native.activate_into(inputs).to_vec(),
            (plan, None) => plan.execute(inputs),
        }
    }

    /// One forward pass through whichever tier the lookup selected.
    fn activate(cache: &mut DecodeCache, genome: &Genome, inputs: &[f64]) -> Vec<f64> {
        let mut tier = cache.get_or_tiered(genome).expect("decodes");
        forward(&mut tier, inputs)
    }

    #[test]
    fn second_lookup_hits_the_first_one_s_plan() {
        let (g, _, _, _) = genome();
        let mut cache = DecodeCache::new(JitConfig::default());
        cache.begin_job();
        let plan = cache.get_or_tiered(&g).expect("compiles").split().0.clone();
        assert_eq!(plan, *g.decode().expect("decodes").plan());
        cache.get_or_tiered(&g).expect("decodes");
        assert_eq!(cache.take_counters(), counters(1, 1, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn mutated_genome_never_served_stale_network() {
        let (mut g, config, mut tracker, mut rng) = genome();
        let mut cache = DecodeCache::new(JitConfig::default());
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
    fn a_colliding_key_is_a_miss_that_replaces_the_entry() {
        let (g, config, mut tracker, mut rng) = genome();
        let inputs = [0.25, -0.5, 1.0];
        let fresh = |genome: &Genome| genome.decode().expect("decodes").activate(&inputs);
        let mut other = g.clone();
        while fresh(&other) == fresh(&g) {
            other.mutate(&config, &mut tracker, &mut rng);
        }
        let mut cache = DecodeCache::new(JitConfig::default());
        cache.begin_job();
        // Two different genomes forced under one key: each is served
        // its own network, the second by evicting the first.
        let mut served = |genome: &Genome| {
            let mut tier = cache.lookup(7, genome).expect("decodes");
            forward(&mut tier, &inputs)
        };
        assert_eq!(served(&g), fresh(&g));
        assert_eq!(served(&other), fresh(&other), "a collision must miss");
        assert_eq!(served(&other), fresh(&other), "the replacement hits");
        assert_eq!(served(&g), fresh(&g), "and is replaced in turn");
        assert_eq!(cache.take_counters(), counters(1, 3, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        let mut stats = TierStats::default();
        assert_eq!(stats.cache_hit_rate(), 0.0);
        stats.cache_hits = 3;
        stats.cache_misses = 1;
        assert!((stats.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn eviction_drops_entries_unused_for_two_jobs() {
        let (g, config, mut tracker, mut rng) = genome();
        let mut other = g.clone();
        for _ in 0..20 {
            other.mutate(&config, &mut tracker, &mut rng);
        }
        assert_ne!(g.fingerprint(), other.fingerprint());
        let mut cache = DecodeCache::new(JitConfig::default());
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
        let mut cache = DecodeCache::new(JitConfig::default());
        cache.begin_job();
        for _ in 0..10 {
            let tier = cache.get_or_tiered(&g).expect("decodes");
            assert!(
                !matches!(tier, TierExec::Compiled { .. }),
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
        let mut cache = DecodeCache::new(JitConfig {
            enabled: true,
            hot_threshold: 3,
        });
        cache.begin_job();
        for use_count in 1..=5u64 {
            let mut tier = cache.get_or_tiered(&g).expect("decodes");
            assert_eq!(
                matches!(tier, TierExec::Compiled { .. }),
                use_count >= 3,
                "promotion happens exactly at the threshold"
            );
            let out = match &mut tier {
                TierExec::Interpreted(plan) => plan.execute(&inputs),
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
        assert_eq!((c.cache_hits, c.cache_misses), (4, 1));
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
        let mut cache = DecodeCache::new(JitConfig {
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
        assert_eq!(c.cache_evictions, 1);
        assert_eq!(
            c.jit_activations, 1,
            "activations of evicted plans survive into the counters"
        );
    }

    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    #[test]
    fn unsupported_targets_fall_back_to_the_interpreter() {
        let (g, _, _, _) = genome();
        let mut cache = DecodeCache::new(JitConfig {
            enabled: true,
            hot_threshold: 1,
        });
        cache.begin_job();
        for _ in 0..3 {
            let tier = cache.get_or_tiered(&g).expect("decodes");
            assert!(
                !matches!(tier, TierExec::Compiled { .. }),
                "no native tier off x86-64 Linux"
            );
        }
        let c = cache.take_counters();
        assert_eq!(c.jit_fallbacks, 1, "the failed compile is not retried");
        assert_eq!(c.jit_compiled, 0);
    }
}
