//! The tiered plan cache of the evaluation kernel.
//!
//! The kernel compiles every genome to its own [`NetPlan`], tier or no
//! tier, and a [`PlanCache`] is asked only about that plan. It counts
//! how often each distinct plan is met and, once a plan crosses
//! [`JitConfig::hot_threshold`], keeps its natively compiled twin
//! ([`CompiledPlan`], see `e3-jit`). A plan is filed under
//! [`NetPlan::key`], a word-wise hash, and a hit is served only after
//! [`NetPlan::same_bits`] confirms the stored plan bit for bit, so a
//! collision is a miss that replaces the entry, never another plan's
//! native code. Both tiers are bit-identical, so promotion can only
//! change speed and telemetry, never results.
//!
//! # Who consults it, and why nobody else
//!
//! A lookup costs one hash of a plan every genome compiles anyway, one
//! comparison on a hit and one plan copy on a miss — far less than the
//! compile itself, which no lookup can save: hashing the genome instead
//! costs about 2.5× a compile (EXPERIMENTS.md). Only the kernel with the tier
//! on pays it: use counts and native code are state a recompile cannot
//! rebuild, and they are all an entry is for. A backend without a tier
//! — E3-CPU and E3-GPU by default, E3-INAX always — owns no cache.
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
use e3_neat::NetPlan;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

#[derive(Debug)]
struct CacheEntry {
    /// A copy of the plan first filed under this entry's key: what a
    /// hit is confirmed against, since the 64-bit key alone can collide.
    plan: NetPlan,
    last_used: u64,
    /// Lookups that returned this entry since it was filed — the
    /// hotness signal tier promotion reads.
    uses: u64,
    /// Native tier, present once the entry crossed the hot threshold
    /// and compiled successfully.
    jit: Option<CompiledPlan>,
    /// Compilation failed once; never retried (the failure is a
    /// property of the plan or the platform, not of the moment).
    jit_failed: bool,
}

/// A plan-keyed cache of use counts and native twins.
///
/// Entries not used for two consecutive jobs (generations) are evicted
/// at the next [`PlanCache::begin_job`], bounding the cache to the
/// working set of the current population.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    entries: HashMap<u64, CacheEntry>,
    epoch: u64,
    jit: JitConfig,
    /// Accumulated since the last [`PlanCache::take_counters`]; the
    /// two gauges stay zero here.
    counters: TierStats,
}

impl PlanCache {
    /// Creates an empty cache promoting under `policy`.
    pub(crate) fn new(policy: JitConfig) -> Self {
        PlanCache {
            jit: policy,
            ..PlanCache::default()
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

    /// The cache's one lookup: counts a use of `plan` — a miss files a
    /// copy of it on first sight — promotes its entry to the native
    /// tier once the uses cross the configured hot threshold, and
    /// returns the native twin if the entry has one. With a disabled
    /// [`JitConfig`] nothing is ever promoted.
    ///
    /// A failed compilation is counted as a fallback, marks the entry
    /// so it is never retried, and keeps the interpreter — promotion
    /// is an optimization, never a requirement.
    pub(crate) fn native(&mut self, plan: &NetPlan) -> Option<&mut CompiledPlan> {
        self.lookup(plan.key(), plan)
    }

    /// [`PlanCache::native`] under a caller-supplied key. An entry is a
    /// hit only if its plan has `plan`'s bits; another plan under the
    /// same key is a miss whose copy replaces the entry, unreported
    /// native activations and all.
    fn lookup(&mut self, key: u64, plan: &NetPlan) -> Option<&mut CompiledPlan> {
        let entry = match self.entries.entry(key) {
            Entry::Occupied(slot) if slot.get().plan.same_bits(plan) => {
                self.counters.cache_hits += 1;
                slot.into_mut()
            }
            slot => {
                self.counters.cache_misses += 1;
                let entry = CacheEntry {
                    plan: plan.clone(),
                    last_used: 0,
                    uses: 0,
                    jit: None,
                    jit_failed: false,
                };
                slot.insert_entry(entry).into_mut()
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
        entry.jit.as_mut()
    }

    /// Number of cached plans.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of entries currently holding a native-tier plan — a
    /// gauge, like [`PlanCache::len`].
    pub(crate) fn jit_resident(&self) -> usize {
        self.entries.values().filter(|e| e.jit.is_some()).count()
    }

    /// Takes and resets the hit/miss/eviction and JIT counters,
    /// draining every resident [`CompiledPlan`]'s activation count
    /// along the way. The current entry counts are *not* reset — they
    /// are gauges, read via [`PlanCache::len`] and
    /// [`PlanCache::jit_resident`].
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
    /// Lookups that filed a plan not seen before.
    pub cache_misses: u64,
    /// Compiled plans resident at the end of the evaluation (a gauge,
    /// not a rate).
    pub cache_entries: u64,
    /// Entries evicted by this evaluation's epoch turnover
    /// ([`PlanCache::begin_job`]).
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

/// One backend's tier: a [`PlanCache`] per executor worker index.
/// Shard tasks hold a clone, which shares the caches; the locks are
/// uncontended — a backend has one evaluation in flight and a worker
/// runs one shard at a time.
#[derive(Debug, Clone)]
pub(crate) struct Tier {
    policy: JitConfig,
    slots: Arc<[Mutex<PlanCache>]>,
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
                .map(|_| Mutex::new(PlanCache::new(self.policy)))
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
    pub(crate) fn cache(&self, worker: usize) -> MutexGuard<'_, PlanCache> {
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

    /// Whether this target has a native tier to promote to.
    const NATIVE: bool = cfg!(all(target_arch = "x86_64", target_os = "linux"));

    /// Promotes every plan on its first use.
    const HOT: JitConfig = JitConfig {
        enabled: true,
        hot_threshold: 1,
    };

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

    fn plan(genome: &Genome) -> NetPlan {
        NetPlan::compile(genome).expect("feed-forward")
    }

    /// A genome's plan and a differently behaving mutant's.
    fn two_plans() -> (NetPlan, NetPlan) {
        let (g, config, mut tracker, mut rng) = genome();
        let inputs = [0.25, -0.5, 1.0];
        let mut other = g.clone();
        while plan(&other).execute(&inputs) == plan(&g).execute(&inputs) {
            other.mutate(&config, &mut tracker, &mut rng);
        }
        (plan(&g), plan(&other))
    }

    /// The one-input plan `bias + x · weight` with an `Identity` output.
    fn linear(weight: f64, bias: f64) -> NetPlan {
        let mut tracker = InnovationTracker::with_reserved_nodes(2);
        let mut genome = Genome::bare(1, 1);
        genome
            .add_connection(0, 1, weight, &mut tracker)
            .expect("a fresh connection");
        genome.set_bias(1, bias).expect("the output exists");
        let tanh = serde_json::to_string(&plan(&genome)).expect("serializes");
        let identity: NetPlan =
            serde_json::from_str(&tanh.replace("Tanh", "Identity")).expect("parses");
        assert_eq!(identity.node_edges(0)[0].1.to_bits(), weight.to_bits());
        assert_eq!(identity.bias(0).to_bits(), bias.to_bits());
        identity
    }

    /// One forward pass through the native twin the lookup returned —
    /// which must exist exactly where the target has a native tier —
    /// or, where it has none, through `plan` itself.
    fn served(cache: &mut PlanCache, key: u64, plan: &NetPlan, inputs: &[f64]) -> Vec<u64> {
        let native = cache.lookup(key, plan);
        assert_eq!(native.is_some(), NATIVE, "a hot plan has a native twin");
        let out = match native {
            Some(native) => native.activate(inputs),
            None => plan.execute(inputs),
        };
        out.iter().map(|v| v.to_bits()).collect()
    }

    fn bits(plan: &NetPlan, inputs: &[f64]) -> Vec<u64> {
        plan.execute(inputs).iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_second_compile_of_one_genome_hits_the_first_one_s_entry() {
        let (g, _, _, _) = genome();
        let mut cache = PlanCache::new(JitConfig::default());
        cache.begin_job();
        let first = plan(&g);
        assert!(cache.native(&first).is_none());
        let second = plan(&g);
        assert_eq!(second.key(), first.key());
        assert!(cache.native(&second).is_none());
        assert_eq!(cache.take_counters(), counters(1, 1, 0));
        assert_eq!(cache.len(), 1);
        assert!(cache.entries[&first.key()].plan.same_bits(&first));
    }

    #[test]
    fn a_changed_plan_is_never_served_stale_native_code() {
        let (mut g, config, mut tracker, mut rng) = genome();
        let mut cache = PlanCache::new(HOT);
        cache.begin_job();
        let inputs = [0.25, -0.5, 1.0];
        let before = plan(&g);
        assert_eq!(
            served(&mut cache, before.key(), &before, &inputs),
            bits(&before, &inputs)
        );
        // Mutate until the phenotype output actually changes.
        let mut after = before.clone();
        for _ in 0..100 {
            g.mutate(&config, &mut tracker, &mut rng);
            after = plan(&g);
            let out = served(&mut cache, after.key(), &after, &inputs);
            assert_eq!(out, bits(&after, &inputs), "a mutant runs its own code");
            if out != bits(&before, &inputs) {
                break;
            }
        }
        assert_ne!(bits(&before, &inputs), bits(&after, &inputs));
        // The unmutated plan's entry still runs the unmutated network.
        assert_eq!(
            served(&mut cache, before.key(), &before, &inputs),
            bits(&before, &inputs)
        );
    }

    #[test]
    fn under_one_key_two_plans_each_get_their_own_native_twin() {
        let (a, b) = two_plans();
        let inputs = [0.25, -0.5, 1.0];
        let mut cache = PlanCache::new(HOT);
        cache.begin_job();
        // Two different plans forced under one key: each is served its
        // own network, the second by replacing the first.
        let mut run = |plan: &NetPlan| served(&mut cache, 7, plan, &inputs);
        assert_eq!(run(&a), bits(&a, &inputs));
        assert_eq!(run(&b), bits(&b, &inputs), "a collision must miss");
        assert_eq!(run(&b), bits(&b, &inputs), "the replacement hits");
        assert_eq!(run(&a), bits(&a, &inputs), "and is replaced in turn");
        let c = cache.take_counters();
        assert_eq!((c.cache_hits, c.cache_misses), (1, 3));
        assert_eq!(c.jit_compiled + c.jit_fallbacks, 3, "one twin per miss");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn plans_that_differ_only_in_a_zero_s_sign_are_two_entries() {
        // −0.0 + 1·(±0.0) is ±0.0, and `Identity` passes the sign on:
        // f64 `==` calls the two plans equal, their outputs are not.
        let (positive, negative) = (linear(0.0, -0.0), linear(-0.0, -0.0));
        assert_ne!(bits(&positive, &[1.0]), bits(&negative, &[1.0]));
        let mut cache = PlanCache::new(HOT);
        cache.begin_job();
        for key in [None, Some(7)] {
            for plan in [&positive, &negative] {
                let key = key.unwrap_or_else(|| plan.key());
                assert_eq!(served(&mut cache, key, plan, &[1.0]), bits(plan, &[1.0]));
            }
        }
        let c = cache.take_counters();
        assert_eq!((c.cache_hits, c.cache_misses), (0, 4));
        assert_eq!(c.jit_compiled + c.jit_fallbacks, 4, "one twin per miss");
        assert_eq!(cache.len(), 3, "two keyed entries and the forced one");
    }

    #[test]
    fn a_plan_with_a_nan_weight_hits_its_own_entry() {
        let mut tracker = InnovationTracker::with_reserved_nodes(2);
        let mut genome = Genome::bare(1, 1);
        genome
            .add_connection(0, 1, f64::NAN, &mut tracker)
            .expect("a fresh connection");
        let mut cache = PlanCache::new(JitConfig::default());
        cache.begin_job();
        for _ in 0..3 {
            cache.native(&plan(&genome));
        }
        assert_eq!(cache.take_counters(), counters(2, 1, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn the_hot_threshold_counts_uses_per_distinct_plan() {
        let (a, b) = two_plans();
        let mut cache = PlanCache::new(JitConfig {
            enabled: true,
            hot_threshold: 2,
        });
        cache.begin_job();
        let promoted: Vec<bool> = [&a, &b, &a, &b, &a]
            .map(|plan| cache.native(plan).is_some())
            .into();
        assert_eq!(promoted, [false, false, NATIVE, NATIVE, NATIVE]);
        let c = cache.take_counters();
        assert_eq!((c.cache_hits, c.cache_misses), (3, 2));
        assert_eq!(
            c.jit_compiled + c.jit_fallbacks,
            2,
            "one promotion per plan"
        );
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
        let (g, other) = two_plans();
        assert_ne!(g.key(), other.key());
        let mut cache = PlanCache::new(JitConfig::default());
        cache.begin_job(); // epoch 1
        cache.native(&g);
        cache.native(&other);
        assert_eq!(cache.len(), 2);
        cache.begin_job(); // epoch 2: both used at epoch 1, kept
        cache.native(&g);
        assert_eq!(cache.len(), 2);
        cache.begin_job(); // epoch 3: `other` last used at epoch 1, evicted
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.take_counters(),
            counters(1, 2, 1),
            "the epoch turnover is counted as one eviction"
        );
        cache.native(&other);
        assert_eq!(
            cache.take_counters(),
            counters(0, 1, 0),
            "an evicted plan is filed afresh"
        );
    }

    #[test]
    fn a_disabled_policy_never_promotes() {
        let (g, _, _, _) = genome();
        let mut cache = PlanCache::new(JitConfig::default());
        cache.begin_job();
        for _ in 0..10 {
            assert!(
                cache.native(&plan(&g)).is_none(),
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
        let inputs = [0.25, -0.5, 1.0];
        let plan = plan(&g);
        let mut cache = PlanCache::new(JitConfig {
            enabled: true,
            hot_threshold: 3,
        });
        cache.begin_job();
        for use_count in 1..=5u64 {
            let out = match cache.native(&plan) {
                Some(native) => {
                    assert!(use_count >= 3, "promoted before the threshold");
                    native.activate(&inputs)
                }
                None => {
                    assert!(use_count < 3, "not promoted at the threshold");
                    plan.execute(&inputs)
                }
            };
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
                bits(&plan, &inputs),
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
        cache
            .native(&plan)
            .expect("the entry stays promoted")
            .activate(&inputs);
        assert_eq!(cache.take_counters().jit_activations, 1);
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn eviction_drains_native_tier_activations() {
        let (g, _, _, _) = genome();
        let mut cache = PlanCache::new(HOT);
        cache.begin_job(); // epoch 1
        cache
            .native(&plan(&g))
            .expect("threshold 1 promotes on first use")
            .activate(&[0.1, 0.2, 0.3]);
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
        let mut cache = PlanCache::new(HOT);
        cache.begin_job();
        for _ in 0..3 {
            assert!(
                cache.native(&plan(&g)).is_none(),
                "no native tier off x86-64 Linux"
            );
        }
        let c = cache.take_counters();
        assert_eq!(c.jit_fallbacks, 1, "the failed compile is not retried");
        assert_eq!(c.jit_compiled, 0);
    }
}
