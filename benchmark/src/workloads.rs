//! The eight workloads: what each runs and why it exists.
//!
//! Every workload is a closed loop with one client: the harness asks
//! for the next generation only after the previous one returned. The
//! program under test only ever receives the configurations built
//! here from `--seed`.

use e3_envs::{EnvId, ScenarioDistribution};
use e3_islands::IslandsConfig;
use e3_platform::{
    BackendKind, CheckpointPolicy, E3Config, FitnessAggregation, HoldoutConfig, JitConfig,
    ScenarioConfig, SwCostModel,
};
use std::path::Path;

/// Untimed generations at the start of every seed-run: decode caches
/// fill, pool workers spawn their scratch, lazy set-up finishes.
pub const WARMUP_GENERATIONS: usize = 5;

/// What a workload adds to the plain platform loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Batched route, no telemetry, no persistence.
    Plain,
    /// Tiered execution on: scalar route, decode cache, native code.
    Jit,
    /// Scenario kernels: K = 4 training scenarios with CVaR, plus a
    /// held-out pass every generation.
    Scenarios,
    /// NDJSON + metrics registry + tracer + checkpoints every 5
    /// generations.
    Observed,
    /// `run_islands`: 4 islands over one shared pool, 2 drivers.
    Islands,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in every result.
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
    pub env: EnvId,
    pub backend: BackendKind,
    pub population: usize,
    /// Pool workers.
    pub threads: usize,
    /// Timed generations per seed-run (after the warm-up): sized so
    /// that a seed-run takes a third of a second on the sizing host
    /// (a second on `bipedal_t2`) and each of a 16 s pass's five
    /// sweeps pools some nine seeds. How fast a run goes depends on
    /// where its seed's evolution wanders (net sizes, episode
    /// lengths), by ±10 % and more after a hundred generations; only
    /// pooling many short seed-runs keeps a pass's medians steady from
    /// one `--seed` to the next.
    pub generations: usize,
    pub variant: Variant,
    /// Whether `BENCHMARK.json` lists the workload, so that the
    /// benchmark driver holds every change to its bounds on it. The two
    /// workloads with two pool workers are not listed: on the 2-vCPU
    /// sizing host two runs of one seed differ by 15-17 % whatever the
    /// harness does (README, *Sizing*), which no bound the contract
    /// allows can sit three times above. `run` measures all eight.
    pub gated: bool,
}

/// Island count, migration interval and emigrants of `islands4_t2`.
pub const ISLANDS: usize = 4;
const MIGRATION_INTERVAL: usize = 5;
const EMIGRANTS: usize = 2;
/// Driver threads of `islands4_t2`. A driver parks while its island's
/// evaluation occupies the pool, so drivers and pool workers together
/// keep at most `threads` cores busy.
pub const ISLAND_DRIVERS: usize = 2;

pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "cartpole_default",
        why: "Smallest nets, cheapest env: per-step dispatch, route choice and fixed per-generation overhead dominate; the batched kernel's worst case.",
        env: EnvId::CartPole,
        backend: BackendKind::Cpu,
        population: 200,
        threads: 1,
        generations: 30,
        variant: Variant::Plain,
        gated: true,
    },
    Workload {
        name: "lander_default",
        why: "Mid-size nets on the hand-vectorised SoA env: the batched kernel's best case and the highest evolve share; baseline of the jit and observed pairs.",
        env: EnvId::LunarLander,
        backend: BackendKind::Cpu,
        population: 200,
        threads: 1,
        generations: 30,
        variant: Variant::Plain,
        gated: true,
    },
    Workload {
        name: "lander_jit",
        why: "lander_default with the JIT tier on: scalar route, tiered decode cache, native code; the pair isolates tier and route, batch kernels do nothing here.",
        env: EnvId::LunarLander,
        backend: BackendKind::Cpu,
        population: 200,
        threads: 1,
        generations: 30,
        variant: Variant::Jit,
        gated: true,
    },
    Workload {
        name: "bipedal_t2",
        why: "Widest nets, full 1600-step episodes, adapter env, two pool workers: activation- and pool-bound, evolve share lowest; sharding, stealing and imbalance show here.",
        env: EnvId::Bipedal,
        backend: BackendKind::Cpu,
        population: 200,
        threads: 2,
        generations: 8,
        variant: Variant::Plain,
        gated: false,
    },
    Workload {
        name: "lander_k4",
        why: "Scenario kernels: 800 lanes per generation with per-lane physics, CVaR aggregation and a scalar held-out pass; wide batches amortise what narrow ones cannot.",
        env: EnvId::LunarLander,
        backend: BackendKind::Cpu,
        population: 200,
        threads: 1,
        generations: 12,
        variant: Variant::Scenarios,
        gated: true,
    },
    Workload {
        name: "cartpole_inax",
        why: "Host time of the cycle-level INAX simulator (wave loop, utilisation counters), the paper-facing backend; simulated statistics must repeat exactly.",
        env: EnvId::CartPole,
        backend: BackendKind::Inax,
        population: 200,
        threads: 1,
        generations: 25,
        variant: Variant::Plain,
        gated: true,
    },
    Workload {
        name: "lander_observed",
        why: "lander_default with NDJSON, metrics registry, tracer and a checkpoint every 5 generations: writes beside reads; the pair is the observability overhead.",
        env: EnvId::LunarLander,
        backend: BackendKind::Cpu,
        population: 200,
        threads: 1,
        generations: 30,
        variant: Variant::Observed,
        gated: true,
    },
    Workload {
        name: "islands4_t2",
        why: "run_islands: 4 islands of 100 on one 2-worker pool, ring migration every 5: scheduler, exchange and pool time-slicing; narrow populations raise the evolve share.",
        env: EnvId::CartPole,
        backend: BackendKind::Cpu,
        population: 100,
        threads: 2,
        generations: 30,
        variant: Variant::Islands,
        gated: false,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A cost model whose modeled seconds *are* the environment-step
/// count: one second per step, zero for everything else. The island
/// scheduler forwards no `Eval` record, so `IslandOutcome::
/// modeled_seconds` is the only place a step total leaves it. Cost
/// models never affect results or host work (the same multiplications
/// run with other constants).
fn step_counting_cost_model() -> SwCostModel {
    SwCostModel {
        sec_per_node_eval: 0.0,
        sec_per_conn_eval: 0.0,
        sec_per_inference: 0.0,
        sec_per_env_step: 1.0,
        sec_mutate_per_genome: 0.0,
        sec_crossover_per_child: 0.0,
        sec_speciate_per_comparison: 0.0,
        sec_createnet_per_genome: 0.0,
        sec_createnet_per_gene: 0.0,
    }
}

impl Workload {
    /// Whether this is the archipelago workload.
    pub fn is_islands(&self) -> bool {
        self.variant == Variant::Islands
    }

    /// The same workload with at most `generations` timed generations
    /// per seed-run (quick scale).
    pub fn capped(mut self, generations: usize) -> Self {
        self.generations = self.generations.min(generations);
        self
    }

    /// Total generations of one seed-run.
    pub fn total_generations(&self) -> usize {
        WARMUP_GENERATIONS + self.generations
    }

    /// The platform configuration of one seed-run. `scratch` is where
    /// an observed run may write; other variants ignore it. For the
    /// islands workload this is one island's configuration (the
    /// `base` of [`Workload::islands_config`]).
    pub fn config(&self, scratch: &Path) -> E3Config {
        let builder = E3Config::builder(self.env)
            .population_size(self.population)
            .max_generations(self.total_generations())
            // Fixed length: a solved run must not stop early.
            .target_fitness(f64::INFINITY)
            .threads(self.threads);
        match self.variant {
            Variant::Plain | Variant::Islands => builder.build(),
            Variant::Jit => builder
                .jit(JitConfig {
                    enabled: true,
                    ..JitConfig::default()
                })
                .build(),
            Variant::Scenarios => builder
                .scenario(
                    ScenarioConfig::default()
                        .train(ScenarioDistribution::moderate())
                        .scenarios_per_eval(4)
                        .aggregation(FitnessAggregation::CVaR { alpha: 0.5 })
                        .holdout(HoldoutConfig::new(ScenarioDistribution::shifted()).scenarios(8)),
                )
                .build(),
            Variant::Observed => builder
                .checkpoint(
                    CheckpointPolicy::new(scratch.join("ckpt").to_string_lossy().into_owned())
                        .every(5),
                )
                .build(),
        }
    }

    /// The configuration whose results this workload must reproduce
    /// bit for bit: one thread, CPU interpreter, no tier, no
    /// telemetry, no persistence. Scenario settings stay, because
    /// they change results by design.
    pub fn reference_config(&self) -> E3Config {
        let mut config = self.config(Path::new(""));
        config.threads = 1;
        config.jit = JitConfig::default();
        config.checkpoint = None;
        config
    }

    /// The archipelago configuration of one `islands4_t2` seed-run.
    pub fn islands_config(&self, seed: u64) -> IslandsConfig {
        let mut base = self.config(Path::new(""));
        base.sw = step_counting_cost_model();
        IslandsConfig::builder(base)
            .backend(self.backend)
            .islands(ISLANDS)
            .migration_interval(MIGRATION_INTERVAL)
            .emigrants(EMIGRANTS)
            .seed(seed)
            .build()
    }
}

/// `Some(reason)` when `workload` would run more threads than the host
/// has cores: such a result measures the scheduler's time-slicing, not
/// the program, and is reported as oversubscribed instead.
pub fn oversubscribed(workload: &Workload, host_cores: usize) -> Option<String> {
    (workload.threads > host_cores).then(|| {
        format!(
            "{} needs {} runnable threads, the host has {host_cores}",
            workload.name, workload.threads
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(WORKLOADS[..i].iter().all(|other| other.name != w.name));
            assert!(w.why.len() <= 200, "{}: why is one short line", w.name);
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn oversubscribed_guard_trips_only_above_host_cores() {
        let two = find("bipedal_t2").unwrap();
        assert!(oversubscribed(two, 1).is_some());
        assert!(oversubscribed(two, 2).is_none());
        let one = find("cartpole_default").unwrap();
        assert!(oversubscribed(one, 1).is_none());
    }

    #[test]
    fn reference_config_drops_every_speed_only_setting() {
        for name in ["lander_jit", "lander_observed"] {
            let w = find(name).unwrap();
            assert_eq!(
                w.reference_config(),
                find("lander_default").unwrap().reference_config(),
                "{name} must reproduce lander_default"
            );
        }
        assert_eq!(find("bipedal_t2").unwrap().reference_config().threads, 1);
        assert!(!find("lander_k4")
            .unwrap()
            .reference_config()
            .scenario
            .is_vanilla());
    }
}
