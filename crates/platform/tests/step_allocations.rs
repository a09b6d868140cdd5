//! Counts, not clocks: an environment step in the evaluation kernel
//! allocates nothing, and a genome allocates only its own copy, compiled
//! plan and shape.
//!
//! This binary installs a counting allocator and runs the platform's
//! episode kernel on episodes of several lengths: a fixed Pendulum
//! population — continuous actions, the case that once built an action
//! vector on every step — in one world, whole K = 4 evaluations, whose
//! lane buffers belong to the shard, and K = 1 evaluations, whose
//! workers keep two genomes in flight, with the tier off and on. The
//! allocation count may
//! depend on the population, never on how many steps its episodes take.
//! It is a count of the whole process, so the binary holds a single
//! test.

mod common;

use e3_envs::{EnvId, Environment, Pendulum, ScenarioDistribution};
use e3_neat::stats::PlanShape;
use e3_neat::{Genome, InnovationTracker, NetPlan};
use e3_platform::backend::Worlds;
use e3_platform::telemetry::Tracer;
use e3_platform::{
    Backend, BackendKind, E3Config, E3Platform, FitnessAggregation, JitConfig, ScenarioConfig,
    ScenarioSpec, SwCostModel,
};

/// `n` CartPole genomes of one shape, each pushing the cart toward the
/// pole's lean (`sign` 1.0: episodes last hundreds of steps) or away
/// from it (`sign` −1.0: the pole falls within a few dozen).
fn cartpole_genomes(n: usize, sign: f64) -> Vec<Genome> {
    let mut tracker = InnovationTracker::with_reserved_nodes(6);
    let mut genome = Genome::bare(4, 2);
    for (from, to, weight) in [(2, 4, -1.0), (3, 4, -1.0), (2, 5, 1.0), (3, 5, 1.0)] {
        genome
            .add_connection(from, to, sign * weight, &mut tracker)
            .expect("a fresh connection");
    }
    vec![genome; n]
}

#[test]
fn evaluating_allocates_independently_of_episode_length() {
    // Two evolved generations, so the networks have hidden nodes.
    let config = E3Config::builder(EnvId::Pendulum)
        .population_size(24)
        .threads(1)
        .build();
    let mut platform = E3Platform::new(config, BackendKind::Cpu, 3);
    platform.step_generation().expect("generation 0");
    platform.step_generation().expect("generation 1");
    let genomes = platform.population().genomes().to_vec();

    let counts = [10usize, 200, 2_000].map(|length| {
        let ((), made, _) = common::counted(|| {
            let env: Box<dyn Environment> = Box::new(Pendulum::with_max_steps(length));
            let mut worlds = Worlds::new([env]);
            for (seed, genome) in genomes.iter().enumerate() {
                let plan = NetPlan::compile(genome).expect("a feed-forward genome");
                worlds.run(&plan, None, &[seed as u64], &Tracer::disabled(), seed);
                assert_eq!(worlds.steps(), [length as u64]);
            }
        });
        made
    });
    assert!(counts[0] > 0, "compiling a population allocates");
    assert_eq!(
        counts, [counts[0]; 3],
        "allocations for 10-, 200- and 2000-step episodes"
    );

    // K = 4 evaluations under CVaR: the lanes run four wide and narrow
    // as episodes end, and the aggregation sorts the shard's row. One
    // worker, so 8 and 16 genomes both make four shards and differ only
    // in genomes.
    let scenarios = ScenarioConfig::default()
        .train(ScenarioDistribution::moderate())
        .scenarios_per_eval(4)
        .aggregation(FitnessAggregation::CVaR { alpha: 0.5 });
    let evaluate = |genomes: &[Genome]| {
        let spec = ScenarioSpec::for_generation(&scenarios, 7, 0, genomes.len());
        let mut backend = Backend::cpu(SwCostModel::default());
        let (outcome, made, _) = common::counted(|| {
            backend
                .evaluate(genomes, EnvId::CartPole, &spec)
                .expect("feed-forward genomes")
        });
        (outcome.total_steps, made)
    };
    let (short_steps, short) = evaluate(&cartpole_genomes(8, -1.0));
    let (long_steps, long) = evaluate(&cartpole_genomes(8, 1.0));
    assert!(
        long_steps > 10 * short_steps,
        "{long_steps} steps are not much longer than {short_steps}"
    );
    assert_eq!(short, long, "allocations for short and long K = 4 episodes");

    // Per genome, an evaluation allocates what copying the genome into
    // the job, compiling its plan and reading its shape do — nothing for
    // its lanes, and no executor around the plan.
    let (_, double) = evaluate(&cartpole_genomes(16, 1.0));
    let genome = &cartpole_genomes(1, 1.0)[0];
    let (_, copy, _) = common::counted(|| genome.clone());
    let (plan, compile, _) = common::counted(|| NetPlan::compile(genome).expect("feed-forward"));
    let (_, shape, _) = common::counted(|| PlanShape::of(&plan));
    assert_eq!(
        double - long,
        8 * (copy + compile + shape),
        "allocations per extra genome"
    );

    // K = 1: each worker keeps two genomes in flight and walks their
    // plans fused, a slot admitting the shard's next genome when its
    // episode ends. Nine genomes make shards of three, so each shard
    // also runs its last genome alone.
    let evaluate_fixed = |genomes: &[Genome]| {
        let spec = ScenarioSpec::fixed(5, genomes.len());
        let mut backend = Backend::cpu(SwCostModel::default());
        let (outcome, made, _) = common::counted(|| {
            backend
                .evaluate(genomes, EnvId::CartPole, &spec)
                .expect("feed-forward genomes")
        });
        (outcome.total_steps, made)
    };
    let (short_steps, short) = evaluate_fixed(&cartpole_genomes(9, -1.0));
    let (long_steps, long) = evaluate_fixed(&cartpole_genomes(9, 1.0));
    assert!(
        long_steps > 10 * short_steps,
        "{long_steps} steps are not much longer than {short_steps}"
    );
    assert_eq!(
        short, long,
        "allocations for short and long paired episodes"
    );

    // The same with the tier on, a plan promoted at its second use. The
    // nine genomes share one plan: a first call files it, pairs genome 0
    // and runs every later genome alone on the native twin; a second
    // call hits on every genome. Episode length moves neither count, and
    // a hit copies nothing, so a call of hits allocates no more than the
    // tier-less call did (less: its genomes all run in a shard's first
    // slot, and the second slot's lane buffer is never sized).
    let evaluate_tiered = |genomes: &[Genome]| {
        let spec = ScenarioSpec::fixed(5, genomes.len());
        let mut backend = Backend::cpu(SwCostModel::default()).with_jit(JitConfig {
            enabled: true,
            hot_threshold: 2,
        });
        [(); 2].map(|()| {
            let (_, made, _) = common::counted(|| {
                backend
                    .evaluate(genomes, EnvId::CartPole, &spec)
                    .expect("feed-forward genomes")
            });
            made
        })
    };
    let [short_first, short_hits] = evaluate_tiered(&cartpole_genomes(9, -1.0));
    let [long_first, long_hits] = evaluate_tiered(&cartpole_genomes(9, 1.0));
    assert_eq!(
        short_first, long_first,
        "allocations for short and long tiered episodes"
    );
    assert_eq!(short_hits, long_hits, "allocations for short and long hits");
    assert!(
        long_hits <= long,
        "a call of cache hits allocates {long_hits} times, a tier-less one {long}"
    );
}
