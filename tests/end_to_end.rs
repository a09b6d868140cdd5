//! End-to-end integration: the full E3 loop across all crates.

use e3::envs::{EnvId, Environment, Pendulum, ScenarioDistribution};
use e3::inax::InaxConfig;
use e3::islands::scheduler::population_fingerprint;
use e3::jit::CompiledPlan;
use e3::neat::stats::PlanShape;
use e3::neat::{Genome, InnovationTracker, NeatConfig, NetPlan, NodeKind, Population};
use e3::platform::backend::Worlds;
use e3::platform::{
    Backend, BackendKind, CheckpointPolicy, E3Config, E3Platform, EvalError, FitnessAggregation,
    GpuCostModel, JitConfig, PowerModel, ScenarioConfig, ScenarioSpec, SwCostModel,
};
use e3::telemetry::{MemoryCollector, Tracer};

fn quick_config(env: EnvId) -> E3Config {
    E3Config::builder(env)
        .population_size(40)
        .max_generations(6)
        .build()
}

#[test]
fn all_backends_follow_identical_evolution() {
    for env in [EnvId::CartPole, EnvId::Pendulum] {
        let runs: Vec<_> = BackendKind::ALL
            .into_iter()
            .map(|kind| {
                E3Platform::new(quick_config(env), kind, 17)
                    .run()
                    .expect("suite populations are feed-forward")
            })
            .collect();
        let reference: Vec<f64> = runs[0].trace.iter().map(|t| t.1).collect();
        for run in &runs[1..] {
            let trace: Vec<f64> = run.trace.iter().map(|t| t.1).collect();
            assert_eq!(reference, trace, "{env}: backends diverged");
        }
        assert_eq!(runs[0].best_fitness, runs[2].best_fitness);
    }
}

#[test]
fn inax_beats_cpu_beats_gpu_in_modeled_runtime() {
    let cpu = E3Platform::new(quick_config(EnvId::CartPole), BackendKind::Cpu, 3)
        .run()
        .unwrap();
    let gpu = E3Platform::new(quick_config(EnvId::CartPole), BackendKind::Gpu, 3)
        .run()
        .unwrap();
    let inax = E3Platform::new(quick_config(EnvId::CartPole), BackendKind::Inax, 3)
        .run()
        .unwrap();
    assert!(
        inax.modeled_seconds < cpu.modeled_seconds,
        "INAX accelerates"
    );
    assert!(
        gpu.modeled_seconds > cpu.modeled_seconds,
        "GPU loses (paper Fig. 9(b))"
    );
    let speedup = cpu.modeled_seconds / inax.modeled_seconds;
    assert!(
        speedup > 2.0,
        "speedup {speedup} too small for even a quick run"
    );
}

#[test]
fn neat_solves_cartpole_end_to_end_on_inax() {
    let config = E3Config::builder(EnvId::CartPole)
        .population_size(100)
        .max_generations(30)
        .build();
    let outcome = E3Platform::new(config, BackendKind::Inax, 42)
        .run()
        .unwrap();
    assert!(
        outcome.solved,
        "cartpole should be solved, best {}",
        outcome.best_fitness
    );
    assert!(outcome.best_fitness >= EnvId::CartPole.required_fitness());
    let report = outcome.hw_report.expect("INAX reports accounting");
    assert!(report.total_cycles > 0);
    assert!(report.pe_utilization.rate() > 0.0 && report.pe_utilization.rate() <= 1.0);
}

#[test]
fn energy_model_reproduces_fig10a_ordering() {
    let power = PowerModel::default();
    let cpu = E3Platform::new(quick_config(EnvId::MountainCar), BackendKind::Cpu, 5)
        .run()
        .unwrap();
    let gpu = E3Platform::new(quick_config(EnvId::MountainCar), BackendKind::Gpu, 5)
        .run()
        .unwrap();
    let inax = E3Platform::new(quick_config(EnvId::MountainCar), BackendKind::Inax, 5)
        .run()
        .unwrap();
    let cpu_energy = power.energy(BackendKind::Cpu, &cpu.profile).total();
    let gpu_energy = power.energy(BackendKind::Gpu, &gpu.profile).total();
    let inax_energy = power.energy(BackendKind::Inax, &inax.profile).total();
    assert!(
        gpu_energy > 10.0 * cpu_energy,
        "GPU energy blow-up (paper: 71x)"
    );
    assert!(
        inax_energy < 0.2 * cpu_energy,
        "INAX energy saving (paper: 97%)"
    );
}

#[test]
fn pu_pe_heuristics_are_the_platform_defaults() {
    let config = E3Config::builder(EnvId::LunarLander).build();
    assert_eq!(config.inax.num_pu, 50, "paper §VI-C picks PU = 50");
    assert_eq!(
        config.inax.num_pe,
        EnvId::LunarLander.policy_outputs(),
        "paper §V-A sizes PEs to the output layer"
    );
}

#[test]
fn custom_inax_configs_flow_through() {
    let config = E3Config::builder(EnvId::CartPole)
        .population_size(30)
        .max_generations(2)
        .inax(InaxConfig::builder().num_pu(10).num_pe(8).build())
        .build();
    let outcome = E3Platform::new(config, BackendKind::Inax, 1).run().unwrap();
    assert!(outcome.hw_report.is_some());
}

#[test]
fn a_hand_built_backend_matches_platform_backends() {
    // A backend built from the platform's cost models evaluates the
    // same population to the same fitnesses the full platform computes
    // on its first generation.
    let config = quick_config(EnvId::CartPole);
    let mut backend = Backend::inax(config.inax.clone(), config.sw);
    let mut platform = E3Platform::new(config, BackendKind::Inax, 9);
    let genomes = platform.population().genomes().to_vec();
    // The platform derives its first episode seed as `seed + 1000`.
    let spec = ScenarioSpec::fixed(9 + 1000, genomes.len());
    let outcome = backend
        .evaluate(&genomes, EnvId::CartPole, &spec)
        .expect("fresh populations are feed-forward");
    let best_direct = outcome.fitnesses.iter().cloned().fold(f64::MIN, f64::max);
    let best_platform = platform.step_generation().unwrap();
    assert_eq!(
        best_direct, best_platform,
        "hand-built backend diverged from platform"
    );
}

#[test]
fn run_with_telemetry_matches_plain_run() {
    let mut collector = MemoryCollector::new();
    let telemetered = E3Platform::new(quick_config(EnvId::Pendulum), BackendKind::Inax, 11)
        .run_with(&mut collector)
        .unwrap();
    let plain = E3Platform::new(quick_config(EnvId::Pendulum), BackendKind::Inax, 11)
        .run()
        .unwrap();
    assert_eq!(telemetered, plain, "telemetry must not perturb the run");
    let summary = collector.summaries().last().expect("run emits a summary");
    assert_eq!(summary.generations, plain.generations_run);
    assert_eq!(summary.best_fitness, plain.best_fitness);
    assert_eq!(collector.generations().count(), plain.generations_run);
}

#[test]
fn the_software_kernel_agrees_with_itself_and_with_inax() {
    // The full gates live in e3-platform and e3-islands (`exec_parity`,
    // `jit_parity`, `scenario_parity`); this is one fast case per
    // parity family — threads, tier, backend — at the root, so tier-1
    // cannot be green while the one software kernel disagrees with
    // itself.
    let sampled = ScenarioConfig::default()
        .train(ScenarioDistribution::moderate())
        .scenarios_per_eval(2);
    let sw = SwCostModel::default();
    let hot = JitConfig {
        enabled: true,
        hot_threshold: 1,
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for env in [EnvId::CartPole, EnvId::LunarLander, EnvId::Pendulum] {
        // A few generations under a structural fitness, so the
        // population holds heterogeneous topologies.
        let neat = NeatConfig::builder(env.observation_size(), env.policy_outputs())
            .population_size(16)
            .build();
        let mut population = Population::new(neat, 23);
        for _ in 0..3 {
            population.evaluate(|g| (g.num_enabled_connections() + g.nodes().len()) as f64);
            population.evolve();
        }
        let genomes = population.genomes();
        for spec in [
            ScenarioSpec::fixed(23, genomes.len()),
            ScenarioSpec::for_generation(&sampled, 23, 0, genomes.len()),
        ] {
            let what = format!("{env} K={}", spec.scenarios());
            let eval = |backend: &mut Backend| {
                backend
                    .evaluate(genomes, env, &spec)
                    .expect("evolved populations are feed-forward")
            };
            let serial = eval(&mut Backend::cpu(sw));
            // The tiered backend evaluates twice, so its second call
            // is served from the cache the first one filled. Legs
            // under the same pricing must also charge the same
            // modeled seconds.
            let mut tiered = Backend::cpu(sw).with_jit(hot);
            let legs = [
                ("threads", true, eval(&mut Backend::cpu(sw).with_threads(2))),
                (
                    "gpu",
                    false,
                    eval(&mut Backend::gpu(sw, GpuCostModel::default())),
                ),
                (
                    "inax",
                    false,
                    eval(&mut Backend::inax(InaxConfig::default(), sw)),
                ),
                ("tier, cold cache", true, eval(&mut tiered)),
                ("tier, warm cache", true, eval(&mut tiered)),
            ];
            for (leg, same_pricing, other) in legs {
                assert_eq!(
                    bits(&serial.fitnesses),
                    bits(&other.fitnesses),
                    "{what} {leg}"
                );
                assert_eq!(
                    serial.steps_per_genome, other.steps_per_genome,
                    "{what} {leg}"
                );
                if same_pricing {
                    assert_eq!(
                        (serial.eval_seconds.to_bits(), serial.env_seconds.to_bits()),
                        (other.eval_seconds.to_bits(), other.env_seconds.to_bits()),
                        "{what} {leg}: modeled seconds"
                    );
                }
            }
        }
    }
}

#[test]
fn k4_lanes_agree_across_threads_and_with_the_scalar_tier() {
    // At K = 4 a genome's episodes walk its plan together in lanes —
    // four wide, then two and one as they end — while the tier at
    // `hot_threshold` 1 runs every genome as scalar native code, one
    // call per lane. Tier-1 cannot be green while the two routes, or
    // two thread counts, disagree on a LunarLander run.
    let run = |threads: usize, jit: JitConfig| {
        let config = E3Config::builder(EnvId::LunarLander)
            .population_size(24)
            .threads(threads)
            .jit(jit)
            .scenario(
                ScenarioConfig::default()
                    .train(ScenarioDistribution::moderate())
                    .scenarios_per_eval(4)
                    .aggregation(FitnessAggregation::CVaR { alpha: 0.5 }),
            )
            .build();
        let mut platform = E3Platform::new(config, BackendKind::Cpu, 11);
        let mut collector = MemoryCollector::new();
        let bests: Vec<u64> = (0..3)
            .map(|_| {
                let best = platform.step_with(&mut collector).expect("feed-forward");
                best.to_bits()
            })
            .collect();
        let native: u64 = collector.jits().map(|jit| jit.activations).sum();
        (population_fingerprint(platform.population()), bests, native)
    };
    let lanes = run(1, JitConfig::default());
    assert_eq!(lanes.2, 0, "the tier is off");
    let hot = JitConfig {
        enabled: true,
        hot_threshold: 1,
    };
    for (threads, jit) in [(2, JitConfig::default()), (1, hot), (2, hot)] {
        let other = run(threads, jit);
        let leg = format!("threads {threads}, tier {}", jit.enabled);
        assert_eq!(other.0, lanes.0, "{leg}: population fingerprint");
        assert_eq!(other.1, lanes.1, "{leg}: best-fitness bits");
        assert_eq!(other.2 > 0, jit.enabled, "{leg}: native activations");
    }
}

#[test]
fn narrowing_lanes_match_each_world_run_alone() {
    // Pendulum's torques carry every output bit into the reward, and
    // four horizons make the walk run four wide, four wide with three
    // live lanes, two wide and one wide: each world's reward must be
    // the bits of its episode run alone, interpreted or native.
    let horizons = [40, 90, 150, 200];
    let pendulum = |steps| -> Box<dyn Environment> { Box::new(Pendulum::with_max_steps(steps)) };
    let mut together = Worlds::new(horizons.map(pendulum));
    let mut alone = horizons.map(|steps| Worlds::new([pendulum(steps)]));
    let bits = |worlds: &Worlds| {
        worlds
            .fitness()
            .iter()
            .map(|f| f.to_bits())
            .collect::<Vec<_>>()
    };
    let config = E3Config::builder(EnvId::Pendulum)
        .population_size(16)
        .build();
    let mut platform = E3Platform::new(config, BackendKind::Cpu, 5);
    platform.step_generation().expect("feed-forward");
    platform.step_generation().expect("feed-forward");
    let seeds = [11, 12, 13, 14];
    let off = Tracer::disabled();
    for (i, genome) in platform.population().genomes().iter().enumerate() {
        let net = genome.decode().expect("feed-forward");
        let plan = net.plan();
        let mut want = Vec::new();
        for (s, world) in alone.iter_mut().enumerate() {
            world.run(plan, None, &seeds[s..=s], &off, i);
            want.extend(bits(world));
        }
        together.run(plan, None, &seeds, &off, i);
        assert_eq!(together.steps(), horizons.map(|h| h as u64));
        assert_eq!(bits(&together), want, "genome {i}: interpreted lanes");
        let mut native = CompiledPlan::compile(plan).expect("an x86-64 host");
        together.run(plan, Some(&mut native), &seeds, &off, i);
        assert_eq!(
            bits(&together),
            want,
            "genome {i}: native, one call per lane"
        );
    }
}

#[test]
fn two_genomes_in_flight_match_one_genome_at_a_time() {
    // At K = 1 a worker keeps two genomes in flight and walks their
    // plans fused; odd shards leave a last genome running alone, and
    // with the tier on a plan with a native twin runs alone in a free
    // slot. Every genome's fitness, episode length and shape, and the
    // modeled seconds folded in population order, must be the bits of
    // running each genome alone, at one worker and at two, tier off and
    // on; and a non-feed-forward genome inside a shard must surface as
    // the lowest-indexed failure.
    for env in [EnvId::CartPole, EnvId::LunarLander] {
        let config = E3Config::builder(env).population_size(41).build();
        let mut platform = E3Platform::new(config, BackendKind::Cpu, 9);
        platform.step_generation().expect("feed-forward");
        platform.step_generation().expect("feed-forward");
        let genomes = platform.population().genomes().to_vec();
        let spec = ScenarioSpec::fixed(77, genomes.len());
        let model = SwCostModel::default();

        let mut alone = Worlds::new([env.make()]);
        let (mut fitness, mut steps, mut shapes, mut seconds) = (vec![], vec![], vec![], 0.0);
        for (i, genome) in genomes.iter().enumerate() {
            let plan = NetPlan::compile(genome).expect("feed-forward");
            alone.run(
                &plan,
                None,
                spec.episode_seeds(i..i + 1),
                &Tracer::disabled(),
                i,
            );
            let length = alone.steps()[0];
            fitness.push(alone.fitness()[0].to_bits());
            steps.push(length);
            shapes.push(PlanShape::of(&plan));
            seconds += (model.sec_per_inference
                + plan.num_nodes() as f64 * model.sec_per_node_eval
                + plan.num_connections() as f64 * model.sec_per_conn_eval)
                * length as f64;
        }
        assert!(
            steps.iter().any(|&s| s != steps[0]),
            "{env}: episodes of one length never end out of order"
        );

        // Three calls per backend. The first meets every odd genome
        // cyclic, so it files only the even genomes' plans; at threshold
        // 2 the second then runs each even genome on its native twin
        // while the odd ones pair in the fused walk, so a shard mixes
        // both, and the third runs all natively.
        let broken = |indices: &mut dyn Iterator<Item = usize>| {
            let mut broken = genomes.clone();
            for i in indices {
                broken[i] = make_cyclic(&broken[i]);
            }
            broken
        };
        let odd_broken = broken(&mut (1..genomes.len()).step_by(2));
        let tiers = [0, 1, 2].map(|hot_threshold| JitConfig {
            enabled: hot_threshold > 0,
            hot_threshold,
        });
        for (jit, threads) in tiers.into_iter().flat_map(|jit| [(jit, 1), (jit, 2)]) {
            let tier = jit.enabled.then_some(jit.hot_threshold);
            let what = format!("{env}, tier {tier:?}, {threads} threads");
            let mut backend = Backend::cpu(model).with_threads(threads).with_jit(jit);
            let fails_at = |backend: &mut Backend, genomes: &[Genome], lowest: usize| match backend
                .evaluate(genomes, env, &spec)
            {
                Err(EvalError::NotFeedForward { genome_index, .. }) => {
                    assert_eq!(genome_index, lowest, "{what}")
                }
                other => panic!("{what}: {other:?}"),
            };
            fails_at(&mut backend, &odd_broken, 1);
            for call in 2..=3 {
                let outcome = backend
                    .evaluate(&genomes, env, &spec)
                    .expect("feed-forward");
                let what = format!("{what}, call {call}");
                let bits: Vec<u64> = outcome.fitnesses.iter().map(|f| f.to_bits()).collect();
                assert_eq!(bits, fitness, "{what}: fitness bits");
                assert_eq!(outcome.steps_per_genome, steps, "{what}");
                assert_eq!(outcome.shapes, shapes, "{what}");
                assert_eq!(
                    outcome.eval_seconds.to_bits(),
                    seconds.to_bits(),
                    "{what}: modeled seconds"
                );
            }
            fails_at(&mut backend, &broken(&mut [30, 13].into_iter()), 13);
        }
    }
}

/// `genome` with a self-loop on its first output: not feed-forward.
fn make_cyclic(genome: &Genome) -> Genome {
    let mut cyclic = genome.clone();
    let mut tracker = InnovationTracker::with_reserved_nodes(cyclic.nodes().len());
    let output = cyclic
        .nodes()
        .iter()
        .find(|n| n.kind == NodeKind::Output)
        .expect("genome has an output node")
        .id;
    cyclic
        .add_connection_unchecked(output, output, 0.5, &mut tracker)
        .expect("a self-loop is structurally new");
    cyclic
}

#[test]
fn a_killed_run_resumes_bit_identically_from_its_newest_snapshot() {
    // The full gates live in e3-platform and e3-store (`resume_parity`,
    // `snapshot_bytes`, `recovery`) and in the root `crash_points`,
    // which resumes from every state a crash can leave; this is the
    // plain kill-and-resume case.
    let dir = std::env::temp_dir().join(format!("e3-root-resume-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = quick_config(EnvId::CartPole);
    config.target_fitness = f64::INFINITY; // every generation runs
    let reference = E3Platform::new(config.clone(), BackendKind::Cpu, 23)
        .run()
        .unwrap();

    config.checkpoint = Some(CheckpointPolicy::new(dir.to_string_lossy().into_owned()).every(1));
    let state_as_json = {
        let mut platform = E3Platform::new(config.clone(), BackendKind::Cpu, 23);
        platform.step_generation().unwrap();
        platform.step_generation().unwrap();
        serde_json::to_string(&platform.capture_state()).unwrap()
        // Killed here: dropped mid-run, no summary, no final snapshot.
    };
    let newest = std::fs::read(dir.join("gen-00000002.e3snap")).unwrap();
    assert!(newest.starts_with(b"e3snap 3 "), "store writes format v3");
    assert!(
        newest.len() * 3 < state_as_json.len(),
        "{} B snapshot of a state that is {} B as JSON",
        newest.len(),
        state_as_json.len()
    );

    let resumed = E3Platform::resume(config, BackendKind::Cpu, 23)
        .unwrap()
        .expect("the snapshot is recoverable");
    assert_eq!(resumed.generation(), 2);
    assert_eq!(resumed.run().unwrap(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inax_cycle_counters_match_the_closed_loop_golden() {
    // Every literal was captured at the parent commit of PR 19, when
    // E3-INAX still stepped a lock-step wave loop through the
    // accelerator's functional model. The platform now runs the one
    // kernel and hands the accelerator only plans and episode lengths:
    // no counter may move. Two shapes: one ragged pair of waves on the
    // default schedule, and K = 3 sampled worlds on 7 PUs × 2 threads.
    let fnv1a = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let sampled = ScenarioConfig::default()
        .train(ScenarioDistribution::moderate())
        .scenarios_per_eval(3);
    // (scenario, PUs, threads) → [total, setup, pe_active, control,
    // pu active/total, pe active/total, dma, steps], utilization hash,
    // modeled-seconds bits.
    let cases = [
        (
            ScenarioConfig::default(),
            50,
            1,
            [
                326_099, 9_195, 211_577, 94_019, 152_798, 1_462_000, 211_577, 305_596, 296_657,
                2_955,
            ],
            0xbe81_26f4_e5cc_e625u64,
            4_593_267_412_483_862_192u64,
        ),
        (
            sampled,
            7,
            2,
            [
                2_089_141, 9_787, 721_355, 418_987, 570_171, 1_747_158, 721_355, 1_140_342,
                1_838_713, 23_241,
            ],
            0xcb36_9af9_74df_abb8,
            4_599_639_676_743_458_683,
        ),
    ];
    for (scenario, num_pu, threads, counters, utilization_hash, modeled_bits) in cases {
        let mut config = E3Config::builder(EnvId::CartPole)
            .population_size(60)
            .max_generations(4)
            .threads(threads)
            .inax(InaxConfig::builder().num_pu(num_pu).num_pe(2).build())
            .scenario(scenario)
            .build();
        config.target_fitness = f64::INFINITY; // every generation runs
        let outcome = E3Platform::new(config, BackendKind::Inax, 19)
            .run()
            .unwrap();
        let r = outcome.hw_report.expect("INAX reports accounting");
        assert_eq!(
            [
                r.total_cycles,
                r.breakdown.setup,
                r.breakdown.pe_active,
                r.breakdown.evaluate_control,
                r.pu_utilization.active,
                r.pu_utilization.total,
                r.pe_utilization.active,
                r.pe_utilization.total,
                r.dma_cycles,
                r.steps,
            ],
            counters,
            "{num_pu} PUs"
        );
        let utilization = outcome.hw_utilization.expect("INAX reports utilization");
        let json = serde_json::to_string(&utilization).unwrap();
        assert_eq!(fnv1a(json.as_bytes()), utilization_hash, "{num_pu} PUs");
        assert_eq!(outcome.modeled_seconds.to_bits(), modeled_bits);
    }
}
