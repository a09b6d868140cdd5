//! Integration tests for the reproduction's extension features
//! (DESIGN.md §7): population checkpointing, fixed-point quantization,
//! activation-sparsity gating, double buffering, and the wave tracer —
//! exercised together through the facade crate.

use e3::envs::{run_episode, CartPole, EnvId};
use e3::inax::pipeline::{analyze_double_buffering, BatchWork};
use e3::inax::quant::{evaluate_fixed_point, FixedPointFormat};
use e3::inax::sparsity::analyze_activation_sparsity;
use e3::inax::{trace_inference, InaxConfig};
use e3::neat::{NeatConfig, NetPlan, Population, PopulationSnapshot};

#[test]
fn checkpointed_run_can_be_deployed_after_restore() {
    // Evolve, snapshot, restore, and verify the restored champion
    // still plays the environment identically.
    let config = NeatConfig::builder(4, 2).population_size(40).build();
    let mut pop = Population::new(config, 3);
    let mut env = CartPole::new();
    for g in 0..10 {
        pop.evaluate(|genome| {
            let mut net = genome.decode().expect("feed-forward");
            let mut policy = |obs: &[f64]| net.activate(obs);
            run_episode(&mut env, &mut policy, g).total_reward
        });
        pop.evolve();
    }
    pop.evaluate(|genome| {
        let mut net = genome.decode().expect("feed-forward");
        let mut policy = |obs: &[f64]| net.activate(obs);
        run_episode(&mut env, &mut policy, 99).total_reward
    });
    let before = pop.best().expect("evaluated").clone();

    let json = serde_json::to_string(&pop.snapshot()).expect("serializes");
    let restored = Population::from_snapshot(
        serde_json::from_str::<PopulationSnapshot>(&json).expect("parses"),
    );
    let champion = restored.best().expect("snapshot keeps the champion");
    assert_eq!(champion.fitness, before.fitness);

    let mut net = champion.genome.decode().expect("feed-forward");
    let mut policy = |obs: &[f64]| net.activate(obs);
    let replay = run_episode(&mut CartPole::new(), &mut policy, 99);
    assert_eq!(
        replay.total_reward, before.fitness,
        "deployment is reproducible"
    );
}

#[test]
fn quantized_deployment_of_an_evolved_champion_is_accurate() {
    let config = NeatConfig::builder(
        EnvId::CartPole.observation_size(),
        EnvId::CartPole.policy_outputs(),
    )
    .population_size(60)
    .build();
    let mut pop = Population::new(config, 11);
    let mut env = EnvId::CartPole.make();
    for g in 0..8 {
        pop.evaluate(|genome| {
            let mut net = genome.decode().expect("feed-forward");
            let mut policy = |obs: &[f64]| net.activate(obs);
            run_episode(env.as_mut(), &mut policy, g).total_reward
        });
        pop.evolve();
    }
    pop.evaluate(|_| 0.0);
    let champion = &pop.best().expect("evaluated").genome;
    let hw = NetPlan::compile(champion).expect("compiles");
    let probe = vec![0.01, -0.03, 0.02, 0.0];
    let exact = hw.execute(&probe);
    let quant = evaluate_fixed_point(&hw, &probe, FixedPointFormat::Q8_16);
    for (a, b) in exact.iter().zip(&quant) {
        assert!((a - b).abs() < 1e-3, "Q8.16 deployment error {a} vs {b}");
    }
}

#[test]
fn sparsity_and_trace_agree_on_the_dense_schedule() {
    let net = e3::inax::synthetic::synthetic_net(8, 4, 20, 0.3, 7);
    let config = InaxConfig::builder().num_pe(4).build();
    let trace = trace_inference(&config, &net);
    let sparsity = analyze_activation_sparsity(&config, &net, &[0.1; 8]);
    assert_eq!(trace.profile, sparsity.dense, "one schedule, two views");
    assert!(sparsity.gated.wall_cycles <= sparsity.dense.wall_cycles);
}

#[test]
fn double_buffering_analysis_composes_with_real_pu_numbers() {
    let nets = e3::inax::synthetic::synthetic_population(8, 8, 4, 30, 0.2, 3);
    let config = InaxConfig::builder().num_pe(4).build();
    let batches: Vec<BatchWork> = nets
        .chunks(4)
        .map(|chunk| {
            let pus: Vec<_> = chunk
                .iter()
                .map(|n| e3::inax::PuSim::new(&config, n.clone()))
                .collect();
            BatchWork {
                setup_cycles: pus.iter().map(|p| p.setup_cycles()).max().unwrap(),
                compute_cycles: pus
                    .iter()
                    .map(|p| p.inference_profile().wall_cycles * 50)
                    .max()
                    .unwrap(),
            }
        })
        .collect();
    let report = analyze_double_buffering(&batches);
    assert!(report.pipelined_cycles <= report.serial_cycles);
    assert!(report.speedup() >= 1.0);
}
