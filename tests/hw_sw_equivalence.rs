//! Cross-crate functional-equivalence tests: software NEAT inference,
//! the INAX simulator, and the systolic-array lowering must all
//! compute the same function for networks evolved in real runs.
//!
//! The three paths are the decoded `Network`, a `PuSim` inferring into
//! its own value buffer, and the dense padded counterpart. A fourth —
//! `e3-inax`'s second interpreter over its per-node copy of the plan —
//! went with the copy: the accelerator model reads the compiled
//! `NetPlan` itself.

use e3::envs::EnvId;
use e3::inax::{InaxConfig, PuSim};
use e3::neat::{NeatConfig, NetPlan, Population};
use e3::systolic::DensePaddedNet;

/// Evolve a real population for a few generations and return its
/// genomes (structural diversity guaranteed by the run itself).
fn evolved_population(env: EnvId, generations: usize, seed: u64) -> Population {
    let config = NeatConfig::builder(env.observation_size(), env.policy_outputs())
        .population_size(30)
        .build();
    let mut pop = Population::new(config, seed);
    let mut environment = env.make();
    for _ in 0..generations {
        pop.evaluate(|genome| {
            let mut net = genome.decode().expect("feed-forward");
            let mut policy = |obs: &[f64]| net.activate(obs);
            e3::envs::run_episode(environment.as_mut(), &mut policy, seed).total_reward
        });
        pop.evolve();
    }
    pop.evaluate(|_| 0.0);
    pop
}

#[test]
fn evolved_nets_agree_across_all_three_execution_paths() {
    for env in [EnvId::CartPole, EnvId::LunarLander] {
        let pop = evolved_population(env, 5, 23);
        let probe: Vec<f64> = (0..env.observation_size())
            .map(|i| ((i + 1) as f64 * 0.31).sin())
            .collect();
        for genome in pop.genomes().iter().take(15) {
            let mut sw = genome.decode().expect("feed-forward");
            let want = sw.activate(&probe);

            let plan = NetPlan::compile(genome).expect("compiles");
            let padded = DensePaddedNet::from_plan(&plan);

            let mut pu = PuSim::new(&InaxConfig::builder().num_pe(3).build(), plan);
            assert_eq!(pu.infer(&probe).0, want, "{env}: PU diverged");

            let sa = padded.evaluate(&probe);
            assert_eq!(sa.len(), want.len());
            for (a, b) in sa.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9, "{env}: SA diverged ({a} vs {b})");
            }
        }
    }
}

#[test]
fn evolved_nets_show_the_irregularity_inax_targets() {
    let pop = evolved_population(EnvId::LunarLander, 8, 31);
    let mut any_skip = false;
    let mut degrees = Vec::new();
    for genome in pop.genomes() {
        let net = genome.decode().expect("feed-forward");
        degrees.extend(net.in_degrees());
        let padded = DensePaddedNet::from_plan(net.plan());
        if padded.dummy_nodes() > 0 {
            any_skip = true;
        }
    }
    degrees.sort_unstable();
    degrees.dedup();
    assert!(degrees.len() > 1, "in-degree variance (Fig. 4(e))");
    assert!(
        any_skip,
        "evolution produces level-skipping links (Fig. 4(c))"
    );
}
