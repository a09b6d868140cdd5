//! Counts, not clocks: an environment step in the evaluation kernel
//! allocates nothing.
//!
//! This binary installs a counting allocator and runs the platform's
//! episode kernel over a fixed Pendulum population — continuous
//! actions, the case that once built an action vector on every step —
//! on episodes of three lengths. The allocation count may depend on the
//! population, never on how many steps its episodes take. It is a count
//! of the whole process, so the binary holds a single test.

mod common;

use e3_envs::{EnvId, Episode, Pendulum};
use e3_platform::backend::run_software_episode;
use e3_platform::{BackendKind, E3Config, E3Platform};

#[test]
fn evaluating_a_pendulum_population_allocates_independently_of_episode_length() {
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
        let mut env = Pendulum::with_max_steps(length);
        let ((), made, _) = common::counted(|| {
            let mut episode = Episode::new(&env);
            for (seed, genome) in genomes.iter().enumerate() {
                let mut net = genome.decode().expect("a feed-forward genome");
                let (_, steps) =
                    run_software_episode(&mut net, &mut env, &mut episode, seed as u64);
                assert_eq!(steps, length as u64);
            }
        });
        made
    });
    assert!(counts[0] > 0, "decoding a population allocates");
    assert_eq!(
        counts, [counts[0]; 3],
        "allocations for 10-, 200- and 2000-step episodes"
    );
}
