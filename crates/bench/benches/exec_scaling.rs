//! exec scaling bench: population evaluation wall time vs worker
//! threads (the host-side analogue of Fig. 7's PU sweep).
//!
//! Measures E3-CPU's `EvalBackend::evaluate` at 1/2/4/8 worker
//! threads on CartPole and LunarLander with a population of 64.
//! Results are bit-identical at every thread count (the determinism
//! contract of `e3-exec`); only the wall clock should move, and only
//! when free cores exist.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use e3_envs::EnvId;
use e3_neat::{NeatConfig, Population};
use e3_platform::{EvalBackend, ScenarioSpec, SoftwareBackend, SwCostModel};
use std::hint::black_box;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const POPULATION: usize = 64;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec_scaling");
    group.sample_size(10);
    for env in [EnvId::CartPole, EnvId::LunarLander] {
        let neat = NeatConfig::builder(env.observation_size(), env.policy_outputs())
            .population_size(POPULATION)
            .build();
        let genomes = Population::new(neat, 3).genomes().to_vec();
        let spec = ScenarioSpec::fixed(5, genomes.len());
        for threads in THREADS {
            // The pool is built once per configuration so the bench
            // times steady-state evaluation, not worker spawning.
            let mut backend = SoftwareBackend::cpu(SwCostModel::default()).with_threads(threads);
            group.bench_with_input(
                BenchmarkId::new(env.name(), threads),
                &genomes,
                |b, genomes| {
                    b.iter(|| {
                        black_box(
                            backend
                                .evaluate(genomes, env, &spec)
                                .expect("feed-forward population"),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
