//! Fig. 9(b) bench: population evaluation on each backend.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use e3_envs::EnvId;
use e3_inax::InaxConfig;
use e3_neat::{NeatConfig, Population};
use e3_platform::{
    EvalBackend, GpuCostModel, InaxBackend, ScenarioSpec, SoftwareBackend, SwCostModel,
};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let env = EnvId::CartPole;
    let neat = NeatConfig::builder(env.observation_size(), env.policy_outputs())
        .population_size(32)
        .build();
    let genomes = Population::new(neat, 3).genomes().to_vec();
    let spec = ScenarioSpec::fixed(5, genomes.len());
    let mut group = c.benchmark_group("fig9b_runtime");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::from_parameter("cpu"),
        &genomes,
        |b, genomes| {
            b.iter(|| {
                let mut backend = SoftwareBackend::cpu(SwCostModel::default());
                black_box(
                    backend
                        .evaluate(genomes, env, &spec)
                        .expect("feed-forward population"),
                )
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("gpu"),
        &genomes,
        |b, genomes| {
            b.iter(|| {
                let mut backend =
                    SoftwareBackend::gpu(SwCostModel::default(), GpuCostModel::default());
                black_box(
                    backend
                        .evaluate(genomes, env, &spec)
                        .expect("feed-forward population"),
                )
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("inax"),
        &genomes,
        |b, genomes| {
            b.iter(|| {
                let mut backend = InaxBackend::new(
                    InaxConfig::builder().num_pu(16).num_pe(2).build(),
                    SwCostModel::default(),
                );
                black_box(
                    backend
                        .evaluate(genomes, env, &spec)
                        .expect("feed-forward population"),
                )
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
