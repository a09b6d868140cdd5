//! Telemetry walk-through: instrument a run with an in-memory
//! collector, stream another as NDJSON, and drive a backend directly
//! through `Backend::inax`.
//!
//! ```text
//! cargo run --release --example telemetry
//! ```

use e3::envs::EnvId;
use e3::inax::InaxConfig;
use e3::platform::{Backend, BackendKind, E3Config, E3Platform, ScenarioSpec, SwCostModel};
use e3::telemetry::{Collector, MemoryCollector, NdjsonWriter};

fn main() {
    let env = EnvId::CartPole;
    let config = |_| {
        E3Config::builder(env)
            .population_size(60)
            .max_generations(8)
            .build()
    };

    // 1. Capture a run in memory and read the per-generation records.
    let mut collector = MemoryCollector::new();
    let outcome = E3Platform::new(config(()), BackendKind::Inax, 42)
        .run_with(&mut collector)
        .expect("feed-forward population");
    println!("per-generation telemetry ({env}, E3-INAX):");
    println!(
        "  {:>3} {:>10} {:>10} {:>8} {:>12}",
        "gen", "best", "mean", "species", "modeled s"
    );
    for g in collector.generations() {
        println!(
            "  {:>3} {:>10.2} {:>10.2} {:>8} {:>12.5}",
            g.generation, g.best_fitness, g.mean_fitness, g.species, g.modeled_seconds
        );
    }
    let summary = collector.summaries().last().expect("run emits a summary");
    println!(
        "summary: solved={} best={:.1} modeled={:.4}s energy={:.2} J\n",
        summary.solved,
        summary.best_fitness,
        outcome.modeled_seconds,
        summary.energy_joules.unwrap_or(0.0)
    );

    // 2. The same events stream as NDJSON — one JSON object per line,
    //    the format `repro --telemetry <path>` writes.
    let mut ndjson = NdjsonWriter::new(Vec::new());
    for event in collector.events().iter().take(3) {
        ndjson.record(event).expect("vec sink cannot fail");
    }
    println!("first NDJSON lines of the same run:");
    for line in String::from_utf8(ndjson.into_inner()).unwrap().lines() {
        let preview: String = line.chars().take(100).collect();
        println!("  {preview}...");
    }
    println!();

    // 3. Backends can be built and driven without a platform: one
    //    constructor per paper setting, and evaluation is fallible
    //    instead of panicking on malformed genomes.
    let mut backend = Backend::inax(InaxConfig::default(), SwCostModel::default());
    let genomes = E3Platform::new(config(()), BackendKind::Inax, 42)
        .population()
        .genomes()
        .to_vec();
    match backend.evaluate(&genomes, env, &ScenarioSpec::fixed(1042, genomes.len())) {
        Ok(eval) => {
            let best = eval.fitnesses.iter().cloned().fold(f64::MIN, f64::max);
            println!(
                "direct evaluation via Backend::inax: {} genomes, best fitness {:.2}, {:.5} modeled s",
                genomes.len(),
                best,
                eval.eval_seconds + eval.env_seconds
            );
        }
        Err(e) => println!("evaluation rejected: {e}"),
    }

    println!("\ntelemetry is write-only: results are bit-identical with any collector installed");
}
