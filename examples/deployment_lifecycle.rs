//! The full edge-deployment lifecycle in one program:
//!
//! 1. evolve a controller on-device (E3 with the INAX backend);
//! 2. checkpoint the population to JSON (survives a power cycle);
//! 3. restore and keep tuning under *shifted* conditions — a plant
//!    drawn from the held-out shifted scenario distribution (heavier,
//!    longer, weaker motor: the paper's model-tuning story);
//! 4. quantize the champion for the fixed-point PE datapath and check
//!    the accuracy cost.
//!
//! ```text
//! cargo run --release --example deployment_lifecycle
//! ```

use e3::envs::{run_episode, CartPole, EnvId, Environment, ScenarioDistribution};
use e3::inax::quant::{evaluate_fixed_point, FixedPointFormat};
use e3::inax::weight_stream_bytes;
use e3::neat::{DecodeError, NeatConfig, NetPlan, Population, PopulationSnapshot};

/// Fallible population evaluation, mirroring the platform's
/// `Backend::evaluate`: a malformed genome surfaces as a typed
/// error instead of a panic.
fn evaluate_population(
    population: &mut Population,
    env: &mut dyn Environment,
    seed: u64,
) -> Result<f64, DecodeError> {
    let mut fitnesses = Vec::with_capacity(population.genomes().len());
    for genome in population.genomes() {
        let mut net = genome.decode()?;
        let mut policy = |obs: &[f64]| net.activate(obs);
        fitnesses.push(run_episode(env, &mut policy, seed).total_reward);
    }
    population.assign_fitnesses(fitnesses);
    Ok(population.best().map_or(f64::NEG_INFINITY, |b| b.fitness))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. learn on-device -------------------------------------------------
    let config = NeatConfig::builder(4, 2).population_size(80).build();
    let mut population = Population::new(config, 21);
    let mut env = CartPole::new();
    for generation in 0..30 {
        let best = evaluate_population(&mut population, &mut env, 500 + generation)?;
        if best >= 475.0 {
            println!("learned cartpole in {generation} generations (best {best})");
            break;
        }
        population.evolve();
    }

    // --- 2. checkpoint ------------------------------------------------------
    let json = serde_json::to_string(&population.snapshot()).expect("snapshots serialize");
    println!("checkpoint captured: {} bytes of JSON", json.len());

    // --- 3. power-cycle, then tune under shifted conditions ----------------
    let restored: PopulationSnapshot = serde_json::from_str(&json).expect("snapshots parse");
    let mut tuned = Population::from_snapshot(restored);
    // The deployed plant differs: one draw of the shifted distribution.
    let mut shifted = EnvId::CartPole.make_scenario(&ScenarioDistribution::shifted().sample(7));
    let before = evaluate_population(&mut tuned, shifted.as_mut(), 900)?;
    let mut after = before;
    for generation in 0..20 {
        tuned.evolve();
        after = evaluate_population(&mut tuned, shifted.as_mut(), 900 + generation)?;
        if after >= 475.0 {
            break;
        }
    }
    println!("model tuning on the shifted plant: {before:.0} -> {after:.0}");

    // --- 4. quantize the champion for the PE datapath ----------------------
    let champion = tuned.best().expect("evaluated").genome.clone();
    let hw = NetPlan::compile(&champion)?;
    let probe = vec![0.01, -0.02, 0.03, 0.0];
    let exact = hw.execute(&probe);
    for format in [
        FixedPointFormat::Q4_4,
        FixedPointFormat::Q8_8,
        FixedPointFormat::Q8_16,
    ] {
        let q = evaluate_fixed_point(&hw, &probe, format);
        let err: f64 = exact
            .iter()
            .zip(&q)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        println!(
            "Q{}.{:<2}: max output error {err:.6} ({} bits/word)",
            format.integer_bits,
            format.frac_bits,
            format.total_bits()
        );
    }
    println!(
        "champion: {} nodes, {} connections — small enough for a {}-byte weight stream",
        hw.num_nodes(),
        hw.num_connections(),
        weight_stream_bytes(&hw)
    );
    Ok(())
}
