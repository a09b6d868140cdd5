//! Property tests for the [`e3_neat::PlanBatch`] population-major
//! batched executor.
//!
//! The batched kernel's contract is per-lane **bit-identity** with
//! solo [`e3_neat::NetPlan`] execution, regardless of which other
//! plans share the batch or which lanes are parked.

use e3_neat::{Genome, InnovationTracker, NeatConfig, NetPlan, PlanBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn evolved_genome(num_inputs: usize, num_outputs: usize, seed: u64, mutations: usize) -> Genome {
    let config = NeatConfig::builder(num_inputs, num_outputs)
        .initial_connection_density(0.6)
        .build();
    let mut tracker = InnovationTracker::with_reserved_nodes(num_inputs + num_outputs);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut genome = Genome::initial(&config, &mut tracker, &mut rng);
    for _ in 0..mutations {
        genome.mutate(&config, &mut tracker, &mut rng);
    }
    genome
}

/// Compiles `lanes` differently-evolved plans sharing one IO shape.
fn evolved_plans(
    num_inputs: usize,
    num_outputs: usize,
    seed: u64,
    lanes: usize,
    mutations: usize,
) -> Vec<NetPlan> {
    (0..lanes)
        .map(|lane| {
            let genome = evolved_genome(
                num_inputs,
                num_outputs,
                seed.wrapping_add(lane as u64),
                mutations,
            );
            NetPlan::compile(&genome).expect("mutations preserve feed-forwardness")
        })
        .collect()
}

/// Deterministic per-lane probe inputs derived from `x`.
fn lane_inputs(lanes: usize, num_inputs: usize, x: f64) -> Vec<f64> {
    (0..lanes * num_inputs)
        .map(|i| x * ((i % 7) as f64 + 1.0) * 0.31 - 2.0)
        .collect()
}

fn run_batch(batch: &PlanBatch, inputs: &[f64], active: &[bool]) -> Vec<f64> {
    let mut values = vec![0.0; batch.value_buffer_slots()];
    let mut outputs = vec![0.0; batch.lanes() * batch.num_outputs()];
    batch.activate_batch_into(inputs, active, &mut values, &mut outputs);
    outputs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every active lane of an arbitrary batch produces the exact
    /// f64 bit patterns of its plan executed alone, whatever the
    /// other lanes contain and whatever subset of lanes is parked.
    #[test]
    fn batched_lanes_match_solo_execution(
        seed in any::<u64>(),
        num_inputs in 1usize..5,
        num_outputs in 1usize..4,
        lanes in 1usize..7,
        mutations in 0usize..40,
        mask in any::<u8>(),
        x in -4.0f64..4.0,
    ) {
        let plans = evolved_plans(num_inputs, num_outputs, seed, lanes, mutations);
        let refs: Vec<&NetPlan> = plans.iter().collect();
        let batch = PlanBatch::build(&refs);
        let inputs = lane_inputs(lanes, num_inputs, x);
        let active: Vec<bool> = (0..lanes).map(|b| mask & (1 << b) != 0).collect();
        let outputs = run_batch(&batch, &inputs, &active);
        for (b, plan) in plans.iter().enumerate() {
            if !active[b] {
                continue;
            }
            let solo = plan.execute(&inputs[b * num_inputs..(b + 1) * num_inputs]);
            for (k, want) in solo.iter().enumerate() {
                let got = outputs[b * num_outputs + k];
                prop_assert_eq!(
                    want.to_bits(),
                    got.to_bits(),
                    "lane {} output {} drifted: {} vs {}",
                    b, k, want, got
                );
            }
        }
    }

    /// Parked lanes are never touched: their output slots keep
    /// whatever bits the caller left in them.
    #[test]
    fn parked_lanes_keep_caller_bits(
        seed in any::<u64>(),
        lanes in 2usize..6,
        mutations in 0usize..30,
        sentinel in any::<f64>(),
    ) {
        let plans = evolved_plans(3, 2, seed, lanes, mutations);
        let refs: Vec<&NetPlan> = plans.iter().collect();
        let batch = PlanBatch::build(&refs);
        let inputs = lane_inputs(lanes, 3, 0.7);
        // Park every odd lane.
        let active: Vec<bool> = (0..lanes).map(|b| b % 2 == 0).collect();
        let mut values = vec![0.0; batch.value_buffer_slots()];
        let mut outputs = vec![sentinel; lanes * 2];
        batch.activate_batch_into(&inputs, &active, &mut values, &mut outputs);
        for b in (1..lanes).step_by(2) {
            for k in 0..2 {
                prop_assert_eq!(
                    outputs[b * 2 + k].to_bits(),
                    sentinel.to_bits(),
                    "parked lane {} was written", b
                );
            }
        }
    }
}
