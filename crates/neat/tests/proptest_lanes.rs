//! The lane walk against the scalar one: for L ∈ {1, 2, 4}, lane `l` of
//! [`NetPlan::fill_lanes`] holds, in every value-buffer slot, the bits
//! [`NetPlan::execute_into`] computes from lane `l`'s inputs alone (a
//! NaN as a NaN, see `same`) — on
//! evolved plans over all eight activations, and on inputs that mix
//! NaN, infinities, subnormals, signed zeros and values that saturate
//! every activation.

use e3_neat::{Activation, Genome, InnovationTracker, NeatConfig, NetPlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Inputs no evolved run is likely to draw but every lane must survive.
const SPECIAL: [f64; 14] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE / 3.0,
    0.0,
    -0.0,
    1e300,
    -1e300,
    60.0,
    -60.0,
    18.7,
    710.0,
];

/// An evolved plan whose nodes draw from every activation.
fn evolved_plan(seed: u64, mutations: usize, num_inputs: usize, num_outputs: usize) -> NetPlan {
    let mut config = NeatConfig::builder(num_inputs, num_outputs)
        .initial_connection_density(0.7)
        .build();
    config.activation_options = Activation::ALL.to_vec();
    config.activation_mutate_rate = 0.3;
    let mut tracker = InnovationTracker::with_reserved_nodes(num_inputs + num_outputs);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut genome = Genome::initial(&config, &mut tracker, &mut rng);
    for _ in 0..mutations {
        genome.mutate(&config, &mut tracker, &mut rng);
    }
    NetPlan::compile(&genome).expect("mutations preserve feed-forwardness")
}

/// Bit equality, except that any NaN matches any NaN: Rust leaves the
/// sign and payload of a NaN result unspecified, and they do differ —
/// when both operands of an add are NaN, x86 returns the first, and
/// the compiler may commute the add in one monomorphization and not in
/// another (`0x7ff8…` against `0xfff8…` on a plan fed `inf`). Every
/// non-NaN result has exactly one correctly rounded value, so it must
/// match to the bit.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Walks `plan` `L` lanes wide on inputs picked by `draws` (a pick
/// below `SPECIAL.len()` takes that special value, any other the drawn
/// one) and compares every slot of every lane with a scalar pass.
fn lanes_match_scalar<const L: usize>(plan: &NetPlan, draws: &[(usize, f64)]) {
    let n = plan.num_inputs();
    let input = |lane: usize, i: usize| {
        let (pick, x) = draws[lane * n + i];
        SPECIAL.get(pick).copied().unwrap_or(x)
    };
    let mut rows = vec![[0.0; L]; plan.value_buffer_slots()];
    for (i, row) in rows[..n].iter_mut().enumerate() {
        for (lane, x) in row.iter_mut().enumerate() {
            *x = input(lane, i);
        }
    }
    plan.fill_lanes(&mut rows);
    let mut values = vec![0.0; plan.value_buffer_slots()];
    for lane in 0..L {
        let inputs: Vec<f64> = (0..n).map(|i| input(lane, i)).collect();
        plan.execute_into(&inputs, &mut values);
        for (slot, (row, want)) in rows.iter().zip(&values).enumerate() {
            assert!(
                same(row[lane], *want),
                "L = {L}, lane {lane}, slot {slot}: {:#x} vs {:#x} from {inputs:?}",
                row[lane].to_bits(),
                want.to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_lane_is_the_scalar_walk_bit_for_bit(
        seed in any::<u64>(),
        mutations in 0usize..80,
        num_inputs in 1usize..7,
        num_outputs in 1usize..4,
        draws in proptest::collection::vec((0usize..28, -8.0f64..8.0), 24),
    ) {
        let plan = evolved_plan(seed, mutations, num_inputs, num_outputs);
        lanes_match_scalar::<1>(&plan, &draws);
        lanes_match_scalar::<2>(&plan, &draws);
        lanes_match_scalar::<4>(&plan, &draws);
    }
}

/// The property's plans reach every activation: over a handful of
/// seeds at its mutation counts, all eight appear.
#[test]
fn evolved_plans_cover_every_activation() {
    let mut seen = Vec::new();
    for seed in 0..16 {
        let plan = evolved_plan(seed, 60, 4, 2);
        seen.extend((0..plan.num_compute_nodes()).map(|i| plan.activation(i)));
    }
    for activation in Activation::ALL {
        assert!(seen.contains(&activation), "no {activation} node drawn");
    }
}
