//! The lane walk against the scalar one: for L ∈ {1, 2, 4}, lane `l` of
//! [`NetPlan::fill_lanes`], once [`NetPlan::activate_outputs`] has
//! finished the output sums a plan that [`NetPlan::leaves_sums`] leaves,
//! holds, in every value-buffer slot, the bits
//! [`NetPlan::execute_into`] computes from lane `l`'s inputs alone (a
//! NaN as a NaN, see `same`); and the fused walk of two plans,
//! [`NetPlan::fill_pair`], leaves each plan's rows as a one-lane walk of
//! that plan alone does, whichever plan is longer — on evolved plans
//! over all eight activations, and on inputs that mix NaN, infinities,
//! subnormals, signed zeros and values that saturate every activation.

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

/// An evolved plan whose nodes draw from every activation. An even
/// seed keeps the default `Tanh` outputs, so its walks leave output
/// sums; an odd one draws the output activation too.
fn evolved_plan(seed: u64, mutations: usize, num_inputs: usize, num_outputs: usize) -> NetPlan {
    let mut config = NeatConfig::builder(num_inputs, num_outputs)
        .initial_connection_density(0.7)
        .build();
    config.activation_options = Activation::ALL.to_vec();
    if seed % 2 == 1 {
        config.output_activation = Activation::ALL[(seed / 2 % 8) as usize];
    }
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
    plan.activate_outputs(&mut rows);
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

/// One-lane rows of `plan` with inputs picked by `draws` from `at`.
fn input_rows(plan: &NetPlan, draws: &[(usize, f64)], at: usize) -> Vec<[f64; 1]> {
    let mut rows = vec![[0.0]; plan.value_buffer_slots()];
    for (i, row) in rows[..plan.num_inputs()].iter_mut().enumerate() {
        let (pick, x) = draws[(at + i) % draws.len()];
        row[0] = SPECIAL.get(pick).copied().unwrap_or(x);
    }
    rows
}

/// Walks `a` and `b` fused and compares every slot of each with a
/// `fill_lanes::<1>` walk of that plan alone on the same inputs.
fn pair_matches_lanes(a: &NetPlan, b: &NetPlan, draws: &[(usize, f64)]) {
    let (mut a_rows, mut b_rows) = (input_rows(a, draws, 0), input_rows(b, draws, 7));
    let (mut a_alone, mut b_alone) = (a_rows.clone(), b_rows.clone());
    NetPlan::fill_pair(a, &mut a_rows, b, &mut b_rows);
    a.fill_lanes(&mut a_alone);
    b.fill_lanes(&mut b_alone);
    for (side, fused, alone) in [("a", &a_rows, &a_alone), ("b", &b_rows, &b_alone)] {
        for (slot, (got, want)) in fused.iter().zip(alone.iter()).enumerate() {
            assert!(
                same(got[0], want[0]),
                "plan {side} of {} and {} nodes, slot {slot}: {:#x} vs {:#x}",
                a.num_compute_nodes(),
                b.num_compute_nodes(),
                got[0].to_bits(),
                want[0].to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_fused_pair_walk_is_each_plan_alone_bit_for_bit(
        seeds in (any::<u64>(), any::<u64>()),
        mutations in (0usize..80, 0usize..80),
        num_inputs in 1usize..7,
        num_outputs in 1usize..4,
        draws in proptest::collection::vec((0usize..28, -8.0f64..8.0), 24),
    ) {
        let a = evolved_plan(seeds.0, mutations.0, num_inputs, num_outputs);
        let b = evolved_plan(seeds.1, mutations.1, num_inputs + 1, num_outputs);
        // Each order, so either plan is the longer one, and a plan
        // paired with itself: equal lengths.
        pair_matches_lanes(&a, &b, &draws);
        pair_matches_lanes(&b, &a, &draws);
        pair_matches_lanes(&a, &a, &draws);
    }

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

/// The properties meet both kinds of plan: some whose walks leave
/// output sums, some whose walks activate every node.
#[test]
fn evolved_plans_include_both_kinds_of_output() {
    let kinds: Vec<bool> = (0..16)
        .map(|seed| evolved_plan(seed, 60, 4, 1 + seed as usize % 3).leaves_sums())
        .collect();
    assert!(kinds.contains(&true) && kinds.contains(&false), "{kinds:?}");
}

/// The pair property meets both orders of unequal lengths: over its
/// mutation counts, plans differ in size.
#[test]
fn paired_plans_differ_in_length() {
    let short = evolved_plan(1, 0, 4, 2);
    let long = evolved_plan(2, 60, 4, 2);
    assert!(long.num_compute_nodes() > short.num_compute_nodes());
    let draws: Vec<(usize, f64)> = (0..24).map(|i| (99, i as f64 * 0.37 - 4.0)).collect();
    pair_matches_lanes(&short, &long, &draws);
    pair_matches_lanes(&long, &short, &draws);
}
