//! Property tests for the [`e3_neat::NetPlan`] compiled-network IR.
//!
//! The plan path must be **bit-identical** to the per-node reference
//! decoder it replaced ([`e3_neat::ReferenceNetwork`] preserves that
//! code verbatim as an oracle), and cyclic genomes must fail plan
//! compilation with the same [`DecodeError`] the legacy decode raised.

use e3_neat::{
    DecodeError, Genome, InnovationTracker, NeatConfig, NetPlan, Network, ReferenceNetwork,
};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Plan execution, the plan-backed [`Network`] executor, and the
    /// preserved per-node reference are bit-identical on arbitrary
    /// evolved genomes — same f64 bit patterns, not just close values.
    #[test]
    fn plan_matches_reference_bit_for_bit(
        seed in any::<u64>(),
        num_inputs in 1usize..6,
        num_outputs in 1usize..5,
        mutations in 0usize..60,
        x in -10.0f64..10.0,
    ) {
        let genome = evolved_genome(num_inputs, num_outputs, seed, mutations);
        let plan = NetPlan::compile(&genome).expect("mutations preserve feed-forwardness");
        let mut net = Network::from_genome(&genome).expect("decodable");
        let mut reference = ReferenceNetwork::from_genome(&genome).expect("decodable");
        let inputs: Vec<f64> = (0..num_inputs)
            .map(|i| x * (i as f64 + 1.0) - 3.0)
            .collect();
        let want = reference.activate(&inputs);
        let via_plan = plan.execute(&inputs);
        let via_net = net.activate(&inputs);
        prop_assert_eq!(want.len(), num_outputs);
        for (w, (p, n)) in want.iter().zip(via_plan.iter().zip(&via_net)) {
            prop_assert_eq!(w.to_bits(), p.to_bits(), "plan drifted: {} vs {}", w, p);
            prop_assert_eq!(w.to_bits(), n.to_bits(), "network drifted: {} vs {}", w, n);
        }
    }

    /// Plan metrics agree with the reference decode: same node,
    /// connection, and IO counts for any evolved genome.
    #[test]
    fn plan_metrics_match_reference(
        seed in any::<u64>(),
        mutations in 0usize..60,
    ) {
        let genome = evolved_genome(4, 2, seed, mutations);
        let plan = NetPlan::compile(&genome).expect("decodable");
        let reference = ReferenceNetwork::from_genome(&genome).expect("decodable");
        prop_assert_eq!(plan.num_nodes(), reference.num_nodes());
        prop_assert_eq!(plan.num_connections(), reference.num_connections());
        prop_assert_eq!(plan.num_inputs(), reference.num_inputs());
        prop_assert_eq!(plan.num_outputs(), reference.num_outputs());
        // Level ranges tile the compute nodes exactly once, in order.
        let mut next = 0u32;
        for &(start, end) in plan.levels() {
            prop_assert_eq!(start, next, "levels are contiguous");
            prop_assert!(end > start, "levels are non-empty");
            next = end;
        }
        prop_assert_eq!(next as usize, plan.num_compute_nodes());
    }

    /// A cycle injected anywhere into an evolved genome makes plan
    /// compilation fail with [`DecodeError::Cycle`], exactly like the
    /// legacy decode.
    #[test]
    fn cyclic_genomes_fail_plan_compilation(
        seed in any::<u64>(),
        mutations in 0usize..40,
    ) {
        let mut genome = evolved_genome(3, 2, seed, mutations);
        let mut tracker = InnovationTracker::with_reserved_nodes(1_000_000);
        // Self-loop on the first output: the smallest possible cycle.
        genome
            .add_connection_unchecked(3, 3, 0.5, &mut tracker)
            .expect("self-loop is structurally storable");
        let plan_err = NetPlan::compile(&genome).expect_err("cycle must not compile");
        prop_assert!(matches!(plan_err, DecodeError::Cycle(_)), "got {plan_err:?}");
        let decode_err = genome.decode().expect_err("legacy decode must also reject");
        prop_assert_eq!(plan_err, decode_err, "plan and decode report the same error");
        prop_assert!(Network::from_genome(&genome).is_err());
    }

    /// A longer cycle (through a split hidden node) is also rejected through the plan path. The
    /// reported node id is a node stuck behind the cycle, and the plan
    /// error is identical to the legacy decode's.
    #[test]
    fn hidden_node_cycles_are_rejected(
        weight in -2.0f64..2.0,
    ) {
        let mut tracker = InnovationTracker::with_reserved_nodes(2);
        let mut genome = Genome::bare(1, 1);
        let innovation = genome.add_connection(0, 1, 1.0, &mut tracker).unwrap();
        let hidden = genome
            .split_connection(innovation, e3_neat::Activation::Tanh, &mut tracker)
            .unwrap();
        genome
            .add_connection_unchecked(hidden, hidden, weight, &mut tracker)
            .unwrap();
        let decode_err = genome.decode().expect_err("legacy decode rejects the cycle");
        match NetPlan::compile(&genome) {
            Err(err @ DecodeError::Cycle(node)) => {
                // The output (id 1) and the self-looped hidden node are
                // both stuck; either is a valid witness, but the plan
                // must agree with the legacy decode exactly.
                prop_assert!(node == hidden || node == 1, "stuck node {node} not behind cycle");
                prop_assert_eq!(err, decode_err, "plan and decode report the same error");
            }
            other => prop_assert!(false, "expected Cycle, got {:?}", other),
        }
    }
}
