//! Property tests: the dense lowering is semantics-preserving and the
//! SA cycle model behaves sanely on arbitrary evolved topologies.

use e3_inax::synthetic::synthetic_genome_with_mutations;
use e3_neat::NetPlan;
use e3_systolic::{DensePaddedNet, SystolicArray, SystolicConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense padding computes the same function as the irregular net.
    #[test]
    fn lowering_preserves_semantics(
        seed in any::<u64>(),
        hidden in 0usize..20,
        mutations in 0usize..8,
        density in 0.1f64..0.9,
        x in proptest::collection::vec(-4.0f64..4.0, 5),
    ) {
        let genome = synthetic_genome_with_mutations(5, 3, hidden, density, mutations, seed);
        let net = NetPlan::compile(&genome).expect("feed-forward");
        let padded = DensePaddedNet::from_plan(&net);
        let want = net.execute(&x);
        let got = padded.evaluate(&x);
        prop_assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            prop_assert!((w - g).abs() < 1e-9, "{w} vs {g}");
        }
    }

    /// The dense counterpart never has fewer connections than the real
    /// network, and dummy nodes appear only when links skip levels.
    #[test]
    fn padding_counts_are_consistent(
        seed in any::<u64>(),
        hidden in 0usize..20,
        mutations in 0usize..8,
    ) {
        let genome = synthetic_genome_with_mutations(5, 3, hidden, 0.4, mutations, seed);
        let net = NetPlan::compile(&genome).expect("feed-forward");
        let padded = DensePaddedNet::from_plan(&net);
        prop_assert!(padded.dense_connections() >= net.num_connections());
        prop_assert_eq!(padded.real_nodes(), net.num_compute_nodes());
        let total_outputs: usize = padded.layers().iter().map(|l| l.out_width()).sum();
        prop_assert_eq!(total_outputs, padded.real_nodes() + padded.dummy_nodes());
    }

    /// SA cycles have an interior optimum: some PE count beats both
    /// the serial extreme and the over-provisioned extreme (the paper's
    /// Fig. 11 observation that the SA is best at 16 PEs and *worse*
    /// at 64 — pipeline fill/drain grows with the array length, so SA
    /// scaling is NOT monotone).
    #[test]
    fn sa_cycles_have_an_interior_optimum(
        seed in any::<u64>(),
        hidden in 1usize..20,
    ) {
        let genome = synthetic_genome_with_mutations(5, 3, hidden, 0.4, 2, seed);
        let net = NetPlan::compile(&genome).expect("feed-forward");
        let padded = DensePaddedNet::from_plan(&net);
        let sweep = [1usize, 2, 4, 8, 16, 64];
        let cycles: Vec<u64> = sweep
            .iter()
            .map(|&pes| {
                let sa = SystolicArray::new(SystolicConfig::builder().num_pe(pes).build());
                sa.inference_cycles(&padded)
            })
            .collect();
        prop_assert!(cycles.iter().all(|&c| c > 0));
        let best = cycles.iter().copied().min().expect("non-empty");
        prop_assert!(best <= cycles[0], "some parallel point is at least as good as serial");
        // Over-provisioning far past every layer's width cannot beat
        // the best interior point (fill/drain dominates).
        prop_assert!(*cycles.last().expect("non-empty") >= best);
    }
}
