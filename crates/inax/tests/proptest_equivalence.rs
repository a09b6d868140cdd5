//! Property tests: the INAX simulator is functionally identical to the
//! software reference, its cycle accounting is self-consistent, and
//! the accounting-only fold over episode lengths leaves the counters of
//! the closed loop it stands in for.

use e3_inax::sparsity::analyze_activation_sparsity;
use e3_inax::synthetic::synthetic_genome_with_mutations;
use e3_inax::{schedule_inference, trace_inference, InaxAccelerator, InaxConfig, PuSim};
use e3_neat::NetPlan;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// HW functional evaluation — a PU inferring into its own value
    /// buffer — equals the SW reference bit-for-bit on arbitrary
    /// evolved topologies and inputs.
    #[test]
    fn inax_matches_software_reference(
        seed in any::<u64>(),
        hidden in 0usize..25,
        mutations in 0usize..8,
        density in 0.1f64..0.9,
        x0 in -5.0f64..5.0,
        x1 in -5.0f64..5.0,
    ) {
        let genome = synthetic_genome_with_mutations(4, 3, hidden, density, mutations, seed);
        let mut sw = genome.decode().expect("feed-forward");
        let plan = NetPlan::compile(&genome).expect("compiles");
        let mut pu = PuSim::new(&InaxConfig::default(), plan);
        let inputs = [x0, x1, x0 * 0.5, x1 - x0];
        prop_assert_eq!(sw.activate(&inputs), pu.infer(&inputs).0);
    }

    /// The dense schedule, the sparsity-gated schedule and the wave
    /// trace are three folds of one walk: on arbitrary topologies,
    /// inputs and PE counts the trace's profile and the sparsity
    /// report's dense half both equal `schedule_inference`, the trace's
    /// assignments carry exactly the profile's active cycles, and
    /// gating an input that leaves no operand zero changes nothing.
    #[test]
    fn schedule_trace_and_sparsity_agree(
        seed in any::<u64>(),
        hidden in 0usize..25,
        mutations in 0usize..8,
        density in 0.1f64..0.9,
        num_pe in 1usize..12,
        x0 in -5.0f64..5.0,
        x1 in -5.0f64..5.0,
    ) {
        let genome = synthetic_genome_with_mutations(4, 3, hidden, density, mutations, seed);
        let plan = NetPlan::compile(&genome).expect("compiles");
        let config = InaxConfig::builder().num_pe(num_pe).build();
        let profile = schedule_inference(&config, &plan);
        let trace = trace_inference(&config, &plan);
        prop_assert_eq!(trace.profile, profile);
        prop_assert_eq!(trace.total_busy_cycles(), profile.pe_active_cycles);
        prop_assert_eq!(trace.waves.len() as u64, profile.waves);
        let report = analyze_activation_sparsity(&config, &plan, &[x0, x1, x0 * 0.5, x1 - x0]);
        prop_assert_eq!(report.dense, profile);
        prop_assert!(report.gated.wall_cycles <= profile.wall_cycles);
        prop_assert_eq!(report.gated.waves, profile.waves);
        if report.skippable_mac_fraction == 0.0 {
            prop_assert_eq!(report.gated, profile);
        }
    }

    /// Cycle accounting: active ≤ total, utilization in (0, 1], and the
    /// schedule is deterministic.
    #[test]
    fn schedule_accounting_is_consistent(
        seed in any::<u64>(),
        hidden in 0usize..30,
        num_pe in 1usize..20,
        density in 0.1f64..0.9,
    ) {
        let genome = synthetic_genome_with_mutations(6, 4, hidden, density, 2, seed);
        let net = NetPlan::compile(&genome).expect("compiles");
        let config = InaxConfig::builder().num_pe(num_pe).build();
        let a = schedule_inference(&config, &net);
        let b = schedule_inference(&config, &net);
        prop_assert_eq!(a, b, "deterministic schedule");
        prop_assert!(a.pe_active_cycles <= a.pe_total_cycles);
        prop_assert_eq!(a.pe_total_cycles, a.wall_cycles * num_pe as u64);
        let util = a.pe_utilization().rate();
        prop_assert!(util > 0.0 && util <= 1.0, "U(PE) = {util}");
        prop_assert!(a.wall_cycles > 0);
    }

    /// PE scaling obeys the sandwich bound: every PE count is at least
    /// as fast as fully serial (1 PE) and no faster than unbounded
    /// parallelism (one wave per level). Pointwise monotonicity does
    /// NOT hold — greedy in-order wave chunking can regroup two heavy
    /// nodes unfavourably — which is itself a finding about the
    /// hardware's dispatch order (paper §V-A issue 3).
    #[test]
    fn pe_scaling_obeys_sandwich_bounds(
        seed in any::<u64>(),
        hidden in 1usize..25,
    ) {
        let genome = synthetic_genome_with_mutations(6, 4, hidden, 0.3, 2, seed);
        let net = NetPlan::compile(&genome).expect("compiles");
        let serial =
            schedule_inference(&InaxConfig::builder().num_pe(1).build(), &net).wall_cycles;
        let widest = net.level_widths().into_iter().max().unwrap_or(1);
        let unbounded =
            schedule_inference(&InaxConfig::builder().num_pe(widest).build(), &net).wall_cycles;
        for num_pe in 1..=16 {
            let config = InaxConfig::builder().num_pe(num_pe).build();
            let wall = schedule_inference(&config, &net).wall_cycles;
            prop_assert!(wall <= serial, "PE {num_pe}: {wall} > serial {serial}");
            prop_assert!(wall >= unbounded, "PE {num_pe}: {wall} < unbounded {unbounded}");
        }
    }

    /// The closed-loop accelerator produces the same outputs as the
    /// standalone PU and preserves accounting across steps.
    #[test]
    fn cluster_step_matches_pu(
        seed in any::<u64>(),
        batch in 1usize..5,
        steps in 1usize..6,
    ) {
        let config = InaxConfig::builder().num_pu(batch).num_pe(2).build();
        let nets: Vec<NetPlan> = (0..batch)
            .map(|i| {
                let genome =
                    synthetic_genome_with_mutations(3, 2, 5, 0.5, 1, seed ^ (i as u64 * 31));
                NetPlan::compile(&genome).expect("compiles")
            })
            .collect();
        let mut acc = InaxAccelerator::new(config.clone());
        acc.load_batch(nets.clone());
        let mut pus: Vec<PuSim> = nets.iter().map(|n| PuSim::new(&config, n.clone())).collect();
        for step in 0..steps {
            let input = vec![step as f64 * 0.1, -1.0, 0.5];
            let inputs = vec![Some(input.clone()); batch];
            let outs = acc.step(&inputs);
            for (out, pu) in outs.iter().zip(&mut pus) {
                let (want, _) = pu.infer(&input);
                prop_assert_eq!(out.as_ref().expect("alive"), &want);
            }
        }
        let report = acc.report();
        prop_assert_eq!(report.steps, steps as u64);
        prop_assert!(report.pu_utilization.rate() <= 1.0);
        prop_assert!(report.pe_utilization.rate() <= 1.0);
        // Wall-cycle accounting: the total covers at least the set-up
        // phase plus the per-step DMA beyond the weight stream, and is
        // strictly positive per step.
        prop_assert!(report.total_cycles >= report.breakdown.setup);
        prop_assert!(report.dma_cycles > 0, "input/weight channels moved data");
        prop_assert!(report.total_cycles > report.dma_cycles, "compute takes cycles too");
    }

    /// `run_episodes` is the closed `step` loop minus the values: fed
    /// the episode lengths, it leaves exactly the counters that driving
    /// `step` with the same alive pattern leaves — over ragged clusters
    /// (more PUs than residents), tied lengths, several scenarios per
    /// load and several loads per accelerator.
    #[test]
    fn run_episodes_matches_a_step_driven_loop(
        seed in any::<u64>(),
        residents in 1usize..6,
        spare_pus in 0usize..3,
        num_pe in 1usize..5,
        scenarios in 1usize..4,
        lengths in proptest::collection::vec(1u64..7, 30),
    ) {
        let config = InaxConfig::builder()
            .num_pu(residents + spare_pus)
            .num_pe(num_pe)
            .build();
        let mut folded = InaxAccelerator::new(config.clone());
        let mut stepped = InaxAccelerator::new(config);
        // Two loads of `scenarios` batches each: 2 × ≤ 3 × ≤ 5 lengths.
        let mut lengths = lengths.chunks(residents);
        for load in 0..2u64 {
            let nets: Vec<NetPlan> = (0..residents as u64)
                .map(|i| {
                    let hidden = ((seed >> (8 * i)) % 9) as usize;
                    let genome =
                        synthetic_genome_with_mutations(3, 2, hidden, 0.5, 2, seed ^ (31 * i + load));
                    NetPlan::compile(&genome).expect("compiles")
                })
                .collect();
            folded.load_batch(nets.clone());
            stepped.load_batch(nets);
            for _ in 0..scenarios {
                let lengths = lengths.next().expect("30 lengths cover every batch");
                folded.run_episodes(lengths);
                let longest = lengths.iter().copied().max().unwrap_or(0);
                for wave in 0..longest {
                    let inputs: Vec<_> = lengths
                        .iter()
                        .map(|&length| (length > wave).then(|| vec![0.1 * wave as f64, -1.0, 0.5]))
                        .collect();
                    stepped.step(&inputs);
                }
            }
            folded.unload_batch();
            stepped.unload_batch();
        }
        prop_assert_eq!(folded.report(), stepped.report());
        prop_assert_eq!(folded.utilization(), stepped.utilization());
    }
}

#[test]
fn run_episodes_on_an_empty_batch_accounts_nothing() {
    let mut acc = InaxAccelerator::new(InaxConfig::builder().num_pu(3).build());
    acc.load_batch(Vec::new());
    let loaded = (acc.report(), acc.utilization().clone());
    acc.run_episodes(&[]);
    assert_eq!((acc.report(), acc.utilization().clone()), loaded);
    assert_eq!(acc.report().steps, 0);
}

#[test]
#[should_panic(expected = "one episode length per resident")]
fn run_episodes_rejects_a_length_count_mismatch() {
    let mut acc = InaxAccelerator::new(InaxConfig::builder().num_pu(2).build());
    let genome = synthetic_genome_with_mutations(3, 2, 4, 0.5, 1, 7);
    acc.load_batch(vec![NetPlan::compile(&genome).expect("compiles")]);
    acc.run_episodes(&[3, 3]);
}
