//! Activation-sparsity analysis (the paper's stated future work,
//! §VII: "Irregular NNs also have activation sparsity, which we did
//! not investigate in this study and is ripe for future work").
//!
//! With ReLU-heavy populations many node outputs are exactly zero, so
//! every downstream MAC reading that value is wasted work. A gating
//! PE could skip zero operands. This module measures the opportunity:
//! it evaluates a network, marks zero activations, and reschedules with
//! zero-operand MACs elided — yielding the cycle savings an
//! activity-gated INAX would realize on that input.

use crate::config::InaxConfig;
use crate::pe::node_cycles;
use crate::pu::{schedule_inference, walk_waves, PuInferenceProfile};
use e3_neat::NetPlan;
use serde::{Deserialize, Serialize};

/// Result of a sparsity-aware scheduling analysis for one input.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SparsityReport {
    /// Fraction of compute-node outputs that were exactly zero.
    pub zero_activation_fraction: f64,
    /// Fraction of MACs whose operand was zero (skippable).
    pub skippable_mac_fraction: f64,
    /// Baseline schedule (dense, input-independent).
    pub dense: PuInferenceProfile,
    /// Gated schedule with zero-operand MACs elided.
    pub gated: PuInferenceProfile,
}

impl SparsityReport {
    /// Wall-cycle speedup of gating on this input.
    pub fn speedup(&self) -> f64 {
        self.dense.wall_cycles as f64 / self.gated.wall_cycles.max(1) as f64
    }
}

/// Evaluates `plan` on `inputs` and analyses the activity-gated
/// schedule on `config`'s PE cluster.
///
/// The gated model elides MACs whose source value is exactly zero
/// (ReLU outputs and dead inputs); node launch and activation costs
/// remain — gating shortens a PE's accumulation, it does not remove
/// the node.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the network's input count.
pub fn analyze_activation_sparsity(
    config: &InaxConfig,
    plan: &NetPlan,
    inputs: &[f64],
) -> SparsityReport {
    let mut values = vec![0.0; plan.value_buffer_slots()];
    plan.execute_into(inputs, &mut values);
    let nodes = plan.num_compute_nodes();
    let zero_nodes = values[plan.num_inputs()..]
        .iter()
        .filter(|&&v| v == 0.0)
        .count();

    // Per-node effective in-degree with zero operands skipped.
    let effective_degrees: Vec<usize> = (0..nodes)
        .map(|node| {
            plan.node_edges(node)
                .iter()
                .filter(|&&(slot, _)| values[slot as usize] != 0.0)
                .count()
        })
        .collect();
    let total_macs = plan.num_connections();
    let skippable = total_macs - effective_degrees.iter().sum::<usize>();

    // The gated schedule is the dense walk with each node's cost taken
    // from its effective degree.
    let gated = walk_waves(
        config,
        plan.levels(),
        |node| node_cycles(config, effective_degrees[node]),
        |_, _, _| {},
    );

    SparsityReport {
        zero_activation_fraction: if nodes == 0 {
            0.0
        } else {
            zero_nodes as f64 / nodes as f64
        },
        skippable_mac_fraction: if total_macs == 0 {
            0.0
        } else {
            skippable as f64 / total_macs as f64
        },
        dense: schedule_inference(config, plan),
        gated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::synthetic_genome_with_mutations;
    use e3_neat::{Activation, Genome, InnovationTracker};

    fn relu_heavy_net() -> NetPlan {
        // Hidden ReLU nodes with negative bias: many outputs are zero.
        let mut tracker = InnovationTracker::with_reserved_nodes(4);
        let mut g = Genome::bare(2, 2);
        for (i, o) in [(0usize, 2usize), (1, 3)] {
            let innovation = g.add_connection(i, o, 1.0, &mut tracker).unwrap();
            let h = g
                .split_connection(innovation, Activation::Relu, &mut tracker)
                .unwrap();
            g.set_bias(h, -10.0).unwrap(); // forces ReLU output to 0
        }
        NetPlan::compile(&g).unwrap()
    }

    #[test]
    fn dead_relu_nodes_are_detected_and_gated() {
        let net = relu_heavy_net();
        let config = InaxConfig::builder().num_pe(1).build();
        let report = analyze_activation_sparsity(&config, &net, &[0.5, 0.5]);
        assert!(
            report.zero_activation_fraction >= 0.5,
            "hidden ReLUs are dead"
        );
        assert!(report.skippable_mac_fraction > 0.0);
        assert!(report.gated.wall_cycles < report.dense.wall_cycles);
        assert!(report.speedup() > 1.0);
    }

    #[test]
    fn gating_never_slows_down() {
        for seed in 0..10 {
            let genome = synthetic_genome_with_mutations(6, 3, 12, 0.4, 2, seed);
            let net = NetPlan::compile(&genome).unwrap();
            let config = InaxConfig::builder().num_pe(3).build();
            let inputs: Vec<f64> = (0..6).map(|i| ((seed + i) as f64 * 0.4).sin()).collect();
            let report = analyze_activation_sparsity(&config, &net, &inputs);
            assert!(report.gated.wall_cycles <= report.dense.wall_cycles);
            assert!(report.gated.pe_active_cycles <= report.dense.pe_active_cycles);
            assert!((0.0..=1.0).contains(&report.skippable_mac_fraction));
        }
    }

    #[test]
    fn fully_live_network_gains_nothing() {
        // Identity activations on nonzero inputs: nothing is zero.
        let mut tracker = InnovationTracker::with_reserved_nodes(3);
        let mut g = Genome::bare(2, 1);
        g.add_connection(0, 2, 1.0, &mut tracker).unwrap();
        g.add_connection(1, 2, 1.0, &mut tracker).unwrap();
        let net = NetPlan::compile(&g).unwrap();
        let config = InaxConfig::default();
        let report = analyze_activation_sparsity(&config, &net, &[1.0, 2.0]);
        assert_eq!(report.skippable_mac_fraction, 0.0);
        assert_eq!(report.dense, report.gated);
    }
}
