//! The scalar execution seam shared by every forward-pass executor.
//!
//! Episode loops (one network call per environment step) only need
//! "run one forward pass into a reusable buffer". [`ForwardPass`]
//! names exactly that contract, so the same episode kernel can drive
//! the interpreted [`Network`](crate::Network), the batched lanes'
//! scalar twin, or a natively compiled plan (`e3-jit`'s
//! `CompiledPlan`) — the execution *tiers* — interchangeably.
//!
//! Every implementation must be **bit-identical** to
//! `NetPlan::execute_into_buf` on
//! the same plan and inputs: the interpreter is the permanent oracle,
//! and tiers may only differ in speed, never in results.

use crate::network::Network;

/// One reusable-buffer forward pass — the contract episode kernels are
/// generic over.
pub trait ForwardPass {
    /// Runs one forward pass and returns the output node values in
    /// genome id order as a slice into an internal reusable buffer.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the network's input count.
    fn activate_into(&mut self, inputs: &[f64]) -> &[f64];

    /// Number of input nodes.
    fn num_inputs(&self) -> usize;

    /// Number of output nodes.
    fn num_outputs(&self) -> usize;
}

impl ForwardPass for Network {
    fn activate_into(&mut self, inputs: &[f64]) -> &[f64] {
        Network::activate_into(self, inputs)
    }

    fn num_inputs(&self) -> usize {
        Network::num_inputs(self)
    }

    fn num_outputs(&self) -> usize {
        Network::num_outputs(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Genome, InnovationTracker};

    fn run_generic<N: ForwardPass>(net: &mut N, inputs: &[f64]) -> Vec<f64> {
        assert_eq!(net.num_inputs(), inputs.len());
        net.activate_into(inputs).to_vec()
    }

    #[test]
    fn network_implements_the_seam() {
        let mut tracker = InnovationTracker::with_reserved_nodes(3);
        let mut g = Genome::bare(2, 1);
        g.add_connection(0, 2, 0.5, &mut tracker).unwrap();
        g.add_connection(1, 2, -0.5, &mut tracker).unwrap();
        let mut net = g.decode().unwrap();
        let direct = net.activate(&[0.25, -0.75]);
        let via_seam = run_generic(&mut net, &[0.25, -0.75]);
        assert_eq!(
            direct.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
            via_seam.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
        );
        assert_eq!(ForwardPass::num_outputs(&net), 1);
    }
}
