//! Processing Element cost model.
//!
//! A PE is a DSP MAC plus an activation unit running as a pipeline
//! (paper §IV-E). With the output-stationary dataflow it owns one node
//! end-to-end: it streams the node's ingress values from the value
//! buffer, accumulates locally, adds the bias, applies the activation,
//! and commits the result. Its busy time is therefore proportional to
//! the node's **in-degree** — the source of PE-time variance that
//! forces synchronization idling in irregular networks (paper §V-A
//! issue 3).

use crate::config::InaxConfig;

/// Cycles a single PE needs to compute a node of `in_degree` ingress
/// edges under the configured dataflow.
///
/// Output stationary: `in_degree × mac + activation` (the bias add is
/// folded into the activation pipeline stage). A node with no ingress
/// still pays the activation/commit cost.
pub(crate) fn node_cycles(config: &InaxConfig, in_degree: usize) -> u64 {
    in_degree as u64 * config.mac_cycles + config.activation_cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_scale_with_in_degree() {
        let c = InaxConfig::default();
        let base = node_cycles(&c, 0);
        assert_eq!(base, c.activation_cycles);
        assert_eq!(node_cycles(&c, 5), 5 * c.mac_cycles + c.activation_cycles);
        assert!(node_cycles(&c, 10) > node_cycles(&c, 3));
    }
}
