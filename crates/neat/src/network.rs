//! The software executor over a compiled [`NetPlan`] (the paper's
//! "CreateNet" output, software view).
//!
//! A [`Network`] is the phenotype of a [`Genome`](crate::Genome): a
//! flat CSR [`NetPlan`] plus a reusable scratch *value buffer*, so
//! repeated [`Network::activate`] calls allocate nothing but the
//! output vector ([`Network::activate_into`] not even that).
//! Decoding itself — topological sort, level
//! assignment, CSR packing — lives in [`NetPlan::compile`]; this type
//! only executes and reports structural metrics.
//!
//! Because evolved networks are irregular, a connection may span any
//! number of levels — which is why evaluation keeps **every**
//! intermediate activation live (the accelerator's *value buffer*)
//! instead of only the previous layer's. The value-buffer slot
//! convention is documented on [`crate::plan`].

use crate::error::DecodeError;
use crate::genome::Genome;
use crate::plan::NetPlan;
use serde::{Deserialize, Serialize};

/// An inference-ready irregular feed-forward network: a compiled
/// [`NetPlan`] plus its scratch value buffer.
///
/// # Example
///
/// ```
/// use e3_neat::{Genome, InnovationTracker};
///
/// let mut tracker = InnovationTracker::with_reserved_nodes(3);
/// let mut genome = Genome::bare(2, 1);
/// genome.add_connection(0, 2, 0.5, &mut tracker)?;
/// genome.add_connection(1, 2, -0.5, &mut tracker)?;
/// let mut net = genome.decode()?;
/// let out = net.activate(&[1.0, 1.0]);
/// assert_eq!(out.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    plan: NetPlan,
    /// Scratch activation values (the "value buffer").
    values: Vec<f64>,
    /// Scratch output vector for [`Network::activate_into`].
    outputs: Vec<f64>,
}

/// Two executors are equal when they execute the same [`NetPlan`];
/// scratch-buffer contents are transient and excluded.
impl PartialEq for Network {
    fn eq(&self, other: &Self) -> bool {
        self.plan == other.plan
    }
}

impl Network {
    /// Decodes a genome: compiles it to a [`NetPlan`] and attaches a
    /// scratch value buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Cycle`] if the enabled connections are
    /// cyclic, or [`DecodeError::DanglingConnection`] if a connection
    /// references a missing node.
    pub fn from_genome(genome: &Genome) -> Result<Self, DecodeError> {
        Ok(Network::from_plan(NetPlan::compile(genome)?))
    }

    /// Wraps an already compiled plan in an executor (for callers that
    /// cache or share plans, e.g. `e3-platform`'s tiered plan cache).
    pub fn from_plan(plan: NetPlan) -> Self {
        Network {
            values: vec![0.0; plan.value_buffer_slots()],
            outputs: Vec::with_capacity(plan.num_outputs()),
            plan,
        }
    }

    /// The compiled plan backing this executor.
    pub fn plan(&self) -> &NetPlan {
        &self.plan
    }

    /// Runs one forward pass and returns the output node values in
    /// genome id order. Reuses the internal value buffer — no per-call
    /// allocation beyond the returned vector.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the genome's input count.
    pub fn activate(&mut self, inputs: &[f64]) -> Vec<f64> {
        self.plan.execute_into(inputs, &mut self.values)
    }

    /// Runs one forward pass with **zero allocation** and returns the
    /// output node values (genome id order) as a slice into an internal
    /// reusable buffer — bit-identical to [`Network::activate`]. This
    /// is the hot path for episode loops that call the network once per
    /// environment step.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the genome's input count.
    pub fn activate_into(&mut self, inputs: &[f64]) -> &[f64] {
        self.plan
            .execute_into_buf(inputs, &mut self.values, &mut self.outputs);
        &self.outputs
    }

    /// Number of input nodes.
    pub fn num_inputs(&self) -> usize {
        self.plan.num_inputs()
    }

    /// Number of output nodes.
    pub fn num_outputs(&self) -> usize {
        self.plan.num_outputs()
    }

    /// In-degree ("degree of node") for each non-input node, the
    /// statistic of Fig. 4(e). Variable in-degree is what makes PE
    /// execution time variable in INAX.
    pub fn in_degrees(&self) -> Vec<usize> {
        self.plan.in_degrees()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Genome, InnovationTracker};

    fn chain_genome() -> (Genome, InnovationTracker) {
        // 2 inputs -> hidden -> output, plus a skip connection 0 -> out.
        let mut tracker = InnovationTracker::with_reserved_nodes(3);
        let mut g = Genome::bare(2, 1);
        let innovation = g.add_connection(0, 2, 0.5, &mut tracker).unwrap();
        g.add_connection(1, 2, 0.25, &mut tracker).unwrap();
        let h = g
            .split_connection(innovation, Activation::Identity, &mut tracker)
            .unwrap();
        g.set_bias(h, 0.0).unwrap();
        (g, tracker)
    }

    #[test]
    fn decode_assigns_levels_by_longest_path() {
        let (g, _) = chain_genome();
        let net = g.decode().unwrap();
        // inputs at level 0, hidden at 1, output at 2 (longest path
        // through the hidden node wins over the direct skip).
        assert_eq!(net.plan().levels(), &[(0, 1), (1, 2)]);
        assert_eq!(net.plan().level_widths(), vec![1, 1]);
        assert_eq!(net.plan().num_compute_levels(), 2);
        assert_eq!(net.plan().num_nodes(), 4);
    }

    #[test]
    fn activation_computes_irregular_skip_links() {
        let (g, _) = chain_genome();
        let mut net = g.decode().unwrap();
        // Hidden: identity(1.0 * in0 * 1.0) = in0 (split kept weight 1 on
        // the in-edge and 0.5 on the out-edge). Output (tanh):
        // tanh(0.5 * h + 0.25 * in1 + bias 0).
        let out = net.activate(&[0.8, 0.4]);
        let expect = (0.5 * 0.8 + 0.25 * 0.4f64).tanh();
        assert!((out[0] - expect).abs() < 1e-12, "{} vs {expect}", out[0]);
    }

    #[test]
    fn activate_panics_on_wrong_input_size() {
        let (g, _) = chain_genome();
        let mut net = g.decode().unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.activate(&[1.0]);
        }));
        assert!(err.is_err());
    }

    #[test]
    fn isolated_output_reads_bias_only() {
        let mut g = Genome::bare(2, 2);
        let mut tracker = InnovationTracker::with_reserved_nodes(4);
        g.add_connection(0, 2, 1.0, &mut tracker).unwrap();
        g.set_bias(3, 0.5).unwrap();
        let mut net = g.decode().unwrap();
        let out = net.activate(&[0.0, 0.0]);
        assert!((out[1] - 0.5f64.tanh()).abs() < 1e-12);
    }

    #[test]
    fn density_matches_fig4a_example() {
        // Fig. 4(a): 3 inputs, 3 hidden, 3 outputs, 9 connections,
        // density 9/18 = 0.5. Construct exactly that topology.
        let mut tracker = InnovationTracker::with_reserved_nodes(6);
        let mut g2 = Genome::bare(3, 3);
        let i1 = g2.add_connection(0, 3, 1.0, &mut tracker).unwrap();
        let i2 = g2.add_connection(1, 4, 1.0, &mut tracker).unwrap();
        let i3 = g2.add_connection(2, 5, 1.0, &mut tracker).unwrap();
        let h1 = g2
            .split_connection(i1, Activation::Tanh, &mut tracker)
            .unwrap();
        let h2 = g2
            .split_connection(i2, Activation::Tanh, &mut tracker)
            .unwrap();
        let h3 = g2
            .split_connection(i3, Activation::Tanh, &mut tracker)
            .unwrap();
        // Now 6 enabled conns; add 3 more hidden->output crossing edges.
        g2.add_connection(h1, 4, 1.0, &mut tracker).unwrap();
        g2.add_connection(h2, 5, 1.0, &mut tracker).unwrap();
        g2.add_connection(h3, 3, 1.0, &mut tracker).unwrap();
        let net = g2.decode().unwrap();
        assert_eq!(net.plan().num_connections(), 9);
        assert_eq!(net.plan().level_widths(), vec![3, 3]);
        assert!((net.plan().density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn in_degrees_exclude_inputs() {
        let (g, _) = chain_genome();
        let net = g.decode().unwrap();
        let mut degrees = net.in_degrees();
        degrees.sort_unstable();
        assert_eq!(degrees, vec![1, 2]); // hidden has 1, output has 2
    }

    #[test]
    fn dangling_connection_is_reported() {
        // Build a genome then serialize-hack: easiest is via serde.
        let (g, _) = chain_genome();
        let json = serde_json::to_string(&g).unwrap();
        let hacked = json.replace("\"to\":2", "\"to\":99");
        let bad: Genome = serde_json::from_str(&hacked).unwrap();
        assert!(matches!(
            bad.decode(),
            Err(DecodeError::DanglingConnection { .. })
        ));
    }

    #[test]
    fn activate_into_is_bit_identical_and_reuses_buffers() {
        let (g, _) = chain_genome();
        let mut net = g.decode().unwrap();
        let inputs = [[0.8, 0.4], [-1.2, 0.05], [3.0, -3.0]];
        for x in &inputs {
            let allocating = net.activate(x);
            let borrowed = net.activate_into(x).to_vec();
            assert_eq!(
                allocating.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
                borrowed.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
            );
        }
    }

    #[test]
    fn scratch_state_does_not_affect_equality() {
        let (g, _) = chain_genome();
        let mut a = g.decode().unwrap();
        let b = g.decode().unwrap();
        a.activate(&[1.0, -1.0]);
        assert_eq!(a, b, "activation scratch must not break equality");
    }

    #[test]
    fn plan_round_trips_through_executor() {
        let (g, _) = chain_genome();
        let plan = NetPlan::compile(&g).unwrap();
        let mut net = Network::from_plan(plan.clone());
        assert_eq!(net.plan(), &plan);
        let out = net.activate(&[0.3, -0.7]);
        assert_eq!(out, plan.execute(&[0.3, -0.7]));
    }
}
