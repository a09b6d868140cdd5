//! Lowering an irregular network to its dense MLP counterpart.
//!
//! A systolic array only understands layer-to-layer dense matrices, so
//! an irregular network is rewritten (paper Fig. 4(c)→(d)):
//!
//! * every compute level becomes one dense layer whose input is *every
//!   value alive* at that point;
//! * a value produced at level `i` and consumed at level `j > i + 1`
//!   is carried by **dummy pass-through nodes** (identity activation,
//!   single unit weight) through levels `i+1 .. j-1`;
//! * output nodes that settle at early levels are likewise carried to
//!   the final layer, where the result vector is read out.
//!
//! The lowering is semantics-preserving: evaluating the dense
//! counterpart produces bit-identical outputs to the irregular
//! network, which the tests verify.
//!
//! Like every backend view, the lowering reads the compiled
//! [`NetPlan`] IR directly: [`DensePaddedNet::from_plan`] consumes the
//! plan's level ranges and value-buffer slot convention.

use e3_neat::{Activation, NetPlan};
use serde::{Deserialize, Serialize};

/// One dense layer of the padded counterpart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    /// Number of input values to this layer.
    pub in_width: usize,
    /// Row-major weights: `out_width × in_width`.
    pub weights: Vec<f64>,
    /// Per-output bias.
    pub biases: Vec<f64>,
    /// Per-output activation (dummies use identity).
    pub activations: Vec<Activation>,
    /// How many of the outputs are dummy pass-through nodes.
    pub dummy_outputs: usize,
}

impl DenseLayer {
    /// Number of output values this layer produces.
    pub fn out_width(&self) -> usize {
        self.biases.len()
    }

    /// Evaluates the layer.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.in_width`.
    pub fn evaluate(&self, inputs: &[f64]) -> Vec<f64> {
        assert_eq!(inputs.len(), self.in_width, "layer input width mismatch");
        (0..self.out_width())
            .map(|row| {
                let base = row * self.in_width;
                let sum: f64 = self.weights[base..base + self.in_width]
                    .iter()
                    .zip(inputs)
                    .map(|(w, x)| w * x)
                    .sum();
                self.activations[row].apply(sum + self.biases[row])
            })
            .collect()
    }
}

/// The dense MLP counterpart of an irregular network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DensePaddedNet {
    num_inputs: usize,
    layers: Vec<DenseLayer>,
    /// Positions of the network outputs in the last layer's output
    /// vector, in genome output order.
    output_positions: Vec<usize>,
    dummy_nodes: usize,
    real_nodes: usize,
}

impl DensePaddedNet {
    /// Lowers a compiled [`NetPlan`] into its dense counterpart: the
    /// plan's compute-level ranges become the dense layers, and its
    /// value-buffer slots become the carried values.
    pub fn from_plan(plan: &NetPlan) -> Self {
        let num_inputs = plan.num_inputs();
        let num_levels = plan.levels().len();
        let total_slots = plan.value_buffer_slots();

        // Slot bookkeeping: production level and last level of use.
        let mut produce_level = vec![0usize; total_slots];
        let mut node_level = vec![0usize; plan.num_compute_nodes()];
        for (level_idx, &(start, end)) in plan.levels().iter().enumerate() {
            for node in start as usize..end as usize {
                node_level[node] = level_idx + 1; // compute levels are 1-based
                produce_level[num_inputs + node] = level_idx + 1;
            }
        }
        let mut last_use = produce_level.clone(); // unused values die immediately
        for (node, &level) in node_level.iter().enumerate() {
            for &(slot, _) in plan.node_edges(node) {
                last_use[slot as usize] = last_use[slot as usize].max(level);
            }
        }
        // The SA streams the full observation vector, so every input is
        // alive at least into layer 1 even if nothing reads it.
        for lu in last_use.iter_mut().take(num_inputs) {
            *lu = (*lu).max(1);
        }
        // The read-out happens after the final layer: outputs must
        // survive to the end.
        let mut output_slots = Vec::new();
        for &node in plan.outputs() {
            let slot = num_inputs + node as usize;
            // `num_levels + 1` so an early-level output is still carried
            // through (and appears in) the final layer's output vector.
            last_use[slot] = last_use[slot].max(num_levels + 1);
            output_slots.push(slot);
        }

        // Build layers level by level; all inputs enter layer 1.
        let mut layers: Vec<DenseLayer> = Vec::with_capacity(num_levels);
        let mut alive: Vec<usize> = (0..num_inputs).collect();
        let mut dummy_nodes = 0usize;
        for level in 1..=num_levels {
            let in_slots = alive.clone();
            let slot_pos = |slot: usize, set: &[usize]| -> usize {
                set.iter()
                    .position(|&s| s == slot)
                    .expect("ingress slot must be alive")
            };
            let (start, end) = plan.levels()[level - 1];
            let mut out_slots: Vec<usize> = Vec::new();
            let mut weights: Vec<f64> = Vec::new();
            let mut biases = Vec::new();
            let mut activations = Vec::new();
            // Real nodes of this level.
            for node in start as usize..end as usize {
                let mut row = vec![0.0; in_slots.len()];
                for &(slot, w) in plan.node_edges(node) {
                    row[slot_pos(slot as usize, &in_slots)] += w;
                }
                weights.extend_from_slice(&row);
                biases.push(plan.bias(node));
                activations.push(plan.activation(node));
                out_slots.push(num_inputs + node);
            }
            // Dummy pass-throughs: alive values still needed later.
            let mut dummies = 0usize;
            for &slot in &in_slots {
                if last_use[slot] > level {
                    let mut row = vec![0.0; in_slots.len()];
                    row[slot_pos(slot, &in_slots)] = 1.0;
                    weights.extend_from_slice(&row);
                    biases.push(0.0);
                    activations.push(Activation::Identity);
                    out_slots.push(slot);
                    dummies += 1;
                }
            }
            dummy_nodes += dummies;
            layers.push(DenseLayer {
                in_width: in_slots.len(),
                weights,
                biases,
                activations,
                dummy_outputs: dummies,
            });
            alive = out_slots;
        }

        let output_positions = output_slots
            .iter()
            .map(|&slot| {
                alive
                    .iter()
                    .position(|&s| s == slot)
                    .expect("outputs are carried to the final layer")
            })
            .collect();

        DensePaddedNet {
            num_inputs,
            layers,
            output_positions,
            dummy_nodes,
            real_nodes: plan.num_compute_nodes(),
        }
    }

    /// The dense layers in execution order.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Number of dummy pass-through nodes the padding inserted
    /// (the transparent nodes of paper Fig. 4(d)).
    pub fn dummy_nodes(&self) -> usize {
        self.dummy_nodes
    }

    /// Number of real compute nodes.
    pub fn real_nodes(&self) -> usize {
        self.real_nodes
    }

    /// Total dense connections the SA must compute (zero-filled):
    /// `Σ out_width × in_width`.
    pub fn dense_connections(&self) -> usize {
        self.layers.iter().map(|l| l.out_width() * l.in_width).sum()
    }

    /// Evaluates the dense counterpart; bit-identical to the source
    /// irregular network.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the source input count.
    pub fn evaluate(&self, inputs: &[f64]) -> Vec<f64> {
        assert_eq!(inputs.len(), self.num_inputs, "input size mismatch");
        let mut values = inputs.to_vec();
        for layer in &self.layers {
            values = layer.evaluate(&values);
        }
        self.output_positions.iter().map(|&p| values[p]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_inax::synthetic::synthetic_net;
    use e3_neat::{Genome, InnovationTracker};

    fn skip_net() -> NetPlan {
        // 2 inputs -> hidden chain of 2 -> output, with a skip from
        // input 1 straight to the output (spans 3 levels).
        let mut tracker = InnovationTracker::with_reserved_nodes(3);
        let mut g = Genome::bare(2, 1);
        let i1 = g.add_connection(0, 2, 0.8, &mut tracker).unwrap();
        let h1 = g
            .split_connection(i1, Activation::Relu, &mut tracker)
            .unwrap();
        let i2 = g.connection_between(h1, 2).unwrap().innovation;
        let _h2 = g
            .split_connection(i2, Activation::Tanh, &mut tracker)
            .unwrap();
        g.add_connection(1, 2, -0.5, &mut tracker).unwrap();
        NetPlan::compile(&g).unwrap()
    }

    #[test]
    fn from_plan_matches_plan_execution_bit_for_bit() {
        let mut tracker = InnovationTracker::with_reserved_nodes(3);
        let mut g = Genome::bare(2, 1);
        let i1 = g.add_connection(0, 2, 0.8, &mut tracker).unwrap();
        g.split_connection(i1, Activation::Relu, &mut tracker)
            .unwrap();
        g.add_connection(1, 2, -0.5, &mut tracker).unwrap();
        let plan = NetPlan::compile(&g).unwrap();
        let padded = DensePaddedNet::from_plan(&plan);
        for input in [[0.0, 0.0], [1.0, -1.0], [0.3, 0.7]] {
            assert_eq!(padded.evaluate(&input), plan.execute(&input));
        }
    }

    #[test]
    fn skip_links_create_dummies() {
        let net = skip_net();
        let padded = DensePaddedNet::from_plan(&net);
        assert!(
            padded.dummy_nodes() > 0,
            "the input-to-output skip needs carrying"
        );
        assert_eq!(padded.real_nodes(), net.num_compute_nodes());
        assert!(padded.dense_connections() > net.num_connections());
    }

    #[test]
    fn padding_preserves_semantics_on_skip_net() {
        let net = skip_net();
        let padded = DensePaddedNet::from_plan(&net);
        for input in [[0.0, 0.0], [1.0, 1.0], [-0.5, 2.0], [3.0, -3.0]] {
            let want = net.execute(&input);
            let got = padded.evaluate(&input);
            for (w, g) in want.iter().zip(&got) {
                assert!((w - g).abs() < 1e-12, "{w} vs {g}");
            }
        }
    }

    #[test]
    fn padding_preserves_semantics_on_synthetic_nets() {
        for seed in 0..8 {
            let net = synthetic_net(8, 4, 20, 0.25, seed);
            let padded = DensePaddedNet::from_plan(&net);
            let input: Vec<f64> = (0..8).map(|i| ((seed + i) as f64 * 0.61).cos()).collect();
            let want = net.execute(&input);
            let got = padded.evaluate(&input);
            assert_eq!(want.len(), got.len());
            for (w, g) in want.iter().zip(&got) {
                assert!((w - g).abs() < 1e-9, "seed {seed}: {w} vs {g}");
            }
        }
    }

    #[test]
    fn dense_connection_count_matches_fig4_example() {
        // A 3-3-3 regular net: padding adds nothing, dense counterpart
        // = 18 connections.
        let mut tracker = InnovationTracker::with_reserved_nodes(6);
        let mut g = Genome::bare(3, 3);
        let mut hidden = Vec::new();
        for i in 0..3 {
            let inv = g.add_connection(i, 3 + i, 1.0, &mut tracker).unwrap();
            hidden.push(
                g.split_connection(inv, Activation::Tanh, &mut tracker)
                    .unwrap(),
            );
        }
        for &h in &hidden {
            for o in 3..6 {
                if g.connection_between(h, o).is_none() {
                    g.add_connection(h, o, 0.5, &mut tracker).unwrap();
                }
            }
        }
        for i in 0..3usize {
            for &h in &hidden {
                if g.connection_between(i, h).is_none() {
                    g.add_connection(i, h, 0.5, &mut tracker).unwrap();
                }
            }
        }
        let net = NetPlan::compile(&g).unwrap();
        let padded = DensePaddedNet::from_plan(&net);
        assert_eq!(
            padded.dummy_nodes(),
            0,
            "fully regular net needs no dummies"
        );
        assert_eq!(padded.dense_connections(), 18);
    }

    #[test]
    fn layer_evaluate_checks_width() {
        let net = skip_net();
        let padded = DensePaddedNet::from_plan(&net);
        let layer = &padded.layers()[0];
        let err = std::panic::catch_unwind(|| layer.evaluate(&[0.0]));
        assert!(err.is_err() || layer.in_width == 1);
    }
}
