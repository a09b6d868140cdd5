//! Fixed-point arithmetic for the PE datapath.
//!
//! An FPGA PE's DSP slice computes in fixed point, not `f64`. This
//! module models a configurable signed Qm.n format: weights, biases and
//! activations are quantized on the weight channel, MACs accumulate in
//! a wide register, and the activation unit applies a piecewise
//! approximation. A compiled [`NetPlan`] can be evaluated under a
//! [`FixedPointFormat`] to measure the accuracy cost of narrower
//! datapaths (the `quantization` ablation experiment).

use e3_neat::{Activation, NetPlan};
use serde::{Deserialize, Serialize};

/// A signed fixed-point format with `integer_bits` + `frac_bits` + 1
/// sign bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FixedPointFormat {
    /// Bits left of the binary point (excluding sign).
    pub integer_bits: u32,
    /// Bits right of the binary point.
    pub frac_bits: u32,
}

impl FixedPointFormat {
    /// Common FPGA datapath: Q8.8 in a 17-bit signed word.
    pub const Q8_8: FixedPointFormat = FixedPointFormat {
        integer_bits: 8,
        frac_bits: 8,
    };
    /// Narrow datapath: Q4.4.
    pub const Q4_4: FixedPointFormat = FixedPointFormat {
        integer_bits: 4,
        frac_bits: 4,
    };
    /// Wide datapath: Q8.16.
    pub const Q8_16: FixedPointFormat = FixedPointFormat {
        integer_bits: 8,
        frac_bits: 16,
    };

    /// Total bits including sign.
    pub fn total_bits(&self) -> u32 {
        self.integer_bits + self.frac_bits + 1
    }

    /// Smallest representable increment.
    pub fn resolution(&self) -> f64 {
        2.0f64.powi(-(self.frac_bits as i32))
    }

    /// Largest representable magnitude.
    pub fn max_value(&self) -> f64 {
        2.0f64.powi(self.integer_bits as i32) - self.resolution()
    }

    /// Quantizes a value: round-to-nearest then saturate.
    pub fn quantize(&self, x: f64) -> f64 {
        let scale = 2.0f64.powi(self.frac_bits as i32);
        let q = (x * scale).round() / scale;
        q.clamp(-self.max_value(), self.max_value())
    }

    /// Quantization error for a value.
    pub fn error(&self, x: f64) -> f64 {
        (x - self.quantize(x)).abs()
    }
}

/// Evaluates a [`NetPlan`] under fixed-point arithmetic:
/// weights/biases quantized once (weight-buffer contents), every
/// intermediate activation quantized on write to the value buffer
/// (MAC accumulation stays wide, like a DSP accumulator).
///
/// # Example
///
/// ```
/// use e3_inax::quant::{evaluate_fixed_point, FixedPointFormat};
/// use e3_inax::synthetic::synthetic_net;
///
/// let net = synthetic_net(4, 2, 8, 0.5, 1);
/// let exact = net.execute(&[0.1, 0.2, 0.3, 0.4]);
/// let q = evaluate_fixed_point(&net, &[0.1, 0.2, 0.3, 0.4], FixedPointFormat::Q8_16);
/// assert_eq!(exact.len(), q.len());
/// for (a, b) in exact.iter().zip(&q) {
///     assert!((a - b).abs() < 0.01, "Q8.16 is near-exact here");
/// }
/// ```
pub fn evaluate_fixed_point(plan: &NetPlan, inputs: &[f64], format: FixedPointFormat) -> Vec<f64> {
    assert_eq!(inputs.len(), plan.num_inputs(), "input size mismatch");
    let mut values = vec![0.0; plan.value_buffer_slots()];
    for (slot, &x) in inputs.iter().enumerate() {
        values[slot] = format.quantize(x);
    }
    let base = plan.num_inputs();
    for node in 0..plan.num_compute_nodes() {
        // Wide accumulator: sum in f64 over quantized operands.
        let mut acc = format.quantize(plan.bias(node));
        for &(slot, weight) in plan.node_edges(node) {
            acc += values[slot as usize] * format.quantize(weight);
        }
        values[base + node] = format.quantize(apply_activation_hw(plan.activation(node), acc));
    }
    plan.read_outputs(&values)
}

/// Hardware activation: identical math to software — the quantization
/// happens on the value-buffer write, which `evaluate_fixed_point`
/// applies. (A LUT-based approximation could slot in here.)
fn apply_activation_hw(activation: Activation, x: f64) -> f64 {
    activation.apply(x)
}

/// Mean absolute output error of fixed-point evaluation against the
/// `f64` reference, over a set of probe inputs.
pub fn output_error(plan: &NetPlan, probes: &[Vec<f64>], format: FixedPointFormat) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for probe in probes {
        let exact = plan.execute(probe);
        let quantized = evaluate_fixed_point(plan, probe, format);
        for (a, b) in exact.iter().zip(&quantized) {
            total += (a - b).abs();
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::synthetic_net;

    #[test]
    fn format_properties() {
        let q = FixedPointFormat::Q8_8;
        assert_eq!(q.total_bits(), 17);
        assert_eq!(q.resolution(), 1.0 / 256.0);
        assert!(q.max_value() < 256.0);
        assert_eq!(q.quantize(0.0), 0.0);
        assert!(q.error(0.001) > 0.0);
        assert_eq!(q.error(0.25), 0.0, "exactly representable");
    }

    #[test]
    fn quantize_saturates() {
        let q = FixedPointFormat::Q4_4;
        assert_eq!(q.quantize(1e9), q.max_value());
        assert_eq!(q.quantize(-1e9), -q.max_value());
    }

    #[test]
    fn wider_formats_are_more_accurate() {
        let net = synthetic_net(6, 3, 15, 0.4, 3);
        let probes: Vec<Vec<f64>> = (0..10)
            .map(|i| (0..6).map(|j| ((i * 7 + j) as f64 * 0.23).sin()).collect())
            .collect();
        let e4 = output_error(&net, &probes, FixedPointFormat::Q4_4);
        let e8 = output_error(&net, &probes, FixedPointFormat::Q8_8);
        let e16 = output_error(&net, &probes, FixedPointFormat::Q8_16);
        assert!(e4 >= e8, "Q4.4 ({e4}) no better than Q8.8 ({e8})");
        assert!(e8 >= e16, "Q8.8 ({e8}) no better than Q8.16 ({e16})");
        assert!(e16 < 1e-3, "Q8.16 is near-exact ({e16})");
    }

    #[test]
    fn q8_16_controller_preserves_decisions() {
        // The argmax action decision survives quantization at Q8.16 on
        // most probes — the deployment-relevant property.
        let net = synthetic_net(4, 3, 10, 0.5, 9);
        let mut agree = 0;
        let total = 20;
        for i in 0..total {
            let probe: Vec<f64> = (0..4).map(|j| ((i * 3 + j) as f64 * 0.37).cos()).collect();
            let exact = net.execute(&probe);
            let quant = evaluate_fixed_point(&net, &probe, FixedPointFormat::Q8_16);
            let argmax = |v: &[f64]| {
                v.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
            };
            if argmax(&exact) == argmax(&quant) {
                agree += 1;
            }
        }
        assert!(
            agree >= total - 1,
            "only {agree}/{total} decisions preserved"
        );
    }
}
