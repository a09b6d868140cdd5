//! 1-D systolic array cycle model.
//!
//! The baseline accelerator of paper Fig. 11: a weight-stationary 1-D
//! systolic array executing the dense MLP counterpart layer by layer.
//! For a layer with `m_in` inputs and `m_out` outputs on `n` PEs:
//!
//! * outputs are processed in `⌈m_out/n⌉` passes;
//! * each pass streams the full (zero-filled) input vector through the
//!   array: `m_in` MAC beats plus `n` pipeline fill/drain beats;
//! * every layer pays an **input-data-alignment** phase (the paper's
//!   GeneSys critique): gathering the previous layer's outputs — real
//!   and dummy — into the streaming order costs one beat per input.
//!
//! Functional output equals [`DensePaddedNet::evaluate`]; this module
//! adds only timing.

use crate::padding::DensePaddedNet;
use serde::{Deserialize, Serialize};

/// Configuration of the systolic-array baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystolicConfig {
    /// Number of PEs in the 1-D array.
    pub num_pe: usize,
    /// Cycles per MAC beat.
    pub mac_cycles: u64,
    /// Cycles to apply activation to one emitted output.
    pub activation_cycles: u64,
    /// Per-layer input alignment cost in cycles per input value.
    pub alignment_cycles_per_input: u64,
    /// Cycles to load one weight during set-up (the SA loads the dense
    /// zero-filled matrices).
    pub setup_cycles_per_weight: u64,
}

impl SystolicConfig {
    /// Starts a builder with defaults matching the INAX cost model
    /// (MAC = 1 cycle) for a fair comparison.
    pub fn builder() -> SystolicConfigBuilder {
        SystolicConfigBuilder {
            config: SystolicConfig {
                num_pe: 1,
                mac_cycles: 1,
                activation_cycles: 2,
                alignment_cycles_per_input: 1,
                setup_cycles_per_weight: 1,
            },
        }
    }
}

impl Default for SystolicConfig {
    fn default() -> Self {
        Self::builder().build()
    }
}

/// Builder for [`SystolicConfig`].
#[derive(Debug, Clone)]
pub struct SystolicConfigBuilder {
    config: SystolicConfig,
}

impl SystolicConfigBuilder {
    /// Sets the PE count.
    pub fn num_pe(mut self, n: usize) -> Self {
        self.config.num_pe = n;
        self
    }

    /// Sets the per-layer alignment cost per input value.
    pub fn alignment_cycles_per_input(mut self, c: u64) -> Self {
        self.config.alignment_cycles_per_input = c;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `num_pe == 0`.
    pub fn build(self) -> SystolicConfig {
        assert!(self.config.num_pe > 0, "the array needs at least one PE");
        self.config
    }
}

/// The systolic-array baseline accelerator (one PU's worth; PU-level
/// parallelism reuses [`e3_inax::cluster::analyze_pu_parallelism`]).
#[derive(Debug, Clone)]
pub struct SystolicArray {
    config: SystolicConfig,
}

impl SystolicArray {
    /// Creates an array with the given configuration.
    pub fn new(config: SystolicConfig) -> Self {
        SystolicArray { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SystolicConfig {
        &self.config
    }

    /// Cycles for one inference of the padded network.
    pub fn inference_cycles(&self, net: &DensePaddedNet) -> u64 {
        let n = self.config.num_pe as u64;
        let mut cycles = 0u64;
        for layer in net.layers() {
            let m_in = layer.in_width as u64;
            let m_out = layer.out_width() as u64;
            let passes = m_out.div_ceil(n);
            cycles += self.config.alignment_cycles_per_input * m_in;
            cycles += passes * (m_in * self.config.mac_cycles + n);
            cycles +=
                m_out * self.config.activation_cycles / n.max(1) + self.config.activation_cycles;
        }
        cycles
    }

    /// Useful MAC cycles per inference: only the real (non-dummy,
    /// non-zero-filled) connections do useful work. Everything else in
    /// [`SystolicArray::inference_cycles`] is padding/zero-fill loss.
    pub fn useful_mac_cycles(&self, real_connections: usize) -> u64 {
        real_connections as u64 * self.config.mac_cycles
    }

    /// Set-up cycles: loading the full dense weight matrices.
    pub fn setup_cycles(&self, net: &DensePaddedNet) -> u64 {
        net.dense_connections() as u64 * self.config.setup_cycles_per_weight
    }

    /// Utilization proxy: useful MACs over total inference
    /// PE-cycles.
    pub fn efficiency(&self, net: &DensePaddedNet, real_connections: usize) -> f64 {
        let total = self.inference_cycles(net) * self.config.num_pe as u64;
        if total == 0 {
            return 1.0;
        }
        self.useful_mac_cycles(real_connections) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_inax::synthetic::synthetic_net;
    use e3_inax::{schedule_inference, InaxConfig};

    fn padded(seed: u64) -> (DensePaddedNet, usize) {
        let net = synthetic_net(8, 4, 30, 0.2, seed);
        let real = net.num_connections();
        (DensePaddedNet::from_plan(&net), real)
    }

    #[test]
    fn more_pes_reduce_cycles_with_diminishing_returns() {
        let (net, _) = padded(1);
        let mut prev = u64::MAX;
        for n in [1, 2, 4, 8, 16, 64] {
            let sa = SystolicArray::new(SystolicConfig::builder().num_pe(n).build());
            let c = sa.inference_cycles(&net);
            assert!(c <= prev, "{n} PEs: {c} > {prev}");
            prev = c;
        }
        // At 64 PEs every layer is one pass; streaming dominates, so
        // doubling PEs further would win almost nothing.
        let sa64 = SystolicArray::new(SystolicConfig::builder().num_pe(64).build());
        let sa128 = SystolicArray::new(SystolicConfig::builder().num_pe(128).build());
        let (c64, c128) = (sa64.inference_cycles(&net), sa128.inference_cycles(&net));
        assert!(
            c128 as f64 >= 0.6 * c64 as f64,
            "diminishing returns past one pass"
        );
    }

    #[test]
    fn sa_is_slower_than_inax_at_matched_pe_count() {
        // The headline claim of Fig. 11: the SA pays for zero-filling
        // and dummy padding that INAX avoids.
        for seed in 0..5 {
            let irregular = synthetic_net(8, 4, 30, 0.2, seed);
            let dense = DensePaddedNet::from_plan(&irregular);
            for pes in [1usize, 4, 16] {
                let inax =
                    schedule_inference(&InaxConfig::builder().num_pe(pes).build(), &irregular)
                        .wall_cycles;
                let sa = SystolicArray::new(SystolicConfig::builder().num_pe(pes).build());
                let sa_cycles = sa.inference_cycles(&dense);
                assert!(
                    sa_cycles > inax,
                    "seed {seed}, {pes} PEs: SA {sa_cycles} <= INAX {inax}"
                );
            }
        }
    }

    #[test]
    fn setup_loads_dense_matrices() {
        let (net, real) = padded(2);
        let sa = SystolicArray::new(SystolicConfig::default());
        assert_eq!(sa.setup_cycles(&net), net.dense_connections() as u64);
        assert!(
            net.dense_connections() > real,
            "zero-filling inflates the load"
        );
    }

    #[test]
    fn efficiency_decreases_with_overprovisioning() {
        let (net, real) = padded(3);
        let e1 =
            SystolicArray::new(SystolicConfig::builder().num_pe(1).build()).efficiency(&net, real);
        let e64 =
            SystolicArray::new(SystolicConfig::builder().num_pe(64).build()).efficiency(&net, real);
        assert!(e1 > e64);
        assert!(e1 <= 1.0);
    }
}
