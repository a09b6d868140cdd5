//! INAX hardware configuration: PU/PE counts, per-operation cycle
//! costs, and the clock used to convert cycles to time.

use serde::{Deserialize, Serialize};

/// The dataflow a PE cluster uses (paper §IV-E discusses why INAX
/// chooses output-stationary; the alternatives are modelled for the
/// ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Dataflow {
    /// Output stationary: a PE owns one output node end-to-end,
    /// accumulating partial sums locally. INAX's choice — resource
    /// provisioning is independent of fan-out.
    #[default]
    OutputStationary,
    /// Input stationary: a PE holds one input value and scatters
    /// partial sums to per-egress accumulators. Requires worst-case
    /// egress provisioning for irregular nets (paper: HW-unfriendly).
    InputStationary,
    /// Weight stationary: weights pinned in PEs. MLPs have no weight
    /// reuse within an inference, so this wastes the pinning (paper:
    /// not effective).
    WeightStationary,
}

/// Hardware configuration of one INAX instance.
///
/// Cycle costs are normalized to a MAC = 1 cycle, matching the
/// PE-pipeline description of the paper (DSP MAC + activation unit,
/// pipelined). Defaults follow the paper's microbenchmark setup
/// (footnote 3: `num PU: 1, num PE: 1`).
///
/// # Example
///
/// ```
/// use e3_inax::InaxConfig;
///
/// let config = InaxConfig::builder().num_pu(50).num_pe(4).build();
/// assert_eq!(config.num_pu, 50);
/// assert_eq!(config.num_pe, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InaxConfig {
    /// Number of Processing Units (population-level parallelism).
    pub num_pu: usize,
    /// Number of Processing Elements per PU (node-level parallelism).
    pub num_pe: usize,
    /// Accelerator clock in Hz (ZCU104-class designs run a few hundred
    /// MHz; we use 200 MHz).
    pub clock_hz: f64,
    /// Cycles per multiply-accumulate (one ingress connection).
    pub mac_cycles: u64,
    /// Pipeline cycles to apply bias + activation and commit the node's
    /// value to the value buffer.
    pub activation_cycles: u64,
    /// Control cycles to launch one wave of PEs (operand fetch from the
    /// value buffer, PE dispatch).
    pub wave_overhead_cycles: u64,
    /// Control cycles for the per-level synchronization barrier.
    pub level_sync_cycles: u64,
    /// Set-up phase: cycles to decode and store one connection
    /// (weight-buffer write).
    pub setup_cycles_per_connection: u64,
    /// Set-up phase: cycles to decode and store one node descriptor
    /// (bias, activation selector, topology entry).
    pub setup_cycles_per_node: u64,
    /// Dataflow variant (ablation knob; INAX = output stationary).
    pub dataflow: Dataflow,
    /// DMA model parameters.
    pub dma_bytes_per_cycle: u64,
    /// Fixed DMA transaction latency in cycles (per transfer).
    pub dma_latency_cycles: u64,
}

impl InaxConfig {
    /// Starts a builder with the paper's default microbenchmark
    /// configuration.
    pub fn builder() -> InaxConfigBuilder {
        InaxConfigBuilder {
            config: InaxConfig {
                num_pu: 1,
                num_pe: 1,
                clock_hz: 200.0e6,
                mac_cycles: 1,
                activation_cycles: 2,
                wave_overhead_cycles: 1,
                level_sync_cycles: 1,
                setup_cycles_per_connection: 2,
                setup_cycles_per_node: 2,
                dataflow: Dataflow::OutputStationary,
                dma_bytes_per_cycle: 8,
                dma_latency_cycles: 32,
            },
        }
    }

    /// Seconds corresponding to `cycles` at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz
    }
}

impl Default for InaxConfig {
    fn default() -> Self {
        Self::builder().build()
    }
}

/// Builder for [`InaxConfig`]; see [`InaxConfig::builder`].
#[derive(Debug, Clone)]
pub struct InaxConfigBuilder {
    config: InaxConfig,
}

impl InaxConfigBuilder {
    /// Sets the number of PUs.
    pub fn num_pu(mut self, n: usize) -> Self {
        self.config.num_pu = n;
        self
    }

    /// Sets the number of PEs per PU.
    pub fn num_pe(mut self, n: usize) -> Self {
        self.config.num_pe = n;
        self
    }

    /// Sets the dataflow variant.
    pub fn dataflow(mut self, dataflow: Dataflow) -> Self {
        self.config.dataflow = dataflow;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if PU/PE counts are zero or the clock is not positive.
    pub fn build(self) -> InaxConfig {
        let c = self.config;
        assert!(c.num_pu > 0, "INAX needs at least one PU");
        assert!(c.num_pe > 0, "each PU needs at least one PE");
        assert!(c.clock_hz > 0.0, "clock must be positive");
        assert!(c.mac_cycles > 0, "a MAC takes at least one cycle");
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_footnote_3() {
        let c = InaxConfig::default();
        assert_eq!(c.num_pu, 1);
        assert_eq!(c.num_pe, 1);
        assert_eq!(c.dataflow, Dataflow::OutputStationary);
    }

    #[test]
    fn cycles_convert_to_seconds() {
        let c = InaxConfig {
            clock_hz: 100.0e6,
            ..InaxConfig::default()
        };
        assert!((c.cycles_to_seconds(100_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one PU")]
    fn zero_pu_rejected() {
        let _ = InaxConfig::builder().num_pu(0).build();
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pe_rejected() {
        let _ = InaxConfig::builder().num_pe(0).build();
    }
}
