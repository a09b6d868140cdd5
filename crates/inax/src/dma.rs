//! DMA channel model.
//!
//! E3 moves data between CPU DRAM and INAX over DMA channels (input,
//! weight, output) plus a lightweight `sig` channel for start/done
//! handshakes (paper Fig. 5). The model is a fixed per-transaction
//! latency plus a bandwidth term.

use serde::{Deserialize, Serialize};

/// Bandwidth + latency model of one DMA channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaModel {
    /// Payload bytes moved per accelerator cycle once streaming.
    pub bytes_per_cycle: u64,
    /// Fixed transaction setup latency in cycles.
    pub latency_cycles: u64,
}

impl DmaModel {
    /// Creates a model from the accelerator configuration's DMA fields.
    pub fn new(bytes_per_cycle: u64, latency_cycles: u64) -> Self {
        assert!(bytes_per_cycle > 0, "DMA bandwidth must be positive");
        DmaModel {
            bytes_per_cycle,
            latency_cycles,
        }
    }

    /// Cycles to move `bytes` in one transaction (0 bytes costs
    /// nothing — no transaction is issued).
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        self.latency_cycles + bytes.div_ceil(self.bytes_per_cycle)
    }
}

impl Default for DmaModel {
    fn default() -> Self {
        DmaModel::new(8, 32)
    }
}

/// Running byte/cycle totals for a set of DMA channels — the source of
/// the `dma_bytes` utilization counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaTraffic {
    /// Payload bytes moved so far.
    pub bytes: u64,
    /// Cycles spent on transfers so far.
    pub cycles: u64,
}

impl DmaTraffic {
    /// Accounts one transfer of `bytes` under `model` and returns its
    /// cycle cost (0-byte transfers cost and count nothing).
    pub fn transfer(&mut self, model: &DmaModel, bytes: u64) -> u64 {
        self.transfer_repeated(model, bytes, 1)
    }

    /// Accounts `count` separate transfers of `bytes` each and returns
    /// their summed cycle cost.
    pub(crate) fn transfer_repeated(&mut self, model: &DmaModel, bytes: u64, count: u64) -> u64 {
        let cycles = model.transfer_cycles(bytes) * count;
        self.bytes += bytes * count;
        self.cycles += cycles;
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(DmaModel::default().transfer_cycles(0), 0);
    }

    #[test]
    fn transfer_includes_latency_and_bandwidth() {
        let dma = DmaModel::new(8, 32);
        assert_eq!(dma.transfer_cycles(1), 32 + 1);
        assert_eq!(dma.transfer_cycles(8), 32 + 1);
        assert_eq!(dma.transfer_cycles(9), 32 + 2);
        assert_eq!(dma.transfer_cycles(800), 32 + 100);
    }

    #[test]
    fn larger_transfers_amortize_latency() {
        let dma = DmaModel::new(8, 32);
        let one_big = dma.transfer_cycles(1024);
        let many_small: u64 = (0..16).map(|_| dma.transfer_cycles(64)).sum();
        assert!(one_big < many_small);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = DmaModel::new(0, 1);
    }

    #[test]
    fn traffic_accumulates_bytes_and_cycles() {
        let dma = DmaModel::new(8, 32);
        let mut traffic = DmaTraffic::default();
        assert_eq!(traffic.transfer(&dma, 0), 0);
        let c = traffic.transfer(&dma, 64);
        assert_eq!(c, dma.transfer_cycles(64));
        traffic.transfer(&dma, 16);
        assert_eq!(traffic.bytes, 80);
        assert_eq!(
            traffic.cycles,
            dma.transfer_cycles(64) + dma.transfer_cycles(16)
        );
    }
}
