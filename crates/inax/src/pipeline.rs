//! Double-buffered batch loading (set-up/compute overlap).
//!
//! E3 processes the population in batches of `num_pu` individuals;
//! each batch pays a set-up phase (weight-channel DMA + decode) before
//! its compute phase. With a second weight buffer per PU, the *next*
//! batch's set-up can stream while the current batch computes — a
//! classic two-stage pipeline that hides whichever phase is shorter.
//! The cost is area: the FPGA model charges a second BRAM bank per PU.
//!
//! This is an extension beyond the paper's prototype (its Fig. 9(a)
//! shows set-up is a visible slice of small-network runtime, which is
//! exactly what double buffering removes).

use crate::fpga_cost::DOUBLE_BUFFER_BRAM_PER_PU;
use serde::{Deserialize, Serialize};

/// Per-batch work description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchWork {
    /// Set-up phase cycles (weight DMA + decode).
    pub setup_cycles: u64,
    /// Compute phase cycles (all inference waves of the batch's
    /// episodes).
    pub compute_cycles: u64,
}

/// Result of the pipeline analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Total cycles with serial set-up → compute per batch (the
    /// paper's prototype).
    pub serial_cycles: u64,
    /// Total cycles with double-buffered set-up prefetch.
    pub pipelined_cycles: u64,
}

impl PipelineReport {
    /// Speedup of double buffering.
    pub fn speedup(&self) -> f64 {
        self.serial_cycles as f64 / self.pipelined_cycles.max(1) as f64
    }

    /// Extra BRAM banks the second weight buffer costs for `num_pu`
    /// PUs (feeds the FPGA resource model).
    pub fn extra_bram(num_pu: usize) -> u64 {
        DOUBLE_BUFFER_BRAM_PER_PU * num_pu as u64
    }
}

/// Computes serial vs. double-buffered totals for a sequence of
/// batches.
///
/// Pipeline model: batch 0's set-up cannot be hidden; afterwards batch
/// `i+1`'s set-up overlaps batch `i`'s compute, so each subsequent
/// stage costs `max(compute_i, setup_{i+1})`, and the final batch's
/// compute runs unhidden.
pub fn analyze_double_buffering(batches: &[BatchWork]) -> PipelineReport {
    let serial_cycles = batches
        .iter()
        .map(|b| b.setup_cycles + b.compute_cycles)
        .sum();
    let pipelined_cycles = match batches {
        [] => 0,
        [only] => only.setup_cycles + only.compute_cycles,
        _ => {
            let mut total = batches[0].setup_cycles;
            for pair in batches.windows(2) {
                total += pair[0].compute_cycles.max(pair[1].setup_cycles);
            }
            total += batches.last().expect("non-empty").compute_cycles;
            total
        }
    };
    PipelineReport {
        serial_cycles,
        pipelined_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(setup: u64, compute: u64) -> BatchWork {
        BatchWork {
            setup_cycles: setup,
            compute_cycles: compute,
        }
    }

    #[test]
    fn empty_and_single_batch_gain_nothing() {
        assert_eq!(analyze_double_buffering(&[]).speedup(), 0.0);
        let one = analyze_double_buffering(&[batch(10, 100)]);
        assert_eq!(one.serial_cycles, one.pipelined_cycles);
    }

    #[test]
    fn compute_bound_batches_hide_all_but_first_setup() {
        // setup 10 ≪ compute 100: pipelined total = 10 + (n-1+1)×100.
        let batches = vec![batch(10, 100); 4];
        let report = analyze_double_buffering(&batches);
        assert_eq!(report.serial_cycles, 440);
        assert_eq!(report.pipelined_cycles, 10 + 4 * 100);
        assert!(report.speedup() > 1.0);
    }

    #[test]
    fn setup_bound_batches_are_limited_by_the_dma() {
        // setup 100 ≫ compute 10: the weight channel is the bottleneck.
        let batches = vec![batch(100, 10); 4];
        let report = analyze_double_buffering(&batches);
        assert_eq!(report.serial_cycles, 440);
        assert_eq!(report.pipelined_cycles, 100 + 3 * 100 + 10);
        assert!(report.pipelined_cycles >= 400, "DMA cannot be hidden");
    }

    #[test]
    fn pipelining_never_slows_down_and_respects_lower_bound() {
        let patterns: Vec<Vec<BatchWork>> = vec![
            (0..10)
                .map(|i| batch(5 + i * 3, 50 + (i % 4) * 20))
                .collect(),
            (0..7).map(|i| batch(40 + i, 8)).collect(),
            vec![batch(1, 1), batch(1000, 1), batch(1, 1000)],
        ];
        for batches in patterns {
            let report = analyze_double_buffering(&batches);
            assert!(report.pipelined_cycles <= report.serial_cycles);
            // Lower bound: no schedule beats the bigger of total-setup
            // and total-compute.
            let setup_sum: u64 = batches.iter().map(|b| b.setup_cycles).sum();
            let compute_sum: u64 = batches.iter().map(|b| b.compute_cycles).sum();
            assert!(report.pipelined_cycles >= setup_sum.max(compute_sum));
            // Exposed set-up shrinks (or holds) under pipelining, and
            // never exceeds the total set-up.
            let exposed = report.pipelined_cycles.saturating_sub(compute_sum);
            assert!(exposed <= setup_sum);
            assert!(exposed <= report.serial_cycles - compute_sum);
        }
    }

    #[test]
    fn extra_bram_scales_with_pus() {
        assert_eq!(
            PipelineReport::extra_bram(50),
            50 * DOUBLE_BUFFER_BRAM_PER_PU
        );
    }
}
