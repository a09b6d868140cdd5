//! Cycle accounting: the paper's runtime breakdown (Fig. 9(a)) and
//! utilization metric `U(r) = T_active(r) / T_total(r)` (Eq. 1).

use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// Breakdown of accelerator cycles into the phases of Fig. 9(a):
/// set-up (weight-channel decode), PE-active (useful MAC/activation
/// work), and evaluate-control (PE under-utilization plus pipeline,
/// sync and value-buffer overheads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleBreakdown {
    /// Set-up phase cycles (decoding NN configurations into the weight
    /// buffer).
    pub setup: u64,
    /// Cycles in which PEs performed useful work, summed over PEs.
    pub pe_active: u64,
    /// Everything else charged to compute-phase resources: idle PE
    /// cycles from `⌈m/n⌉` rounding and degree variance, wave launch,
    /// barriers.
    pub evaluate_control: u64,
}

impl CycleBreakdown {
    /// Total accounted cycles.
    pub(crate) fn total_cycles(&self) -> u64 {
        self.setup + self.pe_active + self.evaluate_control
    }

    /// Fraction of total cycles in each phase, `(setup, active,
    /// control)`. Returns zeros for an empty breakdown.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let total = self.total_cycles();
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = total as f64;
        (
            self.setup as f64 / t,
            self.pe_active as f64 / t,
            self.evaluate_control as f64 / t,
        )
    }
}

impl AddAssign for CycleBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        self.setup += rhs.setup;
        self.pe_active += rhs.pe_active;
        self.evaluate_control += rhs.evaluate_control;
    }
}

/// Utilization of a resource pool: `U(r) = T_active(r) / T_total(r)`
/// where `T_total` is resource-count × occupied time and `T_active`
/// the busy portion (paper Eq. 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct UtilizationReport {
    /// Busy resource-cycles.
    pub active: u64,
    /// Provisioned resource-cycles (count × wall cycles).
    pub total: u64,
}

impl UtilizationReport {
    /// The utilization rate in `[0, 1]` (1.0 when nothing was
    /// provisioned).
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.active as f64 / self.total as f64
        }
    }

    /// Merges another report into this one.
    pub(crate) fn merge(&mut self, other: UtilizationReport) {
        self.active += other.active;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let b = CycleBreakdown {
            setup: 10,
            pe_active: 70,
            evaluate_control: 20,
        };
        let (s, a, c) = b.fractions();
        assert!((s + a + c - 1.0).abs() < 1e-12);
        assert!((a - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_has_zero_fractions() {
        assert_eq!(CycleBreakdown::default().fractions(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = CycleBreakdown {
            setup: 1,
            pe_active: 2,
            evaluate_control: 3,
        };
        a += CycleBreakdown {
            setup: 10,
            pe_active: 20,
            evaluate_control: 30,
        };
        assert_eq!(a.total_cycles(), 66);
    }

    #[test]
    fn utilization_rate_bounds() {
        let u = UtilizationReport {
            active: 30,
            total: 40,
        };
        assert!((u.rate() - 0.75).abs() < 1e-12);
        assert_eq!(UtilizationReport::default().rate(), 1.0);
    }

    #[test]
    fn merge_accumulates_both_fields() {
        let mut u = UtilizationReport {
            active: 1,
            total: 2,
        };
        u.merge(UtilizationReport {
            active: 3,
            total: 6,
        });
        assert_eq!(
            u,
            UtilizationReport {
                active: 4,
                total: 8
            }
        );
    }
}
