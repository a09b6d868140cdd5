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

/// Where one PU's cycles went over a run.
///
/// The three states partition every accelerator wall cycle:
/// **busy** (computing its own decode or inference waves), **idle**
/// (no resident individual, a dead episode, or waiting at a wave
/// barrier for slower PUs), and **stall** (blocked on shared
/// resources: the weight channel while other PUs decode, and DMA
/// transfers). `busy + idle + stall` equals the accelerator's total
/// wall cycles for every PU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PuCycles {
    /// Cycles spent computing (own decode + own inference waves).
    pub busy: u64,
    /// Cycles with nothing to do (empty, dead, or barrier lag).
    pub idle: u64,
    /// Cycles blocked on shared resources (peer decode, DMA).
    pub stall: u64,
}

impl PuCycles {
    /// Total accounted cycles.
    pub fn total(&self) -> u64 {
        self.busy + self.idle + self.stall
    }
}

/// Where one PE lane's cycles went while its PU was busy inferring.
///
/// Lane accounting is PU-scoped: a lane is **busy** for the cycles its
/// node assignments take and **idle** for the rest of its PU's
/// inference wall time (short waves, degree variance, level syncs).
/// Cycles where the whole PU idles or stalls are charged to the PU,
/// not its lanes, so `Σ busy` over lanes equals the aggregate
/// `pe_active` breakdown counter exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeLaneCycles {
    /// Cycles spent on MACs and activations.
    pub busy: u64,
    /// Cycles idled within the PU's inference wall time.
    pub idle: u64,
}

/// Cycle-level utilization accounting for a whole accelerator run:
/// per-PU busy/idle/stall, per-PE-lane busy/idle (aggregated over
/// PUs), buffer high-water marks, and DMA traffic.
///
/// Mergeable in wave order exactly like
/// [`crate::EpisodeRunReport::merge`]: cycle vectors add elementwise,
/// high-water marks take the max, DMA bytes add — so per-wave
/// breakdowns from independent accelerator instances reduce to the
/// accounting a single accelerator would produce.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtilizationBreakdown {
    /// Per-PU cycle states, indexed by PU.
    pub per_pu: Vec<PuCycles>,
    /// Per-PE-lane cycle states, aggregated across PUs.
    pub per_pe: Vec<PeLaneCycles>,
    /// Largest weight-stream footprint loaded onto any PU, in bytes.
    pub weight_buffer_hwm_bytes: u64,
    /// Largest value-buffer occupancy on any PU, in slots.
    pub value_buffer_hwm_slots: u64,
    /// Total bytes moved over the DMA channels.
    pub dma_bytes: u64,
}

impl UtilizationBreakdown {
    /// An all-zero breakdown for a cluster of `num_pu` PUs with
    /// `num_pe` PE lanes each.
    pub(crate) fn new(num_pu: usize, num_pe: usize) -> Self {
        UtilizationBreakdown {
            per_pu: vec![PuCycles::default(); num_pu],
            per_pe: vec![PeLaneCycles::default(); num_pe],
            ..UtilizationBreakdown::default()
        }
    }

    /// Accumulates another breakdown (see the type docs for the merge
    /// semantics). Shorter cycle vectors are widened, so merging into
    /// a default-constructed breakdown is the identity.
    pub fn merge(&mut self, other: &UtilizationBreakdown) {
        if self.per_pu.len() < other.per_pu.len() {
            self.per_pu.resize(other.per_pu.len(), PuCycles::default());
        }
        for (mine, theirs) in self.per_pu.iter_mut().zip(&other.per_pu) {
            mine.busy += theirs.busy;
            mine.idle += theirs.idle;
            mine.stall += theirs.stall;
        }
        if self.per_pe.len() < other.per_pe.len() {
            self.per_pe
                .resize(other.per_pe.len(), PeLaneCycles::default());
        }
        for (mine, theirs) in self.per_pe.iter_mut().zip(&other.per_pe) {
            mine.busy += theirs.busy;
            mine.idle += theirs.idle;
        }
        self.weight_buffer_hwm_bytes = self
            .weight_buffer_hwm_bytes
            .max(other.weight_buffer_hwm_bytes);
        self.value_buffer_hwm_slots = self
            .value_buffer_hwm_slots
            .max(other.value_buffer_hwm_slots);
        self.dma_bytes += other.dma_bytes;
    }

    /// Flattens into the plain telemetry record, stamping the backend
    /// and environment names and the aggregate cycle total the per-PU
    /// rows reconcile against.
    pub fn to_telemetry(
        &self,
        backend: &str,
        env: &str,
        total_cycles: u64,
    ) -> e3_telemetry::UtilizationReport {
        e3_telemetry::UtilizationReport {
            backend: backend.to_string(),
            env: env.to_string(),
            num_pu: self.per_pu.len(),
            num_pe: self.per_pe.len(),
            per_pu: self
                .per_pu
                .iter()
                .enumerate()
                .map(|(pu, c)| e3_telemetry::PuCycleRow {
                    pu,
                    busy_cycles: c.busy,
                    idle_cycles: c.idle,
                    stall_cycles: c.stall,
                })
                .collect(),
            per_pe: self
                .per_pe
                .iter()
                .enumerate()
                .map(|(pe, c)| e3_telemetry::PeCycleRow {
                    pe,
                    busy_cycles: c.busy,
                    idle_cycles: c.idle,
                })
                .collect(),
            weight_buffer_hwm_bytes: self.weight_buffer_hwm_bytes,
            value_buffer_hwm_slots: self.value_buffer_hwm_slots,
            dma_bytes: self.dma_bytes,
            total_cycles,
        }
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
    fn breakdown_merge_is_elementwise_with_max_hwm() {
        let mut a = UtilizationBreakdown::new(2, 2);
        a.per_pu[0].busy = 10;
        a.per_pu[1].idle = 5;
        a.per_pe[0].busy = 7;
        a.weight_buffer_hwm_bytes = 100;
        a.dma_bytes = 40;
        let mut b = UtilizationBreakdown::new(2, 2);
        b.per_pu[0].stall = 3;
        b.per_pe[1].idle = 2;
        b.weight_buffer_hwm_bytes = 60;
        b.dma_bytes = 10;
        a.merge(&b);
        assert_eq!(a.per_pu[0].busy, 10);
        assert_eq!(a.per_pu[0].stall, 3);
        assert_eq!(a.per_pe[1].idle, 2);
        assert_eq!(a.weight_buffer_hwm_bytes, 100, "HWMs take the max");
        assert_eq!(a.dma_bytes, 50, "bytes add");

        let mut empty = UtilizationBreakdown::default();
        empty.merge(&a);
        assert_eq!(empty, a, "merging into default is the identity");
    }

    #[test]
    fn breakdown_flattens_to_telemetry_rows() {
        let mut b = UtilizationBreakdown::new(1, 2);
        b.per_pu[0] = PuCycles {
            busy: 8,
            idle: 1,
            stall: 1,
        };
        b.per_pe[0].busy = 5;
        b.per_pe[1].busy = 3;
        let report = b.to_telemetry("E3-INAX", "cartpole", 10);
        assert_eq!(report.num_pu, 1);
        assert_eq!(report.num_pe, 2);
        assert_eq!(report.per_pu[0].total_cycles(), report.total_cycles);
        assert_eq!(report.per_pe[1].busy_cycles, 3);
        assert_eq!(report.env, "cartpole");
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
