//! Wave-level execution traces.
//!
//! [`trace_inference`] replays the INAX schedule of one inference and
//! records every wave: which PE computed which node for how many
//! cycles, and how long each PE idled at the wave barrier. The trace
//! is exact — it is the walk [`crate::schedule_inference`] folds into
//! a profile, recording each wave on the way —
//! and [`InferenceTrace::render_timeline`] draws an ASCII Gantt chart
//! of the kind hardware designers eyeball for utilization holes.

use crate::config::{Dataflow, InaxConfig};
use crate::pe::node_cycles;
use crate::pu::{walk_waves, PuInferenceProfile};
use e3_neat::NetPlan;
use serde::{Deserialize, Serialize};

/// One PE's assignment within a wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeAssignment {
    /// PE index within the cluster.
    pub pe: usize,
    /// Compute-node index (the [`NetPlan`]'s).
    pub node: usize,
    /// Busy cycles (in-degree × MAC + activation).
    pub busy_cycles: u64,
    /// Idle cycles waiting for the wave's slowest PE.
    pub idle_cycles: u64,
}

/// One synchronized wave of PE execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Wave {
    /// Topological level this wave belongs to (0-based compute level).
    pub level: usize,
    /// Wave latency: the slowest assignment plus launch overhead.
    pub latency_cycles: u64,
    /// Per-PE assignments (PEs beyond the wave's node count idle the
    /// whole wave and are not listed; their idleness is still counted
    /// in the profile).
    pub assignments: Vec<PeAssignment>,
}

/// A full inference trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferenceTrace {
    /// PE-cluster width the trace was generated for.
    pub num_pe: usize,
    /// The waves in execution order.
    pub waves: Vec<Wave>,
    /// The profile the schedule reconciles to.
    pub profile: PuInferenceProfile,
}

impl InferenceTrace {
    /// Renders an ASCII Gantt chart: one row per PE, one column block
    /// per wave, `#` busy and `.` idle, `|` at wave barriers. Long
    /// waves are compressed by `cycles_per_char`.
    pub fn render_timeline(&self, cycles_per_char: u64) -> String {
        let cpc = cycles_per_char.max(1);
        let mut rows = vec![String::new(); self.num_pe];
        for wave in &self.waves {
            let width = (wave.latency_cycles.div_ceil(cpc)) as usize;
            for (pe, row) in rows.iter_mut().enumerate() {
                let assignment = wave.assignments.iter().find(|a| a.pe == pe);
                let busy = assignment.map_or(0, |a| (a.busy_cycles.div_ceil(cpc)) as usize);
                let busy = busy.min(width);
                row.push_str(&"#".repeat(busy));
                row.push_str(&".".repeat(width - busy));
                row.push('|');
            }
        }
        let mut out = String::new();
        for (pe, row) in rows.iter().enumerate() {
            out.push_str(&format!("PE{pe:<2} {row}\n"));
        }
        out
    }

    /// Total busy cycles across all assignments.
    pub fn total_busy_cycles(&self) -> u64 {
        self.waves
            .iter()
            .flat_map(|w| &w.assignments)
            .map(|a| a.busy_cycles)
            .sum()
    }
}

/// Replays the output-stationary schedule of `plan` and records every
/// wave.
///
/// # Panics
///
/// Panics if the configuration selects a non-output-stationary
/// dataflow (traces model INAX's deployed dataflow only).
pub fn trace_inference(config: &InaxConfig, plan: &NetPlan) -> InferenceTrace {
    assert_eq!(
        config.dataflow,
        Dataflow::OutputStationary,
        "traces model the deployed output-stationary dataflow"
    );
    let mut waves = Vec::new();
    let profile = walk_waves(
        config,
        plan.levels(),
        |node| node_cycles(config, plan.node_edges(node).len()),
        |level, first_node, costs| {
            let wave_max = costs.iter().max().copied().unwrap_or(0);
            let assignments = costs
                .iter()
                .enumerate()
                .map(|(pe, &busy_cycles)| PeAssignment {
                    pe,
                    node: first_node + pe,
                    busy_cycles,
                    idle_cycles: wave_max - busy_cycles,
                });
            waves.push(Wave {
                level,
                latency_cycles: wave_max + config.wave_overhead_cycles,
                assignments: assignments.collect(),
            });
        },
    );
    InferenceTrace {
        num_pe: config.num_pe.max(1),
        waves,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pu::schedule_inference;
    use crate::synthetic::synthetic_net;

    #[test]
    fn trace_reconciles_with_schedule_profile() {
        for seed in 0..6 {
            let net = synthetic_net(8, 4, 20, 0.3, seed);
            for num_pe in [1, 3, 4, 7] {
                let config = InaxConfig::builder().num_pe(num_pe).build();
                let trace = trace_inference(&config, &net);
                let profile = schedule_inference(&config, &net);
                assert_eq!(trace.profile, profile, "seed {seed}, {num_pe} PEs");
                assert_eq!(trace.total_busy_cycles(), profile.pe_active_cycles);
            }
        }
    }

    #[test]
    fn every_node_is_computed_exactly_once() {
        let net = synthetic_net(8, 4, 15, 0.4, 2);
        let config = InaxConfig::builder().num_pe(3).build();
        let trace = trace_inference(&config, &net);
        let mut computed: Vec<usize> = trace
            .waves
            .iter()
            .flat_map(|w| &w.assignments)
            .map(|a| a.node)
            .collect();
        computed.sort_unstable();
        let expected: Vec<usize> = (0..net.num_compute_nodes()).collect();
        assert_eq!(computed, expected);
    }

    #[test]
    fn waves_respect_level_boundaries() {
        let net = synthetic_net(8, 4, 15, 0.4, 3);
        let config = InaxConfig::builder().num_pe(4).build();
        let trace = trace_inference(&config, &net);
        let mut prev_level = 0;
        for wave in &trace.waves {
            assert!(wave.level >= prev_level, "levels execute in order");
            prev_level = wave.level;
            for a in &wave.assignments {
                let (start, end) = net.levels()[wave.level];
                assert!(
                    (start as usize..end as usize).contains(&a.node),
                    "node belongs to its level"
                );
                assert_eq!(
                    a.busy_cycles + a.idle_cycles + config.wave_overhead_cycles,
                    wave.latency_cycles,
                    "idle accounting closes the wave"
                );
            }
        }
    }

    #[test]
    fn timeline_renders_one_row_per_pe() {
        let net = synthetic_net(4, 2, 6, 0.5, 4);
        let config = InaxConfig::builder().num_pe(3).build();
        let trace = trace_inference(&config, &net);
        let timeline = trace.render_timeline(1);
        assert_eq!(timeline.lines().count(), 3);
        assert!(timeline.contains('#'), "busy cycles are drawn");
        assert!(timeline.contains('|'), "barriers are drawn");
    }

    #[test]
    #[should_panic(expected = "output-stationary")]
    fn non_os_dataflow_is_rejected() {
        let net = synthetic_net(4, 2, 6, 0.5, 4);
        let config = InaxConfig::builder()
            .dataflow(crate::Dataflow::WeightStationary)
            .build();
        let _ = trace_inference(&config, &net);
    }
}
