//! Design-space exploration: choosing (PU, PE) under a device budget.
//!
//! The paper picks its configuration by heuristics (§V) and shows two
//! points (Fig. 10(b)). This module exhaustively sweeps the (PU, PE)
//! grid, prices each point with the FPGA resource model, times it with
//! the cycle model on a workload, and reports the Pareto frontier of
//! {cycles, LUTs} among configurations that fit — the full co-design
//! loop the paper's heuristics shortcut.

use crate::fpga::{FpgaBudget, FpgaResources};
use e3_exec::{AnyExecutor, Executor};
use e3_inax::cluster::{analyze_pu_parallelism, EpisodeWork};
use e3_inax::{schedule_inference, InaxConfig};
use e3_neat::NetPlan;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One evaluated design point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// PU count.
    pub num_pu: usize,
    /// PEs per PU.
    pub num_pe: usize,
    /// Total cycles to evaluate the workload population.
    pub total_cycles: u64,
    /// PU-level utilization.
    pub pu_utilization: f64,
    /// Resource usage.
    pub resources: FpgaResources,
    /// Whether the point fits the budget.
    pub fits: bool,
}

/// The sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignSweep {
    /// Every evaluated point (PU-major order).
    pub points: Vec<DesignPoint>,
}

impl DesignSweep {
    /// Points that fit the device.
    pub fn feasible(&self) -> impl Iterator<Item = &DesignPoint> {
        self.points.iter().filter(|p| p.fits)
    }

    /// The fastest feasible point.
    pub fn fastest(&self) -> Option<&DesignPoint> {
        self.feasible().min_by_key(|p| p.total_cycles)
    }

    /// The Pareto frontier over (total_cycles ↓, lut ↓) among feasible
    /// points, sorted by cycles.
    pub fn pareto_frontier(&self) -> Vec<&DesignPoint> {
        let mut feasible: Vec<&DesignPoint> = self.feasible().collect();
        feasible.sort_by_key(|p| (p.total_cycles, p.resources.lut));
        let mut frontier: Vec<&DesignPoint> = Vec::new();
        let mut best_lut = u64::MAX;
        for point in feasible {
            if point.resources.lut < best_lut {
                best_lut = point.resources.lut;
                frontier.push(point);
            }
        }
        frontier
    }

    /// Renders the sweep as CSV (`pu,pe,cycles,pu_util,lut,dsp,bram,fits`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("pu,pe,cycles,pu_utilization,lut,ff,dsp,bram,fits\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{},{:.4},{},{},{},{},{}\n",
                p.num_pu,
                p.num_pe,
                p.total_cycles,
                p.pu_utilization,
                p.resources.lut,
                p.resources.ff,
                p.resources.dsp,
                p.resources.bram,
                p.fits
            ));
        }
        out
    }
}

/// Sweeps `pu_options × pe_options` for a population of networks, each
/// playing `steps`-step episodes, against `budget`.
///
/// # Panics
///
/// Panics if any option list is empty or the population is empty.
pub fn sweep_design_space(
    nets: &[NetPlan],
    steps: u64,
    pu_options: &[usize],
    pe_options: &[usize],
    budget: &FpgaBudget,
) -> DesignSweep {
    sweep_design_space_with(
        nets,
        steps,
        pu_options,
        pe_options,
        budget,
        &mut AnyExecutor::new(1),
    )
}

/// [`sweep_design_space`] with the grid sharded across `exec`'s worker
/// threads. Each `(PU, PE)` point is priced independently and the
/// results are reduced in grid order, so the sweep is bit-identical at
/// every worker count.
///
/// # Panics
///
/// Panics if any option list is empty or the population is empty.
pub fn sweep_design_space_with(
    nets: &[NetPlan],
    steps: u64,
    pu_options: &[usize],
    pe_options: &[usize],
    budget: &FpgaBudget,
    exec: &mut AnyExecutor,
) -> DesignSweep {
    assert!(!nets.is_empty(), "need a workload population");
    assert!(
        !pu_options.is_empty() && !pe_options.is_empty(),
        "need sweep options"
    );
    let grid: Arc<Vec<(usize, usize)>> = Arc::new(
        pu_options
            .iter()
            .flat_map(|&num_pu| pe_options.iter().map(move |&num_pe| (num_pu, num_pe)))
            .collect(),
    );
    let nets: Arc<[NetPlan]> = nets.into();
    let budget = *budget;
    let run = exec
        .run_shards(grid.len(), 1, move |_scratch, range| {
            range
                .map(|i| {
                    let (num_pu, num_pe) = grid[i];
                    let config = InaxConfig::builder().num_pu(num_pu).num_pe(num_pe).build();
                    let episodes: Vec<EpisodeWork> = nets
                        .iter()
                        .map(|net| EpisodeWork {
                            inference_cycles: schedule_inference(&config, net).wall_cycles,
                            steps,
                        })
                        .collect();
                    let (total_cycles, util) = analyze_pu_parallelism(num_pu, &episodes);
                    let resources = FpgaResources::of_inax(&config);
                    DesignPoint {
                        num_pu,
                        num_pe,
                        total_cycles,
                        pu_utilization: util.rate(),
                        fits: budget.fits(&resources),
                        resources,
                    }
                })
                .collect()
        })
        .expect("design-point pricing does not panic");
    DesignSweep {
        points: run.results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_inax::synthetic::synthetic_population;

    fn sweep() -> DesignSweep {
        let nets = synthetic_population(60, 8, 4, 30, 0.2, 23);
        sweep_design_space(
            &nets,
            100,
            &[10, 20, 30, 50, 60, 100],
            &[1, 2, 4, 8],
            &FpgaBudget::zcu104(),
        )
    }

    #[test]
    fn sweep_covers_the_grid_and_flags_fits() {
        let result = sweep();
        assert_eq!(result.points.len(), 24);
        assert!(result.feasible().count() >= 12, "most small configs fit");
        // Oversized config must be flagged.
        let nets = synthetic_population(10, 8, 4, 30, 0.2, 1);
        let big = sweep_design_space(&nets, 10, &[400], &[8], &FpgaBudget::zcu104());
        assert!(!big.points[0].fits);
    }

    #[test]
    fn fastest_point_uses_maximum_feasible_parallelism() {
        let result = sweep();
        let fastest = result.fastest().expect("some config fits");
        assert!(fastest.num_pu >= 50, "more PUs are faster while they fit");
        assert!(fastest.fits);
    }

    #[test]
    fn pareto_frontier_is_monotone() {
        let result = sweep();
        let frontier = result.pareto_frontier();
        assert!(!frontier.is_empty());
        for pair in frontier.windows(2) {
            assert!(pair[1].total_cycles >= pair[0].total_cycles);
            assert!(
                pair[1].resources.lut < pair[0].resources.lut,
                "frontier trades area for time"
            );
        }
    }

    #[test]
    fn threaded_sweep_is_bit_identical_to_serial() {
        let nets = synthetic_population(30, 8, 4, 20, 0.2, 7);
        let budget = FpgaBudget::zcu104();
        let serial = sweep_design_space(&nets, 50, &[10, 20, 50], &[1, 2, 4], &budget);
        for threads in [2usize, 4] {
            let mut exec = AnyExecutor::new(threads);
            let pooled =
                sweep_design_space_with(&nets, 50, &[10, 20, 50], &[1, 2, 4], &budget, &mut exec);
            assert_eq!(pooled, serial, "threads={threads}");
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_point() {
        let result = sweep();
        let csv = result.to_csv();
        assert_eq!(csv.lines().count(), 1 + result.points.len());
        assert!(csv.starts_with("pu,pe,cycles"));
    }
}
