//! Platform cost models: modeled time for software and GPU execution.
//!
//! The paper measures wall-clock on a desktop i7 running `neat-python`
//! (interpreted Python), a GTX 1080 GPU, and the ZCU104 FPGA. This
//! reproduction replaces the first two with deterministic **cost
//! models** calibrated to those platform classes, because a Rust
//! reimplementation's raw wall-clock would not be comparable to the
//! interpreted baseline the paper speeds up (see DESIGN.md,
//! substitutions). The INAX side needs no model — its simulator counts
//! cycles directly.
//!
//! The calibration constants reproduce the paper's magnitude classes:
//! interpreted per-inference cost in the hundreds of microseconds,
//! cheap classic-control env steps, "evolve" a few percent of NEAT
//! runtime (Fig. 1(b)), and a GPU that *loses* to the CPU on small
//! irregular workloads (Fig. 9(b)).

use e3_neat::{Genome, NetPlan};
use serde::{Deserialize, Serialize};

/// Cost model of the interpreted software runtime (CPU-side NEAT).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwCostModel {
    /// Seconds per node evaluated in software inference.
    pub sec_per_node_eval: f64,
    /// Seconds per connection (MAC) in software inference.
    pub sec_per_conn_eval: f64,
    /// Fixed per-inference interpreter overhead (function dispatch,
    /// list building).
    pub sec_per_inference: f64,
    /// Seconds per environment step (classic-control physics).
    pub sec_per_env_step: f64,
    /// Seconds to mutate one genome.
    pub sec_mutate_per_genome: f64,
    /// Seconds to crossover one child.
    pub sec_crossover_per_child: f64,
    /// Seconds per genome-to-representative distance computation
    /// during speciation.
    pub sec_speciate_per_comparison: f64,
    /// Seconds of fixed CreateNet cost per genome.
    ///
    /// Provenance: neat-python's `FeedForwardNetwork.create` pays a
    /// fixed interpreter cost per genome (required-node discovery,
    /// layer computation entry) before touching any gene; 50 µs is the
    /// same magnitude class as [`SwCostModel::sec_per_inference`],
    /// which models the analogous fixed dispatch cost of one forward
    /// pass.
    pub sec_createnet_per_genome: f64,
    /// Seconds of CreateNet cost per gene (node or connection).
    ///
    /// Provenance: every decode — neat-python's `create` and this
    /// repo's [`e3_neat::NetPlan::compile`] alike — reads each node
    /// and each connection gene a small constant number of times
    /// (topological sort, per-node fan-in grouping), so CreateNet is
    /// affine in total gene count. 1 µs/gene is the interpreted
    /// per-item loop cost, matching
    /// [`SwCostModel::sec_speciate_per_comparison`].
    pub sec_createnet_per_gene: f64,
}

impl SwCostModel {
    /// Modeled software time for one inference of a compiled `plan`.
    /// Every evaluation kernel prices the plan, never a decoded
    /// network, so they all charge bit-identically.
    pub(crate) fn inference_seconds_plan(&self, plan: &NetPlan) -> f64 {
        self.sec_per_inference
            + plan.num_nodes() as f64 * self.sec_per_node_eval
            + plan.num_connections() as f64 * self.sec_per_conn_eval
    }

    /// Modeled CreateNet (genome → network decode) time.
    ///
    /// CreateNet in this repo is [`e3_neat::NetPlan::compile`]: a Kahn
    /// topological sort over all genes followed by CSR packing, both
    /// linear in `nodes + connections`. The model is therefore affine
    /// in total gene count — a fixed per-genome dispatch term plus a
    /// per-gene term (see the field docs for constant provenance).
    pub(crate) fn createnet_seconds(&self, nodes: usize, connections: usize) -> f64 {
        self.sec_createnet_per_genome + (nodes + connections) as f64 * self.sec_createnet_per_gene
    }

    /// Modeled CreateNet time for compiling `genome` into a
    /// [`e3_neat::NetPlan`].
    ///
    /// Convenience over [`SwCostModel::createnet_seconds`] that makes
    /// the convention explicit: plan compilation reads *every* gene of
    /// the genome (enabled or not, the sort still visits them), so the
    /// cost is charged on the full gene counts, not the decoded
    /// network's.
    pub(crate) fn createnet_seconds_for(&self, genome: &Genome) -> f64 {
        self.createnet_seconds(genome.nodes().len(), genome.connections().len())
    }
}

impl Default for SwCostModel {
    /// Calibration for the paper's desktop-Python software stack.
    fn default() -> Self {
        SwCostModel {
            sec_per_node_eval: 10.0e-6,
            sec_per_conn_eval: 2.0e-6,
            sec_per_inference: 50.0e-6,
            sec_per_env_step: 5.0e-6,
            sec_mutate_per_genome: 60.0e-6,
            sec_crossover_per_child: 40.0e-6,
            sec_speciate_per_comparison: 1.0e-6,
            sec_createnet_per_genome: 50.0e-6,
            sec_createnet_per_gene: 1.0e-6,
        }
    }
}

/// Cost model of GPU offload for irregular per-individual inference.
///
/// NEAT on a GPU is launch-bound (paper §VI-A: "NEAT algorithm is
/// generally not efficient on GPUs because of small batch size and
/// dynamic topology"): each individual's irregular topology compiles
/// to a chain of tiny per-level kernels, plus host↔device transfers
/// every environment step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuCostModel {
    /// Seconds per kernel launch (driver + scheduling).
    pub sec_per_kernel_launch: f64,
    /// Kernels per network level (GEMM + activation).
    pub kernels_per_level: f64,
    /// Host↔device transfer time per inference (observation up,
    /// action down, small packets dominated by latency).
    pub sec_transfer_per_inference: f64,
    /// Seconds per dense MAC once a kernel runs (throughput term;
    /// negligible for these sizes but kept for completeness).
    pub sec_per_dense_conn: f64,
}

impl GpuCostModel {
    /// Modeled GPU time for one inference of a compiled `plan`: the
    /// irregular network executes as its dense per-level counterpart.
    pub(crate) fn inference_seconds_plan(&self, plan: &NetPlan) -> f64 {
        let levels = plan.num_compute_levels() as f64;
        let widths = plan.level_widths();
        let mut dense_macs = 0.0;
        let mut prev = plan.num_inputs() as f64;
        for w in widths {
            dense_macs += prev * w as f64;
            prev = w as f64;
        }
        levels * self.kernels_per_level * self.sec_per_kernel_launch
            + self.sec_transfer_per_inference
            + dense_macs * self.sec_per_dense_conn
    }
}

impl Default for GpuCostModel {
    /// Calibration for a GTX-1080-class discrete GPU.
    fn default() -> Self {
        GpuCostModel {
            sec_per_kernel_launch: 1.0e-3,
            kernels_per_level: 2.0,
            sec_transfer_per_inference: 2.0e-3,
            sec_per_dense_conn: 1.0e-9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_neat::{Genome, InnovationTracker};

    fn tiny_plan() -> NetPlan {
        let mut tracker = InnovationTracker::with_reserved_nodes(3);
        let mut g = Genome::bare(2, 1);
        g.add_connection(0, 2, 1.0, &mut tracker).unwrap();
        g.add_connection(1, 2, 1.0, &mut tracker).unwrap();
        g.decode().unwrap().plan().clone()
    }

    #[test]
    fn sw_inference_scales_with_size() {
        let model = SwCostModel::default();
        let t = model.inference_seconds_plan(&tiny_plan());
        assert!(t > model.sec_per_inference);
        assert!(t < 1e-3, "a tiny net is fast even interpreted");
    }

    #[test]
    fn gpu_is_slower_than_sw_for_tiny_irregular_nets() {
        // The inversion that makes E3-GPU lose (Fig. 9(b)).
        let plan = tiny_plan();
        let sw = SwCostModel::default().inference_seconds_plan(&plan);
        let gpu = GpuCostModel::default().inference_seconds_plan(&plan);
        assert!(gpu > 10.0 * sw, "GPU {gpu} must be launch-bound vs SW {sw}");
    }

    #[test]
    fn createnet_cost_grows_with_genome() {
        let model = SwCostModel::default();
        assert!(model.createnet_seconds(100, 500) > model.createnet_seconds(5, 5));
    }

    #[test]
    fn createnet_for_genome_charges_full_gene_count() {
        let mut tracker = InnovationTracker::with_reserved_nodes(3);
        let mut g = Genome::bare(2, 1);
        g.add_connection(0, 2, 1.0, &mut tracker).unwrap();
        g.add_connection(1, 2, 1.0, &mut tracker).unwrap();
        let model = SwCostModel::default();
        assert_eq!(
            model.createnet_seconds_for(&g),
            model.createnet_seconds(g.nodes().len(), g.connections().len())
        );
    }
}
