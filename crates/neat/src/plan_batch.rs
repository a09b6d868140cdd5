//! Population-major batched execution of many [`NetPlan`]s.
//!
//! The scalar executor walks one genome's CSR plan at a time; per
//! inference that is a sub-microsecond kernel, far too little work to
//! amortize either thread-pool wakeups or cache misses. A
//! [`PlanBatch`] packs the plans of many live individuals into one
//! struct-of-arrays arena, merged **by level**: merged level `k`
//! holds every individual's level-`k` compute nodes back to back, so
//! [`PlanBatch::activate_batch_into`] sweeps each level across the
//! whole population in one SIMD-friendly inner loop over contiguous
//! bias/activation/edge arrays.
//!
//! # Determinism contract
//!
//! Within one individual, nodes keep their plan's compute-node index
//! order (which is level-major) and every node accumulates
//! `bias + Σ value·weight` over its sorted edge list — the exact
//! floating-point operation order of [`NetPlan::execute_into`]. Since
//! individuals never read each other's value slots, each lane of the
//! batch is **bit-identical** to executing its plan alone, regardless
//! of batch composition.

use crate::activation::Activation;
use crate::plan::NetPlan;

/// One individual's compute node inside the merged arena.
#[derive(Debug, Clone, Copy)]
struct BatchNode {
    /// Which lane (individual) the node belongs to.
    lane: u32,
    /// Global value-buffer slot the node writes.
    slot: u32,
    /// `(offset, len)` window into the shared edge arena.
    edge_range: (u32, u32),
    bias: f64,
    activation: Activation,
}

/// A struct-of-arrays arena over many individuals' [`NetPlan`]s,
/// merged by level for population-major execution.
///
/// # Example
///
/// ```
/// use e3_neat::{Genome, InnovationTracker, NetPlan, PlanBatch};
///
/// let mut tracker = InnovationTracker::with_reserved_nodes(3);
/// let mut genome = Genome::bare(2, 1);
/// genome.add_connection(0, 2, 0.5, &mut tracker)?;
/// genome.add_connection(1, 2, -0.5, &mut tracker)?;
/// let plan = NetPlan::compile(&genome)?;
/// let batch = PlanBatch::build(&[&plan, &plan]);
/// let mut values = vec![0.0; batch.value_buffer_slots()];
/// let mut outputs = vec![0.0; 2 * batch.num_outputs()];
/// batch.activate_batch_into(&[1.0, 1.0, 0.5, 0.5], &[true, true], &mut values, &mut outputs);
/// let solo = plan.execute(&[1.0, 1.0]);
/// assert_eq!(outputs[0], solo[0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PlanBatch {
    num_inputs: usize,
    num_outputs: usize,
    lanes: usize,
    /// All individuals' compute nodes, level-major: merged level `k`
    /// holds every lane's level-`k` nodes, lanes in ascending order.
    nodes: Vec<BatchNode>,
    /// Shared edge arena with **globalized** source slots.
    edges: Vec<(u32, f64)>,
    /// Per merged level: `(start, end)` index range into `nodes`.
    levels: Vec<(u32, u32)>,
    /// Per lane: first global value slot (the lane's inputs live at
    /// `value_base[lane] .. value_base[lane] + num_inputs`).
    value_base: Vec<u32>,
    /// Total global value slots across all lanes.
    value_slots: usize,
    /// Lane-major global value slots of the output nodes
    /// (`lanes × num_outputs`, genome id order within a lane).
    output_slots: Vec<u32>,
}

impl PlanBatch {
    /// Packs `plans` (one per lane, in lane order) into the merged
    /// arena.
    ///
    /// # Panics
    ///
    /// Panics if `plans` is empty or the plans disagree on input or
    /// output counts (a batch evaluates one population against one
    /// environment).
    pub fn build(plans: &[&NetPlan]) -> Self {
        assert!(!plans.is_empty(), "a batch needs at least one plan");
        let num_inputs = plans[0].num_inputs();
        let num_outputs = plans[0].num_outputs();
        for p in plans {
            assert_eq!(p.num_inputs(), num_inputs, "plans must share input count");
            assert_eq!(
                p.num_outputs(),
                num_outputs,
                "plans must share output count"
            );
        }

        let mut value_base = Vec::with_capacity(plans.len());
        let mut value_slots = 0u32;
        for p in plans {
            value_base.push(value_slots);
            let slots = u32::try_from(p.value_buffer_slots()).expect("plan fits u32 slots");
            value_slots = value_slots
                .checked_add(slots)
                .expect("batch value buffer fits u32 slots");
        }

        let total_nodes: usize = plans.iter().map(|p| p.num_compute_nodes()).sum();
        let total_edges: usize = plans.iter().map(|p| p.num_connections()).sum();
        let max_levels = plans.iter().map(|p| p.levels().len()).max().unwrap_or(0);

        let mut nodes: Vec<BatchNode> = Vec::with_capacity(total_nodes);
        let mut edges: Vec<(u32, f64)> = Vec::with_capacity(total_edges);
        let mut levels: Vec<(u32, u32)> = Vec::with_capacity(max_levels);
        for k in 0..max_levels {
            let level_start = nodes.len() as u32;
            for (lane, plan) in plans.iter().enumerate() {
                let Some(&(start, end)) = plan.levels().get(k) else {
                    continue;
                };
                let base = value_base[lane];
                for i in start as usize..end as usize {
                    let offset = edges.len() as u32;
                    // Globalize edge sources into the lane's slot
                    // window; the per-node sorted order is preserved
                    // verbatim (FP accumulation order contract).
                    edges.extend(plan.node_edges(i).iter().map(|&(src, w)| (base + src, w)));
                    nodes.push(BatchNode {
                        lane: lane as u32,
                        slot: base + num_inputs as u32 + i as u32,
                        edge_range: (offset, edges.len() as u32 - offset),
                        bias: plan.bias(i),
                        activation: plan.activation(i),
                    });
                }
            }
            levels.push((level_start, nodes.len() as u32));
        }

        let mut output_slots = Vec::with_capacity(plans.len() * num_outputs);
        for (lane, plan) in plans.iter().enumerate() {
            let base = value_base[lane];
            output_slots.extend(plan.outputs().iter().map(|&i| base + num_inputs as u32 + i));
        }

        PlanBatch {
            num_inputs,
            num_outputs,
            lanes: plans.len(),
            nodes,
            edges,
            levels,
            value_base,
            value_slots: value_slots as usize,
            output_slots,
        }
    }

    /// Runs one forward pass for every **active** lane, zero
    /// allocation. `inputs` and `outputs` are lane-major
    /// (`lanes × num_inputs` / `lanes × num_outputs`); `values` is the
    /// reusable global value buffer of [`PlanBatch::value_buffer_slots`]
    /// slots. Parked lanes are skipped entirely: their value slots and
    /// output rows keep whatever they held before the call.
    ///
    /// Per lane, results are bit-identical to running that lane's
    /// [`NetPlan::execute_into`] alone (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if any buffer has the wrong length.
    pub fn activate_batch_into(
        &self,
        inputs: &[f64],
        active: &[bool],
        values: &mut [f64],
        outputs: &mut [f64],
    ) {
        assert_eq!(
            inputs.len(),
            self.lanes * self.num_inputs,
            "expected {} x {} lane-major inputs",
            self.lanes,
            self.num_inputs
        );
        assert_eq!(active.len(), self.lanes, "one active flag per lane");
        assert_eq!(values.len(), self.value_slots, "value buffer size mismatch");
        assert_eq!(
            outputs.len(),
            self.lanes * self.num_outputs,
            "expected {} x {} lane-major outputs",
            self.lanes,
            self.num_outputs
        );

        // Scatter active lanes' inputs into their slot windows.
        for lane in 0..self.lanes {
            if !active[lane] {
                continue;
            }
            let base = self.value_base[lane] as usize;
            values[base..base + self.num_inputs]
                .copy_from_slice(&inputs[lane * self.num_inputs..(lane + 1) * self.num_inputs]);
        }

        // Level-major sweep: one tight loop per merged level over the
        // whole population's nodes.
        for &(start, end) in &self.levels {
            for node in &self.nodes[start as usize..end as usize] {
                if !active[node.lane as usize] {
                    continue;
                }
                let (offset, len) = node.edge_range;
                let mut acc = node.bias;
                for &(source, weight) in &self.edges[offset as usize..(offset + len) as usize] {
                    acc += values[source as usize] * weight;
                }
                values[node.slot as usize] = node.activation.apply(acc);
            }
        }

        // Gather active lanes' outputs.
        for lane in 0..self.lanes {
            if !active[lane] {
                continue;
            }
            for j in 0..self.num_outputs {
                outputs[lane * self.num_outputs + j] =
                    values[self.output_slots[lane * self.num_outputs + j] as usize];
            }
        }
    }

    /// Number of lanes (individuals) in the batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Inputs per lane.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Outputs per lane.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Size of the shared global value buffer (sum of the lanes'
    /// individual buffers).
    pub fn value_buffer_slots(&self) -> usize {
        self.value_slots
    }

    /// Total compute nodes across all lanes.
    pub fn num_compute_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total enabled connections (MACs per batched inference).
    pub fn num_connections(&self) -> usize {
        self.edges.len()
    }

    /// Number of merged compute levels (the deepest lane's depth).
    pub fn num_compute_levels(&self) -> usize {
        self.levels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Genome, InnovationTracker};

    fn diamond_plan(weight: f64) -> NetPlan {
        // 2 inputs -> hidden -> output with a skip edge; same topology
        // as the plan.rs chain genome but parameterized weights so
        // different lanes hold different individuals.
        let mut tracker = InnovationTracker::with_reserved_nodes(3);
        let mut g = Genome::bare(2, 1);
        let innovation = g.add_connection(0, 2, weight, &mut tracker).unwrap();
        g.add_connection(1, 2, 0.25, &mut tracker).unwrap();
        let h = g
            .split_connection(innovation, Activation::Identity, &mut tracker)
            .unwrap();
        g.set_bias(h, 0.1).unwrap();
        NetPlan::compile(&g).unwrap()
    }

    fn shallow_plan() -> NetPlan {
        // 2 inputs -> output directly: one level, exercising ragged
        // depth in the merged arena.
        let mut tracker = InnovationTracker::with_reserved_nodes(3);
        let mut g = Genome::bare(2, 1);
        g.add_connection(0, 2, 0.7, &mut tracker).unwrap();
        g.add_connection(1, 2, -0.2, &mut tracker).unwrap();
        NetPlan::compile(&g).unwrap()
    }

    #[test]
    fn batched_lanes_match_solo_execution_bitwise() {
        let plans = [diamond_plan(0.5), diamond_plan(-1.5), shallow_plan()];
        let refs: Vec<&NetPlan> = plans.iter().collect();
        let batch = PlanBatch::build(&refs);
        assert_eq!(batch.lanes(), 3);
        assert_eq!(batch.num_compute_levels(), 2, "deepest lane wins");

        let inputs = [0.8, 0.4, -0.3, 1.1, 0.05, -2.0];
        let mut values = vec![0.0; batch.value_buffer_slots()];
        let mut outputs = vec![0.0; 3 * batch.num_outputs()];
        batch.activate_batch_into(&inputs, &[true, true, true], &mut values, &mut outputs);

        for (lane, plan) in plans.iter().enumerate() {
            let solo = plan.execute(&inputs[lane * 2..(lane + 1) * 2]);
            assert_eq!(
                outputs[lane].to_bits(),
                solo[0].to_bits(),
                "lane {lane} must be bit-identical to solo execution"
            );
        }
    }

    #[test]
    fn parked_lanes_are_skipped_and_keep_their_outputs() {
        let plans = [diamond_plan(0.5), diamond_plan(2.0)];
        let refs: Vec<&NetPlan> = plans.iter().collect();
        let batch = PlanBatch::build(&refs);
        let mut values = vec![0.0; batch.value_buffer_slots()];
        let mut outputs = vec![0.0; 2];

        batch.activate_batch_into(
            &[1.0, 1.0, 1.0, 1.0],
            &[true, true],
            &mut values,
            &mut outputs,
        );
        let lane1_before = outputs[1];

        // Park lane 1 and feed new inputs: lane 0 updates, lane 1 is
        // untouched even though its inputs changed.
        batch.activate_batch_into(
            &[0.2, 0.3, 9.0, 9.0],
            &[true, false],
            &mut values,
            &mut outputs,
        );
        assert_eq!(outputs[1].to_bits(), lane1_before.to_bits());
        let solo = plans[0].execute(&[0.2, 0.3]);
        assert_eq!(outputs[0].to_bits(), solo[0].to_bits());
    }

    #[test]
    fn single_lane_batch_equals_plan_execute() {
        let plan = diamond_plan(0.75);
        let batch = PlanBatch::build(&[&plan]);
        assert_eq!(batch.value_buffer_slots(), plan.value_buffer_slots());
        assert_eq!(batch.num_compute_nodes(), plan.num_compute_nodes());
        assert_eq!(batch.num_connections(), plan.num_connections());
        let mut values = vec![0.0; batch.value_buffer_slots()];
        let mut outputs = vec![0.0; 1];
        batch.activate_batch_into(&[0.6, -0.9], &[true], &mut values, &mut outputs);
        assert_eq!(
            outputs[0].to_bits(),
            plan.execute(&[0.6, -0.9])[0].to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "share input count")]
    fn mismatched_input_counts_rejected() {
        let a = diamond_plan(0.5);
        let mut tracker = InnovationTracker::with_reserved_nodes(4);
        let mut g = Genome::bare(3, 1);
        g.add_connection(0, 3, 0.5, &mut tracker).unwrap();
        let b = NetPlan::compile(&g).unwrap();
        let _ = PlanBatch::build(&[&a, &b]);
    }

    #[test]
    #[should_panic(expected = "at least one plan")]
    fn empty_batch_rejected() {
        let _ = PlanBatch::build(&[]);
    }

    #[test]
    #[should_panic(expected = "value buffer size mismatch")]
    fn wrong_value_buffer_length_panics() {
        let plan = diamond_plan(0.5);
        let batch = PlanBatch::build(&[&plan]);
        let mut values = vec![0.0; batch.value_buffer_slots() + 1];
        let mut outputs = vec![0.0; 1];
        batch.activate_batch_into(&[0.0, 0.0], &[true], &mut values, &mut outputs);
    }
}
