//! The compiled-network IR: one flat CSR artifact per genome, shared
//! by every backend (the paper's "CreateNet" output).
//!
//! A [`NetPlan`] is what genome→phenotype decoding produces — a
//! single-arena, cache-friendly description of one irregular
//! feed-forward network. Every consumer reads it without touching the
//! genome again, and none re-encodes it:
//!
//! * [`crate::Network`] — the software executor: a `NetPlan` plus a
//!   reusable scratch value buffer;
//! * `e3_inax` — the accelerator model: the plan is what the weight
//!   channel ships (topology + weights), a PU's functional half is
//!   [`NetPlan::execute_into`] into its own value buffer, and the wave
//!   schedule is a function of [`NetPlan::levels`] and the in-degrees
//!   alone;
//! * `e3_systolic`'s dense padding — consumes the plan's level ranges
//!   to build the dense MLP counterpart.
//!
//! # CSR layout
//!
//! Compute nodes (hidden + output) are stored structure-of-arrays, in
//! **level-major topological order** (sorted by `(level, genome id)`):
//!
//! * `edges` — one contiguous `(value_slot, weight)` arena holding
//!   every ingress edge of every compute node, grouped per node and
//!   sorted within a node by `(slot, weight)`;
//! * `edge_ranges[i]` — the `(offset, len)` window of compute node
//!   `i`'s edges inside the arena;
//! * `biases[i]` / `activations[i]` — the node's parameters;
//! * `levels` — per compute level, the `(start, end)` compute-node
//!   index range (level `k` holds all nodes whose longest path from a
//!   source is `k + 1`);
//! * `outputs` — compute-node indices of the output nodes in genome
//!   id order (the order `execute_into` returns values in).
//!
//! # Value-buffer slot convention
//!
//! The plan is the single source of truth for the INAX value-buffer
//! layout: slot `i` holds input `i` for `i < num_inputs`, and the
//! activation of compute node `i - num_inputs` otherwise. Edge slots
//! always reference strictly earlier slots, so one in-order sweep per
//! inference suffices and *every* intermediate activation stays live —
//! exactly what irregular skip connections require (paper Fig. 4(c)).
//!
//! # Determinism
//!
//! [`NetPlan::execute_into`] accumulates `bias + Σ value·weight` in the
//! per-node sorted edge order, reproducing the historical
//! `Network::activate` floating-point operation order bit for bit (the
//! `e3-exec` determinism contract relies on this).

use crate::error::DecodeError;
use crate::genome::{Genome, NodeId, NodeKind};
use crate::Activation;
use serde::{Deserialize, Serialize};

/// A compiled irregular feed-forward network in flat CSR form.
///
/// Produced by [`NetPlan::compile`]; executed in place by
/// [`NetPlan::execute_into`]. See the module docs for the
/// layout and the value-buffer slot convention.
///
/// # Example
///
/// ```
/// use e3_neat::{Genome, InnovationTracker, NetPlan};
///
/// let mut tracker = InnovationTracker::with_reserved_nodes(3);
/// let mut genome = Genome::bare(2, 1);
/// genome.add_connection(0, 2, 0.5, &mut tracker)?;
/// genome.add_connection(1, 2, -0.5, &mut tracker)?;
/// let plan = NetPlan::compile(&genome)?;
/// assert_eq!(plan.num_compute_nodes(), 1);
/// let mut values = vec![0.0; plan.value_buffer_slots()];
/// let out = plan.execute_into(&[1.0, 1.0], &mut values);
/// assert_eq!(out.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetPlan {
    num_inputs: usize,
    num_outputs: usize,
    /// Edge arena: `(value_buffer_slot, weight)` for every ingress
    /// edge of every compute node, grouped per node.
    edges: Vec<(u32, f64)>,
    /// Per compute node: `(offset, len)` into `edges`.
    edge_ranges: Vec<(u32, u32)>,
    /// Per compute node: additive bias.
    biases: Vec<f64>,
    /// Per compute node: activation function.
    activations: Vec<Activation>,
    /// Per compute level: `(start, end)` compute-node index range.
    levels: Vec<(u32, u32)>,
    /// Compute-node indices of the outputs, in genome id order.
    outputs: Vec<u32>,
}

#[cfg(debug_assertions)]
thread_local! {
    static COMPILES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl NetPlan {
    /// Debug builds only: how many times [`NetPlan::compile`] has run
    /// on the calling thread. The one-compile-per-genome-per-generation
    /// guard (`crates/platform/tests/one_compile.rs`) reads it around a
    /// serial-executor step, where every lowering — the kernels' and
    /// any the driver might grow back — happens on the test's thread.
    #[cfg(debug_assertions)]
    #[doc(hidden)]
    pub fn compiles_on_this_thread() -> u64 {
        COMPILES.with(std::cell::Cell::get)
    }

    /// Compiles a genome: resolves node dependencies, topologically
    /// sorts (Kahn, level = longest path from any source), and packs
    /// the result into the flat CSR layout.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Cycle`] if the enabled connections are
    /// cyclic, or [`DecodeError::DanglingConnection`] if a connection
    /// references a missing node.
    pub fn compile(genome: &Genome) -> Result<Self, DecodeError> {
        #[cfg(debug_assertions)]
        COMPILES.with(|count| count.set(count.get() + 1));
        let genome_nodes = genome.nodes();
        let index_of =
            |id: NodeId| -> Option<usize> { genome_nodes.binary_search_by_key(&id, |n| n.id).ok() };

        // Adjacency over genome node indices using enabled connections.
        let n = genome_nodes.len();
        assert!(n <= u32::MAX as usize, "genome too large for u32 slots");
        let mut incoming: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut in_degree = vec![0usize; n];
        for c in genome.connections().iter().filter(|c| c.enabled) {
            let (from, to) = match (index_of(c.from), index_of(c.to)) {
                (Some(f), Some(t)) => (f, t),
                _ => {
                    return Err(DecodeError::DanglingConnection {
                        from: c.from,
                        to: c.to,
                    })
                }
            };
            incoming[to].push((from, c.weight));
            out_edges[from].push(to);
            in_degree[to] += 1;
        }

        // Kahn topological sort, inputs first, then by readiness. Level =
        // longest path from any source.
        let mut level = vec![0usize; n];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut ready: Vec<usize> = (0..n).filter(|&i| in_degree[i] == 0).collect();
        // Deterministic order: process by genome node id.
        ready.sort_unstable();
        let mut remaining = in_degree.clone();
        let mut queue = std::collections::VecDeque::from(ready);
        while let Some(i) = queue.pop_front() {
            order.push(i);
            // Non-input sources (isolated hidden/outputs) sit at level 1+.
            if genome_nodes[i].kind != NodeKind::Input && incoming[i].is_empty() {
                level[i] = level[i].max(1);
            }
            for &succ in &out_edges[i] {
                level[succ] = level[succ].max(level[i] + 1);
                remaining[succ] -= 1;
                if remaining[succ] == 0 {
                    queue.push_back(succ);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n).find(|&i| remaining[i] > 0).unwrap_or(0);
            return Err(DecodeError::Cycle(genome_nodes[stuck].id));
        }

        // Emit nodes sorted by (level, genome id): indices increase
        // monotonically with level, so evaluation is a single sweep and
        // node index == value-buffer slot. Level 0 is exactly the
        // inputs (ids 0..num_inputs), so input `i` lands in slot `i`.
        let mut by_level: Vec<usize> = (0..n).collect();
        by_level.sort_by_key(|&i| (level[i], genome_nodes[i].id));
        let mut new_index = vec![0usize; n];
        for (new_i, &old_i) in by_level.iter().enumerate() {
            new_index[old_i] = new_i;
        }

        let num_inputs = genome.num_inputs();
        debug_assert!(
            by_level
                .iter()
                .take(num_inputs)
                .all(|&i| genome_nodes[i].kind == NodeKind::Input),
            "level 0 must hold exactly the input nodes"
        );
        let num_compute = n - num_inputs;
        let num_edges: usize = incoming.iter().map(Vec::len).sum();
        let mut edges: Vec<(u32, f64)> = Vec::with_capacity(num_edges);
        let mut edge_ranges: Vec<(u32, u32)> = Vec::with_capacity(num_compute);
        let mut biases: Vec<f64> = Vec::with_capacity(num_compute);
        let mut activations: Vec<Activation> = Vec::with_capacity(num_compute);
        let mut levels: Vec<(u32, u32)> = Vec::new();
        let mut outputs_with_ids: Vec<(NodeId, u32)> = Vec::new();
        let mut current_level = usize::MAX;
        for (emit_idx, &old_i) in by_level.iter().enumerate().skip(num_inputs) {
            let g = genome_nodes[old_i];
            let compute_idx = (emit_idx - num_inputs) as u32;
            let mut inc: Vec<(u32, f64)> = incoming[old_i]
                .iter()
                .map(|&(src, w)| (new_index[src] as u32, w))
                .collect();
            // Sorted edge order fixes the FP accumulation order — part
            // of the determinism contract, do not change.
            inc.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            let offset = edges.len() as u32;
            edges.extend(inc);
            edge_ranges.push((offset, edges.len() as u32 - offset));
            biases.push(g.bias);
            activations.push(g.activation);
            if level[old_i] != current_level {
                levels.push((compute_idx, compute_idx + 1));
                current_level = level[old_i];
            } else {
                levels.last_mut().expect("just pushed").1 = compute_idx + 1;
            }
            if g.kind == NodeKind::Output {
                outputs_with_ids.push((g.id, compute_idx));
            }
        }
        outputs_with_ids.sort_unstable();
        let outputs = outputs_with_ids.into_iter().map(|(_, i)| i).collect();

        Ok(NetPlan {
            num_inputs,
            num_outputs: genome.num_outputs(),
            edges,
            edge_ranges,
            biases,
            activations,
            levels,
            outputs,
        })
    }

    /// Runs one forward pass using a caller-provided value buffer of
    /// [`NetPlan::value_buffer_slots`] slots (reusable across calls —
    /// every slot is overwritten). Returns the output activations in
    /// genome id order, bit-identical to the historical
    /// `Network::activate`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `values` have the wrong length.
    pub fn execute_into(&self, inputs: &[f64], values: &mut [f64]) -> Vec<f64> {
        self.fill(inputs, values);
        // Inline output gather: `read_outputs` re-validates the buffer
        // length, which `fill` already checked.
        self.outputs
            .iter()
            .map(|&i| values[self.num_inputs + i as usize])
            .collect()
    }

    /// Runs one forward pass with **zero allocation**: the value buffer
    /// and the output vector are both caller-owned and reused.
    /// `outputs` is cleared and refilled with the output activations in
    /// genome id order — bit-identical to [`NetPlan::execute_into`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `values` have the wrong length.
    pub(crate) fn execute_into_buf(
        &self,
        inputs: &[f64],
        values: &mut [f64],
        outputs: &mut Vec<f64>,
    ) {
        self.fill(inputs, values);
        outputs.clear();
        outputs.extend(
            self.outputs
                .iter()
                .map(|&i| values[self.num_inputs + i as usize]),
        );
    }

    /// The forward-pass kernel: validates buffer sizes and overwrites
    /// every slot of `values` in level order.
    fn fill(&self, inputs: &[f64], values: &mut [f64]) {
        assert_eq!(
            inputs.len(),
            self.num_inputs,
            "expected {} inputs, got {}",
            self.num_inputs,
            inputs.len()
        );
        assert_eq!(
            values.len(),
            self.value_buffer_slots(),
            "value buffer size mismatch"
        );
        values[..self.num_inputs].copy_from_slice(inputs);
        let node = self
            .edge_ranges
            .iter()
            .zip(&self.biases)
            .zip(&self.activations);
        for (i, ((&(offset, len), &bias), activation)) in node.enumerate() {
            // Compute node `i` writes slot `num_inputs + i`. Bias first,
            // then the sorted edges in order: the exact FP accumulation
            // order of the legacy per-node executor.
            let slot = self.num_inputs + i;
            let mut acc = bias;
            for &(source, weight) in &self.edges[offset as usize..(offset + len) as usize] {
                debug_assert!((source as usize) < slot, "forward-only slots");
                acc += values[source as usize] * weight;
            }
            values[slot] = activation.apply(acc);
        }
    }

    /// Reads the output activations out of a value buffer previously
    /// filled by [`NetPlan::execute_into`], in genome id order.
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong length.
    pub fn read_outputs(&self, values: &[f64]) -> Vec<f64> {
        assert_eq!(
            values.len(),
            self.value_buffer_slots(),
            "value buffer size mismatch"
        );
        self.outputs
            .iter()
            .map(|&i| values[self.num_inputs + i as usize])
            .collect()
    }

    /// Runs one forward pass with a temporary value buffer.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the input count.
    pub fn execute(&self, inputs: &[f64]) -> Vec<f64> {
        let mut values = vec![0.0; self.value_buffer_slots()];
        self.execute_into(inputs, &mut values)
    }

    /// Number of input nodes (and leading value-buffer slots).
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output nodes.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of compute nodes (hidden + output).
    pub fn num_compute_nodes(&self) -> usize {
        self.biases.len()
    }

    /// Total number of nodes (inputs + compute).
    pub fn num_nodes(&self) -> usize {
        self.num_inputs + self.biases.len()
    }

    /// Total number of enabled connections (MACs per inference).
    pub fn num_connections(&self) -> usize {
        self.edges.len()
    }

    /// Size of the value buffer (inputs + compute nodes).
    pub fn value_buffer_slots(&self) -> usize {
        self.num_inputs + self.biases.len()
    }

    /// Compute levels as `(start, end)` compute-node index ranges, in
    /// level order (the input level is implicit).
    pub fn levels(&self) -> &[(u32, u32)] {
        &self.levels
    }

    /// Number of compute levels (levels excluding the input level).
    pub fn num_compute_levels(&self) -> usize {
        self.levels.len()
    }

    /// Ingress edges of compute node `i` as `(value_slot, weight)`
    /// pairs, in the deterministic `(slot, weight)` sort order.
    pub fn node_edges(&self, i: usize) -> &[(u32, f64)] {
        let (offset, len) = self.edge_ranges[i];
        &self.edges[offset as usize..(offset + len) as usize]
    }

    /// Bias of compute node `i`.
    pub fn bias(&self, i: usize) -> f64 {
        self.biases[i]
    }

    /// Activation function of compute node `i`.
    pub fn activation(&self, i: usize) -> Activation {
        self.activations[i]
    }

    /// Compute-node indices of the output nodes, in genome id order.
    pub fn outputs(&self) -> &[u32] {
        &self.outputs
    }

    /// Nodes per compute level, the statistic of Fig. 4(f) and the
    /// quantity that bounds useful PE parallelism.
    pub fn level_widths(&self) -> Vec<usize> {
        self.levels
            .iter()
            .map(|&(start, end)| (end - start) as usize)
            .collect()
    }

    /// In-degree ("degree of node") for each compute node, the
    /// statistic of Fig. 4(e). Variable in-degree is what makes PE
    /// execution time variable in INAX.
    pub(crate) fn in_degrees(&self) -> Vec<usize> {
        self.edge_ranges
            .iter()
            .map(|&(_, len)| len as usize)
            .collect()
    }

    /// The paper's density metric: enabled connections divided by the
    /// connections of the *dense MLP counterpart* — a layered MLP with
    /// the same per-level widths and full adjacent-level connectivity.
    /// Irregular nets with long skip connections can exceed 1.0
    /// (Fig. 4(c)).
    pub(crate) fn density(&self) -> f64 {
        let widths: Vec<usize> = std::iter::once(self.num_inputs)
            .chain(self.level_widths())
            .collect();
        let dense: usize = widths.windows(2).map(|w| w[0] * w[1]).sum();
        if dense == 0 {
            return 0.0;
        }
        self.num_connections() as f64 / dense as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Genome, InnovationTracker};

    fn chain_genome() -> Genome {
        // 2 inputs -> hidden -> output, plus a skip connection 1 -> out.
        let mut tracker = InnovationTracker::with_reserved_nodes(3);
        let mut g = Genome::bare(2, 1);
        let innovation = g.add_connection(0, 2, 0.5, &mut tracker).unwrap();
        g.add_connection(1, 2, 0.25, &mut tracker).unwrap();
        let h = g
            .split_connection(innovation, Activation::Identity, &mut tracker)
            .unwrap();
        g.set_bias(h, 0.0).unwrap();
        g
    }

    #[test]
    fn compile_packs_level_major_csr() {
        let g = chain_genome();
        let plan = NetPlan::compile(&g).unwrap();
        assert_eq!(plan.num_inputs(), 2);
        assert_eq!(plan.num_outputs(), 1);
        assert_eq!(plan.num_compute_nodes(), 2); // hidden + output
        assert_eq!(plan.num_nodes(), 4);
        assert_eq!(plan.num_connections(), 3);
        assert_eq!(plan.value_buffer_slots(), 4);
        // hidden at level 1 (compute idx 0), output at level 2 (idx 1).
        assert_eq!(plan.levels(), &[(0, 1), (1, 2)]);
        assert_eq!(plan.num_compute_levels(), 2);
        assert_eq!(plan.level_widths(), vec![1, 1]);
        // Hidden reads input slot 0; output reads slots 1 (input) and
        // 2 (hidden), sorted by slot.
        assert_eq!(plan.node_edges(0), &[(0, 1.0)]);
        assert_eq!(plan.node_edges(1), &[(1, 0.25), (2, 0.5)]);
        assert_eq!(plan.outputs(), &[1]);
    }

    #[test]
    fn execute_matches_hand_computation() {
        let g = chain_genome();
        let plan = NetPlan::compile(&g).unwrap();
        let out = plan.execute(&[0.8, 0.4]);
        let expect = (0.5 * 0.8 + 0.25 * 0.4f64).tanh();
        assert!((out[0] - expect).abs() < 1e-12, "{} vs {expect}", out[0]);
    }

    #[test]
    fn execute_into_overwrites_every_slot() {
        let g = chain_genome();
        let plan = NetPlan::compile(&g).unwrap();
        let mut values = vec![f64::NAN; plan.value_buffer_slots()];
        let a = plan.execute_into(&[1.0, 2.0], &mut values);
        assert!(values.iter().all(|v| v.is_finite()));
        let b = plan.execute_into(&[1.0, 2.0], &mut values);
        assert_eq!(a, b, "buffer reuse must not corrupt results");
        assert_eq!(plan.read_outputs(&values), b);
    }

    #[test]
    #[should_panic(expected = "expected 2 inputs")]
    fn wrong_input_count_panics() {
        let g = chain_genome();
        let plan = NetPlan::compile(&g).unwrap();
        let _ = plan.execute(&[1.0]);
    }

    #[test]
    fn cyclic_genome_fails_compile() {
        let mut g = chain_genome();
        let mut tracker = InnovationTracker::with_reserved_nodes(4);
        // Self-loop on the output: only a recurrent executor could run
        // this, so the plan path must reject it.
        g.add_connection_unchecked(2, 2, 0.5, &mut tracker).unwrap();
        assert!(matches!(NetPlan::compile(&g), Err(DecodeError::Cycle(_))));
    }

    #[test]
    fn dangling_connection_is_reported() {
        let g = chain_genome();
        let json = serde_json::to_string(&g).unwrap();
        let hacked = json.replace("\"to\":2", "\"to\":99");
        let bad: Genome = serde_json::from_str(&hacked).unwrap();
        assert!(matches!(
            NetPlan::compile(&bad),
            Err(DecodeError::DanglingConnection { .. })
        ));
    }

    #[test]
    fn serde_round_trips() {
        let g = chain_genome();
        let plan = NetPlan::compile(&g).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: NetPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
