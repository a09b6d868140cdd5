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
//! `compile` also records whether every output is a `Tanh` *sink*, an
//! output no edge reads ([`NetPlan::leaves_sums`]). The kernel walks of
//! such a plan skip the output activations, so that a discrete action
//! can be decided from the sums ([`crate::tanh_argmax`]).
//!
//! # Value-buffer slot convention
//!
//! The plan is the single source of truth for the INAX value-buffer
//! layout: slot `i` holds input `i` for `i < num_inputs`, and the
//! activation of compute node `i - num_inputs` otherwise — except that
//! after a kernel walk ([`NetPlan::fill_lanes`], [`NetPlan::fill_pair`])
//! of a plan that [`NetPlan::leaves_sums`], each output slot holds the
//! output's sum ([`NetPlan::activate_outputs`] finishes them). Edge slots
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
    /// Per compute node: the activation the kernel walks apply —
    /// `activations`, but `Identity` at every output of a plan whose
    /// outputs are all `Tanh` nodes no edge reads.
    walked: Vec<Activation>,
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
    /// Every pass is linear in nodes plus connections — counting sorts
    /// over flat arrays, no per-node lists — and a compile allocates the
    /// same number of times whatever the genome's size: one scratch
    /// buffer and the plan's own arrays.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Cycle`] naming the lowest-id node that
    /// lies on or behind a cycle of enabled connections, or
    /// [`DecodeError::DanglingConnection`] naming the first enabled
    /// connection that references a missing node.
    pub fn compile(genome: &Genome) -> Result<Self, DecodeError> {
        #[cfg(debug_assertions)]
        COMPILES.with(|count| count.set(count.get() + 1));
        let genome_nodes = genome.nodes();
        let connections = genome.connections();
        let index_of = |id: NodeId| genome.position(id).map(|i| i as u32);

        // Scratch, all indexed by genome node index or connection index.
        let n = genome_nodes.len();
        assert!(
            n < u32::MAX as usize && connections.len() <= u32::MAX as usize,
            "genome too large for u32 slots"
        );
        let m = connections.iter().filter(|c| c.enabled).count();
        let mut scratch = vec![0u32; 6 * n + 2 + 2 * connections.len() + m];
        let (in_degree, rest) = scratch.split_at_mut(n);
        let (out_start, rest) = rest.split_at_mut(n + 1);
        let (level, rest) = rest.split_at_mut(n);
        let (order, rest) = rest.split_at_mut(n);
        let (new_index, rest) = rest.split_at_mut(n);
        let (cursor, rest) = rest.split_at_mut(n + 1);
        // Per connection, its endpoints' node indices (enabled ones).
        let (ends, out_edges) = rest.split_at_mut(2 * connections.len());

        // Adjacency over genome node indices using enabled connections:
        // degrees, then the out-edges (connection indices) grouped by
        // source in one counting sort. `Genome::check_new_edge` forbids
        // output sources, but a hand-built genome may have one.
        let mut output_read = false;
        for (k, c) in connections.iter().enumerate().filter(|(_, c)| c.enabled) {
            let (from, to) = match (index_of(c.from), index_of(c.to)) {
                (Some(f), Some(t)) => (f, t),
                _ => {
                    return Err(DecodeError::DanglingConnection {
                        from: c.from,
                        to: c.to,
                    })
                }
            };
            ends[2 * k] = from;
            ends[2 * k + 1] = to;
            output_read |= genome_nodes[from as usize].kind == NodeKind::Output;
            out_start[from as usize + 1] += 1;
            in_degree[to as usize] += 1;
        }
        for i in 0..n {
            out_start[i + 1] += out_start[i];
        }
        cursor.copy_from_slice(out_start);
        for (k, _) in connections.iter().enumerate().filter(|(_, c)| c.enabled) {
            let from = ends[2 * k] as usize;
            out_edges[cursor[from] as usize] = k as u32;
            cursor[from] += 1;
        }

        // Kahn topological sort, `order` doubling as the queue. Level =
        // longest path from any source, which no processing order
        // changes.
        let remaining = &mut cursor[..n];
        remaining.copy_from_slice(in_degree);
        let mut tail = 0;
        for (i, &degree) in in_degree.iter().enumerate() {
            if degree == 0 {
                order[tail] = i as u32;
                tail += 1;
            }
        }
        let mut head = 0;
        while head < tail {
            let i = order[head] as usize;
            head += 1;
            // Non-input sources (isolated hidden/outputs) sit at level 1+.
            if genome_nodes[i].kind != NodeKind::Input && in_degree[i] == 0 {
                level[i] = level[i].max(1);
            }
            for &k in &out_edges[out_start[i] as usize..out_start[i + 1] as usize] {
                let succ = ends[2 * k as usize + 1] as usize;
                level[succ] = level[succ].max(level[i] + 1);
                remaining[succ] -= 1;
                if remaining[succ] == 0 {
                    order[tail] = succ as u32;
                    tail += 1;
                }
            }
        }
        if tail != n {
            let stuck = (0..n).find(|&i| remaining[i] > 0).unwrap_or(0);
            return Err(DecodeError::Cycle(genome_nodes[stuck].id));
        }

        // Emit nodes sorted by (level, genome id) — a counting sort by
        // level over nodes in id order: indices increase monotonically
        // with level, so evaluation is a single sweep and node index ==
        // value-buffer slot. Level 0 is exactly the inputs (ids
        // 0..num_inputs), so input `i` lands in slot `i`. A level is at
        // most `n`, so `cursor` (all zero now) holds the starts.
        let level_start = cursor;
        let mut max_level = 0;
        for &l in level.iter() {
            level_start[l as usize] += 1;
            max_level = max_level.max(l);
        }
        let mut start = 0;
        for slot in level_start.iter_mut() {
            (*slot, start) = (start, start + *slot);
        }
        for i in 0..n {
            let at = &mut level_start[level[i] as usize];
            order[*at as usize] = i as u32;
            new_index[i] = *at;
            *at += 1;
        }

        let num_inputs = genome.num_inputs();
        debug_assert!(
            order
                .iter()
                .take(num_inputs)
                .all(|&i| genome_nodes[i as usize].kind == NodeKind::Input),
            "level 0 must hold exactly the input nodes"
        );
        let num_compute = n - num_inputs;
        // Each compute node's window of the edge arena, in emit order.
        let edge_at = level_start;
        let mut edge_ranges: Vec<(u32, u32)> = Vec::with_capacity(num_compute);
        let mut biases: Vec<f64> = Vec::with_capacity(num_compute);
        let mut activations: Vec<Activation> = Vec::with_capacity(num_compute);
        let mut levels: Vec<(u32, u32)> = Vec::with_capacity(max_level as usize);
        let mut offset = 0;
        let mut current_level = u32::MAX;
        for (compute_idx, &i) in order[num_inputs..].iter().enumerate() {
            let (i, compute_idx) = (i as usize, compute_idx as u32);
            let g = genome_nodes[i];
            edge_at[i] = offset;
            edge_ranges.push((offset, in_degree[i]));
            offset += in_degree[i];
            biases.push(g.bias);
            activations.push(g.activation);
            if level[i] != current_level {
                levels.push((compute_idx, compute_idx + 1));
                current_level = level[i];
            } else {
                levels.last_mut().expect("just pushed").1 = compute_idx + 1;
            }
        }

        // Scatter every edge into its target's window, sources in slot
        // order, so each window comes out sorted by slot. Sorted edge
        // order fixes the FP accumulation order — part of the
        // determinism contract, do not change; equal slots (only a
        // hand-edited genome repeats a pair) fall back to the weight.
        let mut edges: Vec<(u32, f64)> = vec![(0, 0.0); offset as usize];
        for (slot, &i) in order.iter().enumerate() {
            let i = i as usize;
            for &k in &out_edges[out_start[i] as usize..out_start[i + 1] as usize] {
                let to = ends[2 * k as usize + 1] as usize;
                if (new_index[to] as usize) < num_inputs {
                    continue;
                }
                edges[edge_at[to] as usize] = (slot as u32, connections[k as usize].weight);
                edge_at[to] += 1;
            }
        }
        for &(offset, len) in &edge_ranges {
            let window = &mut edges[offset as usize..(offset + len) as usize];
            if window.windows(2).any(|pair| pair[0].0 == pair[1].0) {
                window.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            }
        }
        let mut outputs = Vec::with_capacity(genome.num_outputs());
        outputs.extend(
            (0..n)
                .filter(|&i| genome_nodes[i].kind == NodeKind::Output)
                .map(|i| new_index[i] - num_inputs as u32),
        );
        let sums = !output_read
            && outputs
                .iter()
                .all(|&o| activations[o as usize] == Activation::Tanh);
        let mut walked = activations.clone();
        if sums {
            for &o in &outputs {
                walked[o as usize] = Activation::Identity;
            }
        }

        Ok(NetPlan {
            num_inputs,
            num_outputs: genome.num_outputs(),
            edges,
            edge_ranges,
            biases,
            activations,
            walked,
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

    /// The scalar forward pass: validates `inputs`, copies them into the
    /// input slots, runs [`NetPlan::fill_lanes`] one lane wide and
    /// finishes the outputs, so every slot holds its activation.
    fn fill(&self, inputs: &[f64], values: &mut [f64]) {
        assert_eq!(
            inputs.len(),
            self.num_inputs,
            "expected {} inputs, got {}",
            self.num_inputs,
            inputs.len()
        );
        values[..self.num_inputs].copy_from_slice(inputs);
        let rows = values.as_chunks_mut::<1>().0;
        self.fill_lanes(rows);
        self.activate_outputs(rows);
    }

    /// The forward-pass kernel, over `L` independent lanes: row `j` of
    /// `values` is value-buffer slot `j` of every lane. The first
    /// [`NetPlan::num_inputs`] rows hold the lanes' inputs; every other
    /// row is overwritten in level order. Each lane sees exactly the
    /// scalar operation sequence — bias first, then the sorted edges,
    /// then the activation, no fused multiply-add — so lane `l` is
    /// bit-identical to [`NetPlan::execute_into`] on lane `l`'s inputs,
    /// whatever the other lanes hold, except that a plan that
    /// [`NetPlan::leaves_sums`] leaves each output's sum in its row
    /// ([`NetPlan::activate_outputs`] applies what the walk skipped).
    /// The weights are read once per step for all lanes, and the lanes'
    /// chains overlap.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not have [`NetPlan::value_buffer_slots`]
    /// rows.
    pub fn fill_lanes<const L: usize>(&self, values: &mut [[f64; L]]) {
        self.check_rows(values);
        for node in self.nodes() {
            values[node.0] = node.3.apply_lanes(self.sum_node(node, values));
        }
    }

    /// Two one-lane forward passes, of two plans, walked together node
    /// by node: `a`'s compute node `i` and `b`'s node `i`, then the
    /// longer plan's tail. The two activation chains are independent,
    /// so the core overlaps them; where both nodes share an activation,
    /// one two-lane [`Activation`] call computes both. Each node sums
    /// as [`NetPlan::fill_lanes`] does and every lane runs the scalar
    /// activation, so `a_rows` and `b_rows` come out bit-identical to a
    /// `fill_lanes::<1>` walk of each plan alone (output sums included).
    ///
    /// # Panics
    ///
    /// Panics if either buffer does not have its plan's
    /// [`NetPlan::value_buffer_slots`] rows.
    pub fn fill_pair(a: &NetPlan, a_rows: &mut [[f64; 1]], b: &NetPlan, b_rows: &mut [[f64; 1]]) {
        a.check_rows(a_rows);
        b.check_rows(b_rows);
        for (a_node, b_node) in a.nodes().zip(b.nodes()) {
            let ([x], [y]) = (a.sum_node(a_node, a_rows), b.sum_node(b_node, b_rows));
            (a_rows[a_node.0], b_rows[b_node.0]) = if a_node.3 == b_node.3 {
                let [x, y] = a_node.3.apply_lanes([x, y]);
                ([x], [y])
            } else {
                (a_node.3.apply_lanes([x]), b_node.3.apply_lanes([y]))
            };
        }
        let shared = a.num_compute_nodes().min(b.num_compute_nodes());
        a.fill_tail(shared, a_rows);
        b.fill_tail(shared, b_rows);
    }

    /// The one-lane walk of compute nodes `from..`.
    fn fill_tail(&self, from: usize, values: &mut [[f64; 1]]) {
        for node in self.nodes().skip(from) {
            values[node.0] = node.3.apply_lanes(self.sum_node(node, values));
        }
    }

    /// Whether every output is a `Tanh` node that no edge reads, so the
    /// kernel walks leave each output's sum in its slot rather than its
    /// activation. Recorded once by [`NetPlan::compile`].
    pub fn leaves_sums(&self) -> bool {
        // `walked` differs from `activations` exactly at the outputs of
        // such a plan.
        let differs = |&o: &u32| self.walked[o as usize] != self.activations[o as usize];
        self.outputs.first().is_some_and(differs)
    }

    /// Applies the output activations a kernel walk of a plan that
    /// [`NetPlan::leaves_sums`] skipped, to every lane of `values`; for
    /// any other plan, nothing. Afterwards the rows hold what
    /// [`NetPlan::execute_into`] leaves in its value buffer, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not have [`NetPlan::value_buffer_slots`]
    /// rows.
    pub fn activate_outputs<const L: usize>(&self, values: &mut [[f64; L]]) {
        self.check_rows(values);
        if self.leaves_sums() {
            for &o in &self.outputs {
                let row = &mut values[self.num_inputs + o as usize];
                *row = Activation::Tanh.apply_lanes(*row);
            }
        }
    }

    fn check_rows<const L: usize>(&self, values: &[[f64; L]]) {
        assert_eq!(
            values.len(),
            self.value_buffer_slots(),
            "value buffer size mismatch"
        );
    }

    /// Per compute node in walk order: its slot, edge window, bias and
    /// the activation the walk applies.
    fn nodes(&self) -> impl Iterator<Item = (usize, (u32, u32), f64, Activation)> + '_ {
        let params = self.edge_ranges.iter().zip(&self.biases).zip(&self.walked);
        params
            .enumerate()
            .map(|(i, ((&edges, &bias), &activation))| {
                (self.num_inputs + i, edges, bias, activation)
            })
    }

    /// The sum every walk feeds compute node `slot - num_inputs`'s
    /// activation — bias first, then the sorted edges in order, no fused
    /// multiply-add: the exact FP accumulation order of the legacy
    /// per-node executor.
    #[inline(always)]
    fn sum_node<const L: usize>(
        &self,
        (slot, (offset, len), bias, _): (usize, (u32, u32), f64, Activation),
        values: &[[f64; L]],
    ) -> [f64; L] {
        let mut acc = [bias; L];
        for &(source, weight) in &self.edges[offset as usize..(offset + len) as usize] {
            debug_assert!((source as usize) < slot, "forward-only slots");
            let value = values[source as usize];
            for (acc, value) in acc.iter_mut().zip(value) {
                *acc += value * weight;
            }
        }
        acc
    }

    /// A word-wise hash of every field, weights and biases by their
    /// bits: what a plan cache files the plan under. Plans that are
    /// [`NetPlan::same_bits`] have one key; a key alone proves nothing.
    pub fn key(&self) -> u64 {
        let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        self.words().fold(0, mix)
    }

    /// Whether `self` and `other` agree in every field bit for bit — a
    /// weight of −0.0 is not one of +0.0, and a NaN matches its own
    /// bits — so either computes exactly what the other does.
    pub fn same_bits(&self, other: &NetPlan) -> bool {
        self.words().eq(other.words())
    }

    /// Every field `compile` reads off the genome as a stream of words,
    /// lengths first; `walked` follows from them.
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        let lengths = [
            self.num_inputs,
            self.num_outputs,
            self.edges.len(),
            self.biases.len(),
            self.levels.len(),
            self.outputs.len(),
        ];
        let pair = |(a, b): (u32, u32)| (u64::from(a) << 32) | u64::from(b);
        lengths
            .into_iter()
            .map(|n| n as u64)
            .chain(
                self.edges
                    .iter()
                    .flat_map(|&(s, w)| [s.into(), w.to_bits()]),
            )
            .chain(self.edge_ranges.iter().copied().map(pair))
            .chain(self.biases.iter().map(|b| b.to_bits()))
            .chain(self.activations.iter().map(|&a| a as u64))
            .chain(self.levels.iter().copied().map(pair))
            .chain(self.outputs.iter().map(|&o| u64::from(o)))
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
