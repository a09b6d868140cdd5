//! Genome representation and genetic operators.
//!
//! A [`Genome`] is the NEAT encoding of one irregular neural network:
//! a set of [`NodeGene`]s (bias + activation per node) and a set of
//! [`ConnectionGene`]s (weighted directed edges tagged with innovation
//! numbers). The genome graph is kept **acyclic** at all times so every
//! genome decodes to a feed-forward [`crate::Network`].

use self::rand_distr_normal::sample_normal;
use crate::activation::Activation;
use crate::config::NeatConfig;
use crate::error::GenomeError;
use crate::innovation::{Innovation, InnovationTracker};
use crate::network::Network;
use crate::DecodeError;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::hint::select_unpredictable;

/// Identifier of a node gene within a genome.
///
/// Input nodes occupy `0..num_inputs`, output nodes
/// `num_inputs..num_inputs + num_outputs`, and hidden nodes use ids
/// allocated by the [`InnovationTracker`].
pub(crate) type NodeId = usize;

/// The role of a node within the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// Sensor node fed by the environment observation; has no bias,
    /// activation or incoming connections.
    Input,
    /// Evolved intermediate node.
    Hidden,
    /// Action node whose activation is read out as the network output.
    Output,
}

/// A node gene: one neuron of the encoded network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeGene {
    /// Stable node identifier (aligned across genomes by the tracker).
    pub id: NodeId,
    /// Role of the node.
    pub kind: NodeKind,
    /// Additive bias applied before activation (ignored for inputs).
    pub bias: f64,
    /// Activation function (ignored for inputs).
    pub activation: Activation,
}

/// A connection gene: one weighted edge of the encoded network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConnectionGene {
    /// Historical marking used to align genes during crossover.
    pub innovation: Innovation,
    /// Source node id.
    pub from: NodeId,
    /// Target node id.
    pub to: NodeId,
    /// Connection weight.
    pub weight: f64,
    /// Disabled genes are retained in the genome (they may re-enable or
    /// be inherited) but do not take part in inference.
    pub enabled: bool,
}

/// Minimal inline normal sampler so the crate only needs `rand` core
/// (Box–Muller on two uniform draws).
mod rand_distr_normal {
    use rand::Rng;

    pub(crate) fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        mean + sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// The NEAT encoding of one irregular feed-forward neural network.
///
/// Invariants (maintained by every public operation):
///
/// * node ids are unique; inputs and outputs are always present;
/// * connection `(from, to)` pairs are unique;
/// * connections never target input nodes nor originate from output
///   nodes' *missing* sources (outputs may feed nothing — the paper's
///   networks are pure feed-forward, so outputs are sinks);
/// * the connection graph (enabled **and** disabled genes) is acyclic;
/// * `connections` is sorted by innovation number.
///
/// # Example
///
/// ```
/// use e3_neat::{Genome, InnovationTracker, NeatConfig};
/// use rand::SeedableRng;
///
/// let config = NeatConfig::new(3, 2);
/// let mut tracker = InnovationTracker::with_reserved_nodes(5);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let genome = Genome::initial(&config, &mut tracker, &mut rng);
/// assert_eq!(genome.num_inputs(), 3);
/// let mut net = genome.decode()?;
/// assert_eq!(net.activate(&[0.1, 0.2, 0.3]).len(), 2);
/// # Ok::<(), e3_neat::DecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Genome {
    num_inputs: usize,
    num_outputs: usize,
    nodes: Vec<NodeGene>,
    connections: Vec<ConnectionGene>,
}

impl Genome {
    /// Builds a generation-0 genome per the configuration: fixed input
    /// and output nodes, `initial_hidden_nodes` hidden nodes, and
    /// feed-forward connections sampled with probability
    /// `initial_connection_density`.
    ///
    /// Every output node is guaranteed at least one incoming
    /// connection so the genome is functional from the start.
    pub fn initial<R: Rng + ?Sized>(
        config: &NeatConfig,
        tracker: &mut InnovationTracker,
        rng: &mut R,
    ) -> Self {
        let mut nodes = Vec::with_capacity(
            config.num_inputs + config.num_outputs + config.initial_hidden_nodes,
        );
        for id in 0..config.num_inputs {
            nodes.push(NodeGene {
                id,
                kind: NodeKind::Input,
                bias: 0.0,
                activation: Activation::Identity,
            });
        }
        for i in 0..config.num_outputs {
            nodes.push(NodeGene {
                id: config.num_inputs + i,
                kind: NodeKind::Output,
                bias: sample_normal(rng, 0.0, config.bias_perturb_sigma),
                activation: config.output_activation,
            });
        }
        let mut hidden_ids = Vec::with_capacity(config.initial_hidden_nodes);
        for _ in 0..config.initial_hidden_nodes {
            let id = tracker.fresh_node_id();
            hidden_ids.push(id);
            nodes.push(NodeGene {
                id,
                kind: NodeKind::Hidden,
                bias: sample_normal(rng, 0.0, config.bias_perturb_sigma),
                activation: *config
                    .activation_options
                    .choose(rng)
                    .expect("config validated non-empty"),
            });
        }

        let mut genome = Genome {
            num_inputs: config.num_inputs,
            num_outputs: config.num_outputs,
            nodes,
            connections: Vec::new(),
        };
        let mut reach = Reach::empty(genome.nodes.len());

        let inputs: Vec<NodeId> = (0..config.num_inputs).collect();
        let outputs: Vec<NodeId> =
            (config.num_inputs..config.num_inputs + config.num_outputs).collect();

        // Candidate feed-forward pairs: input->hidden, hidden->output,
        // input->output (hidden->hidden skipped at init; evolution adds
        // them through structural mutation).
        let mut candidates: Vec<(NodeId, NodeId)> = Vec::new();
        for &i in &inputs {
            for &h in &hidden_ids {
                candidates.push((i, h));
            }
            for &o in &outputs {
                candidates.push((i, o));
            }
        }
        for &h in &hidden_ids {
            for &o in &outputs {
                candidates.push((h, o));
            }
        }
        for (from, to) in candidates {
            if rng.gen_bool(config.initial_connection_density) {
                let weight = sample_normal(rng, 0.0, 1.0)
                    .clamp(-config.weight_max_abs, config.weight_max_abs);
                let innovation = tracker.connection_innovation(from, to);
                genome
                    .insert_connection(
                        &mut reach,
                        ConnectionGene {
                            innovation,
                            from,
                            to,
                            weight,
                            enabled: true,
                        },
                    )
                    .expect("initial candidates are unique and acyclic");
            }
        }
        // Guarantee every output is reachable.
        for &o in &outputs {
            if !genome.connections.iter().any(|c| c.to == o) {
                let from = if hidden_ids.is_empty() {
                    inputs[rng.gen_range(0..inputs.len())]
                } else {
                    hidden_ids[rng.gen_range(0..hidden_ids.len())]
                };
                let innovation = tracker.connection_innovation(from, o);
                let weight = sample_normal(rng, 0.0, 1.0);
                genome
                    .insert_connection(
                        &mut reach,
                        ConnectionGene {
                            innovation,
                            from,
                            to: o,
                            weight,
                            enabled: true,
                        },
                    )
                    .expect("output had no incoming edge, so this one is new and acyclic");
            }
        }
        // Guarantee every hidden node feeds something so init genomes
        // have no dead compute.
        for &h in &hidden_ids {
            if !genome.connections.iter().any(|c| c.from == h) {
                let o = outputs[rng.gen_range(0..outputs.len())];
                if genome.connection_between(h, o).is_none() {
                    let innovation = tracker.connection_innovation(h, o);
                    let weight = sample_normal(rng, 0.0, 1.0);
                    genome
                        .insert_connection(
                            &mut reach,
                            ConnectionGene {
                                innovation,
                                from: h,
                                to: o,
                                weight,
                                enabled: true,
                            },
                        )
                        .expect("hidden->output is acyclic");
                }
            }
        }
        genome
    }

    /// Builds an empty genome containing only the fixed input/output
    /// nodes (no hidden nodes, no connections). Useful for constructing
    /// networks explicitly in tests and tools.
    pub fn bare(num_inputs: usize, num_outputs: usize) -> Self {
        Genome::bare_with_room(num_inputs, num_outputs, 0)
    }

    /// [`Genome::bare`] with room for `hidden` more node genes.
    fn bare_with_room(num_inputs: usize, num_outputs: usize, hidden: usize) -> Self {
        assert!(
            num_inputs > 0 && num_outputs > 0,
            "need at least one input and output"
        );
        let mut nodes = Vec::with_capacity(num_inputs + num_outputs + hidden);
        for id in 0..num_inputs {
            nodes.push(NodeGene {
                id,
                kind: NodeKind::Input,
                bias: 0.0,
                activation: Activation::Identity,
            });
        }
        for i in 0..num_outputs {
            nodes.push(NodeGene {
                id: num_inputs + i,
                kind: NodeKind::Output,
                bias: 0.0,
                activation: Activation::Tanh,
            });
        }
        Genome {
            num_inputs,
            num_outputs,
            nodes,
            connections: Vec::new(),
        }
    }

    /// Number of input nodes.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output nodes.
    pub(crate) fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// All node genes, ordered by id.
    pub fn nodes(&self) -> &[NodeGene] {
        &self.nodes
    }

    /// All connection genes, ordered by innovation number.
    pub fn connections(&self) -> &[ConnectionGene] {
        &self.connections
    }

    /// Number of hidden nodes.
    pub fn num_hidden(&self) -> usize {
        self.nodes.len() - self.num_inputs - self.num_outputs
    }

    /// Number of enabled connections (the paper's "# of connections").
    pub fn num_enabled_connections(&self) -> usize {
        self.connections.iter().filter(|c| c.enabled).count()
    }

    /// Looks up a node gene by id.
    pub fn node(&self, id: NodeId) -> Option<&NodeGene> {
        self.position(id).map(|i| &self.nodes[i])
    }

    /// Index of node `id` in [`Genome::nodes`]. Inputs and outputs
    /// hold ids `0..num_inputs + num_outputs` at the same indices, so
    /// only a hidden node costs a search.
    pub(crate) fn position(&self, id: NodeId) -> Option<usize> {
        match self.nodes.get(id) {
            Some(node) if node.id == id => Some(id),
            _ => self.nodes.binary_search_by_key(&id, |n| n.id).ok(),
        }
    }

    /// Looks up the connection gene between two nodes, if present.
    pub fn connection_between(&self, from: NodeId, to: NodeId) -> Option<&ConnectionGene> {
        self.connections
            .iter()
            .find(|c| c.from == from && c.to == to)
    }

    /// Adds an explicit connection gene.
    ///
    /// # Errors
    ///
    /// Returns `GenomeError` if either endpoint is unknown, the target
    /// is an input node, the pair already exists, or the edge would
    /// create a cycle.
    pub fn add_connection(
        &mut self,
        from: NodeId,
        to: NodeId,
        weight: f64,
        tracker: &mut InnovationTracker,
    ) -> Result<Innovation, GenomeError> {
        let mut reach = Reach::of(self);
        self.check_new_edge(&mut reach, from, to)?;
        let innovation = tracker.connection_innovation(from, to);
        self.insert_connection(
            &mut reach,
            ConnectionGene {
                innovation,
                from,
                to,
                weight,
                enabled: true,
            },
        )?;
        Ok(innovation)
    }

    /// Adds a connection **without the feed-forward (acyclicity)
    /// restriction** — recurrent links, self-loops, and output-sourced
    /// edges are allowed. Duplicate pairs and input targets are still
    /// rejected. [`Genome::decode`] reports a cyclic link as
    /// [`crate::DecodeError::Cycle`]; the platform evaluates feed-forward
    /// genomes only, so this exists to build the cyclic genomes its
    /// typed-error tests feed it.
    ///
    /// # Errors
    ///
    /// Returns `GenomeError` if an endpoint is unknown, the target is
    /// an input node, or the pair already exists.
    pub fn add_connection_unchecked(
        &mut self,
        from: NodeId,
        to: NodeId,
        weight: f64,
        tracker: &mut InnovationTracker,
    ) -> Result<Innovation, GenomeError> {
        self.node(from).ok_or(GenomeError::UnknownNode(from))?;
        let to_node = self.node(to).ok_or(GenomeError::UnknownNode(to))?;
        if to_node.kind == NodeKind::Input {
            return Err(GenomeError::TargetIsInput(to));
        }
        if self.connection_between(from, to).is_some() {
            return Err(GenomeError::DuplicateConnection { from, to });
        }
        let innovation = tracker.connection_innovation(from, to);
        let at = self
            .connections
            .partition_point(|c| c.innovation < innovation);
        self.connections.insert(
            at,
            ConnectionGene {
                innovation,
                from,
                to,
                weight,
                enabled: true,
            },
        );
        Ok(innovation)
    }

    /// Splits an existing enabled connection with a new hidden node:
    /// the old gene is disabled and replaced by `from -> new` (weight 1)
    /// and `new -> to` (old weight), per the NEAT paper.
    ///
    /// # Errors
    ///
    /// Returns `GenomeError::UnknownNode` if no enabled connection
    /// with the given innovation exists.
    pub fn split_connection(
        &mut self,
        innovation: Innovation,
        activation: Activation,
        tracker: &mut InnovationTracker,
    ) -> Result<NodeId, GenomeError> {
        let idx = self
            .connections
            .iter()
            .position(|c| c.innovation == innovation && c.enabled)
            .ok_or(GenomeError::UnknownNode(innovation.0 as usize))?;
        self.split_at(idx, activation, tracker)
    }

    /// [`Genome::split_connection`] on the enabled gene at `idx`.
    fn split_at(
        &mut self,
        idx: usize,
        activation: Activation,
        tracker: &mut InnovationTracker,
    ) -> Result<NodeId, GenomeError> {
        let (from, to, weight) = (
            self.connections[idx].from,
            self.connections[idx].to,
            self.connections[idx].weight,
        );
        let (node_id, in_innovation, out_innovation) = tracker.split_innovation(from, to);
        if self.node(node_id).is_some() {
            // Another genome already split this edge this generation and
            // we inherited the node; do not split again.
            return Err(GenomeError::DuplicateConnection { from, to });
        }
        self.connections[idx].enabled = false;
        let insert_at = self.nodes.partition_point(|n| n.id < node_id);
        self.nodes.insert(
            insert_at,
            NodeGene {
                id: node_id,
                kind: NodeKind::Hidden,
                bias: 0.0,
                activation,
            },
        );
        let mut reach = Reach::of(self);
        self.insert_connection(
            &mut reach,
            ConnectionGene {
                innovation: in_innovation,
                from,
                to: node_id,
                weight: 1.0,
                enabled: true,
            },
        )
        .expect("fresh node cannot collide");
        self.insert_connection(
            &mut reach,
            ConnectionGene {
                innovation: out_innovation,
                from: node_id,
                to,
                weight,
                enabled: true,
            },
        )
        .expect("fresh node cannot collide");
        Ok(node_id)
    }

    /// Applies the full mutation suite with the configured rates:
    /// weight/bias/activation perturbation, enable toggling, and the
    /// structural add-connection / add-node mutations.
    pub fn mutate<R: Rng + ?Sized>(
        &mut self,
        config: &NeatConfig,
        tracker: &mut InnovationTracker,
        rng: &mut R,
    ) {
        // Weight mutation.
        for i in 0..self.connections.len() {
            if rng.gen_bool(config.weight_mutate_rate) {
                let w = &mut self.connections[i].weight;
                if rng.gen_bool(config.weight_replace_rate) {
                    *w = sample_normal(rng, 0.0, 1.0);
                } else {
                    *w += sample_normal(rng, 0.0, config.weight_perturb_sigma);
                }
                *w = w.clamp(-config.weight_max_abs, config.weight_max_abs);
            }
        }
        // Bias and activation mutation.
        for i in 0..self.nodes.len() {
            if self.nodes[i].kind == NodeKind::Input {
                continue;
            }
            if rng.gen_bool(config.bias_mutate_rate) {
                let b = &mut self.nodes[i].bias;
                *b = (*b + sample_normal(rng, 0.0, config.bias_perturb_sigma))
                    .clamp(-config.weight_max_abs, config.weight_max_abs);
            }
            if self.nodes[i].kind == NodeKind::Hidden && rng.gen_bool(config.activation_mutate_rate)
            {
                self.nodes[i].activation = *config
                    .activation_options
                    .choose(rng)
                    .expect("config validated non-empty");
            }
        }
        // Toggle enable.
        if !self.connections.is_empty() && rng.gen_bool(config.toggle_enable_rate) {
            let i = rng.gen_range(0..self.connections.len());
            if self.connections[i].enabled {
                // Never disable the last enabled connection.
                if self.num_enabled_connections() > 1 {
                    self.connections[i].enabled = false;
                }
            } else {
                self.connections[i].enabled = true;
            }
        }
        // Structural: add connection.
        if rng.gen_bool(config.add_connection_rate) {
            self.mutate_add_connection(config, tracker, rng);
        }
        // Structural: add node.
        if rng.gen_bool(config.add_node_rate) {
            self.mutate_add_node(config, tracker, rng);
        }
        // Structural: explicit pruning.
        if rng.gen_bool(config.delete_connection_rate) {
            self.mutate_delete_connection(rng);
        }
        if rng.gen_bool(config.delete_node_rate) {
            self.mutate_delete_node(rng);
        }
    }

    /// Removes a random connection gene (never the last enabled one).
    pub(crate) fn mutate_delete_connection<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.connections.len() < 2 {
            return;
        }
        let idx = rng.gen_range(0..self.connections.len());
        if self.connections[idx].enabled && self.num_enabled_connections() <= 1 {
            return;
        }
        self.connections.remove(idx);
    }

    /// Removes a random hidden node and every connection touching it.
    /// Skipped when no hidden node exists or when the removal would
    /// leave the genome without an enabled connection.
    pub(crate) fn mutate_delete_node<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let hidden = || self.nodes.iter().filter(|n| n.kind == NodeKind::Hidden);
        let count = hidden().count();
        if count == 0 {
            return;
        }
        let victim = hidden()
            .nth(rng.gen_range(0..count))
            .expect("drawn below the count")
            .id;
        let surviving_enabled = self
            .connections
            .iter()
            .filter(|c| c.enabled && c.from != victim && c.to != victim)
            .count();
        if surviving_enabled == 0 {
            return;
        }
        self.connections
            .retain(|c| c.from != victim && c.to != victim);
        self.nodes.retain(|n| n.id != victim);
    }

    /// Attempts the add-connection structural mutation; silently gives
    /// up if no valid pair is found after a bounded number of tries.
    pub fn mutate_add_connection<R: Rng + ?Sized>(
        &mut self,
        config: &NeatConfig,
        tracker: &mut InnovationTracker,
        rng: &mut R,
    ) {
        let mut reach = Reach::of(self);
        for _ in 0..20 {
            let from = self.nodes[rng.gen_range(0..self.nodes.len())];
            let to = self.nodes[rng.gen_range(0..self.nodes.len())];
            if self.check_new_edge(&mut reach, from.id, to.id).is_err() {
                continue;
            }
            let weight =
                sample_normal(rng, 0.0, 1.0).clamp(-config.weight_max_abs, config.weight_max_abs);
            let innovation = tracker.connection_innovation(from.id, to.id);
            let _ = self.insert_connection(
                &mut reach,
                ConnectionGene {
                    innovation,
                    from: from.id,
                    to: to.id,
                    weight,
                    enabled: true,
                },
            );
            return;
        }
    }

    /// Attempts the add-node structural mutation on a random enabled
    /// connection.
    pub fn mutate_add_node<R: Rng + ?Sized>(
        &mut self,
        config: &NeatConfig,
        tracker: &mut InnovationTracker,
        rng: &mut R,
    ) {
        let enabled = self.num_enabled_connections();
        if enabled == 0 {
            return;
        }
        let nth = rng.gen_range(0..enabled);
        let activation = *config
            .activation_options
            .choose(rng)
            .expect("config validated non-empty");
        let idx = (0..self.connections.len())
            .filter(|&i| self.connections[i].enabled)
            .nth(nth)
            .expect("drawn below the count");
        let _ = self.split_at(idx, activation, tracker);
    }

    /// NEAT crossover: aligns connection genes by innovation number.
    /// Matching genes are inherited from a random parent; disjoint and
    /// excess genes come from the fitter parent (`self`). When
    /// `equal_fitness` is set, disjoint/excess genes are inherited from
    /// both parents.
    ///
    /// A gene disabled in either parent is disabled in the child with
    /// probability `config.disable_in_child_rate` (unless that would
    /// leave the child without enabled connections).
    pub fn crossover<R: Rng + ?Sized>(
        &self,
        other: &Genome,
        equal_fitness: bool,
        config: &NeatConfig,
        rng: &mut R,
    ) -> Genome {
        debug_assert_eq!(self.num_inputs, other.num_inputs);
        debug_assert_eq!(self.num_outputs, other.num_outputs);
        let (a, b) = (&self.connections, &other.connections);
        let mut genes = Vec::with_capacity(a.len() + if equal_fitness { b.len() } else { 0 });
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (&a[i], &b[j]);
            if x.innovation == y.innovation {
                // Either parent's gene with even odds: a coin no branch
                // predictor can learn, so select without a branch.
                let mut gene = *select_unpredictable(rng.gen_bool(0.5), x, y);
                if !x.enabled || !y.enabled {
                    if gene.enabled {
                        gene.enabled = !rng.gen_bool(config.disable_in_child_rate);
                    } else if !rng.gen_bool(config.disable_in_child_rate) {
                        gene.enabled = true;
                    }
                }
                genes.push(gene);
                i += 1;
                j += 1;
            } else if x.innovation < y.innovation {
                genes.push(*x); // disjoint in fitter parent: keep
                i += 1;
            } else {
                if equal_fitness {
                    genes.push(*y); // disjoint in weaker parent: only on a tie
                }
                j += 1;
            }
        }
        // Excess genes: the fitter parent's, and the other's on a tie.
        genes.extend_from_slice(&a[i..]);
        if equal_fitness {
            genes.extend_from_slice(&b[j..]);
        }

        // Node genes: fixed inputs/outputs plus every hidden node that a
        // child connection references, inheriting parameters from a
        // random parent that has the node.
        let io = self.num_inputs + self.num_outputs;
        let mut needed: Vec<NodeId> = Vec::with_capacity(2 * genes.len());
        needed.extend(
            genes
                .iter()
                .flat_map(|c| [c.from, c.to])
                .filter(|&id| id >= io),
        );
        needed.sort_unstable();
        needed.dedup();
        let mut donor = |id| match (self.node(id), other.node(id)) {
            (Some(a), Some(b)) => Some(*select_unpredictable(rng.gen_bool(0.5), a, b)),
            (a, b) => a.or(b).copied(),
        };
        let mut child = Genome::bare_with_room(self.num_inputs, self.num_outputs, needed.len());
        // Output parameters come from a random parent per node.
        for node in &mut child.nodes {
            if let Some(donor) = donor(node.id) {
                *node = donor;
            }
        }
        // Ascending ids, all above the fixed nodes': the order holds.
        for id in needed {
            let donor = donor(id).expect("child connections only reference parental nodes");
            child.nodes.push(donor);
        }
        // Keep the genes in innovation order, dropping any the child
        // cannot take: a duplicate pair or a cycle, possible when an
        // equal-fitness merge joins both parents' structures or when
        // genes matched by innovation join different nodes.
        let mut reach = Reach::empty(child.nodes.len());
        genes.retain(|gene| {
            child
                .check_new_edge(&mut reach, gene.from, gene.to)
                .map(|(from, to)| reach.link(from, to))
                .is_ok()
        });
        child.connections = genes;
        if child.num_enabled_connections() == 0 {
            if let Some(first) = child.connections.first_mut() {
                first.enabled = true;
            }
        }
        child
    }

    /// NEAT compatibility distance
    /// `δ = c1·E/N + c2·D/N + c3·W̄` where `E` and `D` are the excess and
    /// disjoint gene counts, `N` the larger genome's connection count
    /// (1 for small genomes, per the NEAT paper), and `W̄` the mean
    /// absolute weight difference of matching genes.
    pub fn compatibility_distance(&self, other: &Genome, config: &NeatConfig) -> f64 {
        self.distance(other, config, None)
    }

    /// Speciation's test: whether `other` lies closer than
    /// `config.compatibility_threshold`, decided exactly as
    /// `compatibility_distance(other, config) < threshold` would be.
    ///
    /// With no negative coefficient, the excess and disjoint terms of
    /// the genes scanned so far bound the distance from below (FP `×`,
    /// `+` and `÷` by a positive number are monotone, and the weight term
    /// is not negative), so the scan stops once they alone reach the
    /// threshold.
    pub(crate) fn is_compatible(&self, other: &Genome, config: &NeatConfig) -> bool {
        let threshold = config.compatibility_threshold;
        let monotone = [
            config.excess_coefficient,
            config.disjoint_coefficient,
            config.weight_coefficient,
        ]
        .iter()
        .all(|&c| c >= 0.0);
        self.distance(other, config, monotone.then_some(threshold)) < threshold
    }

    /// The one merge behind [`Genome::compatibility_distance`]. Given a
    /// `stop_at`, returns early — a lower bound of the distance that is
    /// at least `stop_at` — as soon as the excess and disjoint terms
    /// reach it; the caller vouches that every coefficient is
    /// non-negative.
    fn distance(&self, other: &Genome, config: &NeatConfig, stop_at: Option<f64>) -> f64 {
        let (a, b) = (&self.connections, &other.connections);
        let n = a.len().max(b.len()).max(1) as f64;
        let n = if n < 20.0 { 1.0 } else { n };
        let structural = |excess: usize, disjoint: usize| {
            config.excess_coefficient * excess as f64 / n
                + config.disjoint_coefficient * disjoint as f64 / n
        };
        // Whether the excess and disjoint genes counted so far already
        // put the distance at `stop_at` or beyond.
        let beyond =
            |excess, disjoint| stop_at.is_some_and(|at| structural(excess, disjoint) >= at);
        let (mut matching, mut disjoint, mut excess) = (0usize, 0usize, 0usize);
        let mut weight_diff = 0.0f64;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (&a[i], &b[j]);
            if x.innovation == y.innovation {
                matching += 1;
                weight_diff += (x.weight - y.weight).abs();
                i += 1;
                j += 1;
                continue;
            }
            if x.innovation < y.innovation {
                i += 1;
            } else {
                j += 1;
            }
            disjoint += 1;
            if beyond(excess, disjoint) {
                return structural(excess, disjoint);
            }
        }
        // One list is spent; the other's remaining genes are excess past
        // the spent one's last innovation.
        let max_a = a.last().map(|c| c.innovation);
        let max_b = b.last().map(|c| c.innovation);
        let tails = a[i..]
            .iter()
            .map(|c| (c, max_b))
            .chain(b[j..].iter().map(|c| (c, max_a)));
        for (c, max_other) in tails {
            if max_other.is_none_or(|m| c.innovation > m) {
                excess += 1;
            } else {
                disjoint += 1;
            }
            if beyond(excess, disjoint) {
                return structural(excess, disjoint);
            }
        }
        let mean_weight_diff = if matching > 0 {
            weight_diff / matching as f64
        } else {
            0.0
        };
        structural(excess, disjoint) + config.weight_coefficient * mean_weight_diff
    }

    /// Decodes the genome into an inference-ready [`Network`]
    /// (the paper's "CreateNet" step).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the enabled connections are cyclic or
    /// reference missing nodes (neither can occur for genomes produced
    /// through this crate's operations).
    pub fn decode(&self) -> Result<Network, DecodeError> {
        Network::from_genome(self)
    }

    /// Checks a new gene `from -> to` against the genome, whose
    /// connection genes `reach` holds: both nodes exist, the target is
    /// not an input, the source not an output, the pair is new, and the
    /// gene closes no directed cycle over the genes, enabled or not.
    /// Returns the endpoints' node indices.
    fn check_new_edge(
        &self,
        reach: &mut Reach,
        from: NodeId,
        to: NodeId,
    ) -> Result<(usize, usize), GenomeError> {
        let from_index = self.position(from).ok_or(GenomeError::UnknownNode(from))?;
        let to_index = self.position(to).ok_or(GenomeError::UnknownNode(to))?;
        if self.nodes[to_index].kind == NodeKind::Input {
            return Err(GenomeError::TargetIsInput(to));
        }
        if self.nodes[from_index].kind == NodeKind::Output {
            // Outputs are sinks in feed-forward NEAT.
            return Err(GenomeError::WouldCycle { from, to });
        }
        if reach.linked(from_index, to_index) {
            return Err(GenomeError::DuplicateConnection { from, to });
        }
        if from_index == to_index || reach.reaches(to_index, from_index) {
            return Err(GenomeError::WouldCycle { from, to });
        }
        Ok((from_index, to_index))
    }

    /// Inserts a connection gene preserving invariants and innovation
    /// ordering, and records it in `reach`.
    fn insert_connection(
        &mut self,
        reach: &mut Reach,
        gene: ConnectionGene,
    ) -> Result<(), GenomeError> {
        let (from, to) = self.check_new_edge(reach, gene.from, gene.to)?;
        reach.link(from, to);
        let at = self
            .connections
            .partition_point(|c| c.innovation < gene.innovation);
        self.connections.insert(at, gene);
        Ok(())
    }

    /// A 64-bit structural fingerprint over every gene (FNV-1a).
    ///
    /// Two genomes that compare equal hash identically; any change to a
    /// node (bias, activation) or connection (weight, enabled flag,
    /// endpoints, innovation) changes the fingerprint with overwhelming
    /// probability. Float parameters are hashed through their IEEE-754
    /// bit patterns, so the fingerprint is deterministic across
    /// processes and platforms. Used as the key of `e3-platform`'s tiered
    /// plan cache, which confirms every hit with `PartialEq` — 64 bits
    /// can collide.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.num_inputs as u64);
        mix(self.num_outputs as u64);
        mix(self.nodes.len() as u64);
        for node in &self.nodes {
            mix(node.id as u64);
            mix(node.kind as u64);
            mix(node.bias.to_bits());
            mix(node.activation as u64);
        }
        mix(self.connections.len() as u64);
        for conn in &self.connections {
            mix(conn.innovation.0);
            mix(conn.from as u64);
            mix(conn.to as u64);
            mix(conn.weight.to_bits());
            mix(u64::from(conn.enabled));
        }
        hash
    }

    /// Directly sets a node's bias (used by tests and tools).
    ///
    /// # Errors
    ///
    /// Returns `GenomeError::UnknownNode` if the node does not exist.
    pub fn set_bias(&mut self, id: NodeId, bias: f64) -> Result<(), GenomeError> {
        let idx = self
            .nodes
            .binary_search_by_key(&id, |n| n.id)
            .map_err(|_| GenomeError::UnknownNode(id))?;
        self.nodes[idx].bias = bias;
        Ok(())
    }
}

/// The one acyclicity check of the structural operators: the
/// connection genes of one genome (enabled or not) as a bitset row of
/// successors per node index.
///
/// Built once per structural edit, from the genome's genes
/// ([`Reach::of`]) or empty for a child whose genes arrive one by one
/// ([`Reach::empty`]), and updated by every gene accepted
/// ([`Reach::link`]), so no check rescans the connection list. A query
/// walks the rows depth first with a visited row and a stack that live
/// in the same buffer: one allocation per structure, none per check. A
/// gene naming a node the genome lacks joins nothing here; only a
/// hand-edited genome holds one, and it cannot decode.
struct Reach {
    nodes: usize,
    /// Words per row.
    words: usize,
    /// `nodes` successor rows, the walk's visited row, then its stack of
    /// node indices.
    bits: Vec<u64>,
}

impl Reach {
    /// No genes over `nodes` nodes.
    fn empty(nodes: usize) -> Self {
        let words = nodes.div_ceil(64).max(1);
        Reach {
            nodes,
            words,
            bits: vec![0; (nodes + 1) * words + nodes],
        }
    }

    /// Every connection gene of `genome`.
    fn of(genome: &Genome) -> Self {
        let mut reach = Reach::empty(genome.nodes.len());
        for c in &genome.connections {
            if let (Some(from), Some(to)) = (genome.position(c.from), genome.position(c.to)) {
                reach.link(from, to);
            }
        }
        reach
    }

    /// Records a gene from node index `from` to node index `to`.
    fn link(&mut self, from: usize, to: usize) {
        self.bits[from * self.words + to / 64] |= 1 << (to % 64);
    }

    /// Whether a gene leads from node index `from` to `to`.
    fn linked(&self, from: usize, to: usize) -> bool {
        self.bits[from * self.words + to / 64] & (1 << (to % 64)) != 0
    }

    /// Whether a path of one or more genes leads from node index `from`
    /// to `to`.
    fn reaches(&mut self, from: usize, to: usize) -> bool {
        let words = self.words;
        let (rows, rest) = self.bits.split_at_mut(self.nodes * words);
        if rows[from * words..][..words].iter().all(|&row| row == 0) {
            return false; // a sink, such as every output
        }
        let (seen, stack) = rest.split_at_mut(words);
        seen.fill(0);
        seen[from / 64] |= 1 << (from % 64);
        stack[0] = from as u64;
        let mut depth = 1;
        while depth > 0 {
            depth -= 1;
            let node = stack[depth] as usize;
            for (k, (&row, seen)) in rows[node * words..][..words]
                .iter()
                .zip(&mut *seen)
                .enumerate()
            {
                let mut fresh = row & !*seen;
                if k == to / 64 && fresh & (1 << (to % 64)) != 0 {
                    return true;
                }
                *seen |= fresh;
                // Each node is pushed once, so `nodes` slots suffice.
                while fresh != 0 {
                    stack[depth] = (k * 64) as u64 + u64::from(fresh.trailing_zeros());
                    depth += 1;
                    fresh &= fresh - 1;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (NeatConfig, InnovationTracker, StdRng) {
        let config = NeatConfig::new(3, 2);
        let tracker = InnovationTracker::with_reserved_nodes(5);
        let rng = StdRng::seed_from_u64(11);
        (config, tracker, rng)
    }

    #[test]
    fn initial_genome_has_fixed_io_nodes() {
        let (config, mut tracker, mut rng) = setup();
        let g = Genome::initial(&config, &mut tracker, &mut rng);
        assert_eq!(g.num_inputs(), 3);
        assert_eq!(g.num_outputs(), 2);
        assert_eq!(g.num_hidden(), 0);
        assert!(
            g.num_enabled_connections() >= 2,
            "every output is connected"
        );
    }

    #[test]
    fn initial_genome_with_hidden_nodes_and_sparsity() {
        let config = NeatConfig::builder(8, 4)
            .initial_hidden_nodes(30)
            .initial_connection_density(0.2)
            .build();
        let mut tracker = InnovationTracker::with_reserved_nodes(12);
        let mut rng = StdRng::seed_from_u64(3);
        let g = Genome::initial(&config, &mut tracker, &mut rng);
        assert_eq!(g.num_hidden(), 30);
        // Roughly density * candidates connections (8*30 + 8*4 + 30*4 = 392).
        let n = g.num_enabled_connections();
        assert!(n > 40 && n < 160, "sampled {n} connections");
        assert!(g.decode().is_ok());
    }

    #[test]
    fn add_connection_rejects_duplicates_and_cycles() {
        let (_, mut tracker, _) = setup();
        let mut g = Genome::bare(2, 1);
        g.add_connection(0, 2, 1.0, &mut tracker).unwrap();
        assert!(matches!(
            g.add_connection(0, 2, 1.0, &mut tracker),
            Err(GenomeError::DuplicateConnection { .. })
        ));
        assert!(matches!(
            g.add_connection(2, 0, 1.0, &mut tracker),
            Err(GenomeError::TargetIsInput(0))
        ));
        assert!(matches!(
            g.add_connection(0, 0, 1.0, &mut tracker),
            Err(GenomeError::TargetIsInput(0))
        ));
    }

    #[test]
    fn split_connection_disables_original_and_wires_node() {
        let (_, mut tracker, _) = setup();
        let mut g = Genome::bare(2, 1);
        let innovation = g.add_connection(0, 2, 0.7, &mut tracker).unwrap();
        let node = g
            .split_connection(innovation, Activation::Relu, &mut tracker)
            .unwrap();
        assert_eq!(g.num_hidden(), 1);
        assert!(!g.connection_between(0, 2).unwrap().enabled);
        assert_eq!(g.connection_between(0, node).unwrap().weight, 1.0);
        assert_eq!(g.connection_between(node, 2).unwrap().weight, 0.7);
        // Split preserves function for identity-ish chains: decodes fine.
        assert!(g.decode().is_ok());
    }

    #[test]
    fn reach_detects_transitive_cycles() {
        let (_, mut tracker, _) = setup();
        let mut g = Genome::bare(1, 1);
        let innovation = g.add_connection(0, 1, 1.0, &mut tracker).unwrap();
        let h1 = g
            .split_connection(innovation, Activation::Tanh, &mut tracker)
            .unwrap();
        let innovation2 = g.connection_between(0, h1).unwrap().innovation;
        let h2 = g
            .split_connection(innovation2, Activation::Tanh, &mut tracker)
            .unwrap();
        // 0 -> h2 -> h1 -> 1. h1 -> h2 closes a cycle.
        let mut reach = Reach::of(&g);
        let (i1, i2) = (g.position(h1).unwrap(), g.position(h2).unwrap());
        assert!(reach.reaches(i2, i1), "h1 -> h2 would close a cycle");
        assert!(!reach.reaches(i1, i2), "h2 -> h1 is a path, not a cycle");
        assert!(matches!(
            g.add_connection(h1, h2, 1.0, &mut tracker),
            Err(GenomeError::WouldCycle { .. })
        ));
    }

    #[test]
    fn reach_walks_rows_wider_than_one_word() {
        // 0 -> h70 -> h69 -> ... -> h1 -> 1: 72 nodes, two words a row.
        let (_, mut tracker, _) = setup();
        let mut g = Genome::bare(1, 1);
        let mut innovation = g.add_connection(0, 1, 1.0, &mut tracker).unwrap();
        let mut hidden = Vec::new();
        for _ in 0..70 {
            let h = g
                .split_connection(innovation, Activation::Tanh, &mut tracker)
                .unwrap();
            innovation = g.connection_between(0, h).unwrap().innovation;
            hidden.push(h);
        }
        let (first, last) = (hidden[0], hidden[69]);
        assert!(matches!(
            g.add_connection(first, last, 1.0, &mut tracker),
            Err(GenomeError::WouldCycle { .. })
        ));
        assert!(g.add_connection(last, first, 1.0, &mut tracker).is_ok());
        assert!(g.decode().is_ok());
    }

    #[test]
    fn mutation_preserves_invariants() {
        let (config, mut tracker, mut rng) = setup();
        let mut g = Genome::initial(&config, &mut tracker, &mut rng);
        for _ in 0..200 {
            g.mutate(&config, &mut tracker, &mut rng);
            assert!(g.decode().is_ok(), "mutation broke feed-forwardness");
            // Node ids unique & sorted.
            for w in g.nodes().windows(2) {
                assert!(w[0].id < w[1].id);
            }
            // Connections sorted by innovation, unique pairs.
            for w in g.connections().windows(2) {
                assert!(w[0].innovation < w[1].innovation);
            }
            assert!(g.num_enabled_connections() >= 1);
        }
    }

    #[test]
    fn delete_connection_never_removes_last_enabled() {
        let (_, mut tracker, mut rng) = setup();
        let mut g = Genome::bare(2, 1);
        g.add_connection(0, 2, 1.0, &mut tracker).unwrap();
        for _ in 0..50 {
            g.mutate_delete_connection(&mut rng);
        }
        assert_eq!(g.num_enabled_connections(), 1, "sole connection survives");
    }

    #[test]
    fn delete_node_removes_node_and_its_edges() {
        let (_, mut tracker, mut rng) = setup();
        let mut g = Genome::bare(2, 1);
        let innovation = g.add_connection(0, 2, 1.0, &mut tracker).unwrap();
        g.add_connection(1, 2, 1.0, &mut tracker).unwrap();
        let h = g
            .split_connection(innovation, Activation::Relu, &mut tracker)
            .unwrap();
        let before_nodes = g.nodes().len();
        // Repeatedly try until the hidden node goes (only one exists).
        for _ in 0..50 {
            g.mutate_delete_node(&mut rng);
        }
        assert_eq!(g.nodes().len(), before_nodes - 1);
        assert!(g.node(h).is_none());
        assert!(g.connections().iter().all(|c| c.from != h && c.to != h));
        assert!(g.decode().is_ok());
        assert!(g.num_enabled_connections() >= 1);
    }

    #[test]
    fn delete_node_skips_when_it_would_empty_the_genome() {
        let (_, mut tracker, mut rng) = setup();
        let mut g = Genome::bare(1, 1);
        let innovation = g.add_connection(0, 1, 1.0, &mut tracker).unwrap();
        let h = g
            .split_connection(innovation, Activation::Relu, &mut tracker)
            .unwrap();
        // Only enabled path runs through h (original edge disabled).
        for _ in 0..50 {
            g.mutate_delete_node(&mut rng);
        }
        assert!(
            g.node(h).is_some(),
            "deleting h would leave no enabled connections"
        );
    }

    #[test]
    fn crossover_child_only_carries_parental_innovations() {
        let (config, mut tracker, mut rng) = setup();
        let mut a = Genome::initial(&config, &mut tracker, &mut rng);
        let mut b = a.clone();
        for _ in 0..30 {
            a.mutate(&config, &mut tracker, &mut rng);
            b.mutate(&config, &mut tracker, &mut rng);
        }
        let child = a.crossover(&b, false, &config, &mut rng);
        let parental: Vec<Innovation> = a
            .connections()
            .iter()
            .chain(b.connections())
            .map(|c| c.innovation)
            .collect();
        for c in child.connections() {
            assert!(parental.contains(&c.innovation));
        }
        assert!(child.decode().is_ok());
    }

    #[test]
    fn crossover_with_weaker_parent_keeps_fitter_structure() {
        let (config, mut tracker, mut rng) = setup();
        let base = Genome::initial(&config, &mut tracker, &mut rng);
        let mut fitter = base.clone();
        for _ in 0..10 {
            fitter.mutate_add_connection(&config, &mut tracker, &mut rng);
        }
        let child = fitter.crossover(&base, false, &config, &mut rng);
        // All of fitter's innovations present (disjoint/excess kept).
        for c in fitter.connections() {
            assert!(
                child
                    .connections()
                    .iter()
                    .any(|cc| cc.innovation == c.innovation),
                "missing innovation {:?}",
                c.innovation
            );
        }
    }

    #[test]
    fn distance_is_zero_for_identical_and_positive_for_diverged() {
        let (config, mut tracker, mut rng) = setup();
        let a = Genome::initial(&config, &mut tracker, &mut rng);
        assert_eq!(a.compatibility_distance(&a, &config), 0.0);
        let mut b = a.clone();
        for _ in 0..20 {
            b.mutate(&config, &mut tracker, &mut rng);
        }
        assert!(a.compatibility_distance(&b, &config) > 0.0);
        // Symmetry.
        let d_ab = a.compatibility_distance(&b, &config);
        let d_ba = b.compatibility_distance(&a, &config);
        assert!((d_ab - d_ba).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_is_stable_for_clones_and_changes_on_mutation() {
        let (config, mut tracker, mut rng) = setup();
        let g = Genome::initial(&config, &mut tracker, &mut rng);
        assert_eq!(g.fingerprint(), g.clone().fingerprint());

        // Any parameter change moves the fingerprint.
        let mut weight_changed = g.clone();
        weight_changed.connections[0].weight += 1.0;
        assert_ne!(g.fingerprint(), weight_changed.fingerprint());

        let mut bias_changed = g.clone();
        let out = g.num_inputs(); // first output node id
        bias_changed.set_bias(out, 42.0).unwrap();
        assert_ne!(g.fingerprint(), bias_changed.fingerprint());

        // Full mutation suite: repeated mutation keeps diverging.
        let mut mutated = g.clone();
        let mut seen = vec![g.fingerprint()];
        for _ in 0..20 {
            mutated.mutate(&config, &mut tracker, &mut rng);
            seen.push(mutated.fingerprint());
        }
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() > 10, "fingerprints track mutations");
    }

    #[test]
    fn set_bias_roundtrip() {
        let mut g = Genome::bare(1, 1);
        g.set_bias(1, 0.125).unwrap();
        assert_eq!(g.node(1).unwrap().bias, 0.125);
        assert!(g.set_bias(99, 0.0).is_err());
    }
}
