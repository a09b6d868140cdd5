//! Network-complexity statistics (Table V, Fig. 4 of the paper).
//!
//! These helpers aggregate the structural statistics the paper uses to
//! motivate INAX: node in-degree distributions (Fig. 4(e)), nodes per
//! layer (Fig. 4(f)), and population density across generations
//! (Fig. 4(g)), plus average node/connection counts (Table V).

use crate::error::DecodeError;
use crate::genome::Genome;
use crate::plan::NetPlan;
use serde::{Deserialize, Serialize};

/// A simple integer histogram with mean/max accessors.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: usize) {
        if self.counts.len() <= value {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += 1;
        self.total += 1;
        self.sum += value as u64;
    }

    /// Count of observations equal to `value`.
    pub fn count(&self, value: usize) -> u64 {
        self.counts.get(value).copied().unwrap_or(0)
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest observed value, if any.
    pub fn max(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// `(value, count)` pairs for non-zero buckets.
    pub fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v, c))
    }

    /// Fraction of observations at `value` (0 when empty).
    pub fn fraction(&self, value: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(value) as f64 / self.total as f64
        }
    }
}

/// One network's structural shape — everything [`ComplexityStats`]
/// folds — read off the [`NetPlan`] its evaluation compiled, so no
/// statistic needs a second CreateNet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanShape {
    in_degrees: Vec<usize>,
    level_widths: Vec<usize>,
    density: f64,
    nodes: usize,
    connections: usize,
}

impl PlanShape {
    /// The shape of `plan`.
    pub fn of(plan: &NetPlan) -> Self {
        PlanShape {
            in_degrees: plan.in_degrees(),
            level_widths: plan.level_widths(),
            density: plan.density(),
            // Table V counts hidden + output nodes ("nodes" the HW must
            // compute) plus inputs; we count all nodes like the paper's
            // MLP node counts do.
            nodes: plan.num_nodes(),
            connections: plan.num_connections(),
        }
    }
}

/// Rolling structural statistics over the generations of a NEAT run.
///
/// Feed every generation's population through
/// [`ComplexityStats::record_shapes`] (or the compile-it-for-me
/// convenience [`ComplexityStats::record_generation`]); read the
/// aggregates after the run.
///
/// # Example
///
/// ```
/// use e3_neat::{NeatConfig, Population};
/// use e3_neat::stats::ComplexityStats;
///
/// let mut pop = Population::new(NeatConfig::builder(2, 1).population_size(10).build(), 1);
/// let mut stats = ComplexityStats::new();
/// for _ in 0..3 {
///     stats.record_generation(pop.genomes())?;
///     pop.evaluate(|g| g.num_enabled_connections() as f64);
///     pop.evolve();
/// }
/// assert!(stats.avg_nodes() > 0.0);
/// # Ok::<(), e3_neat::DecodeError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ComplexityStats {
    degree_histogram: Histogram,
    layer_width_histogram: Histogram,
    density_trace: Vec<f64>,
    node_counts: Vec<f64>,
    connection_counts: Vec<f64>,
}

impl ComplexityStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one generation from its networks' shapes, one per
    /// genome in population order — the order fixes the floating-point
    /// summation of the density mean. An empty generation records
    /// nothing.
    pub fn record_shapes(&mut self, shapes: &[PlanShape]) {
        if shapes.is_empty() {
            return;
        }
        let mut density_sum = 0.0;
        let mut nodes_sum = 0.0;
        let mut conns_sum = 0.0;
        for shape in shapes {
            for &d in &shape.in_degrees {
                self.degree_histogram.record(d);
            }
            for &w in &shape.level_widths {
                self.layer_width_histogram.record(w);
            }
            density_sum += shape.density;
            nodes_sum += shape.nodes as f64;
            conns_sum += shape.connections as f64;
        }
        let n = shapes.len() as f64;
        self.density_trace.push(density_sum / n);
        self.node_counts.push(nodes_sum / n);
        self.connection_counts.push(conns_sum / n);
    }

    /// Compiles every genome and records the generation — for callers
    /// with no evaluation at hand whose plans they could reuse.
    ///
    /// # Errors
    ///
    /// Returns the [`DecodeError`] of the first genome that is not
    /// feed-forward and records nothing: a generation that could not
    /// be evaluated leaves no complexity sample.
    pub fn record_generation(&mut self, genomes: &[Genome]) -> Result<(), DecodeError> {
        let shapes = genomes
            .iter()
            .map(|genome| NetPlan::compile(genome).map(|plan| PlanShape::of(&plan)))
            .collect::<Result<Vec<_>, _>>()?;
        self.record_shapes(&shapes);
        Ok(())
    }

    /// In-degree histogram across all recorded networks (Fig. 4(e)).
    pub fn degree_histogram(&self) -> &Histogram {
        &self.degree_histogram
    }

    /// Nodes-per-layer histogram across all recorded networks
    /// (Fig. 4(f)).
    pub fn layer_width_histogram(&self) -> &Histogram {
        &self.layer_width_histogram
    }

    /// Mean population density per generation (Fig. 4(g)).
    pub fn density_trace(&self) -> &[f64] {
        &self.density_trace
    }

    /// Average node count over all recorded generations (Table V
    /// "Ave. nodes").
    pub fn avg_nodes(&self) -> f64 {
        mean(&self.node_counts)
    }

    /// Average enabled-connection count over all recorded generations
    /// (Table V "Ave. connections").
    pub fn avg_connections(&self) -> f64 {
        mean(&self.connection_counts)
    }

    /// Number of generations recorded.
    pub fn generations(&self) -> usize {
        self.density_trace.len()
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NeatConfig, Population};

    #[test]
    fn histogram_counts_and_mean() {
        let mut h = Histogram::new();
        for v in [1, 1, 2, 5] {
            h.record(v);
        }
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(3), 0);
        assert_eq!(h.total(), 4);
        assert_eq!(h.max(), Some(5));
        assert!((h.mean() - 2.25).abs() < 1e-12);
        assert!((h.fraction(1) - 0.5).abs() < 1e-12);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(1, 2), (2, 1), (5, 1)]);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), None);
        assert_eq!(h.fraction(3), 0.0);
    }

    #[test]
    fn complexity_stats_accumulate_over_generations() {
        let config = NeatConfig::builder(3, 2).population_size(15).build();
        let mut pop = Population::new(config, 2);
        let mut stats = ComplexityStats::new();
        for _ in 0..4 {
            stats
                .record_generation(pop.genomes())
                .expect("NEAT populations are feed-forward");
            pop.evaluate(|g| g.num_hidden() as f64);
            pop.evolve();
        }
        assert_eq!(stats.generations(), 4);
        assert_eq!(stats.density_trace().len(), 4);
        assert!(stats.avg_nodes() >= 5.0, "at least the 5 fixed IO nodes");
        assert!(stats.avg_connections() > 0.0);
        assert!(stats.degree_histogram().total() > 0);
    }

    #[test]
    fn an_undecodable_genome_fails_the_generation_and_records_nothing() {
        let config = NeatConfig::builder(2, 1).population_size(4).build();
        let mut genomes = Population::new(config, 5).genomes().to_vec();
        let mut stats = ComplexityStats::new();
        stats.record_generation(&genomes).expect("feed-forward");
        let before = stats.clone();
        // A self-loop on the output node: evaluation rejects such a
        // population, so it must leave no sample either — not a mean
        // over the genomes that happened to decode.
        let mut tracker = crate::InnovationTracker::with_reserved_nodes(3);
        genomes[2]
            .add_connection_unchecked(2, 2, 0.5, &mut tracker)
            .expect("self-loop is structurally new");
        assert!(matches!(
            stats.record_generation(&genomes),
            Err(DecodeError::Cycle(_))
        ));
        assert_eq!(stats, before);
    }

    #[test]
    fn an_empty_generation_records_nothing() {
        let mut stats = ComplexityStats::new();
        stats.record_shapes(&[]);
        assert_eq!(stats.generations(), 0);
    }
}
