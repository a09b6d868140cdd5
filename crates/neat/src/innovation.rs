//! Historical-marking ("innovation number") bookkeeping.
//!
//! NEAT aligns genes across genomes by *innovation number*: every
//! distinct structural addition — a connection between a particular
//! `(from, to)` pair, or a node splitting a particular connection —
//! receives a globally unique, monotonically increasing number the first
//! time it appears. If two genomes independently discover the same
//! structure in the same generation they receive the *same* number, so
//! that crossover can line the genes up.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A historical marking identifying a structural innovation.
///
/// Innovations are totally ordered by discovery time; crossover uses
/// this order to classify genes as matching, disjoint or excess.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Innovation(pub u64);

/// Hands out innovation numbers and node ids, deduplicating structural
/// mutations within a generation.
///
/// # Example
///
/// ```
/// use e3_neat::InnovationTracker;
///
/// let mut tracker = InnovationTracker::new();
/// let a = tracker.connection_innovation(0, 3);
/// let b = tracker.connection_innovation(0, 3); // same structure
/// let c = tracker.connection_innovation(1, 3); // different structure
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InnovationTracker {
    next_innovation: u64,
    next_node_id: usize,
    /// Per-generation dedup cache. Not serialized: checkpoints restore
    /// at a generation boundary, where the cache is empty anyway.
    #[serde(skip)]
    connection_cache: HashMap<(usize, usize), Innovation>,
    /// Splitting connection `(from, to)` yields a node id plus the two
    /// innovations of the replacement connections. Not serialized for
    /// the same reason as the connection cache.
    #[serde(skip)]
    split_cache: HashMap<(usize, usize), (usize, Innovation, Innovation)>,
}

impl InnovationTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tracker whose node-id counter starts after the fixed
    /// input/output nodes, so newly split nodes never collide with them.
    pub fn with_reserved_nodes(reserved: usize) -> Self {
        InnovationTracker {
            next_node_id: reserved,
            ..Self::default()
        }
    }

    /// Returns the innovation number for a connection `from -> to`,
    /// allocating a fresh one only if this pair has not been seen since
    /// the last `InnovationTracker::begin_generation`.
    pub fn connection_innovation(&mut self, from: usize, to: usize) -> Innovation {
        if let Some(&innovation) = self.connection_cache.get(&(from, to)) {
            return innovation;
        }
        let innovation = Innovation(self.next_innovation);
        self.next_innovation += 1;
        self.connection_cache.insert((from, to), innovation);
        innovation
    }

    /// Returns `(new_node_id, in_innovation, out_innovation)` for
    /// splitting connection `from -> to` with a new node, deduplicated
    /// within the current generation.
    pub(crate) fn split_innovation(
        &mut self,
        from: usize,
        to: usize,
    ) -> (usize, Innovation, Innovation) {
        if let Some(&hit) = self.split_cache.get(&(from, to)) {
            return hit;
        }
        let node = self.next_node_id;
        self.next_node_id += 1;
        let in_innovation = Innovation(self.next_innovation);
        let out_innovation = Innovation(self.next_innovation + 1);
        self.next_innovation += 2;
        let entry = (node, in_innovation, out_innovation);
        self.split_cache.insert((from, to), entry);
        entry
    }

    /// Allocates a fresh node id without caching (used when building
    /// initial genomes).
    pub(crate) fn fresh_node_id(&mut self) -> usize {
        let id = self.next_node_id;
        self.next_node_id += 1;
        id
    }

    /// Clears the per-generation deduplication caches. Innovation and
    /// node-id counters keep increasing monotonically for the lifetime
    /// of the tracker.
    pub(crate) fn begin_generation(&mut self) {
        self.connection_cache.clear();
        self.split_cache.clear();
    }

    /// Raises the innovation and node-id counters to at least the
    /// given values (never lowers them).
    ///
    /// Used when a genome minted by a *different* tracker joins this
    /// population (island migration): the immigrant's numbers were
    /// allocated on its home island, so this tracker's counters must
    /// jump past them or a later structural mutation here would reuse
    /// an id the immigrant already carries — two distinct structures
    /// sharing one historical marking, which corrupts crossover
    /// alignment and node identity.
    pub(crate) fn absorb(&mut self, next_innovation: u64, next_node_id: usize) {
        self.next_innovation = self.next_innovation.max(next_innovation);
        self.next_node_id = self.next_node_id.max(next_node_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_structure_same_generation_shares_innovation() {
        let mut t = InnovationTracker::new();
        assert_eq!(t.connection_innovation(1, 2), t.connection_innovation(1, 2));
    }

    #[test]
    fn different_structures_get_distinct_innovations() {
        let mut t = InnovationTracker::new();
        let a = t.connection_innovation(1, 2);
        let b = t.connection_innovation(2, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn innovations_are_monotone() {
        let mut t = InnovationTracker::new();
        let a = t.connection_innovation(0, 1);
        let b = t.connection_innovation(0, 2);
        let c = t.connection_innovation(0, 3);
        assert!(a < b && b < c);
    }

    #[test]
    fn generation_boundary_resets_dedup_but_not_counter() {
        let mut t = InnovationTracker::new();
        let a = t.connection_innovation(1, 2);
        t.begin_generation();
        let b = t.connection_innovation(1, 2);
        assert_ne!(a, b, "new generation allocates a fresh number");
        assert!(b > a, "counter keeps increasing");
    }

    #[test]
    fn split_is_deduplicated_and_allocates_two_innovations() {
        let mut t = InnovationTracker::with_reserved_nodes(5);
        let before = t.next_innovation;
        let (node_a, in_a, out_a) = t.split_innovation(0, 4);
        let (node_b, in_b, out_b) = t.split_innovation(0, 4);
        assert_eq!((node_a, in_a, out_a), (node_b, in_b, out_b));
        assert_eq!(t.next_innovation, before + 2);
        assert!(node_a >= 5, "split node ids start after reserved range");
        assert_ne!(in_a, out_a);
    }

    #[test]
    fn absorb_raises_counters_monotonically() {
        let mut t = InnovationTracker::with_reserved_nodes(4);
        let _ = t.connection_innovation(0, 1);
        t.absorb(100, 50);
        assert_eq!(t.next_innovation, 100);
        assert_eq!(t.fresh_node_id(), 50);
        // Absorbing something already covered changes nothing.
        t.absorb(10, 5);
        assert_eq!(t.next_innovation, 100);
        assert_eq!(t.fresh_node_id(), 51);
        let next = t.connection_innovation(2, 3);
        assert!(
            next.0 >= 100,
            "new innovations allocate past the absorbed range"
        );
    }

    #[test]
    fn reserved_nodes_offset_fresh_ids() {
        let mut t = InnovationTracker::with_reserved_nodes(10);
        assert_eq!(t.fresh_node_id(), 10);
        assert_eq!(t.fresh_node_id(), 11);
    }
}
