//! Migration packets and the generation-indexed exchange.
//!
//! Migration is **barrier-free but generation-indexed**: after
//! evaluating generation `g`, an island at a migration boundary
//! *publishes* its top-`M` emigrants keyed `(island, g)`, then
//! *consumes* the packets keyed `(source, g)` from each of its
//! sources — packets from the *same* boundary index, whatever
//! wall-clock order the islands reached it in. Publish always precedes
//! consume, so the slowest island at a boundary can always run: its
//! sources are at the same boundary or beyond and have therefore
//! already published. That ordering makes the archipelago both
//! deadlock-free and deterministic — which packets merge into which
//! population depends only on the migration schedule, never on the
//! scheduler interleaving.
//!
//! An island that finishes early (target fitness reached, or the
//! generation cap) *retires*: it marks the highest generation it
//! evaluated, and consumers treat any later boundary as "no
//! contribution from this source" instead of waiting forever.
//!
//! With persistence configured, every published packet is also written
//! as a JSON sidecar in the source island's checkpoint namespace
//! (`mig-<generation>.json`), and retirement as `retired.json`. A
//! killed daemon reloads them on startup so islands that must replay a
//! boundary can consume packets whose sources have long moved past it.

use e3_neat::population::EvaluatedGenome;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The emigrants one island published at one migration boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct MigrationPacket {
    /// Island that published the packet.
    pub source: usize,
    /// Generation whose evaluation produced the emigrants (the
    /// boundary index).
    pub generation: usize,
    /// Top-`M` individuals, best first (fitness-descending,
    /// index-ascending tiebreak).
    pub emigrants: Vec<EvaluatedGenome>,
}

/// Sidecar file name of the packet a source published at `generation`.
pub(crate) fn packet_sidecar_name(generation: usize) -> String {
    format!("mig-{generation:08}.json")
}

/// Sidecar file name of an island's retirement marker.
pub(crate) const RETIREMENT_SIDECAR: &str = "retired.json";

/// Persistent form of a retirement: the island will never publish a
/// packet for any boundary past `last_generation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Retirement {
    /// The retired island.
    pub island: usize,
    /// Highest generation the island evaluated before retiring.
    pub last_generation: usize,
}

/// In-memory packet board: published packets and retirements, keyed by
/// `(source, generation)`. Purely a data structure — locking and
/// waiter bookkeeping belong to the scheduler that owns it.
#[derive(Debug, Default)]
pub(crate) struct Exchange {
    packets: BTreeMap<(usize, usize), MigrationPacket>,
    retired: BTreeMap<usize, usize>,
}

/// What a consumer finds when asking for a source's packet at a
/// boundary.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PacketState {
    /// The packet is available.
    Ready(MigrationPacket),
    /// The source retired before reaching this boundary; it
    /// contributes nothing, now or ever.
    Retired,
    /// The source has not reached this boundary yet.
    Pending,
}

impl Exchange {
    /// Creates an empty exchange.
    pub(crate) fn new() -> Self {
        Exchange::default()
    }

    /// Publishes a packet. Republishing the same key (an island
    /// replaying a boundary after crash-resume) is idempotent — the
    /// replayed packet is bit-identical by the determinism contract,
    /// so the first copy is kept.
    pub(crate) fn publish(&mut self, packet: MigrationPacket) {
        self.packets
            .entry((packet.source, packet.generation))
            .or_insert(packet);
    }

    /// Marks `island` retired after evaluating `last_generation`.
    /// Keeps the highest marker on repeated calls.
    pub(crate) fn retire(&mut self, island: usize, last_generation: usize) {
        self.retired
            .entry(island)
            .and_modify(|g| *g = (*g).max(last_generation))
            .or_insert(last_generation);
    }

    /// The state of `source`'s packet for boundary `generation`.
    pub(crate) fn packet(&self, source: usize, generation: usize) -> PacketState {
        if let Some(packet) = self.packets.get(&(source, generation)) {
            return PacketState::Ready(packet.clone());
        }
        match self.retired.get(&source) {
            Some(&last) if last < generation => PacketState::Retired,
            _ => PacketState::Pending,
        }
    }

    /// Collects the immigrant wave for one island at one boundary:
    /// every source's packet, sources in ascending order, retired
    /// sources skipped. Returns `None` (and nothing else) if any
    /// source is still pending — collection is all-or-nothing so the
    /// merge is a single deterministic `integrate_immigrants` call.
    pub(crate) fn try_collect(
        &self,
        sources: &[usize],
        generation: usize,
    ) -> Option<Vec<MigrationPacket>> {
        let mut wave = Vec::with_capacity(sources.len());
        for &source in sources {
            match self.packet(source, generation) {
                PacketState::Ready(packet) => wave.push(packet),
                PacketState::Retired => {}
                PacketState::Pending => return None,
            }
        }
        Some(wave)
    }

    /// The sources in `sources` whose packet for `generation` is still
    /// pending (what a parked island is waiting on).
    pub(crate) fn pending_sources(&self, sources: &[usize], generation: usize) -> Vec<usize> {
        sources
            .iter()
            .copied()
            .filter(|&s| self.packet(s, generation) == PacketState::Pending)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_neat::{Genome, InnovationTracker, NeatConfig};
    use rand::SeedableRng;

    fn packet(source: usize, generation: usize) -> MigrationPacket {
        let config = NeatConfig::builder(2, 1).population_size(4).build();
        let mut tracker = InnovationTracker::with_reserved_nodes(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let genome = Genome::initial(&config, &mut tracker, &mut rng);
        MigrationPacket {
            source,
            generation,
            emigrants: vec![EvaluatedGenome {
                genome,
                fitness: 1.0,
            }],
        }
    }

    #[test]
    fn packets_resolve_by_source_and_generation() {
        let mut exchange = Exchange::new();
        exchange.publish(packet(0, 4));
        assert!(matches!(exchange.packet(0, 4), PacketState::Ready(_)));
        assert_eq!(exchange.packet(0, 9), PacketState::Pending);
        assert_eq!(exchange.packet(1, 4), PacketState::Pending);
    }

    #[test]
    fn retirement_unblocks_later_boundaries_only() {
        let mut exchange = Exchange::new();
        exchange.publish(packet(2, 4));
        exchange.retire(2, 4);
        assert!(matches!(exchange.packet(2, 4), PacketState::Ready(_)));
        assert_eq!(exchange.packet(2, 9), PacketState::Retired);
    }

    #[test]
    fn collection_is_all_or_nothing() {
        let mut exchange = Exchange::new();
        exchange.publish(packet(0, 4));
        assert_eq!(exchange.try_collect(&[0, 1], 4), None);
        assert_eq!(exchange.pending_sources(&[0, 1], 4), vec![1]);
        exchange.retire(1, 2);
        let wave = exchange
            .try_collect(&[0, 1], 4)
            .expect("1 retired, 0 ready");
        assert_eq!(wave.len(), 1);
        assert_eq!(wave[0].source, 0);
    }

    #[test]
    fn republishing_is_idempotent() {
        let mut exchange = Exchange::new();
        exchange.publish(packet(0, 4));
        let mut replay = packet(0, 4);
        replay.emigrants.clear();
        exchange.publish(replay);
        match exchange.packet(0, 4) {
            PacketState::Ready(p) => assert_eq!(p.emigrants.len(), 1, "first copy kept"),
            other => panic!("expected ready, got {other:?}"),
        }
    }

    #[test]
    fn sidecar_names_sort_with_generations() {
        assert!(packet_sidecar_name(2) < packet_sidecar_name(10));
        assert_eq!(packet_sidecar_name(7), "mig-00000007.json");
    }
}
