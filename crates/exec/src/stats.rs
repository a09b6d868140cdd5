//! Execution statistics — the host-side analogue of the INAX `U(r)`
//! utilization counters.

use serde::{Deserialize, Serialize};

/// Observability counters for one [`crate::Executor::run_shards`] call.
///
/// Stats are **write-only**: they describe how the work was executed
/// (which is nondeterministic under a thread pool — wall times and
/// steal counts vary run to run) and are never fed back into the
/// computation, so they cannot perturb the bit-identical results
/// contract.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ExecStats {
    /// Number of workers (virtual PUs) the executor runs.
    pub workers: usize,
    /// Number of shards the item range was split into.
    pub shards: usize,
    /// Total items processed.
    pub items: usize,
    /// Wall-clock seconds per shard, in shard order.
    pub shard_seconds: Vec<f64>,
    /// Shards executed by a worker other than their home worker
    /// (always 0 for the serial executor).
    pub steal_count: u64,
    /// Seconds each worker spent running shard bodies, by worker index.
    pub busy_seconds: Vec<f64>,
    /// Shards enqueued on each worker's home queue at submit time
    /// (before any stealing), by worker index. The serial executor
    /// reports a single entry holding every shard.
    pub queue_depths: Vec<usize>,
    /// Wall-clock seconds for the whole call (submit to reduce).
    pub wall_seconds: f64,
}

impl ExecStats {
    /// Mean fraction of the call's wall-clock each worker spent busy —
    /// the host-side analogue of the INAX PU utilization `U(r)`.
    /// Returns 0 when the call did no timed work.
    pub fn worker_utilization(&self) -> f64 {
        if self.workers == 0 || self.wall_seconds <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.busy_seconds.iter().sum();
        (busy / (self.workers as f64 * self.wall_seconds)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_bounded() {
        let stats = ExecStats {
            workers: 2,
            wall_seconds: 1.0,
            busy_seconds: vec![0.9, 0.7],
            ..ExecStats::default()
        };
        let u = stats.worker_utilization();
        assert!(u > 0.0 && u <= 1.0);
        assert!((u - 0.8).abs() < 1e-12);
    }

    #[test]
    fn serializes_round_trip() {
        let stats = ExecStats {
            workers: 4,
            shards: 8,
            items: 32,
            shard_seconds: vec![0.1; 8],
            steal_count: 2,
            busy_seconds: vec![0.2; 4],
            queue_depths: vec![2; 4],
            wall_seconds: 0.3,
        };
        let json = serde_json::to_string(&stats).expect("serialize");
        let back: ExecStats = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(stats, back);
    }
}
