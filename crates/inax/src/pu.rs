//! Processing Unit: one individual's network on a cluster of PEs.
//!
//! A PU owns the full "evaluate" of one individual (paper §IV-D): its
//! weight buffer holds the network configuration for the whole episode
//! (networks are reused across env steps, so weights are worth keeping
//! local), its value buffer holds **all** intermediate activations
//! (irregular links may read any earlier node), and its PE cluster
//! computes each topological level in waves of `num_pe` nodes.
//!
//! The inference schedule is input-independent — INAX does not gate on
//! activation values — so the cycle profile is computed once per
//! network and reused every step.

use crate::config::{Dataflow, InaxConfig};
use crate::pe::node_cycles;
use crate::profile::{CycleBreakdown, UtilizationReport};
use e3_neat::NetPlan;
use serde::{Deserialize, Serialize};

/// Cycle profile of one inference pass on one PU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PuInferenceProfile {
    /// Wall cycles the PU is busy for one inference.
    pub wall_cycles: u64,
    /// Useful PE cycles (summed over PEs).
    pub pe_active_cycles: u64,
    /// Provisioned PE cycles: `wall_cycles × num_pe`.
    pub pe_total_cycles: u64,
    /// Number of PE waves launched.
    pub waves: u64,
}

impl PuInferenceProfile {
    /// PE utilization for this inference (paper Eq. 1 at PE scope).
    pub fn pe_utilization(&self) -> UtilizationReport {
        UtilizationReport {
            active: self.pe_active_cycles,
            total: self.pe_total_cycles,
        }
    }

    /// Control (non-useful) cycles: idle PEs + wave/sync overheads.
    pub fn control_cycles(&self) -> u64 {
        self.pe_total_cycles - self.pe_active_cycles
    }

    /// Total cycles accounted to the PU for this inference.
    pub fn total_cycles(&self) -> u64 {
        self.wall_cycles
    }
}

/// Bytes shipped over the weight channel to make `plan` resident: one
/// 32-bit word per connection (packed slot+weight), plus a descriptor
/// word per node.
pub fn weight_stream_bytes(plan: &NetPlan) -> u64 {
    4 * (plan.num_connections() as u64 + plan.num_compute_nodes() as u64)
}

/// A simulated Processing Unit holding one compiled network: the
/// [`NetPlan`] is the weight-buffer contents, and the PU's value buffer
/// is the one the plan's own interpreter fills.
///
/// # Example
///
/// ```
/// use e3_inax::{InaxConfig, PuSim};
/// use e3_neat::{Genome, InnovationTracker, NetPlan};
///
/// let mut tracker = InnovationTracker::with_reserved_nodes(4);
/// let mut genome = Genome::bare(3, 1);
/// genome.add_connection(0, 3, 1.0, &mut tracker)?;
/// genome.add_connection(1, 3, 1.0, &mut tracker)?;
/// let plan = NetPlan::compile(&genome)?;
/// let mut pu = PuSim::new(&InaxConfig::builder().num_pe(2).build(), plan);
/// let (out, profile) = pu.infer(&[1.0, 2.0, 3.0]);
/// assert_eq!(out.len(), 1);
/// assert_eq!(profile.waves, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PuSim {
    config: InaxConfig,
    plan: NetPlan,
    value_buffer: Vec<f64>,
    profile: PuInferenceProfile,
    per_pe_active: Vec<u64>,
    setup_cycles: u64,
}

impl PuSim {
    /// Creates a PU with `plan` resident (the set-up phase cost is
    /// recorded in [`PuSim::setup_cycles`]).
    pub fn new(config: &InaxConfig, plan: NetPlan) -> Self {
        let detailed = schedule_inference_detailed(config, &plan);
        let setup_cycles = plan.num_connections() as u64 * config.setup_cycles_per_connection
            + plan.num_compute_nodes() as u64 * config.setup_cycles_per_node;
        PuSim {
            config: config.clone(),
            value_buffer: vec![0.0; plan.value_buffer_slots()],
            plan,
            profile: detailed.profile,
            per_pe_active: detailed.per_pe_active,
            setup_cycles,
        }
    }

    /// The resident network.
    pub fn plan(&self) -> &NetPlan {
        &self.plan
    }

    /// Cycles the set-up phase (weight-channel decode) took.
    pub fn setup_cycles(&self) -> u64 {
        self.setup_cycles
    }

    /// Cycle profile of one inference (input-independent).
    pub fn inference_profile(&self) -> PuInferenceProfile {
        self.profile
    }

    /// Active cycles of each PE lane for one inference; sums to
    /// [`PuInferenceProfile::pe_active_cycles`].
    pub fn per_pe_active(&self) -> &[u64] {
        &self.per_pe_active
    }

    /// Runs one inference — the plan's interpreter into this PU's value
    /// buffer, so the outputs are the software executor's by
    /// construction — and returns them with the cycle profile.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the network's input count.
    pub fn infer(&mut self, inputs: &[f64]) -> (Vec<f64>, PuInferenceProfile) {
        let outputs = self.plan.execute_into(inputs, &mut self.value_buffer);
        (outputs, self.profile)
    }

    /// Full-phase breakdown for `steps` inferences including the
    /// one-time set-up (Fig. 9(a) categories).
    pub fn episode_breakdown(&self, steps: u64) -> CycleBreakdown {
        CycleBreakdown {
            setup: self.setup_cycles,
            pe_active: self.profile.pe_active_cycles * steps,
            evaluate_control: self.profile.control_cycles() * steps,
        }
    }

    /// The configuration this PU was built with.
    pub fn config(&self) -> &InaxConfig {
        &self.config
    }
}

/// Computes the inference schedule of `plan` on a PE cluster (the
/// heart of the INAX timing model).
///
/// For every topological level with `m` nodes and `n` PEs the level is
/// executed in `⌈m/n⌉` waves (paper §V-A issue 2, "PEs alignment").
/// Within a wave each PE computes one node; the wave's latency is the
/// **maximum** node latency (issue 3, "synchronization"), so degree
/// variance shows up as idle PE cycles. A level barrier and per-wave
/// launch overhead are charged on top.
pub fn schedule_inference(config: &InaxConfig, plan: &NetPlan) -> PuInferenceProfile {
    schedule_inference_detailed(config, plan).profile
}

/// [`schedule_inference`] plus the per-PE-lane activity it implies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetailedInferenceProfile {
    /// The aggregate profile (what [`schedule_inference`] returns).
    pub profile: PuInferenceProfile,
    /// Active cycles of each PE lane (`num_pe` entries); lane `j`
    /// computes the `j`-th node of every wave. Sums to
    /// `profile.pe_active_cycles`.
    pub per_pe_active: Vec<u64>,
}

/// The wave schedule every node-stationary view folds over: each
/// `(start, end)` level runs in waves of `num_pe` consecutive nodes,
/// node `i` keeps its PE busy for `cost(i)` cycles, a wave lasts as
/// long as its slowest node plus the launch overhead, and a level ends
/// on a barrier. `on_wave(level, first_node, costs)` sees every wave in
/// execution order, `costs[j]` being PE lane `j`'s busy cycles on node
/// `first_node + j`.
pub(crate) fn walk_waves(
    config: &InaxConfig,
    levels: &[(u32, u32)],
    cost: impl Fn(usize) -> u64,
    mut on_wave: impl FnMut(usize, usize, &[u64]),
) -> PuInferenceProfile {
    let n = config.num_pe.max(1);
    let (mut wall, mut active, mut waves) = (0u64, 0u64, 0u64);
    let mut costs = Vec::with_capacity(n);
    for (level, &(start, end)) in levels.iter().enumerate() {
        let end = end as usize;
        for first in (start as usize..end).step_by(n) {
            costs.clear();
            costs.extend((first..end.min(first + n)).map(&cost));
            active += costs.iter().sum::<u64>();
            wall += costs.iter().max().copied().unwrap_or(0) + config.wave_overhead_cycles;
            waves += 1;
            on_wave(level, first, &costs);
        }
        wall += config.level_sync_cycles;
    }
    PuInferenceProfile {
        wall_cycles: wall,
        pe_active_cycles: active,
        pe_total_cycles: wall * n as u64,
        waves,
    }
}

/// Computes the inference schedule with per-PE-lane cycle attribution:
/// within each wave, chunk position `j` is executed by PE lane `j`, so
/// lane occupancy skew (degree variance, ragged last waves) is visible
/// per lane instead of only as an aggregate idle total.
pub fn schedule_inference_detailed(
    config: &InaxConfig,
    plan: &NetPlan,
) -> DetailedInferenceProfile {
    let n = config.num_pe.max(1);
    let mut per_pe_active = vec![0u64; n];
    let profile = match config.dataflow {
        Dataflow::OutputStationary | Dataflow::WeightStationary => {
            // WS differs only in the per-node cost: with zero weight
            // reuse in an MLP, pinned weights must still be refetched
            // every MAC, doubling the MAC occupancy.
            let penalty = if config.dataflow == Dataflow::WeightStationary {
                2
            } else {
                1
            };
            walk_waves(
                config,
                plan.levels(),
                |node| node_cycles(config, plan.node_edges(node).len()) * penalty,
                |_, _, costs| {
                    for (lane_active, cost) in per_pe_active.iter_mut().zip(costs) {
                        *lane_active += cost;
                    }
                },
            )
        }
        Dataflow::InputStationary => {
            // A PE pins one value-buffer slot and walks its egress
            // list; a final pass applies the activations. Egress lists
            // are derived from the ingress lists.
            let (mut wall, mut active, mut waves) = (0u64, 0u64, 0u64);
            let nodes = plan.num_compute_nodes();
            let mut egress = vec![0u64; plan.value_buffer_slots()];
            for node in 0..nodes {
                for &(slot, _) in plan.node_edges(node) {
                    egress[slot as usize] += config.mac_cycles;
                }
            }
            for wave in egress.chunks(n) {
                let wave_max = wave.iter().copied().max().unwrap_or(0);
                if wave_max == 0 {
                    continue;
                }
                for (lane, &c) in wave.iter().enumerate() {
                    active += c;
                    per_pe_active[lane] += c;
                }
                wall += wave_max + config.wave_overhead_cycles;
                waves += 1;
            }
            // Activation pass over compute nodes.
            for first in (0..nodes).step_by(n) {
                for lane_active in per_pe_active.iter_mut().take(nodes - first) {
                    active += config.activation_cycles;
                    *lane_active += config.activation_cycles;
                }
                wall += config.activation_cycles + config.wave_overhead_cycles;
                waves += 1;
            }
            wall += config.level_sync_cycles;
            PuInferenceProfile {
                wall_cycles: wall,
                pe_active_cycles: active,
                pe_total_cycles: wall * n as u64,
                waves,
            }
        }
    };
    DetailedInferenceProfile {
        profile,
        per_pe_active,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::synthetic_net;
    use e3_neat::{Genome, InnovationTracker};

    fn two_level_net() -> NetPlan {
        // 2 inputs; hidden level of 3 nodes (via splits); output.
        let mut tracker = InnovationTracker::with_reserved_nodes(3);
        let mut g = Genome::bare(2, 1);
        let i1 = g.add_connection(0, 2, 1.0, &mut tracker).unwrap();
        let h1 = g
            .split_connection(i1, e3_neat::Activation::Relu, &mut tracker)
            .unwrap();
        let i2 = g.add_connection(1, 2, 1.0, &mut tracker).unwrap();
        let h2 = g
            .split_connection(i2, e3_neat::Activation::Relu, &mut tracker)
            .unwrap();
        let i3 = g.connection_between(0, h1).unwrap().innovation;
        let _ = i3;
        g.add_connection(1, h1, 0.5, &mut tracker).unwrap();
        g.add_connection(0, h2, 0.5, &mut tracker).unwrap();
        NetPlan::compile(&g).unwrap()
    }

    #[test]
    fn weight_stream_counts_connections_and_nodes() {
        assert_eq!(weight_stream_bytes(&two_level_net()), 4 * (6 + 3));
    }

    #[test]
    fn single_pe_has_full_utilization_modulo_overhead() {
        let config = InaxConfig::builder()
            .num_pe(1)
            .wave_overhead_cycles(0)
            .build();
        let mut config = config;
        config.level_sync_cycles = 0;
        let net = two_level_net();
        let p = schedule_inference(&config, &net);
        assert_eq!(p.pe_active_cycles, p.pe_total_cycles, "1 PE never idles");
        assert!((p.pe_utilization().rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hand_computed_schedule_matches() {
        // two_level_net: hidden level = [h1 (deg 2), h2 (deg 2)],
        // output level = [out (deg 2)].
        let net = two_level_net();
        assert_eq!(net.levels().len(), 2);
        let mut config = InaxConfig::builder().num_pe(2).build();
        config.wave_overhead_cycles = 0;
        config.level_sync_cycles = 0;
        let p = schedule_inference(&config, &net);
        // Wave 1: h1,h2 in parallel: max(2*1+2)=4. Wave 2: out: 4.
        assert_eq!(p.waves, 2);
        assert_eq!(p.wall_cycles, 8);
        assert_eq!(p.pe_active_cycles, 12); // 4 + 4 + 4
        assert_eq!(p.pe_total_cycles, 16);
        assert!((p.pe_utilization().rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn more_pes_reduce_wall_cycles_but_not_below_critical_path() {
        let net = synthetic_net(8, 4, 30, 0.2, 5);
        let mut prev_wall = u64::MAX;
        for num_pe in [1, 2, 4, 8, 16] {
            let config = InaxConfig::builder().num_pe(num_pe).build();
            let p = schedule_inference(&config, &net);
            assert!(p.wall_cycles <= prev_wall, "wall time is monotone in PEs");
            prev_wall = p.wall_cycles;
        }
    }

    #[test]
    fn utilization_degrades_with_overprovisioned_pes() {
        let net = synthetic_net(8, 4, 30, 0.2, 5);
        let u1 = schedule_inference(&InaxConfig::builder().num_pe(1).build(), &net)
            .pe_utilization()
            .rate();
        let u64_ = schedule_inference(&InaxConfig::builder().num_pe(64).build(), &net)
            .pe_utilization()
            .rate();
        assert!(
            u1 > u64_,
            "64 PEs must idle more than 1 PE ({u1} vs {u64_})"
        );
    }

    #[test]
    fn weight_stationary_is_slower_than_output_stationary() {
        let net = synthetic_net(8, 4, 30, 0.2, 7);
        let os = schedule_inference(
            &InaxConfig::builder()
                .num_pe(4)
                .dataflow(Dataflow::OutputStationary)
                .build(),
            &net,
        );
        let ws = schedule_inference(
            &InaxConfig::builder()
                .num_pe(4)
                .dataflow(Dataflow::WeightStationary)
                .build(),
            &net,
        );
        assert!(ws.wall_cycles > os.wall_cycles);
    }

    #[test]
    fn input_stationary_schedules_all_macs() {
        let net = two_level_net();
        let config = InaxConfig::builder()
            .num_pe(2)
            .dataflow(Dataflow::InputStationary)
            .build();
        let p = schedule_inference(&config, &net);
        // All 6 MAC cycles + 3 activations appear as active work.
        assert_eq!(p.pe_active_cycles, 6 + 3 * config.activation_cycles);
    }

    #[test]
    fn per_lane_activity_sums_to_aggregate_for_every_dataflow() {
        use Dataflow::{InputStationary as Is, OutputStationary as Os, WeightStationary as Ws};
        // (dataflow, PEs, wall, PE-active, PE-total, waves, per-lane
        // active) at default overheads — literals captured before the
        // three schedule loops became one walk.
        type Golden = (Dataflow, usize, u64, u64, u64, u64, &'static [u64]);
        const GOLDEN: [Golden; 9] = [
            (Os, 1, 228, 184, 228, 40, &[184]),
            (Os, 3, 109, 184, 327, 14, &[85, 61, 38]),
            (Os, 8, 73, 184, 584, 7, &[52, 38, 24, 16, 13, 12, 15, 14]),
            (Ws, 1, 412, 368, 412, 40, &[368]),
            (Ws, 3, 200, 368, 600, 14, &[170, 122, 76]),
            (Ws, 8, 135, 368, 1080, 7, &[104, 76, 48, 32, 26, 24, 30, 28]),
            (Is, 1, 269, 184, 269, 84, &[184]),
            (Is, 3, 109, 184, 327, 30, &[64, 60, 60]),
            (Is, 8, 46, 184, 368, 11, &[27, 22, 26, 20, 26, 26, 16, 21]),
        ];
        let net = synthetic_net(8, 4, 30, 0.2, 11);
        for (dataflow, num_pe, wall, active, total, waves, per_pe_active) in GOLDEN {
            let config = InaxConfig::builder()
                .num_pe(num_pe)
                .dataflow(dataflow)
                .build();
            let detailed = schedule_inference_detailed(&config, &net);
            let golden = DetailedInferenceProfile {
                profile: PuInferenceProfile {
                    wall_cycles: wall,
                    pe_active_cycles: active,
                    pe_total_cycles: total,
                    waves,
                },
                per_pe_active: per_pe_active.to_vec(),
            };
            assert_eq!(detailed, golden, "{dataflow:?} with {num_pe} PEs");
            assert_eq!(detailed.per_pe_active.len(), num_pe);
            assert_eq!(
                detailed.per_pe_active.iter().sum::<u64>(),
                detailed.profile.pe_active_cycles,
                "{dataflow:?} with {num_pe} PEs"
            );
            // Chunks fill from lane 0, so lane 0 works whenever
            // any lane does.
            if detailed.profile.pe_active_cycles > 0 {
                assert!(detailed.per_pe_active[0] > 0);
            }
            assert_eq!(
                detailed.profile,
                schedule_inference(&config, &net),
                "the aggregate schedule is the detailed one's summary"
            );
        }
    }

    #[test]
    fn pu_inference_is_functional_and_profiled() {
        let net = two_level_net();
        let expected = net.execute(&[0.5, -0.5]);
        let mut pu = PuSim::new(&InaxConfig::builder().num_pe(2).build(), net);
        let (out, profile) = pu.infer(&[0.5, -0.5]);
        assert_eq!(out, expected);
        assert!(profile.wall_cycles > 0);
        assert!(pu.setup_cycles() > 0);
    }

    #[test]
    fn episode_breakdown_scales_compute_not_setup() {
        let net = two_level_net();
        let pu = PuSim::new(&InaxConfig::default(), net);
        let b1 = pu.episode_breakdown(1);
        let b10 = pu.episode_breakdown(10);
        assert_eq!(b1.setup, b10.setup, "set-up happens once per episode");
        assert_eq!(b10.pe_active, 10 * b1.pe_active);
    }
}
