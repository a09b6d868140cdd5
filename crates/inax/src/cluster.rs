//! The INAX PU cluster: population-level parallelism and the
//! closed-loop batched-inference interface used by the E3 platform.
//!
//! The controller dispatches individuals to PUs in batches of `num_pu`
//! (paper §IV-C). Within a batch, every environment step runs one
//! synchronized inference wave across the resident PUs: the wave's
//! latency is the slowest resident network (paper §V-B issue 1), and
//! PUs whose episodes have already terminated idle until the whole
//! batch finishes (issue 2).

use crate::config::InaxConfig;
use crate::dma::{DmaModel, DmaTraffic};
use crate::profile::{CycleBreakdown, UtilizationBreakdown, UtilizationReport};
use crate::pu::{weight_stream_bytes, PuSim};
use e3_neat::NetPlan;
use serde::{Deserialize, Serialize};

/// Aggregate accounting for a run on the accelerator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EpisodeRunReport {
    /// Total accelerator wall cycles (set-up + compute + DMA).
    pub total_cycles: u64,
    /// Phase breakdown (Fig. 9(a) categories). PE-scope accounting.
    pub breakdown: CycleBreakdown,
    /// PU-level utilization (paper Eq. 1 at PU scope).
    pub pu_utilization: UtilizationReport,
    /// PE-level utilization aggregated over all inferences.
    pub pe_utilization: UtilizationReport,
    /// Cycles spent on DMA transfers (input/weight/output channels).
    pub dma_cycles: u64,
    /// Inference waves executed.
    pub steps: u64,
}

impl EpisodeRunReport {
    /// Accumulates another report into this one.
    ///
    /// Every field is an additive counter (utilization reports add
    /// their `active`/`total` resource-cycles), so merging the per-wave
    /// reports of several accelerator instances in wave order is
    /// exactly the accounting a single accelerator running all waves
    /// would produce — the property the parallel INAX backend relies
    /// on for bit-identical results.
    pub fn merge(&mut self, other: &EpisodeRunReport) {
        self.total_cycles += other.total_cycles;
        self.breakdown.setup += other.breakdown.setup;
        self.breakdown.pe_active += other.breakdown.pe_active;
        self.breakdown.evaluate_control += other.breakdown.evaluate_control;
        self.pu_utilization.merge(other.pu_utilization);
        self.pe_utilization.merge(other.pe_utilization);
        self.dma_cycles += other.dma_cycles;
        self.steps += other.steps;
    }
}

impl From<&EpisodeRunReport> for e3_telemetry::HwCounters {
    /// Flattens the cycle accounting into the plain telemetry
    /// counters (utilization reports become their rates).
    fn from(report: &EpisodeRunReport) -> Self {
        e3_telemetry::HwCounters {
            total_cycles: report.total_cycles,
            setup_cycles: report.breakdown.setup,
            pe_active_cycles: report.breakdown.pe_active,
            evaluate_control_cycles: report.breakdown.evaluate_control,
            dma_cycles: report.dma_cycles,
            pu_utilization: report.pu_utilization.rate(),
            pe_utilization: report.pe_utilization.rate(),
            steps: report.steps,
        }
    }
}

/// A simulated INAX instance: a cluster of PUs behind DMA channels.
///
/// Typical closed-loop use: [`InaxAccelerator::load_batch`] a batch of
/// compiled networks, then call [`InaxAccelerator::step`] once per
/// environment step with the inputs of the still-alive individuals
/// until the batch's episodes all finish; repeat for the next batch
/// and read [`InaxAccelerator::report`]. A caller that already knows
/// how long every resident's episode ran — the E3 platform, whose one
/// software kernel computes the same outputs bit for bit — replaces
/// the `step` loop with one [`InaxAccelerator::run_episodes`] call and
/// reads the same counters.
///
/// # Example
///
/// ```
/// use e3_inax::{InaxAccelerator, InaxConfig};
/// use e3_inax::synthetic::synthetic_population;
///
/// let config = InaxConfig::builder().num_pu(4).num_pe(4).build();
/// let mut acc = InaxAccelerator::new(config);
/// let nets = synthetic_population(4, 8, 4, 10, 0.3, 1);
/// acc.load_batch(nets);
/// let inputs = vec![Some(vec![0.5; 8]); 4];
/// let outputs = acc.step(&inputs);
/// assert_eq!(outputs.len(), 4);
/// assert!(outputs[0].is_some());
/// assert!(acc.report().total_cycles > 0);
/// ```
#[derive(Debug)]
pub struct InaxAccelerator {
    config: InaxConfig,
    dma: DmaModel,
    traffic: DmaTraffic,
    pus: Vec<PuSim>,
    report: EpisodeRunReport,
    util: UtilizationBreakdown,
}

impl InaxAccelerator {
    /// Creates an empty accelerator.
    pub fn new(config: InaxConfig) -> Self {
        let dma = DmaModel::new(config.dma_bytes_per_cycle, config.dma_latency_cycles);
        let util = UtilizationBreakdown::new(config.num_pu.max(1), config.num_pe.max(1));
        InaxAccelerator {
            config,
            dma,
            traffic: DmaTraffic::default(),
            pus: Vec::new(),
            report: EpisodeRunReport::default(),
            util,
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &InaxConfig {
        &self.config
    }

    /// Loads a batch of individuals onto the PUs (set-up phase):
    /// weight streams move serially over the shared weight channel,
    /// then all PUs decode in parallel.
    ///
    /// # Panics
    ///
    /// Panics if the batch exceeds `num_pu`.
    pub fn load_batch(&mut self, nets: Vec<NetPlan>) {
        assert!(
            nets.len() <= self.config.num_pu,
            "batch of {} exceeds {} PUs",
            nets.len(),
            self.config.num_pu
        );
        let mut dma_cycles = 0u64;
        for net in &nets {
            let bytes = weight_stream_bytes(net);
            dma_cycles += self.traffic.transfer(&self.dma, bytes);
            self.util.weight_buffer_hwm_bytes = self.util.weight_buffer_hwm_bytes.max(bytes);
        }
        self.pus = nets
            .into_iter()
            .map(|n| PuSim::new(&self.config, n))
            .collect();
        let decode = self.pus.iter().map(PuSim::setup_cycles).max().unwrap_or(0);
        for pu in &self.pus {
            self.util.value_buffer_hwm_slots = self
                .util
                .value_buffer_hwm_slots
                .max(pu.plan().value_buffer_slots() as u64);
        }
        // Per-PU states over the set-up phase: a resident PU computes
        // its own decode, then stalls on the shared weight channel
        // (peer decodes + DMA); empty PUs idle through the whole phase.
        for (index, cycles) in self.util.per_pu.iter_mut().enumerate() {
            if let Some(pu) = self.pus.get(index) {
                let own = pu.setup_cycles();
                cycles.busy += own;
                cycles.stall += (decode - own) + dma_cycles;
            } else {
                cycles.idle += decode + dma_cycles;
            }
        }
        self.util.dma_bytes = self.traffic.bytes;
        self.report.dma_cycles += dma_cycles;
        self.report.breakdown.setup += decode + dma_cycles;
        self.report.total_cycles += decode + dma_cycles;
    }

    /// Number of currently resident individuals.
    pub fn resident(&self) -> usize {
        self.pus.len()
    }

    /// Runs one synchronized inference wave. `inputs[i]` carries the
    /// observation for resident individual `i`, or `None` if its
    /// episode already terminated (its PU idles through the wave).
    /// Returns one output vector per resident individual.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the resident batch size.
    pub fn step(&mut self, inputs: &[Option<Vec<f64>>]) -> Vec<Option<Vec<f64>>> {
        assert_eq!(
            inputs.len(),
            self.pus.len(),
            "one input slot per resident individual"
        );
        let outputs = self
            .pus
            .iter_mut()
            .zip(inputs)
            .map(|(pu, input)| input.as_ref().map(|obs| pu.infer(obs).0))
            .collect();
        self.account_waves(|resident| inputs[resident].is_some(), 1);
        outputs
    }

    /// Accounts one scenario's episodes without executing them:
    /// resident `i` stays alive for `lengths[i]` lock-step waves, then
    /// its PU idles until the longest episode ends. The counters are
    /// exactly what driving [`InaxAccelerator::step`] with that alive
    /// pattern leaves behind: the inference schedule is
    /// input-independent, so a wave's cost depends only on *which*
    /// residents are alive, and every counter is an integer that grows
    /// linearly in the number of waves sharing one alive set. Waves are
    /// therefore grouped between consecutive distinct episode lengths
    /// and each group is accounted once.
    ///
    /// # Panics
    ///
    /// Panics if `lengths.len()` differs from the resident batch size.
    pub fn run_episodes(&mut self, lengths: &[u64]) {
        assert_eq!(
            lengths.len(),
            self.pus.len(),
            "one episode length per resident individual"
        );
        let mut ends = lengths.to_vec();
        ends.sort_unstable();
        ends.dedup();
        let mut done = 0u64;
        for end in ends {
            self.account_waves(|resident| lengths[resident] > done, end - done);
            done = end;
        }
    }

    /// Charges `waves` synchronized inference waves in which exactly
    /// the residents `alive` answers `true` for infer — the one
    /// accounting path behind [`InaxAccelerator::step`] and
    /// [`InaxAccelerator::run_episodes`].
    fn account_waves(&mut self, alive: impl Fn(usize) -> bool, waves: u64) {
        let running = || {
            let residents = self.pus.iter().enumerate();
            residents.filter_map(|(resident, pu)| alive(resident).then_some(pu))
        };
        // Observations in and actions out move serially over their
        // channels, one transaction each per wave (8 bytes per f64).
        let in_bytes: u64 = running().map(|pu| 8 * pu.plan().num_inputs() as u64).sum();
        let out_bytes: u64 = running()
            .map(|pu| 8 * pu.plan().outputs().len() as u64)
            .sum();
        let wave_wall = running()
            .map(|pu| pu.inference_profile().wall_cycles)
            .max()
            .unwrap_or(0);
        let wall = wave_wall * waves;
        let dma = self.traffic.transfer_repeated(&self.dma, in_bytes, waves)
            + self.traffic.transfer_repeated(&self.dma, out_bytes, waves);

        let mut pu_active = 0u64;
        for (index, cycles) in self.util.per_pu.iter_mut().enumerate() {
            let pu = match self.pus.get(index) {
                Some(pu) if alive(index) => pu,
                // Dead and empty PUs idle through every wave.
                _ => {
                    cycles.idle += wall + dma;
                    continue;
                }
            };
            let profile = pu.inference_profile();
            pu_active += profile.wall_cycles * waves;
            self.report.breakdown.pe_active += profile.pe_active_cycles * waves;
            self.report.breakdown.evaluate_control += profile.control_cycles() * waves;
            self.report.pe_utilization.merge(UtilizationReport {
                active: profile.pe_active_cycles * waves,
                total: profile.pe_total_cycles * waves,
            });
            // Per-PE-lane states while the PU infers: lane `j` is busy
            // for its node assignments and idles out the rest of its
            // PU's wall time, so Σ lane busy reconciles with the
            // aggregate `pe_active` counter and Σ lane idle with
            // `evaluate_control`.
            for (lane, &busy) in pu.per_pe_active().iter().enumerate() {
                let lane_cycles = &mut self.util.per_pe[lane];
                lane_cycles.busy += busy * waves;
                lane_cycles.idle += profile.wall_cycles.saturating_sub(busy) * waves;
            }
            // An alive PU computes its own inference, idles at the
            // barrier until the slowest resident finishes, and stalls
            // on the serial observation/action DMA.
            cycles.busy += profile.wall_cycles * waves;
            cycles.idle += (wave_wall - profile.wall_cycles) * waves;
            cycles.stall += dma;
        }

        // Idle PU time within a wave (slow-network lag + dead episodes
        // across the whole provisioned cluster) is charged to
        // evaluate-control at PU scope.
        self.report.pu_utilization.merge(UtilizationReport {
            active: pu_active,
            total: self.config.num_pu as u64 * wall,
        });
        self.util.dma_bytes = self.traffic.bytes;
        self.report.dma_cycles += dma;
        self.report.total_cycles += wall + dma;
        self.report.steps += waves;
    }

    /// Clears the resident batch (episodes done); accounting persists.
    pub fn unload_batch(&mut self) {
        self.pus.clear();
    }

    /// Cumulative run report.
    pub fn report(&self) -> EpisodeRunReport {
        self.report
    }

    /// Cumulative cycle-level utilization breakdown. Reconciles with
    /// [`InaxAccelerator::report`]: every PU's `busy + idle + stall`
    /// equals the report's `total_cycles`, and the PE lanes' summed
    /// `busy` equals the report's `pe_active` breakdown.
    pub fn utilization(&self) -> &UtilizationBreakdown {
        &self.util
    }

    /// Resets the cumulative accounting (e.g. between experiments).
    pub fn reset_report(&mut self) {
        self.report = EpisodeRunReport::default();
        self.traffic = DmaTraffic::default();
        self.util = UtilizationBreakdown::new(self.config.num_pu.max(1), self.config.num_pe.max(1));
    }
}

/// Work description of one individual's full episode, used by the
/// analytical PU-parallelism study (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpisodeWork {
    /// Wall cycles of one inference for this individual's network.
    pub inference_cycles: u64,
    /// Environment steps the individual survives.
    pub steps: u64,
}

impl EpisodeWork {
    /// Total busy cycles of this individual's episode.
    pub fn total_cycles(&self) -> u64 {
        self.inference_cycles * self.steps
    }
}

/// Analytical model of running `episodes` on a cluster of `num_pu`
/// PUs: individuals are dispatched in batches; each batch occupies the
/// cluster until its slowest episode finishes (lock-step inference
/// waves per env step, PUs with finished episodes idle). Returns
/// `(total_wall_cycles, pu_utilization)`.
///
/// This is the model behind the paper's Fig. 7: `U(PU)` has local
/// peaks at `⌈p/2⌉, ⌈p/3⌉, …` because those divide the population into
/// full batches.
pub fn analyze_pu_parallelism(num_pu: usize, episodes: &[EpisodeWork]) -> (u64, UtilizationReport) {
    assert!(num_pu > 0, "need at least one PU");
    let mut wall = 0u64;
    let mut util = UtilizationReport::default();
    for batch in episodes.chunks(num_pu) {
        let batch_wall = batch
            .iter()
            .map(EpisodeWork::total_cycles)
            .max()
            .unwrap_or(0);
        let active: u64 = batch.iter().map(EpisodeWork::total_cycles).sum();
        wall += batch_wall;
        util.merge(UtilizationReport {
            active,
            total: num_pu as u64 * batch_wall,
        });
    }
    (wall, util)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::synthetic_population;

    fn uniform_episodes(count: usize, cycles: u64, steps: u64) -> Vec<EpisodeWork> {
        vec![
            EpisodeWork {
                inference_cycles: cycles,
                steps
            };
            count
        ]
    }

    #[test]
    fn pu_divisors_of_population_have_full_utilization() {
        let episodes = uniform_episodes(200, 100, 10);
        for num_pu in [200, 100, 50, 25, 10] {
            let (_, util) = analyze_pu_parallelism(num_pu, &episodes);
            assert!(
                (util.rate() - 1.0).abs() < 1e-12,
                "uniform work on divisor {num_pu} must be fully utilized, got {}",
                util.rate()
            );
        }
    }

    #[test]
    fn just_below_divisor_wastes_a_batch() {
        // Paper §V-B: with p=200, 100 PUs needs 2 batches; 99 PUs needs
        // 3 batches with the last batch 98% idle.
        let episodes = uniform_episodes(200, 100, 10);
        let (wall_100, util_100) = analyze_pu_parallelism(100, &episodes);
        let (wall_99, util_99) = analyze_pu_parallelism(99, &episodes);
        assert!(wall_99 > wall_100);
        assert!(util_99.rate() < util_100.rate());
        assert!(
            (wall_99 as f64 / wall_100 as f64 - 1.5).abs() < 1e-9,
            "3 batches vs 2"
        );
    }

    #[test]
    fn more_pus_reduce_wall_time_for_uniform_work() {
        let episodes = uniform_episodes(150, 80, 7);
        let mut prev = u64::MAX;
        for num_pu in 1..=150 {
            let (wall, _) = analyze_pu_parallelism(num_pu, &episodes);
            assert!(wall <= prev, "uniform work is monotone at {num_pu} PUs");
            prev = wall;
        }
    }

    #[test]
    fn heterogeneous_work_is_bounded_by_serial_and_full_parallel() {
        // With variable episode lengths the trend still holds even
        // though batch-boundary shifts make it non-strict: any PU count
        // beats serial execution, and full parallelism is optimal.
        let episodes: Vec<EpisodeWork> = (0..150)
            .map(|i| EpisodeWork {
                inference_cycles: 50 + (i % 7) * 10,
                steps: 5 + (i % 13),
            })
            .collect();
        let (serial, serial_util) = analyze_pu_parallelism(1, &episodes);
        let (full, _) = analyze_pu_parallelism(150, &episodes);
        assert!(
            (serial_util.rate() - 1.0).abs() < 1e-12,
            "one PU never idles"
        );
        for num_pu in 2..150 {
            let (wall, util) = analyze_pu_parallelism(num_pu, &episodes);
            assert!(wall <= serial, "{num_pu} PUs must beat serial");
            assert!(wall >= full, "nothing beats full parallelism");
            assert!(util.rate() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn closed_loop_step_accounts_cycles_and_outputs() {
        let config = InaxConfig::builder().num_pu(3).num_pe(2).build();
        let mut acc = InaxAccelerator::new(config);
        let nets = synthetic_population(3, 4, 2, 6, 0.4, 9);
        let refs: Vec<_> = nets
            .iter()
            .map(|n| n.execute(&[0.1, 0.2, 0.3, 0.4]))
            .collect();
        acc.load_batch(nets);
        let setup = acc.report().breakdown.setup;
        assert!(setup > 0);
        let inputs = vec![Some(vec![0.1, 0.2, 0.3, 0.4]); 3];
        let outs = acc.step(&inputs);
        for (out, reference) in outs.iter().zip(&refs) {
            assert_eq!(
                out.as_ref().unwrap(),
                reference,
                "HW must match SW bit-for-bit"
            );
        }
        let report = acc.report();
        assert_eq!(report.steps, 1);
        assert!(report.total_cycles > setup);
        assert!(report.pu_utilization.rate() <= 1.0);
    }

    #[test]
    fn dead_individuals_idle_their_pus() {
        let config = InaxConfig::builder().num_pu(2).num_pe(1).build();
        let mut acc = InaxAccelerator::new(config.clone());
        let nets = synthetic_population(2, 4, 2, 6, 0.4, 5);
        acc.load_batch(nets.clone());
        let full = vec![Some(vec![0.0; 4]); 2];
        acc.step(&full);
        let util_full = acc.report().pu_utilization.rate();

        let mut acc2 = InaxAccelerator::new(config);
        acc2.load_batch(nets);
        let half = vec![Some(vec![0.0; 4]), None];
        acc2.step(&half);
        let util_half = acc2.report().pu_utilization.rate();
        assert!(
            util_half < util_full,
            "a dead episode must reduce PU utilization"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_batch_rejected() {
        let mut acc = InaxAccelerator::new(InaxConfig::builder().num_pu(1).build());
        acc.load_batch(synthetic_population(2, 4, 2, 4, 0.4, 1));
    }

    #[test]
    fn utilization_reconciles_with_aggregate_cycle_counts() {
        // Mixed life cycle: load 3 of 4 PUs, one full wave, one wave
        // with a dead episode — every PU's busy+idle+stall must still
        // equal the aggregate wall cycles, and summed PE-lane busy
        // must equal the pe_active breakdown.
        let config = InaxConfig::builder().num_pu(4).num_pe(3).build();
        let mut acc = InaxAccelerator::new(config);
        let nets = synthetic_population(3, 4, 2, 8, 0.4, 21);
        acc.load_batch(nets);
        acc.step(&vec![Some(vec![0.1; 4]); 3]);
        acc.step(&[Some(vec![0.2; 4]), None, Some(vec![0.3; 4])]);
        acc.unload_batch();

        let report = acc.report();
        let util = acc.utilization();
        assert_eq!(util.per_pu.len(), 4);
        assert_eq!(util.per_pe.len(), 3);
        for (pu, cycles) in util.per_pu.iter().enumerate() {
            assert_eq!(
                cycles.total(),
                report.total_cycles,
                "PU {pu} accounting must partition the wall cycles"
            );
        }
        // PU 3 never held an individual; PU 1 additionally idled
        // through wave 2.
        assert_eq!(util.per_pu[3].busy, 0);
        assert!(util.per_pu[1].idle > util.per_pu[0].idle);
        let lane_busy: u64 = util.per_pe.iter().map(|c| c.busy).sum();
        assert_eq!(lane_busy, report.breakdown.pe_active);
        let lane_idle: u64 = util.per_pe.iter().map(|c| c.idle).sum();
        assert_eq!(lane_idle, report.breakdown.evaluate_control);
        assert!(util.dma_bytes > 0);
        assert!(util.weight_buffer_hwm_bytes > 0);
        assert!(util.value_buffer_hwm_slots >= 8, "hidden + io slots");
    }

    #[test]
    fn merged_per_wave_utilization_equals_single_accelerator() {
        let config = InaxConfig::builder().num_pu(2).num_pe(2).build();
        let nets = synthetic_population(4, 4, 2, 6, 0.5, 9);
        let inputs = |n: usize| vec![Some(vec![0.25; 4]); n];

        let mut single = InaxAccelerator::new(config.clone());
        for wave in nets.chunks(2) {
            single.load_batch(wave.to_vec());
            single.step(&inputs(wave.len()));
            single.unload_batch();
        }

        let mut merged = UtilizationBreakdown::default();
        for wave in nets.chunks(2) {
            let mut acc = InaxAccelerator::new(config.clone());
            acc.load_batch(wave.to_vec());
            acc.step(&inputs(wave.len()));
            acc.unload_batch();
            merged.merge(acc.utilization());
        }
        assert_eq!(&merged, single.utilization());
    }

    #[test]
    fn merged_per_wave_reports_equal_single_accelerator_accounting() {
        // Two waves on one accelerator vs one accelerator per wave,
        // merged in wave order: the accounting must be identical.
        let config = InaxConfig::builder().num_pu(2).num_pe(2).build();
        let nets = synthetic_population(4, 4, 2, 6, 0.5, 9);
        let inputs = |n: usize| vec![Some(vec![0.25; 4]); n];

        let mut single = InaxAccelerator::new(config.clone());
        for wave in nets.chunks(2) {
            single.load_batch(wave.to_vec());
            single.step(&inputs(wave.len()));
            single.unload_batch();
        }

        let mut merged = EpisodeRunReport::default();
        for wave in nets.chunks(2) {
            let mut acc = InaxAccelerator::new(config.clone());
            acc.load_batch(wave.to_vec());
            acc.step(&inputs(wave.len()));
            acc.unload_batch();
            merged.merge(&acc.report());
        }
        assert_eq!(merged, single.report());
    }

    #[test]
    fn unload_preserves_accounting() {
        let mut acc = InaxAccelerator::new(InaxConfig::builder().num_pu(2).build());
        acc.load_batch(synthetic_population(2, 4, 2, 4, 0.4, 2));
        let before = acc.report().total_cycles;
        acc.unload_batch();
        assert_eq!(acc.resident(), 0);
        assert_eq!(acc.report().total_cycles, before);
    }
}
