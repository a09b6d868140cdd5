//! Per-layer probes: genomes captured from a traced run are replayed
//! through each layer's public functions in isolation.
//!
//! One recording pass stores the observations and actions of real
//! episodes; activations and environment steps are then each timed
//! alone, replaying the recording in a tight loop. The only timer sits
//! around a whole replay, never inside it.

use crate::clock;
use e3_envs::{decode_action, Action, EnvId, StepBatch};
use e3_jit::CompiledPlan;
use e3_neat::{Genome, NetPlan, Network, PlanBatch, Population};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Genomes of a snapshot the scalar probes replay (the batch probes
/// take the whole snapshot, as the program does).
const SCALAR_GENOMES: usize = 16;
/// Steps recorded per scalar episode and per lockstep batch.
const RECORDED_STEPS: usize = 256;
/// How long each probe repeats its replay.
const PROBE_BUDGET: Duration = Duration::from_millis(15);

/// Calls `body` until [`PROBE_BUDGET`] is spent; seconds per call at
/// the nominal clock, so that a probe compares with a generation timed
/// seconds earlier at another clock.
fn seconds_per_call(mut body: impl FnMut()) -> f64 {
    let hz_before = clock::hz();
    let start = Instant::now();
    let mut calls = 0u32;
    loop {
        body();
        calls += 1;
        let elapsed = start.elapsed();
        if elapsed >= PROBE_BUDGET {
            let hz = (hz_before + clock::hz()) / 2.0;
            return clock::at_nominal(elapsed.as_secs_f64(), hz) / f64::from(calls);
        }
    }
}

/// What the probes measured on one snapshot of genomes.
#[derive(Debug, Clone, Default)]
pub struct LayerProbes {
    pub compile_us_per_genome: f64,
    pub fingerprint_ns_per_genome: f64,
    pub activate_ns: f64,
    pub batch_build_us_per_pop: f64,
    pub batch_activate_ns_per_lane: f64,
    pub env_step_ns: f64,
    pub env_batch_step_ns_per_lane: f64,
    pub env_reset_ns: f64,
    pub jit_compile_us_per_plan: f64,
    pub jit_code_bytes_per_plan: f64,
    pub jit_native_activate_ns: f64,
    /// Exact structure counts of the snapshot.
    pub mean_nodes: f64,
    pub mean_enabled_connections: f64,
    pub mean_levels: f64,
}

impl LayerProbes {
    /// Field-wise mean of several snapshots' probes.
    pub fn mean(all: &[LayerProbes]) -> LayerProbes {
        let n = all.len().max(1) as f64;
        let avg = |f: fn(&LayerProbes) -> f64| all.iter().map(f).sum::<f64>() / n;
        LayerProbes {
            compile_us_per_genome: avg(|p| p.compile_us_per_genome),
            fingerprint_ns_per_genome: avg(|p| p.fingerprint_ns_per_genome),
            activate_ns: avg(|p| p.activate_ns),
            batch_build_us_per_pop: avg(|p| p.batch_build_us_per_pop),
            batch_activate_ns_per_lane: avg(|p| p.batch_activate_ns_per_lane),
            env_step_ns: avg(|p| p.env_step_ns),
            env_batch_step_ns_per_lane: avg(|p| p.env_batch_step_ns_per_lane),
            env_reset_ns: avg(|p| p.env_reset_ns),
            jit_compile_us_per_plan: avg(|p| p.jit_compile_us_per_plan),
            jit_code_bytes_per_plan: avg(|p| p.jit_code_bytes_per_plan),
            jit_native_activate_ns: avg(|p| p.jit_native_activate_ns),
            mean_nodes: avg(|p| p.mean_nodes),
            mean_enabled_connections: avg(|p| p.mean_enabled_connections),
            mean_levels: avg(|p| p.mean_levels),
        }
    }
}

/// One recorded scalar episode.
struct Episode {
    observations: Vec<Vec<f64>>,
    actions: Vec<Action>,
}

fn record_episode(net: &mut Network, env_id: EnvId, seed: u64) -> Episode {
    let mut env = env_id.make();
    let space = env.action_space();
    let mut episode = Episode {
        observations: Vec::new(),
        actions: Vec::new(),
    };
    let mut obs = env.reset(seed);
    for _ in 0..RECORDED_STEPS {
        let action = decode_action(net.activate_into(&obs), &space);
        let step = env.step(&action);
        episode.observations.push(obs);
        episode.actions.push(action);
        if step.terminated || step.truncated {
            break;
        }
        obs = step.observation;
    }
    episode
}

/// One recorded lockstep batch: per step, what the kernel read.
struct Lockstep {
    observations: Vec<Vec<f64>>,
    active: Vec<Vec<bool>>,
    actions: Vec<Vec<Action>>,
    lane_steps: usize,
}

fn record_lockstep(batch: &PlanBatch, env_id: EnvId, seed: u64) -> Lockstep {
    let lanes = batch.lanes();
    let mut env = env_id.make_batch(lanes);
    let space = env.action_space();
    let mut sb = StepBatch::new(lanes, env.observation_size());
    env.reset_batch(&vec![seed; lanes], &mut sb);
    let k = batch.num_outputs();
    let mut values = vec![0.0; batch.value_buffer_slots()];
    let mut outputs = vec![0.0; lanes * k];
    let mut actions = vec![Action::Discrete(0); lanes];
    let mut recorded = Lockstep {
        observations: Vec::new(),
        active: Vec::new(),
        actions: Vec::new(),
        lane_steps: 0,
    };
    while !sb.all_parked() && recorded.observations.len() < RECORDED_STEPS {
        batch.activate_batch_into(&sb.observations, &sb.active, &mut values, &mut outputs);
        for lane in 0..lanes {
            if sb.active[lane] {
                actions[lane] = decode_action(&outputs[lane * k..(lane + 1) * k], &space);
            }
        }
        recorded.lane_steps += sb.active_lanes();
        recorded.observations.push(sb.observations.clone());
        recorded.active.push(sb.active.clone());
        recorded.actions.push(actions.clone());
        env.step_batch(&actions, &mut sb);
    }
    recorded
}

/// Runs every probe on one snapshot. `jit` adds the native-code
/// probes (they are meaningless, and skipped, for other workloads).
/// Returns `None` if a genome does not decode — the program would have
/// failed the generation too.
pub fn probe_snapshot(
    genomes: &[Genome],
    env_id: EnvId,
    seed: u64,
    jit: bool,
) -> Option<LayerProbes> {
    let plans: Vec<NetPlan> = genomes
        .iter()
        .map(NetPlan::compile)
        .collect::<Result<_, _>>()
        .ok()?;
    let n = genomes.len().max(1) as f64;
    let mut probes = LayerProbes {
        mean_nodes: genomes.iter().map(|g| g.nodes().len()).sum::<usize>() as f64 / n,
        mean_enabled_connections: genomes
            .iter()
            .map(Genome::num_enabled_connections)
            .sum::<usize>() as f64
            / n,
        mean_levels: plans.iter().map(NetPlan::num_compute_levels).sum::<usize>() as f64 / n,
        ..LayerProbes::default()
    };

    probes.compile_us_per_genome = seconds_per_call(|| {
        for genome in genomes {
            black_box(NetPlan::compile(black_box(genome)).ok());
        }
    }) / n
        * 1e6;
    probes.fingerprint_ns_per_genome = seconds_per_call(|| {
        for genome in genomes {
            black_box(black_box(genome).fingerprint());
        }
    }) / n
        * 1e9;

    // Scalar route: what the JIT tier and the held-out pass run.
    let scalar = &plans[..plans.len().min(SCALAR_GENOMES)];
    let mut nets: Vec<Network> = scalar.iter().cloned().map(Network::from_plan).collect();
    let episodes: Vec<Episode> = nets
        .iter_mut()
        .map(|net| record_episode(net, env_id, seed))
        .collect();
    let scalar_steps = episodes
        .iter()
        .map(|e| e.actions.len())
        .sum::<usize>()
        .max(1) as f64;
    probes.activate_ns = seconds_per_call(|| {
        for (net, episode) in nets.iter_mut().zip(&episodes) {
            for obs in &episode.observations {
                black_box(net.activate_into(black_box(obs)));
            }
        }
    }) / scalar_steps
        * 1e9;
    let mut env = env_id.make();
    let reset_s = seconds_per_call(|| {
        black_box(env.reset(black_box(seed)));
    });
    probes.env_reset_ns = reset_s * 1e9;
    // Each replay must reset before it can step; the reset's share is
    // taken back out.
    let replay_s = seconds_per_call(|| {
        for episode in &episodes {
            env.reset(seed);
            for action in &episode.actions {
                black_box(env.step(black_box(action)));
            }
        }
    });
    probes.env_step_ns = (replay_s - reset_s * episodes.len() as f64).max(0.0) / scalar_steps * 1e9;

    // Batched route: what every other software workload runs.
    let refs: Vec<&NetPlan> = plans.iter().collect();
    probes.batch_build_us_per_pop = seconds_per_call(|| {
        black_box(PlanBatch::build(black_box(&refs)));
    }) * 1e6;
    let batch = PlanBatch::build(&refs);
    let lockstep = record_lockstep(&batch, env_id, seed);
    let lane_steps = lockstep.lane_steps.max(1) as f64;
    let mut values = vec![0.0; batch.value_buffer_slots()];
    let mut outputs = vec![0.0; batch.lanes() * batch.num_outputs()];
    probes.batch_activate_ns_per_lane = seconds_per_call(|| {
        for (obs, active) in lockstep.observations.iter().zip(&lockstep.active) {
            batch.activate_batch_into(obs, active, &mut values, &mut outputs);
        }
        black_box(&outputs);
    }) / lane_steps
        * 1e9;
    let lanes = batch.lanes();
    let mut batch_env = env_id.make_batch(lanes);
    let mut sb = StepBatch::new(lanes, batch_env.observation_size());
    let seeds = vec![seed; lanes];
    // The one `reset_batch` per replay is left in: under half a
    // percent of a 256-step replay.
    probes.env_batch_step_ns_per_lane = seconds_per_call(|| {
        batch_env.reset_batch(&seeds, &mut sb);
        for actions in &lockstep.actions {
            batch_env.step_batch(actions, &mut sb);
        }
        black_box(&sb);
    }) / lane_steps
        * 1e9;

    if jit {
        let mut compiled: Vec<CompiledPlan> = Vec::new();
        for plan in scalar {
            // An unsupported target leaves the native probes at zero.
            match CompiledPlan::compile(plan) {
                Ok(native) => compiled.push(native),
                Err(_) => return Some(probes),
            }
        }
        let m = compiled.len().max(1) as f64;
        probes.jit_code_bytes_per_plan =
            compiled.iter().map(CompiledPlan::code_bytes).sum::<usize>() as f64 / m;
        probes.jit_compile_us_per_plan = seconds_per_call(|| {
            for plan in scalar {
                black_box(CompiledPlan::compile(black_box(plan)).ok());
            }
        }) / m
            * 1e6;
        probes.jit_native_activate_ns = seconds_per_call(|| {
            for (native, episode) in compiled.iter_mut().zip(&episodes) {
                for obs in &episode.observations {
                    black_box(native.activate_into(black_box(obs)));
                }
            }
        }) / scalar_steps
            * 1e9;
    }
    Some(probes)
}

/// Milliseconds of one `Population::evolve` (speciate + reproduce) on
/// clones of an evaluated population.
pub fn evolve_ms(evaluated: &Population) -> f64 {
    // The clone is made outside the timed call.
    let hz_before = clock::hz();
    let mut total = Duration::ZERO;
    let mut calls = 0u32;
    while total < PROBE_BUDGET * 2 {
        let mut population = evaluated.clone();
        let start = Instant::now();
        population.evolve();
        total += start.elapsed();
        calls += 1;
        black_box(&population);
    }
    let hz = (hz_before + clock::hz()) / 2.0;
    clock::at_nominal(total.as_secs_f64(), hz) / f64::from(calls) * 1e3
}

/// Cost of one `Instant::now()` pair, in nanoseconds: the floor under
/// every interval the harness reports.
pub fn timer_pair_ns() -> f64 {
    const PAIRS: u32 = 10_000;
    let start = Instant::now();
    for _ in 0..PAIRS {
        let a = Instant::now();
        let b = Instant::now();
        black_box(b - a);
    }
    start.elapsed().as_secs_f64() / f64::from(PAIRS) * 1e9
}
