//! Fig. 2 — convergence traces of A2C, PPO2 and NEAT across the suite.
//!
//! The paper plots achieved fitness (normalized to `[0, 1]` per task)
//! against runtime for (a) A2C-small, (b) PPO2-small, (c) PPO2-large
//! and (d) NEAT, with a red box around tasks that never reach the
//! required fitness. The reproduced claim is qualitative: **NEAT
//! reaches the required fitness on every task in the suite within its
//! budget, while the RL baselines miss some** (and the large network
//! needs more runtime than the small one).
//!
//! Runtime axes: the RL agents report measured wall-clock of this
//! crate's implementations; NEAT reports the platform's modeled time
//! (see DESIGN.md on why raw wall-clock of a Rust reimplementation is
//! not comparable to the paper's Python stack). Normalized fitness is
//! directly comparable.

use crate::backend::BackendKind;
use crate::experiments::Scale;
use crate::platform::{E3Config, E3Platform};
use e3_envs::EnvId;
use e3_rl::{A2c, A2cConfig, NetworkSize, Ppo, PpoConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The four panels of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Fig2Algo {
    /// Panel (a).
    A2cSmall,
    /// Panel (b).
    Ppo2Small,
    /// Panel (c).
    Ppo2Large,
    /// Panel (d).
    Neat,
}

impl Fig2Algo {
    /// All panels in paper order.
    pub(crate) const ALL: [Fig2Algo; 4] = [
        Fig2Algo::A2cSmall,
        Fig2Algo::Ppo2Small,
        Fig2Algo::Ppo2Large,
        Fig2Algo::Neat,
    ];

    /// Display label.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Fig2Algo::A2cSmall => "A2C-small",
            Fig2Algo::Ppo2Small => "PPO2-small",
            Fig2Algo::Ppo2Large => "PPO2-large",
            Fig2Algo::Neat => "NEAT",
        }
    }
}

/// One algorithm × environment trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Trace {
    /// Environment.
    pub env: EnvId,
    /// Algorithm.
    pub algo: Fig2Algo,
    /// `(seconds, normalized fitness)` checkpoints.
    pub points: Vec<(f64, f64)>,
    /// Whether the required fitness was reached (the paper's red box
    /// marks the failures).
    pub reached_required: bool,
}

impl Fig2Trace {
    /// Best normalized fitness along the trace.
    pub(crate) fn best(&self) -> f64 {
        self.points.iter().map(|p| p.1).fold(0.0, f64::max)
    }
}

/// Fig. 2 result: traces for every panel × environment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Result {
    /// All traces.
    pub traces: Vec<Fig2Trace>,
}

impl Fig2Result {
    /// Traces of one panel.
    pub(crate) fn panel(&self, algo: Fig2Algo) -> impl Iterator<Item = &Fig2Trace> {
        self.traces.iter().filter(move |t| t.algo == algo)
    }
}

fn rl_trace<F: FnMut(u64) -> f64>(
    env: EnvId,
    algo: Fig2Algo,
    budget: u64,
    checkpoints: usize,
    mut train_to: F,
) -> Fig2Trace {
    let mut points = Vec::with_capacity(checkpoints);
    let start = std::time::Instant::now();
    let mut reached = false;
    for i in 1..=checkpoints {
        let reward = train_to(budget * i as u64 / checkpoints as u64);
        let normalized = if reward.is_finite() {
            env.normalized_fitness(reward)
        } else {
            0.0
        };
        points.push((start.elapsed().as_secs_f64(), normalized));
        if normalized >= 1.0 {
            reached = true;
            break;
        }
    }
    Fig2Trace {
        env,
        algo,
        points,
        reached_required: reached,
    }
}

/// Runs one panel on one environment. The Large network trains on a
/// quarter of the step budget: its per-step cost is ~20× the Small
/// network's, and the paper's point for PPO2-large is only that more
/// capacity needs more runtime.
pub(crate) fn run_one(env: EnvId, algo: Fig2Algo, scale: Scale, seed: u64) -> Fig2Trace {
    let budget = match algo {
        Fig2Algo::Ppo2Large => scale.rl_steps() / 4,
        _ => scale.rl_steps(),
    };
    match algo {
        Fig2Algo::A2cSmall => {
            let mut agent = A2c::new(A2cConfig::new(env, NetworkSize::Small), seed);
            rl_trace(env, algo, budget, 10, |target| {
                agent.train_steps(target - agent.total_env_steps().min(target))
            })
        }
        Fig2Algo::Ppo2Small => {
            let mut agent = Ppo::new(PpoConfig::new(env, NetworkSize::Small), seed);
            rl_trace(env, algo, budget, 10, |target| {
                agent.train_steps(target - agent.total_env_steps().min(target))
            })
        }
        Fig2Algo::Ppo2Large => {
            let mut agent = Ppo::new(PpoConfig::new(env, NetworkSize::Large), seed);
            rl_trace(env, algo, budget, 10, |target| {
                agent.train_steps(target - agent.total_env_steps().min(target))
            })
        }
        Fig2Algo::Neat => {
            let config = E3Config::builder(env)
                .population_size(scale.population())
                .max_generations(scale.max_generations())
                .build();
            let outcome = E3Platform::new(config, BackendKind::Cpu, seed)
                .run()
                .expect("suite populations are feed-forward");
            let points = outcome
                .trace
                .iter()
                .map(|&(t, fitness)| (t, env.normalized_fitness(fitness)))
                .collect();
            Fig2Trace {
                env,
                algo,
                points,
                reached_required: outcome.solved,
            }
        }
    }
}

/// Runs all four panels on the chosen environments.
pub fn run_on(envs: &[EnvId], scale: Scale, seed: u64) -> Fig2Result {
    let mut traces = Vec::new();
    for algo in Fig2Algo::ALL {
        for &env in envs {
            traces.push(run_one(env, algo, scale, seed));
        }
    }
    Fig2Result { traces }
}

impl fmt::Display for Fig2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 2 — achieved (normalized) fitness across runtime")?;
        for algo in Fig2Algo::ALL {
            if self.panel(algo).next().is_none() {
                continue;
            }
            writeln!(f, "  {}:", algo.name())?;
            for trace in self.panel(algo) {
                let marker = if trace.reached_required { " " } else { "✗" }; // the paper's red box
                writeln!(
                    f,
                    "   {marker} {:<22} best {:.2} after {:.2}s ({} checkpoints)",
                    trace.env.to_string(),
                    trace.best(),
                    trace.points.last().map_or(0.0, |p| p.0),
                    trace.points.len()
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neat_solves_cartpole_where_traces_are_recorded() {
        let trace = run_one(EnvId::CartPole, Fig2Algo::Neat, Scale::Quick, 21);
        assert!(!trace.points.is_empty());
        assert!(
            trace.best() > 0.5,
            "NEAT quick trace reaches {}",
            trace.best()
        );
    }

    #[test]
    fn rl_traces_record_monotone_time() {
        let trace = run_one(EnvId::CartPole, Fig2Algo::A2cSmall, Scale::Quick, 3);
        for w in trace.points.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
        for p in &trace.points {
            assert!((0.0..=1.0).contains(&p.1), "normalized fitness in range");
        }
    }
}
