//! The paper's environment suite: the six control benchmarks of
//! footnote 4 (Env1–Env6) plus the Atari-class Env7 used by Fig. 11,
//! with their observation/action dimensions and required-fitness
//! thresholds.

use crate::batch::{BatchEnv, ScalarBatch};
use crate::env::Environment;
use crate::scenario::ScenarioParams;
use crate::{Acrobot, BipedalWalker, CartPole, LunarLander, MountainCar, Pendulum, Pong};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier for the benchmark environments, numbered as in the
/// paper (footnote 4 plus the Fig. 11 Env7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EnvId {
    /// Env1: CartPole.
    CartPole,
    /// Env2: Acrobot.
    Acrobot,
    /// Env3: MountainCar.
    MountainCar,
    /// Env4: BipedalWalker.
    Bipedal,
    /// Env5: LunarLander.
    LunarLander,
    /// Env6: Pendulum.
    Pendulum,
    /// Env7: Pong (the Atari-class game; used by the paper's Fig. 11
    /// "Env1–Env7" average).
    Pong,
}

impl EnvId {
    /// The six control environments in paper order (Env1..Env6) —
    /// the suite of Figs. 2, 9 and 10.
    pub const ALL: [EnvId; 6] = [
        EnvId::CartPole,
        EnvId::Acrobot,
        EnvId::MountainCar,
        EnvId::Bipedal,
        EnvId::LunarLander,
        EnvId::Pendulum,
    ];

    /// The extended suite including the Atari-class Env7 (the paper's
    /// Fig. 11 averages over Env1–Env7).
    pub const ALL_WITH_ATARI: [EnvId; 7] = [
        EnvId::CartPole,
        EnvId::Acrobot,
        EnvId::MountainCar,
        EnvId::Bipedal,
        EnvId::LunarLander,
        EnvId::Pendulum,
        EnvId::Pong,
    ];

    /// Instantiates the environment with default (legacy) physics.
    pub fn make(self) -> Box<dyn Environment> {
        self.make_scenario(&ScenarioParams::default())
    }

    /// Instantiates the environment with scenario physics. With
    /// [`ScenarioParams::default`] this is bit-identical to
    /// [`EnvId::make`].
    pub fn make_scenario(self, params: &ScenarioParams) -> Box<dyn Environment> {
        match self {
            EnvId::CartPole => Box::new(CartPole::with_scenario(params)),
            EnvId::Acrobot => Box::new(Acrobot::with_scenario(params)),
            EnvId::MountainCar => Box::new(MountainCar::with_scenario(params)),
            EnvId::Bipedal => Box::new(BipedalWalker::with_scenario(params)),
            EnvId::LunarLander => Box::new(LunarLander::with_scenario(params)),
            EnvId::Pendulum => Box::new(Pendulum::with_scenario(params)),
            EnvId::Pong => Box::new(Pong::with_scenario(params)),
        }
    }

    /// Instantiates a lockstep batch of `lanes` episodes with default
    /// (legacy) physics.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn make_batch(self, lanes: usize) -> Box<dyn BatchEnv> {
        self.make_batch_scenarios(&vec![ScenarioParams::default(); lanes])
    }

    /// Instantiates a lockstep batch with one lane per scenario
    /// parameter set — how multi-scenario fitness packs heterogeneous
    /// physics into one stepping call. Lane `i` is the
    /// [`EnvId::make_scenario`] environment of `params[i]`, held by
    /// value in a [`ScalarBatch`] of the concrete type, so its
    /// trajectory is that environment's given the same seed and
    /// actions.
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty.
    pub fn make_batch_scenarios(self, params: &[ScenarioParams]) -> Box<dyn BatchEnv> {
        fn lanes<E: Environment + 'static>(
            params: &[ScenarioParams],
            make: fn(&ScenarioParams) -> E,
        ) -> Box<dyn BatchEnv> {
            Box::new(ScalarBatch::new(params.iter().map(make).collect()))
        }
        match self {
            EnvId::CartPole => lanes(params, CartPole::with_scenario),
            EnvId::Acrobot => lanes(params, Acrobot::with_scenario),
            EnvId::MountainCar => lanes(params, MountainCar::with_scenario),
            EnvId::Bipedal => lanes(params, BipedalWalker::with_scenario),
            EnvId::LunarLander => lanes(params, LunarLander::with_scenario),
            EnvId::Pendulum => lanes(params, Pendulum::with_scenario),
            EnvId::Pong => lanes(params, Pong::with_scenario),
        }
    }

    /// The paper's env index (1-based, per footnote 4).
    pub fn paper_index(self) -> usize {
        match self {
            EnvId::CartPole => 1,
            EnvId::Acrobot => 2,
            EnvId::MountainCar => 3,
            EnvId::Bipedal => 4,
            EnvId::LunarLander => 5,
            EnvId::Pendulum => 6,
            EnvId::Pong => 7,
        }
    }

    /// Observation size (network input count).
    pub fn observation_size(self) -> usize {
        match self {
            EnvId::CartPole => 4,
            EnvId::Acrobot => 6,
            EnvId::MountainCar => 2,
            EnvId::Bipedal => 24,
            EnvId::LunarLander => 8,
            EnvId::Pendulum => 3,
            EnvId::Pong => 6,
        }
    }

    /// Policy output count (action logits / dims). These match the
    /// per-env PE counts used in the paper's Fig. 10(b) footnote
    /// (cartpole 3 includes Gym's historical 3-logit encoding; we use
    /// the true action-space sizes).
    pub fn policy_outputs(self) -> usize {
        match self {
            EnvId::CartPole => 2,
            EnvId::Acrobot => 3,
            EnvId::MountainCar => 3,
            EnvId::Bipedal => 4,
            EnvId::LunarLander => 4,
            EnvId::Pendulum => 1,
            EnvId::Pong => 3,
        }
    }

    /// The "required fitness" used as the stop criterion (per-episode
    /// reward): Gym's solved thresholds where defined, conventional
    /// values otherwise.
    pub fn required_fitness(self) -> f64 {
        match self {
            EnvId::CartPole => 475.0,
            EnvId::Acrobot => -100.0,
            EnvId::MountainCar => -110.0,
            EnvId::Bipedal => 300.0,
            EnvId::LunarLander => 200.0,
            EnvId::Pendulum => -300.0,
            EnvId::Pong => 3.0,
        }
    }

    /// A fitness floor used to normalize achieved fitness into
    /// `[0, 1]` for Fig. 2 (normalized = (f - floor) / (required -
    /// floor), clamped).
    pub fn fitness_floor(self) -> f64 {
        match self {
            EnvId::CartPole => 0.0,
            EnvId::Acrobot => -500.0,
            EnvId::MountainCar => -200.0,
            EnvId::Bipedal => -100.0,
            EnvId::LunarLander => -250.0,
            EnvId::Pendulum => -1600.0,
            EnvId::Pong => -5.0,
        }
    }

    /// Normalizes a raw fitness into `[0, 1]` (1.0 = task finished).
    pub fn normalized_fitness(self, fitness: f64) -> f64 {
        let (floor, goal) = (self.fitness_floor(), self.required_fitness());
        ((fitness - floor) / (goal - floor)).clamp(0.0, 1.0)
    }

    /// Short name (e.g. `"cartpole"`).
    pub fn name(self) -> &'static str {
        match self {
            EnvId::CartPole => "cartpole",
            EnvId::Acrobot => "acrobot",
            EnvId::MountainCar => "mountain_car",
            EnvId::Bipedal => "bipedal",
            EnvId::LunarLander => "lunar_lander",
            EnvId::Pendulum => "pendulum",
            EnvId::Pong => "pong",
        }
    }
}

impl fmt::Display for EnvId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Env{} ({})", self.paper_index(), self.name())
    }
}

/// Error produced when parsing an [`EnvId`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEnvIdError {
    input: String,
}

impl fmt::Display for ParseEnvIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown environment {:?} (expected one of:", self.input)?;
        for id in EnvId::ALL_WITH_ATARI {
            write!(f, " {},", id.name())?;
        }
        write!(f, " or env1..env7)")
    }
}

impl std::error::Error for ParseEnvIdError {}

impl std::str::FromStr for EnvId {
    type Err = ParseEnvIdError;

    /// Accepts the short [`EnvId::name`] (separator- and
    /// case-insensitive, so `"mountain_car"`, `"MountainCar"` and
    /// `"mountain-car"` all parse) and the paper numbering (`"env3"`
    /// or plain `"3"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized: String = s
            .chars()
            .filter(|c| *c != '_' && *c != '-' && *c != ' ')
            .map(|c| c.to_ascii_lowercase())
            .collect();
        for id in EnvId::ALL_WITH_ATARI {
            let name: String = id.name().chars().filter(|c| *c != '_').collect();
            if normalized == name || normalized == format!("env{}", id.paper_index()) {
                return Ok(id);
            }
        }
        // Bare paper index ("3") and the full names of abbreviated
        // variants round out the accepted spellings.
        match normalized.as_str() {
            "1" | "2" | "3" | "4" | "5" | "6" | "7" => {
                let index: usize = normalized.parse().expect("single digit");
                Ok(EnvId::ALL_WITH_ATARI
                    .into_iter()
                    .find(|id| id.paper_index() == index)
                    .expect("indices 1..=7 are all assigned"))
            }
            "bipedalwalker" => Ok(EnvId::Bipedal),
            _ => Err(ParseEnvIdError {
                input: s.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_declared_dimensions() {
        for id in EnvId::ALL {
            let mut env = id.make();
            let obs = env.reset(0);
            assert_eq!(obs.len(), id.observation_size(), "{id} observation size");
            assert_eq!(
                env.action_space().policy_outputs(),
                id.policy_outputs(),
                "{id} policy outputs"
            );
            assert_eq!(env.observation_size(), id.observation_size());
        }
    }

    #[test]
    fn make_batch_mirrors_scalar_metadata() {
        for id in EnvId::ALL {
            let env = id.make();
            let batch = id.make_batch(3);
            assert_eq!(batch.lanes(), 3);
            assert_eq!(batch.observation_size(), env.observation_size(), "{id}");
            assert_eq!(batch.action_space(), env.action_space(), "{id}");
            assert_eq!(batch.max_episode_steps(), env.max_episode_steps(), "{id}");
            assert_eq!(batch.name(), env.name(), "{id}");
        }
    }

    #[test]
    fn make_scenario_default_matches_make_bitwise() {
        use crate::env::Action;
        for id in EnvId::ALL_WITH_ATARI {
            let mut legacy = id.make();
            let mut scenario = id.make_scenario(&ScenarioParams::default());
            let a = legacy.reset(17);
            let b = scenario.reset(17);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{id} reset diverged");
            }
            let action = match legacy.action_space() {
                crate::env::ActionSpace::Discrete(_) => Action::Discrete(0),
                crate::env::ActionSpace::Continuous { low, .. } => {
                    Action::Continuous(vec![0.0; low.len()])
                }
            };
            for _ in 0..25 {
                let sa = legacy.step(&action);
                let sb = scenario.step(&action);
                for (x, y) in sa.observation.iter().zip(&sb.observation) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{id} step diverged");
                }
                if sa.done() {
                    break;
                }
            }
        }
    }

    #[test]
    fn make_batch_scenarios_mirrors_scalar_metadata() {
        let params = vec![
            ScenarioParams::default(),
            ScenarioParams {
                gravity_scale: 1.1,
                ..ScenarioParams::default()
            },
        ];
        for id in EnvId::ALL {
            let env = id.make();
            let batch = id.make_batch_scenarios(&params);
            assert_eq!(batch.lanes(), 2, "{id}");
            assert_eq!(batch.observation_size(), env.observation_size(), "{id}");
            assert_eq!(batch.action_space(), env.action_space(), "{id}");
            assert_eq!(batch.name(), env.name(), "{id}");
        }
    }

    #[test]
    fn paper_indices_are_1_through_7() {
        let mut seen: Vec<usize> = EnvId::ALL_WITH_ATARI
            .iter()
            .map(|e| e.paper_index())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(
            &EnvId::ALL_WITH_ATARI[..6],
            &EnvId::ALL,
            "Env7 extends the suite"
        );
    }

    #[test]
    fn env_ids_parse_from_names_and_indices() {
        for id in EnvId::ALL_WITH_ATARI {
            assert_eq!(id.name().parse::<EnvId>().unwrap(), id, "{id} by name");
            assert_eq!(
                format!("Env{}", id.paper_index()).parse::<EnvId>().unwrap(),
                id,
                "{id} by paper number"
            );
        }
        assert_eq!("MountainCar".parse::<EnvId>().unwrap(), EnvId::MountainCar);
        assert_eq!("mountain-car".parse::<EnvId>().unwrap(), EnvId::MountainCar);
        assert_eq!("BipedalWalker".parse::<EnvId>().unwrap(), EnvId::Bipedal);
        assert_eq!("6".parse::<EnvId>().unwrap(), EnvId::Pendulum);
        let err = "gridworld".parse::<EnvId>().unwrap_err();
        assert!(err.to_string().contains("gridworld"));
    }

    #[test]
    fn env7_matches_declared_dimensions() {
        let mut env = EnvId::Pong.make();
        assert_eq!(env.reset(0).len(), EnvId::Pong.observation_size());
        assert_eq!(
            env.action_space().policy_outputs(),
            EnvId::Pong.policy_outputs()
        );
        assert_eq!(EnvId::Pong.to_string(), "Env7 (pong)");
    }

    #[test]
    fn normalized_fitness_is_clamped() {
        assert_eq!(EnvId::CartPole.normalized_fitness(1e9), 1.0);
        assert_eq!(EnvId::CartPole.normalized_fitness(-1e9), 0.0);
        let mid = EnvId::CartPole.normalized_fitness(237.5);
        assert!((mid - 0.5).abs() < 1e-9);
    }

    #[test]
    fn display_includes_paper_numbering() {
        assert_eq!(EnvId::CartPole.to_string(), "Env1 (cartpole)");
        assert_eq!(EnvId::Pendulum.to_string(), "Env6 (pendulum)");
    }
}
