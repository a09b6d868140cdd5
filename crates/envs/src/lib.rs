//! # e3-envs — OpenAI-gym-style control environments in pure Rust
//!
//! The E3 paper evaluates across "a suite of OpenAI environments"
//! (paper footnote 4): Env1 cartpole, Env2 acrobot, Env3 mountain car,
//! Env4 bipedal, Env5 lunar lander, Env6 pendulum. This crate ports
//! those environments so the whole platform is self-contained Rust:
//!
//! * [`CartPole`], `Acrobot`, `MountainCar`, [`Pendulum`] follow
//!   the published Gym classic-control dynamics equations;
//! * `LunarLander` and `BipedalWalker` are simplified rigid-body
//!   reimplementations (Gym uses Box2D) with **identical observation
//!   and action spaces** and comparable reward shaping — see DESIGN.md
//!   for the substitution rationale.
//!
//! Every environment implements the [`Environment`] trait and is
//! deterministic given a reset seed.
//!
//! ## Example
//!
//! ```
//! use e3_envs::{Environment, CartPole, Action};
//!
//! let mut env = CartPole::new();
//! let obs = env.reset(7);
//! assert_eq!(obs.len(), env.observation_size());
//! let step = env.step(&Action::Discrete(1));
//! assert_eq!(step.observation.len(), 4);
//! assert!(step.reward > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod acrobot;
mod batch;
mod bipedal_walker;
mod cartpole;
mod env;
mod episode;
mod lunar_lander;
mod mountain_car;
mod pendulum;
mod pong;
mod scenario;
mod suite;

pub use batch::{BatchEnv, ScalarBatch, StepBatch};
pub use cartpole::CartPole;
pub use env::{Action, ActionSpace, Environment};
pub use episode::{decode_action, run_episode, Episode};
pub use pendulum::Pendulum;
pub use scenario::{ScenarioDistribution, ScenarioParams};
pub use suite::EnvId;
