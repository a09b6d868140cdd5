//! # e3-rl — gradient-based RL baselines for the E3 comparison
//!
//! The E3 paper motivates NEAT by profiling it against two popular
//! deep-RL algorithms (§III): **A2C** (Advantage Actor-Critic) and
//! **PPO2** (Proximal Policy Optimization), run with *Small* (2 hidden
//! layers × 64) and *Large* (3 × 256) MLP policies. This crate
//! reimplements both from scratch on a minimal dense-MLP backprop
//! framework so the reproduction can regenerate:
//!
//! * Fig. 2 — fitness-vs-runtime convergence traces;
//! * Fig. 3 — the Forward vs Training runtime split (Training ≈ 60%);
//! * Table IV — forward/backward op counts and local memory;
//! * Table V — node/connection counts of the Small and Large networks.
//!
//! ## Example
//!
//! ```
//! use e3_rl::{A2c, A2cConfig, NetworkSize};
//! use e3_envs::EnvId;
//!
//! let config = A2cConfig::new(EnvId::CartPole, NetworkSize::Small);
//! let mut agent = A2c::new(config, 7);
//! let reward = agent.train_steps(200); // a short burst of training
//! assert!(reward.is_finite());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod a2c;
pub mod accounting;
mod agent;
pub mod head;
pub mod mlp;
pub mod ppo;
pub mod profile;

pub use a2c::{A2c, A2cConfig};
pub use accounting::{AlgorithmOverhead, NetworkComplexity};
pub use head::PolicyHead;
pub use mlp::{Adam, Mlp};
pub use ppo::{Ppo, PpoConfig};
pub use profile::RlProfile;

use serde::{Deserialize, Serialize};

/// The two policy-network sizes profiled in the paper (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetworkSize {
    /// Two hidden layers of 64 units.
    Small,
    /// Three hidden layers of 256 units.
    Large,
}

impl NetworkSize {
    /// Hidden layer widths.
    pub fn hidden_layers(self) -> &'static [usize] {
        match self {
            NetworkSize::Small => &[64, 64],
            NetworkSize::Large => &[256, 256, 256],
        }
    }
}
