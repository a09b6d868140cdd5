//! Training goldens through the public API: `recent_reward()` bits and
//! `total_env_steps()` after 512 steps on CartPole/Small/seed 3,
//! captured while A2C and PPO were still two separate agents. Seed
//! derivation and RNG call order are what they pin.

use e3_envs::EnvId;
use e3_rl::{A2c, A2cConfig, NetworkSize, Ppo, PpoConfig};

#[test]
fn a2c_training_matches_the_golden() {
    let mut agent = A2c::new(A2cConfig::new(EnvId::CartPole, NetworkSize::Small), 3);
    let reward = agent.train_steps(512);
    assert_eq!(reward.to_bits(), 0x403a_6bca_1af2_86bd, "{reward}");
    assert_eq!(agent.total_env_steps(), 512);
}

#[test]
fn ppo_training_matches_the_golden() {
    let mut agent = Ppo::new(PpoConfig::new(EnvId::CartPole, NetworkSize::Small), 3);
    let reward = agent.train_steps(512);
    assert_eq!(reward.to_bits(), 0x403c_d2d2_d2d2_d2d3, "{reward}");
    assert_eq!(agent.total_env_steps(), 512);
}
