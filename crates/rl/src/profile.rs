//! Runtime split instrumentation (paper Fig. 3).
//!
//! The paper divides RL runtime into **Forward** (the predict/rollout
//! phase: action selection and environment interaction) and
//! **Training** (backpropagation and optimizer updates), observing
//! Training ≈ 60%. The agents accumulate both here.

use std::time::Duration;

/// Accumulated Forward/Training wall-time of an RL agent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RlProfile {
    forward: Duration,
    training: Duration,
}

impl RlProfile {
    /// Creates an empty profile.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds time spent in the Forward (rollout/predict) phase.
    pub(crate) fn add_forward(&mut self, d: Duration) {
        self.forward += d;
    }

    /// Adds time spent in the Training (backprop/update) phase.
    pub(crate) fn add_training(&mut self, d: Duration) {
        self.training += d;
    }

    /// Total profiled time.
    pub(crate) fn total(&self) -> Duration {
        self.forward + self.training
    }

    /// `(forward_fraction, training_fraction)`; zeros when empty.
    pub fn fractions(&self) -> (f64, f64) {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return (0.0, 0.0);
        }
        (
            self.forward.as_secs_f64() / total,
            self.training.as_secs_f64() / total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one_when_nonempty() {
        let mut p = RlProfile::new();
        p.add_forward(Duration::from_millis(40));
        p.add_training(Duration::from_millis(60));
        let (f, t) = p.fractions();
        assert!((f + t - 1.0).abs() < 1e-12);
        assert!((t - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_reports_zero() {
        assert_eq!(RlProfile::new().fractions(), (0.0, 0.0));
        assert_eq!(RlProfile::new().total(), Duration::ZERO);
    }
}
