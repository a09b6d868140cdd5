//! Scenario parameterization: seeded distributions over environment
//! physics.
//!
//! The fixed-env contract ("one [`EnvId`](crate::EnvId) → one
//! environment with hard-coded constants") overfits fitness to a
//! single pole length, gravity, and terrain. This module refactors
//! that contract into "one `EnvId` + [`ScenarioParams`] → a concrete
//! environment", plus a [`ScenarioDistribution`] that samples
//! parameter sets from per-field seeded ranges — the substrate for
//! evaluating each genome across K scenarios and for held-out
//! generalization checks.
//!
//! ## The parameter vocabulary
//!
//! All environments share one [`ScenarioParams`] struct. Multiplicative
//! *scale* fields default to `1.0` and additive *disturbance* fields
//! default to `0.0`, so the default parameter set reproduces today's
//! constants **bit-identically** (an `x * 1.0` multiply is IEEE-exact,
//! and zero-valued disturbances are skipped entirely). Each
//! environment maps the fields onto its own physics:
//!
//! | Field | CartPole | Pendulum | Acrobot | MountainCar | LunarLander | Bipedal | Pong |
//! |-------|----------|----------|---------|-------------|-------------|---------|------|
//! | `gravity_scale` | gravity | gravity | gravity | hill gravity | gravity | — | — |
//! | `mass_scale` | pole mass | bob mass | link masses | — | hull mass | — | — |
//! | `length_scale` | pole length | rod length | link lengths | — | — | — | — |
//! | `force_scale` | push force | torque gain | torque gain | motor force | thruster accel | motor torque | paddle speed |
//! | `wind` | lateral accel | angular accel | tip torque | lateral accel | lateral accel | headwind | ball drift |
//! | `roughness` | — | — | — | — | — | extra drag | — |
//!
//! ## Determinism
//!
//! [`ScenarioDistribution::sample`] derives every parameter from a
//! single `u64` seed via `StdRng`, drawing fields in a fixed order, so
//! the same seed always yields the same `ScenarioParams` regardless of
//! thread count or call site. Degenerate ranges (`lo == hi`) return
//! `lo` exactly without consuming RNG state asymmetrically — they
//! still draw nothing, keeping a fully-fixed distribution free of RNG
//! influence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One concrete scenario: the physics knobs an environment is built
/// with. `Default` reproduces the classic hard-coded constants
/// bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioParams {
    /// Multiplies the environment's gravitational constant.
    pub gravity_scale: f64,
    /// Multiplies the moving body's mass (pole, bob, links, hull).
    pub mass_scale: f64,
    /// Multiplies the characteristic length (pole, rod, links).
    pub length_scale: f64,
    /// Multiplies the actuator strength (push force, torque, thrust).
    pub force_scale: f64,
    /// Constant lateral disturbance added each step (env-specific
    /// units); `0.0` means no disturbance code runs at all.
    pub wind: f64,
    /// Extra surface drag / terrain roughness (only bipedal uses it);
    /// `0.0` means untouched dynamics.
    pub roughness: f64,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            gravity_scale: 1.0,
            mass_scale: 1.0,
            length_scale: 1.0,
            force_scale: 1.0,
            wind: 0.0,
            roughness: 0.0,
        }
    }
}

/// An inclusive-exclusive sampling range for one scenario field.
/// A degenerate range (`lo == hi`) is *fixed*: sampling returns `lo`
/// exactly and draws nothing from the RNG.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParamRange {
    /// Lower bound (returned exactly when the range is fixed).
    pub lo: f64,
    /// Upper bound (exclusive when sampling).
    pub hi: f64,
}

impl ParamRange {
    /// A range pinned to a single value.
    pub(crate) fn fixed(value: f64) -> Self {
        ParamRange {
            lo: value,
            hi: value,
        }
    }

    /// A sampling range `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// If either bound is non-finite or `lo > hi`.
    pub(crate) fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid scenario range [{lo}, {hi})"
        );
        ParamRange { lo, hi }
    }

    /// `true` when the range is pinned to a single value.
    pub(crate) fn is_fixed(&self) -> bool {
        self.lo == self.hi
    }

    /// One value from the range: `lo` exactly when fixed, otherwise a
    /// uniform draw from `[lo, hi)`.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> f64 {
        if self.is_fixed() {
            self.lo
        } else {
            rng.gen_range(self.lo..self.hi)
        }
    }
}

/// Per-field seeded ranges over [`ScenarioParams`]. `Default` pins
/// every field to its default value, so the default distribution
/// samples exactly the legacy physics no matter the seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioDistribution {
    /// Range for [`ScenarioParams::gravity_scale`].
    pub gravity_scale: ParamRange,
    /// Range for [`ScenarioParams::mass_scale`].
    pub mass_scale: ParamRange,
    /// Range for [`ScenarioParams::length_scale`].
    pub length_scale: ParamRange,
    /// Range for [`ScenarioParams::force_scale`].
    pub force_scale: ParamRange,
    /// Range for [`ScenarioParams::wind`].
    pub wind: ParamRange,
    /// Range for [`ScenarioParams::roughness`].
    pub roughness: ParamRange,
}

impl Default for ScenarioDistribution {
    fn default() -> Self {
        let d = ScenarioParams::default();
        ScenarioDistribution {
            gravity_scale: ParamRange::fixed(d.gravity_scale),
            mass_scale: ParamRange::fixed(d.mass_scale),
            length_scale: ParamRange::fixed(d.length_scale),
            force_scale: ParamRange::fixed(d.force_scale),
            wind: ParamRange::fixed(d.wind),
            roughness: ParamRange::fixed(d.roughness),
        }
    }
}

impl ScenarioDistribution {
    /// `true` when every range is pinned to the default parameter set
    /// — the distribution that can only ever produce legacy physics.
    pub fn is_default(&self) -> bool {
        *self == ScenarioDistribution::default()
    }

    /// Samples one parameter set. The draw order is fixed (gravity,
    /// mass, length, force, wind, roughness), so the same seed always
    /// produces the same parameters.
    pub fn sample(&self, seed: u64) -> ScenarioParams {
        let mut rng = StdRng::seed_from_u64(seed);
        ScenarioParams {
            gravity_scale: self.gravity_scale.sample(&mut rng),
            mass_scale: self.mass_scale.sample(&mut rng),
            length_scale: self.length_scale.sample(&mut rng),
            force_scale: self.force_scale.sample(&mut rng),
            wind: self.wind.sample(&mut rng),
            roughness: self.roughness.sample(&mut rng),
        }
    }

    /// A moderate *training* distribution: ±15% physics scales plus a
    /// light disturbance — wide enough to punish overfitting, narrow
    /// enough that the default policy structure still solves it.
    pub fn moderate() -> Self {
        ScenarioDistribution {
            gravity_scale: ParamRange::new(0.85, 1.15),
            mass_scale: ParamRange::new(0.85, 1.15),
            length_scale: ParamRange::new(0.85, 1.15),
            force_scale: ParamRange::new(0.85, 1.15),
            wind: ParamRange::new(-0.05, 0.05),
            roughness: ParamRange::new(0.0, 0.1),
        }
    }

    /// A *shifted* held-out distribution: scales pushed beyond the
    /// training support (heavier, longer, weaker motors, stronger
    /// wind), for measuring the train-vs-held-out generalization gap.
    pub fn shifted() -> Self {
        ScenarioDistribution {
            gravity_scale: ParamRange::new(1.1, 1.3),
            mass_scale: ParamRange::new(1.1, 1.3),
            length_scale: ParamRange::new(1.1, 1.3),
            force_scale: ParamRange::new(0.7, 0.9),
            wind: ParamRange::new(0.05, 0.1),
            roughness: ParamRange::new(0.1, 0.2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_are_identity() {
        let p = ScenarioParams::default();
        assert_eq!(p.gravity_scale, 1.0);
        assert_eq!(p.mass_scale, 1.0);
        assert_eq!(p.length_scale, 1.0);
        assert_eq!(p.force_scale, 1.0);
        assert_eq!(p.wind, 0.0);
        assert_eq!(p.roughness, 0.0);
    }

    #[test]
    fn default_distribution_samples_default_params_for_any_seed() {
        let dist = ScenarioDistribution::default();
        assert!(dist.is_default());
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(dist.sample(seed), ScenarioParams::default());
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let dist = ScenarioDistribution::moderate();
        let a = dist.sample(12345);
        let b = dist.sample(12345);
        assert_eq!(a, b);
        let c = dist.sample(12346);
        assert_ne!(a, c, "different seeds should perturb the draw");
    }

    #[test]
    fn sampled_params_respect_their_ranges() {
        let dist = ScenarioDistribution::moderate();
        for seed in 0..256u64 {
            let p = dist.sample(seed);
            assert!((0.85..1.15).contains(&p.gravity_scale));
            assert!((0.85..1.15).contains(&p.mass_scale));
            assert!((0.85..1.15).contains(&p.length_scale));
            assert!((0.85..1.15).contains(&p.force_scale));
            assert!((-0.05..0.05).contains(&p.wind));
            assert!((0.0..0.1).contains(&p.roughness));
        }
    }

    #[test]
    fn fixed_ranges_return_the_exact_value() {
        let range = ParamRange::fixed(0.3);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(range.sample(&mut rng).to_bits(), 0.3f64.to_bits());
        assert!(range.is_fixed());
    }

    #[test]
    #[should_panic(expected = "invalid scenario range")]
    fn inverted_ranges_panic() {
        let _ = ParamRange::new(2.0, 1.0);
    }

    #[test]
    fn distributions_round_trip_through_serde() {
        let dist = ScenarioDistribution::shifted();
        let json = serde_json::to_string(&dist).unwrap();
        let back: ScenarioDistribution = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dist);
    }
}
