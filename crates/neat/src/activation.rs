//! Node activation functions.
//!
//! NEAT node genes carry an activation function that may itself mutate
//! during evolution. The set below mirrors the defaults of the
//! `neat-python` implementation profiled by the E3 paper.
//!
//! `Sigmoid`, `Tanh` and `Gauss` do not call the host's libm: they share
//! one exponential core in this file — Cody–Waite reduction, a
//! fixed-degree polynomial, `2^k` built from exponent bits — made of
//! IEEE-754 adds, multiplies and divides only, with no table, no fused
//! multiply-add and no data-dependent branch. Their results are
//! therefore the same bits on every host and in every tier that calls
//! [`Activation::apply`]. `Sin` still calls `f64::sin`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An activation function applied by a node after aggregating its
/// weighted inputs and bias.
///
/// # Example
///
/// ```
/// use e3_neat::Activation;
///
/// assert_eq!(Activation::Identity.apply(0.25), 0.25);
/// assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Steepened logistic sigmoid `1 / (1 + e^(-4.9x))` as in the NEAT
    /// paper; output in `(0, 1)`.
    #[default]
    Sigmoid,
    /// Hyperbolic tangent; output in `(-1, 1)`.
    Tanh,
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// Identity pass-through.
    Identity,
    /// Gaussian bump `e^(-x²)` (range `(0, 1]`), useful for radial
    /// responses.
    Gauss,
    /// Sine response, useful for periodic tasks such as gait control.
    Sin,
    /// Absolute value.
    Abs,
    /// Identity clamped to `[-1, 1]`.
    Clamped,
}

impl Activation {
    /// All supported activation functions, in a stable order.
    pub const ALL: [Activation; 8] = [
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Relu,
        Activation::Identity,
        Activation::Gauss,
        Activation::Sin,
        Activation::Abs,
        Activation::Clamped,
    ];

    /// Applies the activation function to `x`.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + exp(-4.9 * x.clamp(-60.0, 60.0))),
            Activation::Tanh => tanh(x),
            Activation::Relu => x.max(0.0),
            Activation::Identity => x,
            // `clamp`, unlike `min`, keeps a NaN.
            Activation::Gauss => exp(-(x * x).clamp(0.0, 60.0)),
            Activation::Sin => x.sin(),
            Activation::Abs => x.abs(),
            Activation::Clamped => x.clamp(-1.0, 1.0),
        }
    }

    /// Short lowercase name, matching `neat-python` conventions.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Relu => "relu",
            Activation::Identity => "identity",
            Activation::Gauss => "gauss",
            Activation::Sin => "sin",
            Activation::Abs => "abs",
            Activation::Clamped => "clamped",
        }
    }
}

/// `1.5·2⁵²`: adding it to a double below `2⁵¹` in magnitude rounds that
/// double to an integer (ties to even) and leaves the integer in the low
/// mantissa bits. `f64::round` would be a libm call on baseline x86-64.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;
const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
/// `ln 2 = LN2_HI + LN2_LO`; `LN2_HI` ends in 21 zero bits, so `k·LN2_HI`
/// is exact for every `|k| < 2²¹`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `expm1(r) ≈ r + r²·(½ + r·Σ Q[i]·rⁱ)` on `|r| ≤ ln2/2`: a degree-9
/// Chebyshev fit of the tail, 0.02 ulp from `expm1` before rounding.
const Q: [f64; 10] = [
    f64::from_bits(0x3fc5_5555_5555_5556),
    f64::from_bits(0x3fa5_5555_5555_5555),
    f64::from_bits(0x3f81_1111_1111_09a6),
    f64::from_bits(0x3f56_c16c_16c1_67da),
    f64::from_bits(0x3f2a_01a0_1a7c_ebcd),
    f64::from_bits(0x3efa_01a0_1a48_116f),
    f64::from_bits(0x3ec7_1de0_d852_93b8),
    f64::from_bits(0x3e92_7e4e_1dcf_773b),
    f64::from_bits(0x3e5a_f390_ba7e_6f47),
    f64::from_bits(0x3e21_f671_7774_d5e0),
];

/// Splits `y = k·ln2 + r + c` with `|r| ≤ ln2/2` and `c` the rounding
/// error of `r`, and returns `(2^k, r, c)`. Every caller's argument lies
/// in `[-294, 294]`, so `2^k` is a normal number and needs no overflow,
/// underflow or subnormal path; a NaN `y` leaves `r` NaN.
#[inline(always)]
fn reduce(y: f64) -> (f64, f64, f64) {
    let shifted = y * INV_LN2 + ROUND_SHIFT;
    let k = shifted - ROUND_SHIFT;
    let hi = y - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    // The low bits of `shifted` hold k; k + 1023 is the exponent of 2^k.
    let scale = f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52);
    (scale, r, (hi - r) - lo)
}

/// `expm1(r + c) − r` for a reduced argument, by Estrin's scheme.
#[inline(always)]
fn expm1_tail(r: f64, c: f64) -> f64 {
    let r2 = r * r;
    let r4 = r2 * r2;
    let low = (Q[0] + Q[1] * r) + (Q[2] + Q[3] * r) * r2;
    let mid = (Q[4] + Q[5] * r) + (Q[6] + Q[7] * r) * r2;
    let poly = (low + mid * r4) + (Q[8] + Q[9] * r) * (r4 * r4);
    (0.5 * r2 + c) + (r2 * r) * poly
}

/// `e^y` for `|y| ≤ 294`, within 1 ulp.
#[inline(always)]
fn exp(y: f64) -> f64 {
    let (scale, r, c) = reduce(y);
    // `1 + r` as an exact head and error, so one add rounds the sum.
    let head = 1.0 + r;
    let err = r - (head - 1.0);
    scale * (head + (err + expm1_tail(r, c)))
}

/// `2⁵⁴`: the `expm1(2|x|)` from which `tanh` returns ±1 (|x| ≈ 18.7).
const SATURATED: f64 = 18_014_398_509_481_984.0;

/// `tanh x = ±e / (e + 2)` with `e = expm1(2|x|)`. `|x|` is clamped to
/// 60, past the point where the result is ±1.
#[inline(always)]
fn tanh(x: f64) -> f64 {
    let (scale, r, c) = reduce(2.0 * x.clamp(-60.0, 60.0).abs());
    // e = (scale − 1) + scale·r + scale·tail. For k ≥ 0, `scale − 1` is
    // exact up to k = 53 (past it the result is ±1 regardless), and the
    // first add is kept exact as a sum and its error: at k = 1 it cancels,
    // which is where `scale·(r + tail) + (scale − 1)` loses two bits.
    let a = scale - 1.0;
    let b = scale * r;
    let sum = a + b;
    let e = sum + ((b - (sum - a)) + scale * expm1_tail(r, c));
    // From 2⁵⁴ on, e + 2 is a tie that rounds to e or to e + 4 by the
    // parity of e, so e/(e + 2) would flicker between 1 and 1 − 2⁻⁵³.
    // Pinned there, e + 2 rounds to e and the result stays exactly 1
    // (the comparison keeps a NaN).
    let e = if e > SATURATED { SATURATED } else { e };
    (e / (e + 2.0)).copysign(x)
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_centered_and_bounded() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(Activation::Sigmoid.apply(100.0) <= 1.0);
        assert!(Activation::Sigmoid.apply(-100.0) >= 0.0);
        assert!(Activation::Sigmoid.apply(1.0) > 0.9); // steepened slope
    }

    #[test]
    fn tanh_saturates_without_nan() {
        assert!(Activation::Tanh.apply(1e9).is_finite());
        assert!((Activation::Tanh.apply(1e9) - 1.0).abs() < 1e-9);
        assert!((Activation::Tanh.apply(-1e9) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn relu_clips_negative() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
    }

    #[test]
    fn gauss_peaks_at_zero() {
        assert!((Activation::Gauss.apply(0.0) - 1.0).abs() < 1e-12);
        assert!(Activation::Gauss.apply(3.0) < 1e-3);
        assert!(Activation::Gauss.apply(1e9).is_finite());
    }

    #[test]
    fn clamped_limits_range() {
        assert_eq!(Activation::Clamped.apply(5.0), 1.0);
        assert_eq!(Activation::Clamped.apply(-5.0), -1.0);
        assert_eq!(Activation::Clamped.apply(0.3), 0.3);
    }

    #[test]
    fn all_lists_every_variant_once() {
        let mut names: Vec<_> = Activation::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Activation::ALL.len());
    }

    #[test]
    fn display_matches_name() {
        for a in Activation::ALL {
            assert_eq!(a.to_string(), a.name());
        }
    }

    #[test]
    fn every_activation_is_finite_on_extreme_inputs() {
        for a in Activation::ALL {
            for x in [-1e12, -1.0, 0.0, 1.0, 1e12] {
                assert!(a.apply(x).is_finite(), "{a} not finite at {x}");
            }
        }
    }
}
