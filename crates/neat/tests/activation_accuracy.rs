//! Accuracy protocol for the exponential core behind
//! [`Activation::apply`].
//!
//! `Sigmoid`, `Tanh` and `Gauss` are computed in-repo rather than by the
//! host's libm. This suite holds them to the formulas they replaced,
//! evaluated with the host's libm ([`host`]), and pins the edge classes
//! bit for bit. The `#[ignore]`d ten-million-point survey, and the
//! sweep of the margin `e3_neat::tanh_argmax` decides by, are the runs
//! DESIGN.md quotes; `scripts/ci.sh` runs them in release:
//!
//! ```text
//! cargo test --release -p e3-neat --test activation_accuracy -- --ignored --nocapture
//! ```

use e3_neat::Activation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::LN_2;

const KINDS: [Activation; 3] = [Activation::Sigmoid, Activation::Tanh, Activation::Gauss];

/// The distance from the host formula almost every point keeps to.
const MAX_ULPS: u64 = 2;

/// The largest distance from the host formula a point may show.
/// DESIGN.md has the measurements behind each class:
/// * `Sigmoid` inputs whose `1 + e^(−4.9x)` lies in `[2⁵³, 2⁵⁴)`, where
///   the sum is a tie: a 1-ulp difference in `exp` doubles in the sum and
///   again in the reciprocal. Both sides are about 2 ulp from exact there.
/// * `Tanh`: the core and the host's `tanh` are each up to about 2.2 ulp
///   from the exact value, so a few points in 10⁵ are 3 apart.
fn bound(kind: Activation, x: f64) -> u64 {
    let sum_ties = |x: f64| {
        let e = (-4.9 * x.clamp(-60.0, 60.0)).exp();
        (2f64.powi(53)..2f64.powi(54)).contains(&e)
    };
    match kind {
        Activation::Sigmoid if sum_ties(x) => 4,
        Activation::Tanh => 3,
        _ => MAX_ULPS,
    }
}

/// What `apply` computed before it owned its transcendentals, with the
/// host's `exp` and `tanh`. (`Gauss` clamps instead of taking a `min`,
/// so that a NaN stays NaN on both sides.)
fn host(kind: Activation, x: f64) -> f64 {
    match kind {
        Activation::Sigmoid => 1.0 / (1.0 + (-4.9 * x.clamp(-60.0, 60.0)).exp()),
        Activation::Tanh => x.clamp(-60.0, 60.0).tanh(),
        Activation::Gauss => (-(x * x).clamp(0.0, 60.0)).exp(),
        other => unreachable!("{other} does not use the exponential core"),
    }
}

/// Distance between two doubles in units in the last place: the count of
/// doubles between them, across zero included. Equal values (and two
/// NaNs) are 0 apart.
fn ulps(a: f64, b: f64) -> u64 {
    fn line(x: f64) -> i128 {
        let bits = x.to_bits() as i64;
        i128::from(if bits < 0 { i64::MIN - bits } else { bits })
    }
    if a == b || (a.is_nan() && b.is_nan()) {
        return 0;
    }
    (line(a) - line(b)).unsigned_abs() as u64
}

/// One seeded input: uniform on `±4` (where evolved networks live),
/// uniform on `±64` (the whole clamped domain and past it), or a random
/// sign times a log-uniform magnitude in `[2⁻⁴⁰, 2⁶)`.
fn sample(rng: &mut StdRng, i: usize) -> f64 {
    match i % 3 {
        0 => rng.gen_range(-4.0..4.0),
        1 => rng.gen_range(-64.0..64.0),
        _ => {
            let exponent: i32 = rng.gen_range(-40..6);
            let magnitude =
                f64::from_bits(((exponent + 1023) as u64) << 52) * rng.gen_range(1.0..2.0);
            if rng.gen::<bool>() {
                magnitude
            } else {
                -magnitude
            }
        }
    }
}

/// What [`survey`] found over `n` points of one kind.
struct Survey {
    /// The largest distance from the host, and the input that shows it.
    worst: (u64, f64),
    /// Points at distance 0, 1, 2, 3 and ≥ 4.
    histogram: [u64; 5],
    /// Points past their [`bound`].
    out_of_bound: u64,
}

fn survey(kind: Activation, n: usize, seed: u64) -> Survey {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut found = Survey {
        worst: (0, 0.0),
        histogram: [0; 5],
        out_of_bound: 0,
    };
    for i in 0..n {
        let x = sample(&mut rng, i);
        let distance = ulps(kind.apply(x), host(kind, x));
        found.histogram[(distance as usize).min(4)] += 1;
        if distance > found.worst.0 {
            found.worst = (distance, x);
        }
        if distance > bound(kind, x) {
            found.out_of_bound += 1;
        }
    }
    found
}

/// Every point within its bound, and all but one in 10⁴ within
/// [`MAX_ULPS`].
fn check(kind: Activation, found: &Survey) {
    let (worst, x) = found.worst;
    let histogram = found.histogram;
    let n: u64 = histogram.iter().sum();
    assert_eq!(
        found.out_of_bound, 0,
        "{kind}: worst {worst} ulp at {x:e} ({histogram:?})"
    );
    let beyond = histogram[3] + histogram[4];
    assert!(
        beyond * 10_000 <= n,
        "{kind}: {beyond} of {n} points past {MAX_ULPS} ulp ({histogram:?})"
    );
}

#[test]
fn a_seeded_sample_stays_within_bound_of_the_host() {
    for kind in KINDS {
        check(kind, &survey(kind, 100_000, 0xacc0));
    }
}

/// The survey DESIGN.md records. Prints one line per kind.
#[test]
#[ignore = "ten million points per kind; run in release"]
fn ten_million_points_per_kind() {
    let surveys = KINDS.map(|kind| (kind, survey(kind, 10_000_000, 0xe3_acc0)));
    for (kind, found) in &surveys {
        let (worst, x) = found.worst;
        let histogram = found.histogram;
        println!("{kind}: max {worst} ulp (at {x:e}); ulp histogram 0/1/2/3/≥4 = {histogram:?}");
    }
    for (kind, found) in &surveys {
        check(*kind, found);
    }
}

/// The empirical half of `tanh_argmax`'s margin (DESIGN.md §4): for
/// `b` on `[−8, 8]` and `a` a sum `2⁻²⁰` or more below it, the computed
/// `tanh(a)` is strictly below the computed `tanh(b)`. Ten million
/// seeded `b`, each with `a = b − 2⁻²⁰` and the double below that, plus
/// both ends and zero; prints the smallest computed gap found.
#[test]
#[ignore = "ten million points; run in release"]
fn tanh_keeps_every_pair_two_to_the_minus_20_apart_in_order() {
    const GAP: f64 = 1.0 / 1_048_576.0;
    let mut rng = StdRng::seed_from_u64(0x3a6);
    let seeded = (0..10_000_000).map(|_| rng.gen_range(-8.0..8.0));
    let mut narrowest = (f64::INFINITY, 0.0);
    for b in seeded.chain([-8.0, 8.0, 0.0, -0.0, 8.0_f64.next_down()]) {
        let below = b - GAP;
        let tanh_b = Activation::Tanh.apply(b);
        for a in [below, below.next_down()] {
            let gap = tanh_b - Activation::Tanh.apply(a);
            assert!(gap > 0.0, "tanh({a:e}) ≥ tanh({b:e})");
            if gap < narrowest.0 {
                narrowest = (gap, b);
            }
        }
    }
    let (gap, b) = narrowest;
    println!(
        "Tanh margin: smallest tanh(b) − tanh(b − 2⁻²⁰) = {gap:e} ({:.0} × 2⁻⁵³) at b = {b:e}",
        gap * 2f64.powi(53)
    );
}

#[test]
fn nan_stays_nan() {
    for kind in KINDS {
        for x in [f64::NAN, -f64::NAN] {
            assert!(kind.apply(x).is_nan(), "{kind}({x})");
        }
    }
}

#[test]
fn tanh_keeps_signed_zeros_and_subnormals() {
    let tiny = [
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE / 3.0,
        -(f64::MIN_POSITIVE - f64::from_bits(1)),
        f64::MIN_POSITIVE,
        1e-300,
    ];
    for x in tiny {
        assert_eq!(
            Activation::Tanh.apply(x).to_bits(),
            x.to_bits(),
            "tanh({x:e})"
        );
    }
}

#[test]
fn infinities_and_clamp_edges_saturate_bitwise() {
    let same = |kind: Activation, a: f64, b: f64| {
        assert_eq!(
            kind.apply(a).to_bits(),
            kind.apply(b).to_bits(),
            "{kind}({a:e}) vs {kind}({b:e})"
        );
    };
    for kind in [Activation::Sigmoid, Activation::Tanh] {
        same(kind, f64::INFINITY, 60.0);
        same(kind, 60.0_f64.next_up(), 60.0);
        same(kind, f64::NEG_INFINITY, -60.0);
        same(kind, (-60.0_f64).next_down(), -60.0);
    }
    let edge = 60.0_f64.sqrt();
    for x in [
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e200,
        edge.next_up().next_up(),
    ] {
        same(Activation::Gauss, x, 8.0);
    }
    assert_eq!(Activation::Tanh.apply(f64::INFINITY), 1.0);
    assert_eq!(Activation::Tanh.apply(f64::NEG_INFINITY), -1.0);
    assert_eq!(Activation::Sigmoid.apply(f64::INFINITY), 1.0);
    assert!(Activation::Sigmoid.apply(f64::NEG_INFINITY) > 0.0);
    assert!(Activation::Gauss.apply(f64::INFINITY) > 0.0);
    assert_eq!(Activation::Gauss.apply(0.0), 1.0);
    assert_eq!(Activation::Sigmoid.apply(0.0), 0.5);
    for kind in KINDS {
        for x in [60.0, -60.0, edge, -edge, 8.0] {
            let distance = ulps(kind.apply(x), host(kind, x));
            assert!(distance <= bound(kind, x), "{kind}({x:e}): {distance} ulp");
        }
    }
}

/// Inputs whose core argument sits on `(k + ½)·ln2`, where the reduction
/// switches `k`, for every `k` the clamped domain reaches.
fn reduction_boundaries(kind: Activation) -> Vec<f64> {
    // The core sees y = −4.9·x (Sigmoid), −2|x| (Tanh), −x² (Gauss).
    let (lowest, highest) = match kind {
        Activation::Sigmoid => (-294.0, 294.0),
        Activation::Tanh => (-120.0, 0.0),
        _ => (-60.0, 0.0),
    };
    let mut inputs = Vec::new();
    for k in -430..430 {
        let y = (f64::from(k) + 0.5) * LN_2;
        if y < lowest || y > highest {
            continue;
        }
        match kind {
            Activation::Sigmoid => inputs.push(-y / 4.9),
            Activation::Tanh => inputs.extend([-y / 2.0, y / 2.0]),
            _ => inputs.extend([(-y).sqrt(), -(-y).sqrt()]),
        }
    }
    inputs
}

#[test]
fn one_ulp_either_side_of_every_reduction_boundary() {
    for kind in KINDS {
        let boundaries = reduction_boundaries(kind);
        assert!(boundaries.len() > 100, "{kind}: {}", boundaries.len());
        for b in boundaries {
            for x in [b.next_down(), b, b.next_up()] {
                let distance = ulps(kind.apply(x), host(kind, x));
                assert!(distance <= bound(kind, x), "{kind}({x:e}): {distance} ulp");
            }
        }
    }
}

#[test]
fn tanh_is_exactly_one_from_its_saturation_point_on() {
    // Bisect on the ordered bits of [1, 60] for the first x with
    // tanh(x) == 1.
    let (mut below, mut at) = (1.0_f64.to_bits(), 60.0_f64.to_bits());
    while at - below > 1 {
        let mid = below + (at - below) / 2;
        if Activation::Tanh.apply(f64::from_bits(mid)) == 1.0 {
            at = mid;
        } else {
            below = mid;
        }
    }
    let saturation = f64::from_bits(at);
    assert!((18.7..19.1).contains(&saturation), "{saturation}");
    assert!(Activation::Tanh.apply(saturation.next_down()) < 1.0);
    let mut rng = StdRng::seed_from_u64(0x5a7);
    let dense = (0..100_000).map(|i| f64::from_bits(at + i));
    let spread = (0..100_000).map(|_| rng.gen_range(saturation..1e3));
    for x in dense.chain(spread).chain([60.0, 1e300, f64::INFINITY]) {
        assert_eq!(Activation::Tanh.apply(x), 1.0, "tanh({x:e})");
        assert_eq!(Activation::Tanh.apply(-x), -1.0, "tanh({:e})", -x);
    }
}

#[test]
fn tanh_is_odd_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x0dd);
    for i in 0..100_000 {
        let x = sample(&mut rng, i);
        assert_eq!(
            Activation::Tanh.apply(-x).to_bits(),
            (-Activation::Tanh.apply(x)).to_bits(),
            "tanh({x:e})"
        );
    }
}

/// Discrete actions are an argmax over outputs, so an output activation
/// must never invert the order of two inputs.
#[test]
fn tanh_and_sigmoid_never_decrease_over_a_sorted_sample() {
    let mut rng = StdRng::seed_from_u64(0x50f7);
    let mut xs: Vec<f64> = (0..100_000).map(|i| sample(&mut rng, i)).collect();
    xs.sort_by(f64::total_cmp);
    for kind in [Activation::Tanh, Activation::Sigmoid] {
        for pair in xs.windows(2) {
            assert!(
                kind.apply(pair[0]) <= kind.apply(pair[1]),
                "{kind}({:e}) > {kind}({:e})",
                pair[0],
                pair[1]
            );
        }
    }
}
