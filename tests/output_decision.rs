//! A discrete action decided from output sums is the action the decoder
//! takes from the activated outputs.
//!
//! When every output of a plan is a `Tanh` node no edge reads, the
//! episode kernel skips the output activations and decides the action
//! from the sums (`e3_neat::tanh_argmax`); where that decision is not
//! provably the decoder's, it applies `Tanh` and decodes as before. This
//! suite holds the decision to `decode_action`'s `total_cmp` argmax of
//! the activated outputs on seeded sums and on every edge the rule
//! guards, and checks that ordinary sums are decided without `Tanh`.

use e3::envs::{decode_action, Action, ActionSpace};
use e3::neat::{tanh_argmax, Activation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `2⁻²⁰`, the gap the rule needs below the largest sum.
const GAP: f64 = 1.0 / 1_048_576.0;

/// The decoder's action for the activated `sums`.
fn decoded(sums: &[f64]) -> usize {
    let outputs: Vec<f64> = sums.iter().map(|&x| Activation::Tanh.apply(x)).collect();
    match decode_action(&outputs, &ActionSpace::Discrete(sums.len())) {
        Action::Discrete(action) => action,
        other => unreachable!("a discrete space decoded {other:?}"),
    }
}

/// Whether `sums` are decided from the sums; a decision must be the
/// decoder's action.
fn decided(sums: &[f64]) -> bool {
    let decision = tanh_argmax(sums.iter().copied());
    if let Some(action) = decision {
        assert_eq!(action, decoded(sums), "decided {action} from {sums:?}");
    }
    decision.is_some()
}

/// The index of the largest raw sum (the last of equals).
fn raw_argmax(sums: &[f64]) -> usize {
    let (index, _) = sums
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("at least one sum");
    index
}

/// One seeded sum: mostly where evolved outputs live, some past the
/// saturation point, some within a few ulp of an earlier sum, and the
/// special values.
fn draw(rng: &mut StdRng, earlier: &[f64]) -> f64 {
    match rng.gen_range(0..10) {
        0..=4 => rng.gen_range(-4.0..4.0),
        5 => rng.gen_range(-30.0..30.0),
        6 => rng.gen_range(-8.5..8.5),
        7 if !earlier.is_empty() => {
            let near = earlier[rng.gen_range(0..earlier.len())];
            let step = f64::from(rng.gen_range(-3i32..=3)) * GAP * rng.gen_range(0.5..1.5);
            near + step
        }
        _ => [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            8.0,
            -8.0,
            19.0,
            -19.0,
        ][rng.gen_range(0..10usize)],
    }
}

#[test]
fn seeded_sums_are_decided_as_the_decoder_decides() {
    let mut rng = StdRng::seed_from_u64(0xdec1de);
    let mut hits = 0;
    let n = 200_000;
    for _ in 0..n {
        let len = rng.gen_range(1..=6);
        let mut sums = Vec::with_capacity(len);
        for _ in 0..len {
            let x = draw(&mut rng, &sums);
            sums.push(x);
        }
        hits += usize::from(decided(&sums));
    }
    // The draw reaches both paths in bulk.
    assert!(hits > n / 4 && hits < n * 9 / 10, "{hits} of {n} decided");
}

#[test]
fn ordinary_sums_are_decided_without_tanh() {
    assert_eq!(tanh_argmax([0.1, -0.3, 0.7, 0.2].into_iter()), Some(2));
    assert_eq!(tanh_argmax([-2.5].into_iter()), Some(0));
    let mut rng = StdRng::seed_from_u64(0x0d1);
    let n = 100_000;
    let hits = (0..n)
        .filter(|_| {
            let sums: Vec<f64> = (0..4).map(|_| rng.gen_range(-4.0..4.0)).collect();
            decided(&sums)
        })
        .count();
    assert!(
        hits * 100 >= n * 99,
        "{hits} of {n} uniform sums on ±4 decided"
    );
}

#[test]
fn equal_sums_and_signed_zeros_fall_back() {
    for sums in [
        [0.5, 0.5],
        [-3.0, -3.0],
        [0.0, -0.0],
        [-0.0, 0.0],
        [0.0, 0.0],
    ] {
        assert!(!decided(&sums), "{sums:?}");
    }
    // The decoder orders −0 below +0, and the fallback keeps that.
    assert_eq!(decoded(&[0.0, -0.0]), 0);
    assert_eq!(decoded(&[-0.0, 0.0]), 1);
    // A signed zero well clear of the others decides.
    assert!(decided(&[-0.0, -1.0, -0.5]));
    assert!(decided(&[-1.0, 0.0]));
}

#[test]
fn nans_and_infinities_fall_back_unless_far_below() {
    for nan in [f64::NAN, -f64::NAN] {
        for sums in [[nan, 0.3, -0.2], [0.3, nan, -0.2], [0.3, -0.2, nan]] {
            assert!(!decided(&sums), "{sums:?}");
        }
        assert!(!decided(&[nan]), "{nan}");
    }
    assert!(!decided(&[f64::INFINITY, 0.3]));
    assert!(!decided(&[0.3, f64::INFINITY]));
    assert!(!decided(&[f64::NEG_INFINITY, f64::NEG_INFINITY]));
    // −∞ is a sum far below any other: tanh(−∞) = −1 < tanh(−8).
    assert!(decided(&[f64::NEG_INFINITY, 0.3]));
    assert!(decided(&[-8.0, f64::NEG_INFINITY]));
}

#[test]
fn the_bounds_hold_to_the_ulp() {
    // |x_m| = 8 decides; one ulp past it falls back.
    assert!(decided(&[8.0, 0.0]));
    assert!(!decided(&[8.0_f64.next_up(), 0.0]));
    assert!(decided(&[-9.0, -8.0]));
    assert!(!decided(&[-9.0, (-8.0_f64).next_down()]));
    assert!(decided(&[8.0_f64.next_down(), 0.0]));
    // A gap of exactly 2⁻²⁰ falls back, one ulp more decides, one ulp
    // less falls back.
    for top in [0.5, 7.5, -7.5, 1e-3, 3.0] {
        let at = top - GAP;
        assert_eq!(top - at, GAP, "the gap at {top} is exact");
        assert!(!decided(&[at, top]), "gap 2⁻²⁰ below {top}");
        assert!(
            decided(&[at.next_down(), top]),
            "gap 2⁻²⁰ + 1 ulp below {top}"
        );
        assert!(
            !decided(&[at.next_up(), top]),
            "gap 2⁻²⁰ − 1 ulp below {top}"
        );
    }
}

#[test]
fn saturated_sums_are_left_to_the_activated_argmax() {
    // Past ≈ 18.7 both round to tanh = 1, so the decoder takes the last
    // of the two, not the larger sum.
    for sums in [&[20.0, 19.0][..], &[19.5, 19.2, -1.0]] {
        assert_ne!(raw_argmax(sums), decoded(sums), "{sums:?}");
        assert!(!decided(sums), "{sums:?}");
    }
    assert_eq!(decoded(&[20.0, 19.0]), 1);
}
