//! Per-individual RNG streams.
//!
//! The determinism contract forbids deriving randomness from worker
//! identity or arrival order. Any stochastic evaluation must instead
//! seed from the logical coordinates of the work item —
//! `(run_seed, generation, genome_index)` — so every individual gets
//! the same stream no matter which worker evaluates it or how the
//! population is sharded.

/// Mixes `(run_seed, generation, genome_index)` into a single 64-bit
/// stream seed (SplitMix64 finalization per word, XOR-combined with
/// distinct round constants so permuting the arguments changes the
/// result).
pub fn stream_seed(run_seed: u64, generation: u64, genome_index: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let a = mix(run_seed.wrapping_add(0x9e37_79b9_7f4a_7c15));
    let b = mix(generation.wrapping_add(0x3c6e_f372_fe94_f82b));
    let c = mix(genome_index.wrapping_add(0x6135_2469_2d51_8b41));
    mix(a ^ b.rotate_left(21) ^ c.rotate_left(42))
}

/// Mixes the four scenario-evaluation coordinates
/// `(run_seed, generation, genome_index, scenario_index)` into a
/// single 64-bit stream seed. Same construction as [`stream_seed`]
/// with a fourth mixed word and its own rotation schedule, so the
/// three- and four-coordinate families never collide structurally and
/// permuting any pair of arguments changes the result.
pub fn scenario_seed(
    run_seed: u64,
    generation: u64,
    genome_index: u64,
    scenario_index: u64,
) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let a = mix(run_seed.wrapping_add(0x9e37_79b9_7f4a_7c15));
    let b = mix(generation.wrapping_add(0x3c6e_f372_fe94_f82b));
    let c = mix(genome_index.wrapping_add(0x6135_2469_2d51_8b41));
    let d = mix(scenario_index.wrapping_add(0xd6e8_feb8_6659_fd93));
    mix(a ^ b.rotate_left(17) ^ c.rotate_left(34) ^ d.rotate_left(51))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinates_are_not_interchangeable() {
        assert_ne!(stream_seed(1, 2, 3), stream_seed(3, 2, 1));
        assert_ne!(stream_seed(1, 2, 3), stream_seed(2, 1, 3));
        assert_ne!(stream_seed(1, 2, 3), stream_seed(1, 3, 2));
    }

    #[test]
    fn neighbouring_indices_decorrelate() {
        let a = stream_seed(0, 0, 0);
        let b = stream_seed(0, 0, 1);
        assert_ne!(a, b);
        // Crude avalanche check: roughly half the bits differ.
        let differing = (a ^ b).count_ones();
        assert!((16..=48).contains(&differing), "{differing} bits differ");
    }

    #[test]
    fn scenario_coordinates_are_not_interchangeable() {
        assert_ne!(scenario_seed(1, 2, 3, 4), scenario_seed(4, 2, 3, 1));
        assert_ne!(scenario_seed(1, 2, 3, 4), scenario_seed(1, 2, 4, 3));
        assert_ne!(scenario_seed(1, 2, 3, 4), scenario_seed(2, 1, 3, 4));
        assert_ne!(scenario_seed(1, 2, 3, 4), scenario_seed(1, 3, 2, 4));
    }

    #[test]
    fn scenario_family_does_not_shadow_stream_family() {
        // Sharing the three leading coordinates must not reproduce the
        // three-coordinate seed for any small scenario index.
        let legacy = stream_seed(42, 7, 11);
        for s in 0..64 {
            assert_ne!(scenario_seed(42, 7, 11, s), legacy, "collision at s={s}");
        }
    }

    #[test]
    fn scenario_neighbouring_indices_decorrelate() {
        let a = scenario_seed(0, 0, 0, 0);
        let b = scenario_seed(0, 0, 0, 1);
        assert_ne!(a, b);
        let differing = (a ^ b).count_ones();
        assert!((16..=48).contains(&differing), "{differing} bits differ");
    }
}
