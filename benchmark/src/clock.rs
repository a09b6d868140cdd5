//! The core clock, estimated in software.
//!
//! The sizing host is a shared one whose cores change frequency with
//! the neighbours' load: a fixed compute loop runs at discrete speeds
//! 1.00, 1.05, 1.14, 1.24 and 1.28 times its fastest, each held for a
//! second or for minutes. Wall time on such a host says as much about
//! the neighbours as about the program. So the harness reads the clock
//! beside every interval it times and reports the interval's length at
//! [`NOMINAL_HZ`]: in effect it counts core cycles.
//!
//! Each core has its own clock (two busy threads were seen at 3.3 and
//! 4.1 GHz side by side), so an interval in which the program keeps
//! several workers busy is scaled by the mean of as many clocks, read
//! at once on as many threads.
//!
//! The clock is read with a chain of dependent shift-xor-multiplies.
//! One iteration takes the three latencies in a row, 1 + 1 + 3 cycles
//! on x86-64 cores of the last decade, whatever the sibling
//! hyperthread does. On a core where that sum differs, every reported
//! time is off by the same factor.

use std::hint::black_box;
use std::time::Instant;

/// The clock every end-to-end time is scaled to.
pub const NOMINAL_HZ: f64 = 3.0e9;

const CYCLES_PER_ITERATION: f64 = 5.0;
const ITERATIONS: u32 = 16_384;
const BURSTS: usize = 3;

/// Core cycles per second right now: the fastest of three bursts of
/// about 25 microseconds (an interrupt, or the pause in which the core
/// changes frequency, can only slow a burst).
pub fn hz() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BURSTS {
        let start = Instant::now();
        let mut x = black_box(1u64);
        for _ in 0..ITERATIONS {
            x ^= x >> 29;
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        black_box(x);
        best = best.min(start.elapsed().as_secs_f64());
    }
    f64::from(ITERATIONS) * CYCLES_PER_ITERATION / best
}

/// The mean clock of `threads` cores: [`hz`] on this thread and on
/// `threads - 1` others at once, which the scheduler spreads over idle
/// cores. Work that `threads` workers share by stealing goes at the
/// sum of their clocks.
pub fn hz_across(threads: usize) -> f64 {
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(hz)).collect();
        let mine = hz();
        let sum: f64 = others
            .into_iter()
            // A reading that panicked is a bug in `hz`.
            .map(|other| other.join().expect("clock thread panicked"))
            .sum();
        (mine + sum) / threads.max(1) as f64
    })
}

/// How long `seconds` of wall time, spent at a clock of `hz`, would
/// have taken at [`NOMINAL_HZ`].
pub fn at_nominal(seconds: f64, hz: f64) -> f64 {
    seconds * hz / NOMINAL_HZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_reads_a_plausible_frequency_and_scales_linearly() {
        let hz = hz();
        assert!((0.2e9..20.0e9).contains(&hz), "{hz}");
        assert!((0.2e9..20.0e9).contains(&hz_across(2)));
        assert_eq!(at_nominal(2.0, NOMINAL_HZ), 2.0);
        assert_eq!(at_nominal(2.0, NOMINAL_HZ / 2.0), 1.0);
    }
}
