//! # e3-bench — the experiment regeneration harness
//!
//! The **`repro` binary** prints any (or all) of the paper's tables
//! and figures as text, optionally as JSON:
//!
//! ```text
//! cargo run --release -p e3-bench --bin repro -- all
//! cargo run --release -p e3-bench --bin repro -- fig9b --full
//! cargo run --release -p e3-bench --bin repro -- fig11 --json
//! ```
//!
//! The experiment logic itself lives in [`e3_platform::experiments`];
//! this crate only drives it. Nothing here measures wall-clock speed:
//! the one instrument for that is the `benchmark/` package.

pub mod svg;

/// The experiment names `repro` accepts, in paper order.
pub const EXPERIMENTS: &[&str] = &[
    "table4",
    "table5",
    "fig1b",
    "fig2",
    "fig3",
    "fig4",
    "fig6",
    "fig7",
    "fig9a",
    "fig9b",
    "fig10a",
    "fig10b",
    "fig11",
    "ablation",
    "generalize",
];

/// Default seed used by `repro` (any seed works; results are
/// deterministic per seed).
pub const DEFAULT_SEED: u64 = 42;
