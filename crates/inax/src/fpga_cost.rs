//! Shared FPGA area-cost constants used by simulator extensions.
//!
//! The platform crate's resource model owns the full per-block
//! breakdown; the constants here are the ones simulator-side features
//! need to report their own area cost.

/// Extra 36Kb BRAM banks one PU's second (double-buffer) weight buffer
/// costs.
pub(crate) const DOUBLE_BUFFER_BRAM_PER_PU: u64 = 2;
