//! # e3-jit — tiered [`NetPlan`] execution
//!
//! A dependency-free x86-64 machine-code emitter that compiles a
//! [`NetPlan`] into a straight-line native function, claiming the
//! interpreter overhead around the activation calls (`benchmark/`
//! reports the result as `jit.native_vs_interp`) — without giving up
//! the platform's bit-exact determinism contract.
//!
//! The paper treats the genome→phenotype compile ("CreateNet") as a
//! first-class hardware step; this crate is the same move in software.
//! Elites survive many generations, so `e3-platform`'s tiered plan
//! cache already knows which plans are hot: entries that cross a configurable
//! use threshold ([`JitConfig::hot_threshold`]) are promoted from the
//! interpreter tier to a [`CompiledPlan`].
//!
//! ## Bit-identity contract
//!
//! The interpreter is the **permanent oracle**: a [`CompiledPlan`]
//! must produce the same `f64` bit patterns as
//! [`e3_neat::Network::activate_into`] on every input. The emitted
//! code replays the interpreter's exact FP sequence (bias first, then
//! the CSR edges in sorted order, one `mulsd`+`addsd` pair each), and
//! activations are dispatched through `ACTIVATION_TABLE` — thin
//! `extern "C"` wrappers over [`Activation::apply`] — so even
//! transcendental results come from the very same routines. Only
//! `Identity` is inlined, by skipping the call. For `Sigmoid`, `Tanh`
//! and `Gauss` those routines are `e3-neat`'s own exponential core, not
//! the host's libm, so both tiers give the same bits on every host; only
//! `Sin` still calls the host's `sin`.
//!
//! ## Fallback semantics
//!
//! [`CompiledPlan::compile`] returns [`JitError`] instead of a plan on
//! non-x86-64-Linux targets, when the kernel refuses the executable
//! mapping, or when a plan exceeds the emitter's size cap. Callers
//! (the `e3-platform` tiered cache) treat any error as "keep
//! interpreting": compilation is an optimization, never a requirement.
//!
//! ## W^X contract
//!
//! Code pages are mapped read+write, filled, then flipped to
//! read+execute (`mprotect`) before the first call, and unmapped on
//! drop — the page is never writable and executable simultaneously.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod emitter;
mod memory;

use e3_neat::{Activation, NetPlan};
use memory::ExecPage;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The C ABI every activation wrapper exports: `f64` in `xmm0`, `f64`
/// out in `xmm0` — exactly what the emitted `call` expects.
pub(crate) type ActivationFn = extern "C" fn(f64) -> f64;

/// The emitted function: `(inputs, values, activation_table)`.
type EntryFn = unsafe extern "C" fn(*const f64, *mut f64, *const ActivationFn);

extern "C" fn act_sigmoid(x: f64) -> f64 {
    Activation::Sigmoid.apply(x)
}
extern "C" fn act_tanh(x: f64) -> f64 {
    Activation::Tanh.apply(x)
}
extern "C" fn act_relu(x: f64) -> f64 {
    Activation::Relu.apply(x)
}
extern "C" fn act_identity(x: f64) -> f64 {
    Activation::Identity.apply(x)
}
extern "C" fn act_gauss(x: f64) -> f64 {
    Activation::Gauss.apply(x)
}
extern "C" fn act_sin(x: f64) -> f64 {
    Activation::Sin.apply(x)
}
extern "C" fn act_abs(x: f64) -> f64 {
    Activation::Abs.apply(x)
}
extern "C" fn act_clamped(x: f64) -> f64 {
    Activation::Clamped.apply(x)
}

/// The activation dispatch table threaded through every compiled
/// function, indexed by an activation's position in
/// [`Activation::ALL`]. Each entry is a thin `extern "C"` wrapper over
/// the exact [`Activation::apply`] — this is what keeps transcendental
/// activations bit-identical between the tiers.
pub(crate) static ACTIVATION_TABLE: [ActivationFn; 8] = [
    act_sigmoid,
    act_tanh,
    act_relu,
    act_identity,
    act_gauss,
    act_sin,
    act_abs,
    act_clamped,
];

/// Index of `activation` in [`Activation::ALL`] / [`ACTIVATION_TABLE`].
pub(crate) fn activation_index(activation: Activation) -> usize {
    Activation::ALL
        .iter()
        .position(|&a| a == activation)
        .expect("every activation variant is listed in Activation::ALL")
}

/// Tiered-execution policy, carried on `E3Config` and handed to the
/// software backend's tiered plan cache when it is built.
///
/// Disabled by default: a run with the default config is byte-identical
/// to one predating the JIT tier. Decoding expects both fields, as
/// encoding writes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JitConfig {
    /// Whether hot plans are promoted to native code at all.
    pub enabled: bool,
    /// Plan-cache uses after which a plan is compiled. Elites and
    /// champions cross this within a few generations; one-generation
    /// genomes never pay a compile.
    pub hot_threshold: u64,
}

impl Default for JitConfig {
    fn default() -> Self {
        JitConfig {
            enabled: false,
            hot_threshold: 3,
        }
    }
}

/// Why a plan could not be compiled. Every variant means "keep the
/// interpreter" — the fallback tier is always correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitError {
    /// The target is not x86-64 Linux; no native backend exists.
    UnsupportedTarget,
    /// The emitted buffer would exceed the emitter's size cap.
    PlanTooLarge {
        /// Bytes the buffer (or offset) would have needed.
        bytes: usize,
    },
    /// `mmap` refused the staging page.
    MapFailed {
        /// OS errno.
        errno: i32,
    },
    /// `mprotect` refused to flip the page read+execute (e.g. under a
    /// W^X-enforcing security policy).
    ProtectFailed {
        /// OS errno.
        errno: i32,
    },
}

impl fmt::Display for JitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JitError::UnsupportedTarget => {
                write!(f, "JIT unsupported on this target (needs x86-64 Linux)")
            }
            JitError::PlanTooLarge { bytes } => {
                write!(f, "plan too large to JIT ({bytes} bytes emitted)")
            }
            JitError::MapFailed { errno } => write!(f, "mmap for code page failed (errno {errno})"),
            JitError::ProtectFailed { errno } => {
                write!(f, "mprotect to read+execute failed (errno {errno})")
            }
        }
    }
}

impl std::error::Error for JitError {}

/// A [`NetPlan`] compiled to native code, plus the scratch buffers its
/// calls reuse — the compiled counterpart of [`e3_neat::Network`].
///
/// Construction is fallible ([`CompiledPlan::compile`]); execution is
/// [`CompiledPlan::activate_into`], bit-identical to the interpreter.
pub struct CompiledPlan {
    /// Owns the executable mapping; dropped (unmapped) last.
    page: ExecPage,
    entry: EntryFn,
    num_inputs: usize,
    num_outputs: usize,
    /// Output compute-node indices in genome id order (from the plan).
    outputs: Vec<u32>,
    /// Scratch value buffer; compute slots only are written by the
    /// native code (inputs are read in place, never copied).
    values: Vec<f64>,
    /// Scratch output vector for [`CompiledPlan::activate_into`].
    out_buf: Vec<f64>,
    code_bytes: usize,
    /// Forward passes executed since the last
    /// [`CompiledPlan::take_activations`] drain.
    activations: u64,
}

impl fmt::Debug for CompiledPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledPlan")
            .field("page", &self.page)
            .field("num_inputs", &self.num_inputs)
            .field("num_outputs", &self.num_outputs)
            .field("code_bytes", &self.code_bytes)
            .field("activations", &self.activations)
            .finish()
    }
}

impl CompiledPlan {
    /// Compiles `plan` to native code.
    ///
    /// # Errors
    ///
    /// [`JitError::UnsupportedTarget`] off x86-64 Linux,
    /// [`JitError::PlanTooLarge`] past the emitter's size cap, and
    /// [`JitError::MapFailed`]/[`JitError::ProtectFailed`] when the
    /// kernel refuses the W^X page dance. All of them mean "keep the
    /// interpreter".
    pub fn compile(plan: &NetPlan) -> Result<CompiledPlan, JitError> {
        let code = emitter::emit(plan)?;
        let page = ExecPage::new(&code)?;
        // SAFETY: the page holds the function `emitter::emit` produced
        // for exactly this plan, starting at offset 0, now mapped
        // read+execute.
        let entry = unsafe { std::mem::transmute::<*const u8, EntryFn>(page.as_ptr()) };
        Ok(CompiledPlan {
            page,
            entry,
            num_inputs: plan.num_inputs(),
            num_outputs: plan.num_outputs(),
            outputs: plan.outputs().to_vec(),
            values: vec![0.0; plan.value_buffer_slots()],
            out_buf: Vec::with_capacity(plan.num_outputs()),
            code_bytes: code.len(),
            activations: 0,
        })
    }

    /// Runs one native forward pass with **zero allocation**, returning
    /// the output node values (genome id order) as a slice into an
    /// internal reusable buffer — bit-identical to
    /// [`e3_neat::Network::activate_into`] on the same plan.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the plan's input count
    /// (the interpreter's contract).
    pub fn activate_into(&mut self, inputs: &[f64]) -> &[f64] {
        assert_eq!(
            inputs.len(),
            self.num_inputs,
            "expected {} inputs, got {}",
            self.num_inputs,
            inputs.len()
        );
        // SAFETY: `inputs` is at least `num_inputs` f64s (asserted),
        // `values` was sized to the plan's value-buffer slots at
        // construction, and the emitted code only reads input slots
        // from `inputs`, reads/writes compute slots within `values`,
        // and calls through the 8-entry table — all offsets were
        // emitted from this plan's own indices.
        unsafe {
            (self.entry)(
                inputs.as_ptr(),
                self.values.as_mut_ptr(),
                ACTIVATION_TABLE.as_ptr(),
            )
        };
        self.activations += 1;
        let base = self.num_inputs;
        let values = &self.values;
        self.out_buf.clear();
        self.out_buf
            .extend(self.outputs.iter().map(|&i| values[base + i as usize]));
        &self.out_buf
    }

    /// Allocating convenience twin of [`CompiledPlan::activate_into`].
    pub fn activate(&mut self, inputs: &[f64]) -> Vec<f64> {
        self.activate_into(inputs).to_vec()
    }

    /// Size of the emitted buffer (code + constant pool) in bytes.
    pub fn code_bytes(&self) -> usize {
        self.code_bytes
    }

    /// Drains the forward-pass counter (hot-path activations since the
    /// last drain) — how the tiered cache aggregates JIT telemetry.
    pub fn take_activations(&mut self) -> u64 {
        std::mem::take(&mut self.activations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e3_neat::{Genome, InnovationTracker, Network};

    fn xor_ish_genome() -> Genome {
        let mut tracker = InnovationTracker::with_reserved_nodes(3);
        let mut g = Genome::bare(2, 1);
        let i = g.add_connection(0, 2, 0.7, &mut tracker).unwrap();
        g.add_connection(1, 2, -0.3, &mut tracker).unwrap();
        let h = g
            .split_connection(i, Activation::Sigmoid, &mut tracker)
            .unwrap();
        g.set_bias(h, 0.25).unwrap();
        g
    }

    #[test]
    fn table_order_matches_activation_all() {
        for (i, a) in Activation::ALL.iter().enumerate() {
            assert_eq!(activation_index(*a), i);
            for x in [-2.5, -0.0, 0.0, 0.5, 7.0] {
                assert_eq!(
                    ACTIVATION_TABLE[i](x).to_bits(),
                    a.apply(x).to_bits(),
                    "{a} wrapper drifted at {x}"
                );
            }
        }
    }

    #[test]
    fn config_default_is_disabled() {
        let config = JitConfig::default();
        assert!(!config.enabled);
        assert_eq!(config.hot_threshold, 3);
        let json = serde_json::to_string(&config).unwrap();
        let back: JitConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn compiled_plan_matches_interpreter_bitwise() {
        let genome = xor_ish_genome();
        let plan = NetPlan::compile(&genome).unwrap();
        let mut net = Network::from_plan(plan.clone());
        let mut jit = CompiledPlan::compile(&plan).expect("native target compiles");
        assert!(jit.code_bytes() > 0);
        for inputs in [[0.0, 0.0], [1.0, -1.0], [0.3, 0.9], [-5.5, 2.25]] {
            let want = net.activate_into(&inputs).to_vec();
            let got = jit.activate_into(&inputs).to_vec();
            assert_eq!(
                want.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
                got.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
                "JIT drifted from interpreter on {inputs:?}"
            );
        }
        assert_eq!(jit.take_activations(), 4);
        assert_eq!(jit.take_activations(), 0);
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn every_activation_kind_is_bit_identical() {
        for activation in Activation::ALL {
            let mut tracker = InnovationTracker::with_reserved_nodes(2);
            let mut g = Genome::bare(1, 1);
            let i = g.add_connection(0, 1, 1.5, &mut tracker).unwrap();
            let h = g.split_connection(i, activation, &mut tracker).unwrap();
            g.set_bias(h, -0.125).unwrap();
            let plan = NetPlan::compile(&g).unwrap();
            let mut net = Network::from_plan(plan.clone());
            let mut jit = CompiledPlan::compile(&plan).unwrap();
            for x in [-100.0, -1.0, -0.0, 0.0, 0.5, 3.25, 80.0] {
                let want = net.activate_into(&[x])[0];
                let got = jit.activate_into(&[x])[0];
                assert_eq!(
                    want.to_bits(),
                    got.to_bits(),
                    "{activation} drifted at {x}: {want} vs {got}"
                );
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn activate_into_panics_on_wrong_input_size() {
        let plan = NetPlan::compile(&xor_ish_genome()).unwrap();
        let mut jit = CompiledPlan::compile(&plan).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            jit.activate_into(&[1.0]);
        }));
        assert!(err.is_err());
    }

    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    #[test]
    fn unsupported_targets_fall_back() {
        let plan = NetPlan::compile(&xor_ish_genome()).unwrap();
        assert!(matches!(
            CompiledPlan::compile(&plan),
            Err(JitError::UnsupportedTarget)
        ));
    }

    #[test]
    fn errors_display_their_cause() {
        assert!(JitError::UnsupportedTarget.to_string().contains("x86-64"));
        assert!(JitError::PlanTooLarge { bytes: 99 }
            .to_string()
            .contains("99"));
        assert!(JitError::MapFailed { errno: 12 }.to_string().contains("12"));
        assert!(JitError::ProtectFailed { errno: 13 }
            .to_string()
            .contains("13"));
    }
}
