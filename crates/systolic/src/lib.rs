//! # e3-systolic — the GeneSys-style systolic-array baseline
//!
//! The E3 paper's Fig. 11 contrasts INAX against the accelerator
//! structure GeneSys uses for NEAT inference: a **1-D systolic array**
//! (SA) executing MLP-type calculations, parallelized across PUs for a
//! fair comparison. A regular array cannot consume an irregular network
//! directly; it must execute the network's *dense MLP counterpart*
//! (paper Fig. 4(d)):
//!
//! * sparse connectivity is **zero-filled** — every output node pays
//!   for a full row of MACs over the whole previous layer;
//! * cross-level skip links force **dummy pass-through nodes** that
//!   repeat a value through every intermediate layer so data always
//!   flows layer-by-layer.
//!
//! [`DensePaddedNet`] performs that lowering (and evaluates it, so the
//! tests can prove the padding is semantics-preserving), and
//! [`SystolicArray`] applies the 1-D SA cycle model on top.
//!
//! ## Example
//!
//! ```
//! use e3_systolic::{DensePaddedNet, SystolicArray, SystolicConfig};
//! use e3_inax::synthetic::synthetic_net;
//!
//! let net = synthetic_net(8, 4, 30, 0.2, 1);
//! let padded = DensePaddedNet::from_plan(&net);
//! assert!(padded.dense_connections() > net.num_connections());
//! let sa = SystolicArray::new(SystolicConfig::builder().num_pe(16).build());
//! assert!(sa.inference_cycles(&padded) > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod padding;

pub use array::{SystolicArray, SystolicConfig};
pub use padding::DensePaddedNet;
