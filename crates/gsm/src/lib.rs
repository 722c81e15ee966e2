//! # dmi-gsm — the GSM-style encoder workload
//!
//! The paper's evaluation simulates "the GSM algorithm" on 4 ISSs. This
//! crate provides that workload end to end:
//!
//! * [`basicop`] — ETSI-style saturated fixed-point primitives;
//! * [`reference`](mod@reference) — the encoder in Rust (preprocessing, autocorrelation,
//!   Schur recursion, LAR, LTP, weighting filter, RPE/APCM), with
//!   documented simplifications listed in `DESIGN.md`;
//! * [`codegen`] — the same stages as SimARM assembly kernels, bit-exact
//!   against the reference (property of the equivalence test suite);
//! * [`pipeline`] — the 4-stage pipeline mapping for the co-simulated
//!   MPSoC, exchanging frames through dynamic shared memory with burst
//!   transfers and a Vptr-0 directory rendezvous.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basicop;
pub mod codegen;
pub mod pipeline;
pub mod reference;
