//! # dmi-core — fast dynamic memory integration for MPSoC co-simulation
//!
//! This crate is the primary contribution of the reproduced paper (Villa,
//! Schaumont, Verbauwhede, Monchiero, Palermo — *"Fast Dynamic Memory
//! Integration in Co-Simulation Frameworks for Multiprocessor System
//! on-Chip"*, DATE 2005): a **dynamic shared-memory wrapper** that keeps
//! memory timing cycle-true while delegating functional storage to the
//! *host machine's* memory management.
//!
//! The wrapper (Figure 2 of the paper) is split exactly as published:
//!
//! * a **cycle-true part** — [`MemoryModule`], an FSM speaking a req/ack
//!   handshake on the interconnect, evaluating its inputs cycle by cycle
//!   and delaying acknowledges according to a configurable, data-dependent
//!   [`DelayModel`];
//! * a **functional part** — [`WrapperBackend`], composed of the
//!   [`PointerTable`] (Vptr → Hptr, dimension, type, reservation bit) and
//!   the [`Translator`] (endianness and data-size conversion), with host
//!   storage allocated through [`HostAlloc`] (the `calloc`/`free`
//!   substitution).
//!
//! Two baselines answer the same protocol / bus so every comparison in the
//! evaluation is apples-to-apples:
//!
//! * [`SimHeapBackend`] — a *detailed* in-simulation boundary-tag allocator,
//!   the "complex and slow dynamic memory model" of the paper's Section 2;
//! * [`StaticTableMemory`] — a flat fixed-latency RAM, the "static
//!   memories implemented as tables" traditional frameworks use.
//!
//! ## Functional quickstart (no simulation kernel)
//!
//! ```
//! use dmi_core::{DsmBackend, ElemType, Opcode, Request, WrapperBackend, WrapperConfig};
//!
//! let mut mem = WrapperBackend::new(WrapperConfig::default());
//! let alloc = mem.execute(&Request {
//!     op: Opcode::Alloc, arg0: 16, arg1: ElemType::U32 as u32, arg2: 0, master: 0,
//! });
//! assert!(alloc.status.is_ok());
//! let vptr = alloc.result;           // first Vptr is 0, per the paper
//! let w = mem.execute(&Request {
//!     op: Opcode::Write, arg0: vptr + 4, arg1: 0xBEEF, arg2: 2, master: 0,
//! });
//! assert!(w.status.is_ok());
//! let r = mem.execute(&Request {
//!     op: Opcode::Read, arg0: vptr + 4, arg1: 0, arg2: 2, master: 0,
//! });
//! assert_eq!(r.result, 0xBEEF);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod delay;
mod faults;
mod host;
mod module;
mod protocol;
mod simheap;
mod staticmem;
mod table;
mod translator;
mod wrapper;

pub use backend::{BeatResult, DsmBackend, MemStats};
pub use delay::{DelayModel, LinDelay};
pub use faults::{
    BusFault, FaultController, FaultHook, FaultKind, FaultPlan, FaultSite, FaultSpec, FaultStats,
    FaultTrigger, MemBeatFault, MemOpFault,
};
pub use host::{HostAlloc, HostStats};
pub use module::{MemoryModule, ModuleStats, SlavePorts};
pub use protocol::{regs, ElemType, OpResult, Opcode, Request, Status, NULL_VPTR};
pub use simheap::{SimHeapBackend, SimHeapConfig};
pub use staticmem::{StaticMemConfig, StaticTableBackend, StaticTableMemory};
pub use table::{AllocError, Entry, PointerTable, PtrError, TableStats, VptrPolicy};
pub use translator::{Endian, Translator};
pub use wrapper::{WrapperBackend, WrapperConfig, WIDTH_FROM_TABLE};
