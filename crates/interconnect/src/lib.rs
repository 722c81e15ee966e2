//! # dmi-interconnect — cycle-true interconnect models
//!
//! The interconnect of the co-simulated MPSoC: masters (ISSs) on one side,
//! shared-memory modules on the other. Two topologies:
//!
//! * [`SharedBus`] — a single-transaction bus with pluggable arbitration
//!   ([`ArbiterKind`]); the topology of the paper's experiments;
//! * [`Crossbar`] — per-slave arbitration with parallel paths, used in the
//!   ablation experiments to separate interconnect contention from memory
//!   model cost.
//!
//! Address decode is handled by an explicit [`AddressMap`] — the realization
//! of the paper's `sm_addr` field selecting the memory module.
//!
//! The handshake protocol matches `dmi-iss` masters and `dmi-core` slaves:
//! a master holds `req` with stable payload until it samples `ack`; slaves
//! assert `ack` for exactly one cycle with `rdata` valid, then wait for
//! `req` to fall before accepting the next transaction.
//!
//! ## Cost of one clock edge
//!
//! Both topologies read each master's `req` line once per rising edge
//! into a `u32` request mask (hence the [`MAX_MASTERS`] cap) and filter
//! it with the cooldown and in-service masks. [`Arbiter::pick`] chooses
//! from a mask with a rotate and a `trailing_zeros`, and waiting masters
//! are counted by walking the mask's set bits. The crossbar decodes each
//! eligible request's address once per edge into per-lane masks, so an
//! edge costs one request read per master and one decode per eligible
//! request, however many lanes are idle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod bus;
mod crossbar;
mod map;
mod master;

pub use arbiter::{Arbiter, ArbiterKind};
pub use bus::{
    BusConfig, BusStats, MasterIf, SharedBus, SlaveIf, DECODE_ERROR_DATA, MAX_MASTERS,
};
pub use crossbar::{Crossbar, CrossbarConfig};
pub use map::{AddressMap, MapError, Region};
pub use master::{BusMaster, ErrorCounts, MasterError, MasterProbe, MasterStats, MasterWiring};
