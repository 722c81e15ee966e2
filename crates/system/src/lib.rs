//! # dmi-system — the MPSoC co-simulation framework
//!
//! The top of the stack: this crate assembles the framework of the paper's
//! Figure 1 — ISSs ([`dmi-iss`](dmi_iss)) and hardware modules
//! ([`dmi-core`](dmi_core) memories, [`dmi-interconnect`](dmi_interconnect))
//! on a simulation kernel ([`dmi-kernel`](dmi_kernel)), runs it, and
//! reports the *simulation speed* metrics the paper's evaluation is based
//! on.
//!
//! Construction goes through [`SystemBuilder`]: heterogeneous CPUs
//! ([`CpuSpec`]), memories with explicit address windows ([`MemSpec`]),
//! non-CPU bus masters (the [`BusMaster`](dmi_interconnect::BusMaster)
//! trait), validated construction ([`BuildError`]).
//!
//! Execution is typed too: [`McSystem::run_until`] takes a composable
//! [`StopCondition`] (all-halted, cycle budget, watchpoints, no-progress
//! detection, wall-clock deadline, periodic checkpointing) and
//! [`McSystem::report_now`] reports mid-run statistics. See `README.md`
//! in this crate for the guided tour and the migration notes.
//!
//! State capture: [`McSystem::checkpoint`] serializes the complete
//! simulation state into a versioned, checksummed [`Snapshot`];
//! [`McSystem::restore`] replays it bit-identically on a
//! topology-identical system, and [`McSystem::fork`] fans one warmed
//! checkpoint out into divergent continuations. See the "State capture"
//! section of this crate's `README.md`.
//!
//! Robustness experiments use the deterministic fault-injection layer:
//! a seeded [`FaultPlan`] installed via [`SystemBuilder::faults`]
//! schedules slave status faults, data corruption, interconnect faults
//! and burst aborts replay-exactly; masters with a retry policy recover
//! or escalate into [`StopCause::Fault`], and [`RunReport::faults`]
//! carries the [`FaultStats`]. See the fault-model section of this
//! crate's `README.md`.
//!
//! The [`experiments`] module reproduces every experiment of the paper and
//! the extended evaluation documented in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod build;
mod builder;
mod config;
pub mod experiments;
mod report;
mod run_ctl;

pub use build::McSystem;
pub use builder::{
    BuildError, CpuHandle, CpuSpec, MasterHandle, MemHandle, MemSpec, Preset, SystemBuilder,
    DEFAULT_LOCAL_MEM,
};
pub use dmi_analyze::{
    analyze, AnalysisReport, Boundary, Code, Diagnostic, Severity, Shard, ShardPlan, SystemGraph,
};
pub use dmi_core::{
    faults_enabled_default, FaultKind, FaultPlan, FaultSite, FaultSpec, FaultStats, FaultTrigger,
};
pub use dmi_interconnect::{ErrorCounts, MasterError};
pub use dmi_kernel::{Snapshot, SnapshotError};
pub use config::{mem_base, InterconnectKind, MemModelKind, MEM_WINDOW};
pub use report::{CpuReport, MasterReport, MemReport, RunReport};
pub use run_ctl::{FaultReport, StopCause, StopCondition, DEFAULT_POLL_CYCLES};
