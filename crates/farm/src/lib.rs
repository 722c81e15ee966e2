//! # dmi-farm — supervised, crash-safe scenario farm
//!
//! Batch execution for the co-simulation framework: a [`Catalog`] of
//! scenario legs ([`ScenarioSpec`]) runs across M worker threads under
//! a supervisor ([`run_farm`]) that treats individual failures as data
//! rather than process death:
//!
//! * **panic isolation** — a scenario that panics is caught at the
//!   worker boundary and becomes [`ScenarioOutcome::Panicked`]; sibling
//!   legs and the farm itself are untouched;
//! * **watchdogs** — a soft per-attempt deadline enforced *inside* the
//!   run via [`StopCondition::wall_clock_every`](dmi_system::StopCondition::wall_clock_every),
//!   and a supervisor-side hard deadline that abandons a worker which
//!   stops responding entirely;
//! * **deterministic retry** — failed attempts are retried with capped
//!   exponential backoff, resuming from the newest mid-leg checkpoint
//!   (exported across the unwind boundary, or to an on-disk checkpoint
//!   file in process mode), and still produce the same final
//!   fingerprint an uninterrupted run would — checkpoints capture
//!   architectural state only;
//! * **process isolation** — [`Isolation::Process`] runs each worker as
//!   a child process speaking a CRC-framed pipe protocol; a worker that
//!   aborts, is SIGKILLed, or tears its pipe mid-frame becomes a typed
//!   [`ScenarioOutcome::WorkerDied`], its leg is retried from the
//!   checkpoint file the dead worker exported, and the pool respawns a
//!   replacement with bounded respawn-storm throttling;
//! * **crash-safe journal** — completed legs are appended to a
//!   CRC-framed, fsynced [`Journal`]; a farm process killed outright
//!   resumes by skipping exactly the journaled legs, and torn tails
//!   from the kill are trimmed, never trusted;
//! * **divergence bisection** — [`bisect_divergence`] binary-searches
//!   the checkpoint grid between two builds that should agree, down to
//!   the first divergent interval, and emits a minimized repro
//!   (base snapshot + short interval) verified by
//!   [`Divergence::replay`].
//!
//! See `README.md` in this crate for the supervision model and the
//! journal format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bisect;
mod catalog;
mod journal;
mod outcome;
mod proc;
mod registry;
mod spec;
mod supervisor;
mod worker;

pub use bisect::{bisect_divergence, Divergence};
pub use catalog::{Catalog, CatalogError};
pub use journal::{Journal, JournalError, JOURNAL_MAGIC, JOURNAL_VERSION};
pub use outcome::{LegResult, ScenarioOutcome};
pub use proc::{run_worker, worker_entry_from_env, WORKER_ENV};
pub use registry::{Factory, Registry};
pub use spec::ScenarioSpec;
pub use supervisor::{panics_caught, run_farm, FarmConfig, FarmError, FarmReport, Isolation};
pub use worker::{leg_fingerprint, WarmCache};
