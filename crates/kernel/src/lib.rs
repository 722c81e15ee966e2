//! # dmi-kernel — discrete-event simulation kernel
//!
//! A compact SystemC-style simulation kernel: the substrate on which the
//! DATE'05 *dynamic memory integration* co-simulation framework is rebuilt.
//! The original paper runs on a C++/SystemC kernel; this crate provides the
//! equivalent semantics in safe Rust:
//!
//! * **events** ordered by `(time, delta, sequence)` — deterministic and
//!   reproducible across runs;
//! * **signals** (1–64 bit values) with evaluate→update *delta cycles*:
//!   writes become visible only when a delta commits, so clocked components
//!   behave like flip-flops and combinational components settle within a
//!   time step;
//! * **components** — plain structs implementing [`Component`], woken by
//!   subscriptions ([`Edge`]-filtered) or timers;
//! * **clocks** managed by the kernel;
//! * **VCD tracing** of any subset of signals.
//!
//! The clocked hot path is specialized end to end (see `README.md` and
//! `sim.rs`): subscriber wakes produced by a delta's update phase are
//! carried directly to the next delta in a scratch list instead of
//! round-tripping through the priority queue, carried wakes of one edge
//! are dispatched through a single reusable [`Ctx`] frame, a clock
//! toggle whose edge provably has no observer (per-signal
//! edge-subscriber summaries) skips the commit scan and wake pass
//! entirely, and periodic clock toggles live in a per-clock *calendar*
//! compared against the queue head by virtual sequence numbers, so they
//! never enter the event queue at all (`DMI_CLOCK_CALENDAR=0` restores
//! the queued reference path).
//! Dispatch order is provably identical to the unspecialized reference
//! paths, which stay available for differential testing
//! (`DMI_KERNEL_SPECIALIZE=0`, like the ISS's `DMI_PREDECODE=0`). The
//! event queue is a binary heap (`EventQueue` in `event.rs`), the
//! kernel's only queue.
//!
//! ## Quickstart
//!
//! ```
//! use dmi_kernel::{Component, Ctx, Edge, Simulator, Wake, Wire};
//!
//! /// A free-running counter driving an 8-bit bus.
//! struct Counter { clk: Wire, out: Wire, n: u64 }
//!
//! impl Component for Counter {
//!     fn name(&self) -> &str { "counter" }
//!     fn wake(&mut self, ctx: &mut Ctx<'_>) {
//!         if ctx.is_signal(self.clk) {
//!             self.n += 1;
//!             ctx.write(self.out, self.n);
//!         }
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut sim = Simulator::new();
//! let clk = sim.add_clock("clk", 10);
//! let out = sim.wire("count", 8);
//! let id = sim.add_component(Box::new(Counter { clk, out, n: 0 }));
//! sim.subscribe(id, clk, Edge::Rising);
//! let summary = sim.run_for(100);
//! assert_eq!(sim.peek(out), 10);
//! assert!(summary.stop.is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod component;
mod ctx;
mod event;
mod signal;
mod sim;
mod snapshot;
mod stats;
mod time;
mod trace;

pub use component::{Component, ComponentId, Wake};
pub use ctx::{Ctx, StopReason};
pub use signal::{Change, Edge, SignalBoard, SignalId, Wire};
pub use snapshot::{
    crc32, frame_record, next_framed_record, FrameStream, FramedRecord, Snapshot, SnapshotError,
    StateReader, StateWriter, MAX_FRAME_LEN, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use sim::{
    clock_calendar_default, clock_specialization_default, QueueKind, RunLimit, RunSummary,
    Simulator,
};
pub use stats::{FastPathStats, KernelStats};
pub use time::SimTime;
pub use trace::{TraceRecord, Tracer};
