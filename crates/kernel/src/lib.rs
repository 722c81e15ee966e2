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
//! `sim.rs`): periodic clock toggles live in a per-clock *calendar*
//! compared against the queue head by virtual sequence numbers, so they
//! never enter the event queue; a clock edge that is the only work at
//! its tick takes the *edge path*, flipping in place and handing a
//! fan-out precomputed at subscription time to the next delta (every
//! other toggle is an ordinary write); subscriber wakes are carried to
//! the next delta in a scratch list instead of through the priority
//! queue; and the carried wakes of one edge are dispatched through a
//! single reusable [`Ctx`] frame and booked once per batch.
//! Dispatch order is provably identical to the reference path, which
//! stays available for differential testing behind one switch
//! (`DMI_KERNEL_SPECIALIZE=0` or
//! [`Simulator::set_clock_specialization`]`(false)`: queued clock
//! toggles, every toggle written, committed and scanned, one `Ctx` per
//! wake). A snapshot does not record
//! which path ran. The event queue is a binary heap (`EventQueue` in
//! `event.rs`), the kernel's only queue.
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
pub use signal::{Edge, SignalBoard, SignalId, Wire};
pub use sim::{clock_specialization_default, QueueKind, RunLimit, RunSummary, Simulator};
pub use snapshot::{
    crc32, frame_record, next_framed_record, FrameStream, FramedRecord, Snapshot, SnapshotError,
    StateReader, StateWriter, MAX_FRAME_LEN, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use stats::{FastPathStats, KernelStats};
pub use time::SimTime;
pub use trace::{TraceRecord, Tracer};
