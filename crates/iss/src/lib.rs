//! # dmi-iss — SimARM instruction-set simulator
//!
//! A cycle-approximate interpreter for the [`dmi-isa`](dmi_isa) instruction
//! set, playing the role SimIt-ARM plays in the DATE'05 dynamic memory
//! integration paper: the processing elements of the co-simulated MPSoC.
//!
//! Two layers:
//!
//! * [`CpuCore`] — a pure interpreter (registers, flags, private memory,
//!   timing model, SWI services) that can be unit-tested and benchmarked
//!   without a simulation kernel. [`CpuCore::step`] dispatches predecoded
//!   micro-ops through a per-core decoded-instruction cache;
//!   [`CpuCore::step_reference`], the original word-at-a-time
//!   interpreter, is kept only as the oracle that tests and benches check
//!   `step` against — see `README.md` in this crate;
//! * [`CpuComponent`] — the co-simulation wrapper that clocks a core and
//!   speaks the bus-master handshake for accesses into the shared window,
//!   stalling the core until the interconnect answers.
//!
//! ## Running a bare program
//!
//! ```
//! use dmi_isa::{Asm, Reg};
//! use dmi_iss::{CpuCore, LocalMemory, NoBus, StepEvent};
//!
//! let mut a = Asm::new();
//! a.li(Reg::R0, 6);
//! a.li(Reg::R1, 7);
//! a.mul(Reg::R2, Reg::R0, Reg::R1);
//! a.swi(0); // halt
//! let prog = a.assemble(0).unwrap();
//!
//! let mut cpu = CpuCore::new(0, LocalMemory::new(0, 0x1000));
//! cpu.load_program(&prog);
//! let ev = cpu.run(&mut NoBus, 100);
//! assert_eq!(ev, StepEvent::Halted);
//! assert_eq!(cpu.reg(Reg::R2), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod component;
mod cpu;
mod flags;
mod localmem;
mod syscall;

pub use bus::{ExtBus, ExtResult, ExtWidth, FlatBus, NoBus};
pub use component::{BusMasterPorts, CpuComponent, CpuComponentStats, HaltMonitor};
pub use cpu::{CpuCore, CpuFault, CpuStats, StepEvent};
pub use flags::{add_with_carry, Flags};
pub use localmem::{LocalMemory, OutOfRange};
pub use syscall::{Console, Syscall};
