//! # dmi-sim — fast dynamic memory integration for MPSoC co-simulation
//!
//! A Rust reproduction of O. Villa, P. Schaumont, I. Verbauwhede,
//! M. Monchiero, G. Palermo, *"Fast Dynamic Memory Integration in
//! Co-Simulation Frameworks for Multiprocessor System on-Chip"* (DATE 2005).
//!
//! This facade crate re-exports the full stack:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`kernel`] | `dmi-kernel` | discrete-event simulation kernel (SystemC substitute) |
//! | [`isa`] | `dmi-isa` | SimARM ISA, assembler, disassembler |
//! | [`iss`] | `dmi-iss` | cycle-approximate instruction-set simulator |
//! | [`interconnect`] | `dmi-interconnect` | shared bus / crossbar |
//! | [`core`] | `dmi-core` | **the paper's dynamic memory wrapper** + baselines |
//! | [`sw`] | `dmi-sw` | DSM driver API and workload programs |
//! | [`gsm`] | `dmi-gsm` | GSM-style encoder workload (reference + ISS) |
//! | [`masters`] | `dmi-masters` | non-CPU bus masters (DMA / traffic generators) |
//! | [`system`] | `dmi-system` | system builder, run control, reports, experiments |
//!
//! The `README.md` files of the kernel, ISS, system, analyzer and farm
//! crates (under `crates/`) describe their layers; `ROADMAP.md` at the
//! repository root records the measured state of the stack and the open
//! work.
//!
//! ## Quickstart
//!
//! ```
//! use dmi_sim::sw::{workloads, WorkloadCfg};
//! use dmi_sim::system::{mem_base, CpuSpec, MemSpec, SystemBuilder};
//!
//! let cfg = WorkloadCfg {
//!     mem_base: mem_base(0),
//!     iterations: 8,
//!     ..WorkloadCfg::default()
//! };
//! let mut b = SystemBuilder::new();
//! b.add_cpu(CpuSpec::new(workloads::alloc_churn(&cfg)));
//! b.add_memory(MemSpec::wrapper(mem_base(0)));
//! let mut system = b.build().expect("valid system");
//! let report = system.run(1_000_000);
//! assert!(report.all_ok());
//! println!("{}", report.summary());
//! ```

#![forbid(unsafe_code)]

pub use dmi_core as core;
pub use dmi_gsm as gsm;
pub use dmi_interconnect as interconnect;
pub use dmi_isa as isa;
pub use dmi_iss as iss;
pub use dmi_kernel as kernel;
pub use dmi_masters as masters;
pub use dmi_sw as sw;
pub use dmi_system as system;
