//! The composable system builder: the construction half of the
//! design-space-exploration API.
//!
//! [`SystemBuilder`] assembles an MPSoC layer by layer — CPUs
//! ([`CpuSpec`]), memories with explicit address windows ([`MemSpec`]),
//! arbitrary non-CPU bus masters ([`BusMaster`]) and an interconnect —
//! and validates the whole description before any wiring happens:
//! [`build`](SystemBuilder::build) returns `Result<McSystem, BuildError>`
//! instead of panicking mid-construction.
//!
//! `add_*` calls return typed handles ([`CpuHandle`], [`MemHandle`],
//! [`MasterHandle`]) that keep referring to the same element after the
//! system is built — for report lookups, watchpoints and post-run
//! inspection.
//!
//! ```
//! use dmi_sw::{workloads, WorkloadCfg};
//! use dmi_system::{CpuSpec, MemSpec, SystemBuilder};
//!
//! let mut b = SystemBuilder::new();
//! let mem = b.add_memory(MemSpec::wrapper(0x8000_0000));
//! let wl = WorkloadCfg { mem_base: 0x8000_0000, iterations: 4, ..WorkloadCfg::default() };
//! let cpu = b.add_cpu(CpuSpec::new(workloads::alloc_churn(&wl)));
//! let mut system = b.build().expect("valid system");
//! let report = system.run(1_000_000);
//! assert!(report.all_ok());
//! # let _ = (mem, cpu);
//! ```

use dmi_core::{
    FaultController, FaultHook, FaultPlan, MemoryModule, SimHeapBackend, SimHeapConfig,
    StaticMemConfig, StaticTableBackend, StaticTableMemory, WrapperBackend, WrapperConfig,
};
use dmi_interconnect::{
    AddressMap, BusMaster, Crossbar, MapError, MasterIf, MasterProbe, MasterWiring, Region,
    SharedBus, SlaveIf, MAX_MASTERS,
};
use dmi_isa::Program;
use dmi_iss::{BusMasterPorts, CpuComponent, CpuCore, HaltMonitor, LocalMemory};
use dmi_kernel::{Edge, Simulator};

use crate::build::{MasterInfo, McSystem};
use crate::config::{InterconnectKind, MemModelKind, MEM_WINDOW};

/// Default private memory per CPU (the historical global knob's value).
pub const DEFAULT_LOCAL_MEM: u32 = 0x40000;

/// Handle to a CPU added to a [`SystemBuilder`]; indexes the built
/// system's CPU reports ([`RunReport::cpus`](crate::RunReport::cpus)) and
/// [`McSystem::cpu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuHandle(pub(crate) usize);

impl CpuHandle {
    /// The CPU's ordinal (its index in reports and [`McSystem::cpu`]).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a shared memory added to a [`SystemBuilder`]; indexes
/// [`RunReport::mems`](crate::RunReport::mems) and [`McSystem::memory`],
/// and names the module in watchpoints
/// ([`StopCondition::watch_word`](crate::StopCondition::watch_word)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemHandle(pub(crate) usize);

impl MemHandle {
    /// The memory's ordinal (its index in reports and
    /// [`McSystem::memory`]).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a non-CPU bus master added to a [`SystemBuilder`]; indexes
/// [`RunReport::masters`](crate::RunReport::masters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MasterHandle(pub(crate) usize);

impl MasterHandle {
    /// The master's ordinal among non-CPU masters.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Description of one CPU: its program and per-CPU knobs.
#[derive(Debug, Clone)]
pub struct CpuSpec {
    /// The program the core boots into.
    pub program: Program,
    /// Private memory size in bytes (per CPU — heterogeneous cores may
    /// differ). Defaults to [`DEFAULT_LOCAL_MEM`].
    pub local_mem_size: u32,
    /// Dispatch engine: predecoded micro-ops (default) or the reference
    /// interpreter. See [`dmi_iss::CpuCore::set_predecode`].
    pub predecode: bool,
}

impl CpuSpec {
    /// A CPU with default local memory and dispatch engine.
    pub fn new(program: Program) -> Self {
        CpuSpec {
            program,
            local_mem_size: DEFAULT_LOCAL_MEM,
            predecode: dmi_iss::predecode_default(),
        }
    }

    /// Sets the private memory size in bytes.
    pub fn local_mem_size(mut self, bytes: u32) -> Self {
        self.local_mem_size = bytes;
        self
    }

    /// Selects the dispatch engine.
    pub fn predecode(mut self, on: bool) -> Self {
        self.predecode = on;
        self
    }
}

/// Description of one shared memory: its model and its decode window.
#[derive(Debug, Clone, Copy)]
pub struct MemSpec {
    /// The memory model answering the window.
    pub model: MemModelKind,
    /// First byte address of the decode window.
    pub base: u32,
    /// Window size in bytes (variable per memory; defaults to the
    /// historical [`MEM_WINDOW`]).
    pub window: u32,
}

impl MemSpec {
    /// A memory of the given model decoded at `base` with the default
    /// 64 KiB window.
    pub fn new(model: MemModelKind, base: u32) -> Self {
        MemSpec {
            model,
            base,
            window: MEM_WINDOW,
        }
    }

    /// The paper's host-backed dynamic wrapper with default config.
    pub fn wrapper(base: u32) -> Self {
        Self::new(MemModelKind::Wrapper(WrapperConfig::default()), base)
    }

    /// The detailed in-simulation allocator baseline with default config.
    pub fn simheap(base: u32) -> Self {
        Self::new(MemModelKind::SimHeap(SimHeapConfig::default()), base)
    }

    /// A directly-addressed static table with default config.
    pub fn static_table(base: u32) -> Self {
        Self::new(MemModelKind::Static(StaticMemConfig::default()), base)
    }

    /// The static table behind the protocol register block with default
    /// config — the traditional baseline as a protocol module, so burst
    /// DMAs and other protocol masters can target it without manual
    /// wiring (allocation commands answer `Unsupported` by design).
    pub fn static_protocol(base: u32) -> Self {
        Self::new(MemModelKind::StaticProtocol(StaticMemConfig::default()), base)
    }

    /// Overrides the window size.
    pub fn window(mut self, bytes: u32) -> Self {
        self.window = bytes;
        self
    }

    /// The decode region this spec claims.
    pub fn region(&self, slave: usize) -> Region {
        Region {
            base: self.base,
            size: self.window,
            slave,
        }
    }
}

/// Interconnect timing presets: the builder-level answer to "which
/// `burst_grant` default?".
///
/// * [`SeedTiming`](Preset::SeedTiming) — the timing every cycle count in
///   the repo's experiment trajectory was recorded under: grant retention
///   off, each transaction re-arbitrates. **The default.**
/// * [`Throughput`](Preset::Throughput) — AMBA-style grant retention on
///   ([`BusConfig::burst_grant`](dmi_interconnect::BusConfig::burst_grant)):
///   consecutive same-master/same-slave transfers skip the re-arbitration
///   penalty. Fewer simulated cycles for burst-heavy traffic; cycle counts
///   are *not* comparable with seed-timing runs.
///
/// Measured numbers for both presets are recorded in `ROADMAP.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Seed-comparable timing (grant retention off).
    SeedTiming,
    /// Burst-friendly timing (grant retention on).
    Throughput,
}

/// Why a [`SystemBuilder::build`] call rejected the description.
#[derive(Debug)]
pub enum BuildError {
    /// No masters at all (neither CPUs nor custom bus masters).
    EmptySystem,
    /// No shared memories.
    NoMemories,
    /// More masters than [`MAX_MASTERS`], the limit of the
    /// interconnect's 4-bit master-id field.
    TooManyMasters {
        /// Requested master count (CPUs + custom masters).
        count: usize,
    },
    /// The clock period is odd or below 2 ticks.
    BadClockPeriod {
        /// The rejected period.
        period: u64,
    },
    /// A CPU's program image does not fit in its private memory.
    ProgramTooLarge {
        /// CPU ordinal.
        cpu: usize,
        /// Bytes the image needs (base + length).
        need: u32,
        /// The CPU's `local_mem_size`.
        have: u32,
    },
    /// A memory declares a zero-sized window.
    ZeroWindow {
        /// The offending base address.
        base: u32,
    },
    /// A memory's window wraps past the top of the address space.
    WindowWraps {
        /// Window base.
        base: u32,
        /// Window size.
        window: u32,
    },
    /// Two memories' windows overlap.
    OverlappingWindows {
        /// The window being added.
        new: Region,
        /// The window it collides with.
        existing: Region,
    },
    /// [`build_checked`](SystemBuilder::build_checked) found
    /// `Error`-severity diagnostics; the payload is every finding of
    /// the rejected analysis (errors first).
    Analysis {
        /// The full ranked diagnostic list of the rejecting report.
        diagnostics: Vec<dmi_analyze::Diagnostic>,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::EmptySystem => write!(f, "at least one bus master required"),
            BuildError::NoMemories => write!(f, "at least one memory required"),
            BuildError::TooManyMasters { count } => {
                write!(
                    f,
                    "at most {MAX_MASTERS} bus masters (master id is 4 bits), got {count}"
                )
            }
            BuildError::BadClockPeriod { period } => {
                write!(f, "clock period must be even and >= 2, got {period}")
            }
            BuildError::ProgramTooLarge { cpu, need, have } => write!(
                f,
                "cpu{cpu}: program needs {need:#x} bytes of local memory, has {have:#x}"
            ),
            BuildError::ZeroWindow { base } => {
                write!(f, "memory window at {base:#x} is zero-sized")
            }
            BuildError::WindowWraps { base, window } => {
                write!(f, "memory window {base:#x}+{window:#x} wraps the address space")
            }
            BuildError::OverlappingWindows { new, existing } => write!(
                f,
                "memory window {:#x}+{:#x} overlaps {:#x}+{:#x} (mem{})",
                new.base, new.size, existing.base, existing.size, existing.slave
            ),
            BuildError::Analysis { diagnostics } => {
                let errors: Vec<String> = diagnostics
                    .iter()
                    .filter(|d| d.severity == dmi_analyze::Severity::Error)
                    .map(|d| format!("[{}] {}: {}", d.code, d.subject, d.message))
                    .collect();
                write!(f, "static analysis rejected the system: {}", errors.join("; "))
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<MapError> for BuildError {
    fn from(e: MapError) -> Self {
        match e {
            MapError::ZeroSize { base } => BuildError::ZeroWindow { base },
            MapError::AddressWrap { base, size } => BuildError::WindowWraps {
                base,
                window: size,
            },
            MapError::Overlap { new, existing } => {
                BuildError::OverlappingWindows { new, existing }
            }
        }
    }
}

/// One entry in the builder's ordered master list. Order is bus-master
/// order: the arbiter's index space.
#[derive(Debug)]
pub(crate) enum MasterSlot {
    Cpu(CpuSpec),
    Custom(Box<dyn BusMaster>),
}

/// Composable MPSoC description; see the module docs.
///
/// Fields are crate-visible so the static-analysis lowering
/// (`analysis::lower`) can read the description without consuming it.
#[derive(Debug)]
pub struct SystemBuilder {
    pub(crate) clock_period: u64,
    pub(crate) masters: Vec<MasterSlot>,
    pub(crate) mems: Vec<MemSpec>,
    pub(crate) interconnect: InterconnectKind,
    pub(crate) preset: Option<Preset>,
    pub(crate) clock_calendar: Option<bool>,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) fault_injection: Option<bool>,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SystemBuilder {
    /// An empty system on the default clock (period 2, the fastest) and a
    /// default shared bus.
    pub fn new() -> Self {
        SystemBuilder {
            clock_period: 2,
            masters: Vec::new(),
            mems: Vec::new(),
            interconnect: InterconnectKind::SharedBus(Default::default()),
            preset: None,
            clock_calendar: None,
            faults: None,
            fault_injection: None,
        }
    }

    /// Installs a deterministic [`FaultPlan`]: a shared
    /// [`FaultController`] seeded from the plan is wired into every
    /// protocol memory module and the interconnect. An empty plan (or no
    /// plan — the default) leaves the simulation cycle-bit-identical to a
    /// fault-free build; a non-empty plan replays exactly for a given
    /// seed, independent of host timing and the kernel's fast-path
    /// settings.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Pins fault injection on or off at build time instead of the
    /// `DMI_FAULTS` environment default (see
    /// [`dmi_core::faults_enabled_default`]). Only meaningful together
    /// with [`faults`](Self::faults); the toggle can also be flipped at
    /// runtime via
    /// [`McSystem::set_fault_injection`](crate::McSystem::set_fault_injection).
    pub fn fault_injection(mut self, on: bool) -> Self {
        self.fault_injection = Some(on);
        self
    }

    /// Pins the kernel's clock calendar on or off instead of the
    /// `DMI_CLOCK_CALENDAR` environment default (see
    /// [`dmi_kernel::clock_calendar_default`]). Purely a
    /// host-performance A/B knob — the simulation is bit-identical
    /// either way.
    pub fn clock_calendar(mut self, on: bool) -> Self {
        self.clock_calendar = Some(on);
        self
    }

    /// Sets the clock period in kernel ticks (validated at build: must be
    /// even and at least 2).
    pub fn clock_period(mut self, ticks: u64) -> Self {
        self.clock_period = ticks;
        self
    }

    /// Selects the interconnect topology and configuration.
    pub fn interconnect(mut self, kind: InterconnectKind) -> Self {
        self.interconnect = kind;
        self
    }

    /// Applies a timing [`Preset`] on top of the current interconnect
    /// choice (at build time, after [`interconnect`](Self::interconnect)).
    pub fn preset(mut self, preset: Preset) -> Self {
        self.preset = Some(preset);
        self
    }

    /// Adds a CPU; bus-master index is the overall insertion order across
    /// CPUs and custom masters.
    pub fn add_cpu(&mut self, spec: CpuSpec) -> CpuHandle {
        let ordinal = self
            .masters
            .iter()
            .filter(|m| matches!(m, MasterSlot::Cpu(_)))
            .count();
        self.masters.push(MasterSlot::Cpu(spec));
        CpuHandle(ordinal)
    }

    /// Adds a shared memory.
    pub fn add_memory(&mut self, spec: MemSpec) -> MemHandle {
        self.mems.push(spec);
        MemHandle(self.mems.len() - 1)
    }

    /// Adds a non-CPU bus master (DMA engine, traffic generator, …).
    pub fn add_master(&mut self, master: Box<dyn BusMaster>) -> MasterHandle {
        let ordinal = self
            .masters
            .iter()
            .filter(|m| matches!(m, MasterSlot::Custom(_)))
            .count();
        self.masters.push(MasterSlot::Custom(master));
        MasterHandle(ordinal)
    }

    /// Validates the description (without building). `build` calls this
    /// first; exposed for cheap pre-flight checks.
    ///
    /// # Errors
    ///
    /// The first [`BuildError`] the description violates.
    pub fn validate(&self) -> Result<(), BuildError> {
        if self.masters.is_empty() {
            return Err(BuildError::EmptySystem);
        }
        if self.mems.is_empty() {
            return Err(BuildError::NoMemories);
        }
        if self.masters.len() > MAX_MASTERS {
            return Err(BuildError::TooManyMasters {
                count: self.masters.len(),
            });
        }
        if self.clock_period < 2 || !self.clock_period.is_multiple_of(2) {
            return Err(BuildError::BadClockPeriod {
                period: self.clock_period,
            });
        }
        let mut cpu = 0usize;
        for slot in &self.masters {
            if let MasterSlot::Cpu(spec) = slot {
                let need = spec
                    .program
                    .base()
                    .saturating_add(spec.program.len_bytes());
                if need > spec.local_mem_size {
                    return Err(BuildError::ProgramTooLarge {
                        cpu,
                        need,
                        have: spec.local_mem_size,
                    });
                }
                cpu += 1;
            }
        }
        // Dry-run the address map so window errors surface before any
        // component is constructed.
        let mut map = AddressMap::new();
        for (j, m) in self.mems.iter().enumerate() {
            map.try_add(m.base, m.window, j)?;
        }
        Ok(())
    }

    /// Statically analyzes the described system without building or
    /// running anything: lowers the description into a
    /// [`SystemGraph`](dmi_analyze::SystemGraph) and runs the
    /// `dmi-analyze` pass pipeline. Pure — `&self`, no simulator is
    /// constructed, and a subsequent [`build`](Self::build) + run is
    /// cycle-bit-identical to one that never analyzed (pinned by
    /// `tests/analysis.rs`).
    pub fn analyze(&self) -> dmi_analyze::AnalysisReport {
        dmi_analyze::analyze(&crate::analysis::lower(self, &[]))
    }

    /// [`analyze`](Self::analyze), additionally linting the watchpoint
    /// targets of the [`StopCondition`](crate::StopCondition) the
    /// caller intends to run with (diagnostic `A005`).
    pub fn analyze_with(&self, stop: &crate::StopCondition) -> dmi_analyze::AnalysisReport {
        dmi_analyze::analyze(&crate::analysis::lower(self, &stop.watches))
    }

    /// [`build`](Self::build), gated on the static analysis: the system
    /// is only constructed when [`analyze`](Self::analyze) reports no
    /// `Error`-severity diagnostics.
    ///
    /// # Errors
    ///
    /// Any [`BuildError`] from [`validate`](Self::validate), or
    /// [`BuildError::Analysis`] carrying the rejecting report's
    /// diagnostics.
    pub fn build_checked(self) -> Result<McSystem, BuildError> {
        self.validate()?;
        let report = self.analyze();
        if report.has_errors() {
            return Err(BuildError::Analysis {
                diagnostics: report.diagnostics,
            });
        }
        self.build()
    }

    /// Builds the described system.
    ///
    /// # Errors
    ///
    /// Any [`BuildError`] from [`validate`](Self::validate); nothing is
    /// constructed on error.
    pub fn build(self) -> Result<McSystem, BuildError> {
        self.validate()?;
        // Lowered before the description is consumed; the built system
        // answers `McSystem::analyze` from this graph.
        let graph = crate::analysis::lower(&self, &[]);
        let interconnect = match (self.interconnect, self.preset) {
            (kind, None) => kind,
            (InterconnectKind::SharedBus(mut cfg), Some(p)) => {
                cfg.burst_grant = p == Preset::Throughput;
                InterconnectKind::SharedBus(cfg)
            }
            (InterconnectKind::Crossbar(mut cfg), Some(p)) => {
                cfg.burst_grant = p == Preset::Throughput;
                InterconnectKind::Crossbar(cfg)
            }
        };

        // The shared fault controller (one per system: every site draws
        // from the same seeded plan, so cross-site trigger order is
        // well-defined).
        let fault_hook: Option<FaultHook> = self.faults.map(|plan| {
            let mut ctl = FaultController::new(plan);
            if let Some(on) = self.fault_injection {
                ctl.set_enabled(on);
            }
            ctl.into_hook()
        });

        let mut sim = Simulator::new();
        if let Some(on) = self.clock_calendar {
            // Before `add_clock`, so the first toggle is armed directly
            // on the chosen path (no migration needed).
            sim.set_clock_calendar(on);
        }
        let clk = sim.add_clock("clk", self.clock_period);

        // Masters, in insertion order (= bus-master/arbitration order).
        // Wire-declaration order is load-bearing: it fixes component and
        // signal ids, and with them the dispatch order the pinned cycle
        // counts were recorded under.
        let mut cpu_ids = Vec::new();
        let mut master_infos: Vec<MasterInfo> = Vec::new();
        let mut master_ifs = Vec::new();
        let mut finish_wires = Vec::new();
        let mut cpu_ordinal = 0usize;
        let mut kind_counts: Vec<(&'static str, usize)> = Vec::new();
        for (midx, slot) in self.masters.into_iter().enumerate() {
            match slot {
                MasterSlot::Cpu(spec) => {
                    let i = cpu_ordinal;
                    cpu_ordinal += 1;
                    let ports = BusMasterPorts::declare(&mut sim, &format!("cpu{i}.bus"));
                    let halted = sim.wire(format!("cpu{i}.halted"), 1);
                    let mut core =
                        CpuCore::new(midx as u32, LocalMemory::new(0, spec.local_mem_size));
                    core.set_predecode(spec.predecode);
                    core.load_program(&spec.program);
                    let comp = CpuComponent::new(format!("cpu{i}"), core, clk, ports, halted);
                    let id = sim.add_component(Box::new(comp));
                    sim.subscribe(id, clk, Edge::Rising);
                    cpu_ids.push(id);
                    finish_wires.push(halted);
                    master_ifs.push(MasterIf::from(ports));
                }
                MasterSlot::Custom(spec) => {
                    let kind = spec.kind();
                    let n = match kind_counts.iter_mut().find(|(k, _)| *k == kind) {
                        Some((_, n)) => {
                            *n += 1;
                            *n - 1
                        }
                        None => {
                            kind_counts.push((kind, 1));
                            0
                        }
                    };
                    let name = format!("{kind}{n}");
                    let ports = MasterIf::declare(&mut sim, &format!("{name}.bus"));
                    let done = sim.wire(format!("{name}.done"), 1);
                    let probe: MasterProbe = spec.probe();
                    let comp = spec.into_component(name.clone(), MasterWiring { clk, ports, done });
                    let id = sim.add_component(comp);
                    sim.subscribe(id, clk, Edge::Rising);
                    finish_wires.push(done);
                    master_ifs.push(ports);
                    master_infos.push(MasterInfo {
                        name,
                        kind,
                        id,
                        probe,
                    });
                }
            }
        }

        // Memories.
        let mut mem_ids = Vec::new();
        let mut mem_kinds = Vec::new();
        let mut mem_regions = Vec::new();
        let mut slave_ifs = Vec::new();
        let mut map = AddressMap::new();
        for (j, spec) in self.mems.iter().enumerate() {
            let ports = dmi_core::SlavePorts::declare(&mut sim, &format!("mem{j}.s"));
            map.try_add(spec.base, spec.window, j)?;
            // Protocol models differ only in the backend behind the
            // module; the direct static table is its own component.
            let backend: Option<Box<dyn dmi_core::DsmBackend>> = match &spec.model {
                MemModelKind::Wrapper(w) => Some(Box::new(WrapperBackend::new(*w))),
                MemModelKind::SimHeap(h) => Some(Box::new(SimHeapBackend::new(*h))),
                MemModelKind::StaticProtocol(s) => Some(Box::new(StaticTableBackend::new(*s))),
                MemModelKind::Static(_) => None,
            };
            let id = match (backend, &spec.model) {
                (Some(backend), _) => {
                    let mut module =
                        MemoryModule::new(format!("mem{j}"), clk, ports, spec.base, backend);
                    if let Some(hook) = &fault_hook {
                        module.set_fault_hook(hook.clone(), j);
                    }
                    sim.add_component(Box::new(module))
                }
                (None, MemModelKind::Static(s)) => sim.add_component(Box::new(
                    StaticTableMemory::new(format!("mem{j}"), clk, ports, spec.base, *s),
                )),
                (None, _) => unreachable!("every protocol model produced a backend"),
            };
            sim.subscribe(id, clk, Edge::Rising);
            mem_ids.push(id);
            mem_kinds.push(spec.model.name());
            mem_regions.push(spec.region(j));
            slave_ifs.push(SlaveIf {
                req: ports.req,
                we: ports.we,
                size: ports.size,
                addr: ports.addr,
                wdata: ports.wdata,
                master: ports.master,
                ack: ports.ack,
                rdata: ports.rdata,
            });
        }

        // Interconnect.
        let (bus_id, crossbar) = match interconnect {
            InterconnectKind::SharedBus(bus_cfg) => {
                let mut bus = SharedBus::new("bus", clk, master_ifs, slave_ifs, map, bus_cfg);
                if let Some(hook) = &fault_hook {
                    bus.set_fault_hook(hook.clone());
                }
                (sim.add_component(Box::new(bus)), false)
            }
            InterconnectKind::Crossbar(cfg) => {
                let mut xbar = Crossbar::with_config("xbar", clk, master_ifs, slave_ifs, map, cfg);
                if let Some(hook) = &fault_hook {
                    xbar.set_fault_hook(hook.clone());
                }
                (sim.add_component(Box::new(xbar)), true)
            }
        };
        sim.subscribe(bus_id, clk, Edge::Rising);

        // Completion monitor: every CPU `halted` and every master `done`.
        let mon = sim.add_component(Box::new(HaltMonitor::new(finish_wires.clone())));
        for w in finish_wires {
            sim.subscribe(mon, w, Edge::Rising);
        }

        Ok(McSystem::from_parts(
            sim,
            self.clock_period,
            cpu_ids,
            master_infos,
            mem_ids,
            mem_kinds,
            mem_regions,
            bus_id,
            crossbar,
            fault_hook,
            graph,
        ))
    }
}
