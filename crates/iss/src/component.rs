//! The ISS as a co-simulation component.
//!
//! `CpuComponent` wraps a [`CpuCore`] and advances it by one timing-model
//! cycle per rising clock edge. Instructions whose base cost is *k* cycles
//! occupy the CPU for *k* edges. External accesses drive the bus-master
//! handshake:
//!
//! ```text
//! edge n   : core stalls on external access -> req=1, addr/we/size/wdata driven
//! edge n+1…: bus arbitrates, slave executes (master holds req)
//! edge m   : master samples ack=1, captures rdata, drops req,
//!            and the stalled instruction completes in the same cycle
//! ```
//!
//! The slave-side mirror of this protocol lives in `dmi-interconnect`.

use std::any::Any;

use dmi_kernel::{Component, Ctx, Simulator, SnapshotError, StateReader, StateWriter, Wake, Wire};

use crate::bus::{ExtBus, ExtResult, ExtWidth};
use crate::cpu::{CpuCore, StepEvent};

/// The signal bundle of a bus master.
///
/// `req`, `we`, `size`, `addr` and `wdata` are outputs of the CPU; `ack`
/// and `rdata` are inputs driven by the interconnect.
#[derive(Debug, Clone, Copy)]
pub struct BusMasterPorts {
    /// Request strobe (1 bit, out). Held high until `ack` is observed.
    pub req: Wire,
    /// Write-enable (1 bit, out).
    pub we: Wire,
    /// Transfer size (2 bits, out): 0 byte, 1 half, 2 word.
    pub size: Wire,
    /// Byte address (32 bits, out).
    pub addr: Wire,
    /// Write data (32 bits, out).
    pub wdata: Wire,
    /// Acknowledge (1 bit, in): asserted for one cycle on completion.
    pub ack: Wire,
    /// Read data (32 bits, in): valid in the `ack` cycle.
    pub rdata: Wire,
}

impl BusMasterPorts {
    /// Declares the seven signals under `prefix` (e.g. `"cpu0.bus"`).
    pub fn declare(sim: &mut Simulator, prefix: &str) -> Self {
        BusMasterPorts {
            req: sim.wire(format!("{prefix}.req"), 1),
            we: sim.wire(format!("{prefix}.we"), 1),
            size: sim.wire(format!("{prefix}.size"), 2),
            addr: sim.wire(format!("{prefix}.addr"), 32),
            wdata: sim.wire(format!("{prefix}.wdata"), 32),
            ack: sim.wire(format!("{prefix}.ack"), 1),
            rdata: sim.wire(format!("{prefix}.rdata"), 32),
        }
    }
}

impl From<BusMasterPorts> for dmi_interconnect::MasterIf {
    /// The interconnect-side view of these ports: the same seven wires
    /// under the bus's field names (single source for the mapping, so
    /// adding a handshake signal cannot desynchronise wiring sites).
    fn from(p: BusMasterPorts) -> Self {
        dmi_interconnect::MasterIf {
            req: p.req,
            we: p.we,
            size: p.size,
            addr: p.addr,
            wdata: p.wdata,
            ack: p.ack,
            rdata: p.rdata,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingAccess {
    addr: u32,
    width: ExtWidth,
    we: bool,
    wdata: u32,
}

/// Adapter presenting the captured handshake state as an [`ExtBus`].
struct PortBus<'a> {
    pending: &'a mut Option<PendingAccess>,
    ready: &'a mut Option<(u32, u32)>,
}

impl ExtBus for PortBus<'_> {
    fn ext_read(&mut self, addr: u32, width: ExtWidth) -> ExtResult {
        if let Some((a, d)) = *self.ready {
            if a == addr {
                *self.ready = None;
                return ExtResult::Done(d);
            }
        }
        *self.pending = Some(PendingAccess {
            addr,
            width,
            we: false,
            wdata: 0,
        });
        ExtResult::Stall
    }

    fn ext_write(&mut self, addr: u32, value: u32, width: ExtWidth) -> ExtResult {
        if let Some((a, _)) = *self.ready {
            if a == addr {
                *self.ready = None;
                return ExtResult::Done(0);
            }
        }
        *self.pending = Some(PendingAccess {
            addr,
            width,
            we: true,
            wdata: value,
        });
        ExtResult::Stall
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Ready,
    WaitBus,
}

/// Co-simulation statistics of one CPU component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuComponentStats {
    /// Rising clock edges observed while not halted.
    pub active_cycles: u64,
    /// Edges spent waiting for the bus (stall cycles).
    pub bus_wait_cycles: u64,
    /// Bus transactions issued.
    pub transactions: u64,
}

/// Kernel component driving a [`CpuCore`] from a clock.
///
/// The component exposes a 1-bit `halted` output so a system monitor can
/// stop the simulation when every CPU has finished.
#[derive(Debug)]
pub struct CpuComponent {
    name: String,
    core: CpuCore,
    clk: Wire,
    ports: BusMasterPorts,
    halted_out: Wire,
    state: State,
    stall_budget: u64,
    pending: Option<PendingAccess>,
    ready: Option<(u32, u32)>,
    stats: CpuComponentStats,
    halted_driven: bool,
}

impl CpuComponent {
    /// Creates a component; subscribe it to `clk`'s rising edge.
    pub fn new(
        name: impl Into<String>,
        core: CpuCore,
        clk: Wire,
        ports: BusMasterPorts,
        halted_out: Wire,
    ) -> Self {
        CpuComponent {
            name: name.into(),
            core,
            clk,
            ports,
            halted_out,
            state: State::Ready,
            stall_budget: 0,
            pending: None,
            ready: None,
            stats: CpuComponentStats::default(),
            halted_driven: false,
        }
    }

    /// The wrapped core (registers, console, statistics).
    pub fn core(&self) -> &CpuCore {
        &self.core
    }

    /// Mutable access to the wrapped core (test setup between runs).
    pub fn core_mut(&mut self) -> &mut CpuCore {
        &mut self.core
    }

    /// Co-simulation statistics.
    pub fn stats(&self) -> CpuComponentStats {
        self.stats
    }

    fn step_core(&mut self, ctx: &mut Ctx<'_>) {
        let mut bus = PortBus {
            pending: &mut self.pending,
            ready: &mut self.ready,
        };
        match self.core.step(&mut bus) {
            StepEvent::Executed { cycles } => {
                self.stall_budget = cycles.saturating_sub(1);
                debug_assert!(self.ready.is_none(), "bus response not consumed");
            }
            StepEvent::Stalled => {
                let p = self.pending.take().expect("stall without pending access");
                ctx.write_bit(self.ports.req, true);
                ctx.write_bit(self.ports.we, p.we);
                ctx.write(self.ports.size, p.width.bits());
                ctx.write(self.ports.addr, p.addr as u64);
                ctx.write(self.ports.wdata, p.wdata as u64);
                self.pending = Some(p);
                self.state = State::WaitBus;
                self.stats.transactions += 1;
            }
            StepEvent::Halted => {
                if !self.halted_driven {
                    ctx.write_bit(self.halted_out, true);
                    self.halted_driven = true;
                }
            }
            StepEvent::Fault(f) => {
                ctx.stop_error(format!("{}: {}", self.name, f));
            }
        }
        // A halt executed this very step also needs the output driven.
        if self.core.is_halted() && !self.halted_driven {
            ctx.write_bit(self.halted_out, true);
            self.halted_driven = true;
        }
    }
}

impl Component for CpuComponent {
    fn name(&self) -> &str {
        &self.name
    }

    fn wake(&mut self, ctx: &mut Ctx<'_>) {
        match ctx.cause() {
            Wake::Start => {
                // Park all outputs at benign defaults.
                ctx.write_bit(self.ports.req, false);
                ctx.write_bit(self.ports.we, false);
                ctx.write(self.ports.size, 0);
                ctx.write(self.ports.addr, 0);
                ctx.write(self.ports.wdata, 0);
                ctx.write_bit(self.halted_out, false);
            }
            Wake::Signal(_) if ctx.is_signal(self.clk) => {
                if self.core.is_halted() {
                    return;
                }
                self.stats.active_cycles += 1;
                match self.state {
                    State::WaitBus => {
                        if ctx.read_bit(self.ports.ack) {
                            let p = self.pending.take().expect("ack without pending");
                            let data = ctx.read(self.ports.rdata) as u32;
                            self.ready = Some((p.addr, data));
                            ctx.write_bit(self.ports.req, false);
                            self.state = State::Ready;
                            // Complete the stalled instruction in this cycle.
                            self.step_core(ctx);
                        } else {
                            self.stats.bus_wait_cycles += 1;
                        }
                    }
                    State::Ready => {
                        if self.stall_budget > 0 {
                            self.stall_budget -= 1;
                        } else {
                            self.step_core(ctx);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.core.save_state(w);
        w.put_u8(match self.state {
            State::Ready => 0,
            State::WaitBus => 1,
        });
        w.put_u64(self.stall_budget);
        match &self.pending {
            None => w.put_bool(false),
            Some(p) => {
                w.put_bool(true);
                w.put_u32(p.addr);
                w.put_u8(match p.width {
                    ExtWidth::Byte => 0,
                    ExtWidth::Half => 1,
                    ExtWidth::Word => 2,
                });
                w.put_bool(p.we);
                w.put_u32(p.wdata);
            }
        }
        match self.ready {
            None => w.put_bool(false),
            Some((addr, data)) => {
                w.put_bool(true);
                w.put_u32(addr);
                w.put_u32(data);
            }
        }
        w.put_u64(self.stats.active_cycles);
        w.put_u64(self.stats.bus_wait_cycles);
        w.put_u64(self.stats.transactions);
        w.put_bool(self.halted_driven);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.core.load_state(r)?;
        self.state = match r.get_u8("cpu component state")? {
            0 => State::Ready,
            1 => State::WaitBus,
            t => {
                return Err(SnapshotError::Corrupt {
                    context: format!("unknown cpu component state tag {t}"),
                })
            }
        };
        self.stall_budget = r.get_u64("cpu stall_budget")?;
        self.pending = if r.get_bool("cpu pending flag")? {
            let addr = r.get_u32("pending addr")?;
            let width = match r.get_u8("pending width")? {
                0 => ExtWidth::Byte,
                1 => ExtWidth::Half,
                2 => ExtWidth::Word,
                t => {
                    return Err(SnapshotError::Corrupt {
                        context: format!("unknown ext width tag {t}"),
                    })
                }
            };
            let we = r.get_bool("pending we")?;
            let wdata = r.get_u32("pending wdata")?;
            Some(PendingAccess {
                addr,
                width,
                we,
                wdata,
            })
        } else {
            None
        };
        self.ready = if r.get_bool("cpu ready flag")? {
            Some((r.get_u32("ready addr")?, r.get_u32("ready data")?))
        } else {
            None
        };
        self.stats.active_cycles = r.get_u64("cpu stats.active_cycles")?;
        self.stats.bus_wait_cycles = r.get_u64("cpu stats.bus_wait_cycles")?;
        self.stats.transactions = r.get_u64("cpu stats.transactions")?;
        self.halted_driven = r.get_bool("cpu halted_driven")?;
        // Between wakes the handshake fields agree: a stall stores the
        // pending access as it enters `WaitBus`, the ack that buffers the
        // response also consumes it and the access, and the step that
        // halts the core drives `halted`. A capture that contradicts
        // itself would panic or hang on resume, so it is corrupt.
        let corrupt = |what: &str| SnapshotError::Corrupt {
            context: format!("{}: {what}", self.name),
        };
        if (self.state == State::WaitBus) != self.pending.is_some() {
            return Err(corrupt("the bus state disagrees with the pending access"));
        }
        if self.ready.is_some() {
            return Err(corrupt("a bus response is buffered between wakes"));
        }
        if self.halted_driven != self.core.is_halted() {
            return Err(corrupt("the halted output disagrees with the core"));
        }
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Stops the simulation once every watched `halted` wire is high.
///
/// Subscribe it to each CPU's halted output (rising edge).
#[derive(Debug)]
pub struct HaltMonitor {
    halted_wires: Vec<Wire>,
}

impl HaltMonitor {
    /// Creates a monitor over the given halted outputs.
    pub fn new(halted_wires: Vec<Wire>) -> Self {
        HaltMonitor { halted_wires }
    }
}

impl Component for HaltMonitor {
    fn name(&self) -> &str {
        "halt_monitor"
    }

    fn wake(&mut self, ctx: &mut Ctx<'_>) {
        if matches!(ctx.cause(), Wake::Signal(_))
            && self.halted_wires.iter().all(|&w| ctx.read_bit(w))
        {
            ctx.stop("all CPUs halted");
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
