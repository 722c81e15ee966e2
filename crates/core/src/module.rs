//! The memory module: cycle-true bus slave fronting a memory backend.
//!
//! This is the wrapper's FSM (the cycle-true part of Figure 2): it speaks
//! the req/ack handshake with the interconnect, decodes the register block,
//! latches arguments, triggers the functional part on CMD writes and holds
//! off the acknowledge for the number of cycles the delay model dictates.
//! Incoming signals are evaluated cycle by cycle, exactly as the paper
//! describes.
//!
//! Every DATA-register access is one beat call into the backend
//! ([`DsmBackend::burst_read_beat`] / [`DsmBackend::burst_write_beat`]),
//! which serves it from the I/O array the burst command staged.

use std::any::Any;

use dmi_kernel::{Component, Ctx, Simulator, Wake, Wire};

use crate::backend::DsmBackend;
use crate::faults::{FaultHook, MemBeatFault, MemOpFault};
use crate::protocol::{regs, Opcode, Request, Status, NULL_VPTR};

/// The signal bundle of a bus slave.
///
/// `req`, `we`, `size`, `addr`, `wdata` and `master` are driven by the
/// interconnect; `ack` and `rdata` by the module.
#[derive(Debug, Clone, Copy)]
pub struct SlavePorts {
    /// Request strobe (1 bit, in).
    pub req: Wire,
    /// Write enable (1 bit, in).
    pub we: Wire,
    /// Transfer size (2 bits, in) — accepted but the register block is
    /// word-oriented; sub-word MMIO accesses behave as word accesses.
    pub size: Wire,
    /// Byte address (32 bits, in).
    pub addr: Wire,
    /// Write data (32 bits, in).
    pub wdata: Wire,
    /// Issuing master index (4 bits, in) — used by the reservation bits.
    pub master: Wire,
    /// Acknowledge (1 bit, out), asserted for one cycle on completion.
    pub ack: Wire,
    /// Read data (32 bits, out), valid in the ack cycle.
    pub rdata: Wire,
}

impl SlavePorts {
    /// Declares the eight signals under `prefix` (e.g. `"mem0.s"`).
    pub fn declare(sim: &mut Simulator, prefix: &str) -> Self {
        SlavePorts {
            req: sim.wire(format!("{prefix}.req"), 1),
            we: sim.wire(format!("{prefix}.we"), 1),
            size: sim.wire(format!("{prefix}.size"), 2),
            addr: sim.wire(format!("{prefix}.addr"), 32),
            wdata: sim.wire(format!("{prefix}.wdata"), 32),
            master: sim.wire(format!("{prefix}.master"), 4),
            ack: sim.wire(format!("{prefix}.ack"), 1),
            rdata: sim.wire(format!("{prefix}.rdata"), 32),
        }
    }
}

/// Handshake / occupancy statistics of one module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuleStats {
    /// Completed bus transactions.
    pub transactions: u64,
    /// Cycles spent executing (between accept and ack).
    pub busy_cycles: u64,
    /// Cycles spent idle with no request.
    pub idle_cycles: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FsmState {
    /// Waiting for a request.
    Idle,
    /// Executing; ack after the countdown.
    Exec { remaining: u64, data: u32 },
    /// Ack was asserted last cycle; wait for the master to drop req.
    AckWait,
}

/// Per-master register context.
///
/// The paper presents every operation as one transaction (opcode plus
/// operands); with a register-block MMIO realization, the argument
/// registers must be banked per master so that interleaved sequences from
/// different ISSs cannot corrupt each other — the banked context *is* the
/// per-port transaction state.
#[derive(Debug, Clone, Copy)]
struct MasterCtx {
    args: [u32; 3],
    status: Status,
    result: u32,
}

impl Default for MasterCtx {
    fn default() -> Self {
        MasterCtx {
            args: [0; 3],
            status: Status::Ok,
            result: 0,
        }
    }
}

/// A shared-memory module on the bus: FSM + exchangeable backend.
#[derive(Debug)]
pub struct MemoryModule {
    name: String,
    clk: Wire,
    ports: SlavePorts,
    base: u32,
    backend: Box<dyn DsmBackend>,
    ctxs: [MasterCtx; 16],
    state: FsmState,
    stats: ModuleStats,
    /// Shared fault controller and this module's plan ordinal, when the
    /// system wired fault injection. `None` (the default) is the
    /// bit-identical pre-fault path.
    fault: Option<(FaultHook, usize)>,
    /// Sticky per-master aborted-burst status: once an
    /// [`FaultKind::AbortBurst`](crate::faults::FaultKind) fires, every
    /// beat answers with this status until the master issues a fresh
    /// command. Only ever set through the fault hook.
    burst_dead: [Option<Status>; 16],
}

impl MemoryModule {
    /// Creates a module decoding its register block at `base`.
    pub fn new(
        name: impl Into<String>,
        clk: Wire,
        ports: SlavePorts,
        base: u32,
        backend: Box<dyn DsmBackend>,
    ) -> Self {
        MemoryModule {
            name: name.into(),
            clk,
            ports,
            base,
            backend,
            ctxs: [MasterCtx::default(); 16],
            state: FsmState::Idle,
            stats: ModuleStats::default(),
            fault: None,
            burst_dead: [None; 16],
        }
    }

    /// Installs a shared fault controller; `mem` is this module's
    /// ordinal in the fault plan's site addressing (builder registration
    /// order). Without a hook the module behaves bit-identically to the
    /// pre-fault implementation.
    pub fn set_fault_hook(&mut self, hook: FaultHook, mem: usize) {
        self.fault = Some((hook, mem));
    }

    /// The backend (for statistics extraction after a run).
    pub fn backend(&self) -> &dyn DsmBackend {
        self.backend.as_ref()
    }

    /// Handshake statistics.
    pub fn stats(&self) -> ModuleStats {
        self.stats
    }

    /// The STATUS register value as seen by `master`.
    pub fn status(&self, master: u8) -> Status {
        self.ctxs[master as usize & 0xF].status
    }

    /// Accepts the request currently on the ports. Returns the read data
    /// and the number of busy cycles before ack.
    fn accept(&mut self, ctx: &Ctx<'_>) -> (u32, u64) {
        let addr = ctx.read(self.ports.addr) as u32;
        let we = ctx.read_bit(self.ports.we);
        let wdata = ctx.read(self.ports.wdata) as u32;
        let master = (ctx.read(self.ports.master) as usize) & 0xF;
        // Register block aliases across the module's window.
        let offset = addr.wrapping_sub(self.base) % regs::BLOCK_SIZE;

        match (offset, we) {
            (regs::CMD, true) => match Opcode::from_u32(wdata) {
                Some(op) => {
                    // Any real command ends the master's burst: the
                    // backend aborts its unfinished one, and a
                    // fault-killed one is cleared here.
                    if !matches!(op, Opcode::Nop) {
                        self.burst_dead[master] = None;
                    }
                    let f = match &self.fault {
                        Some((hook, mem)) => hook.borrow_mut().mem_op(*mem, op, master as u8),
                        None => MemOpFault::default(),
                    };
                    if let Some(s) = f.force_status {
                        // The faulted command never reaches the backend.
                        self.ctxs[master].status = s;
                        self.ctxs[master].result = NULL_VPTR;
                        return (0, 0);
                    }
                    let mut mc = self.ctxs[master];
                    if f.flip_mask != 0 && op == Opcode::Write {
                        mc.args[1] ^= f.flip_mask;
                    }
                    let r = self.backend.execute(&Request {
                        op,
                        arg0: mc.args[0],
                        arg1: mc.args[1],
                        arg2: mc.args[2],
                        master: master as u8,
                    });
                    let mut result = r.result;
                    if f.flip_mask != 0 && op == Opcode::Read {
                        result ^= f.flip_mask;
                    }
                    self.ctxs[master].status = r.status;
                    self.ctxs[master].result = result;
                    (0, r.cycles)
                }
                None => {
                    self.ctxs[master].status = Status::BadOpcode;
                    (0, 0)
                }
            },
            (regs::ARG0, true) => {
                self.ctxs[master].args[0] = wdata;
                (0, 0)
            }
            (regs::ARG1, true) => {
                self.ctxs[master].args[1] = wdata;
                (0, 0)
            }
            (regs::ARG2, true) => {
                self.ctxs[master].args[2] = wdata;
                (0, 0)
            }
            (regs::DATA, true) => {
                let f = self.beat_fault(master, true);
                if let Some(s) = self.faulted_beat(master, &f) {
                    self.ctxs[master].status = s;
                    return (0, 0);
                }
                let b = self.backend.burst_write_beat(master as u8, wdata ^ f.flip_mask);
                self.ctxs[master].status = b.status;
                (0, b.cycles)
            }
            (regs::DATA, false) => {
                let f = self.beat_fault(master, false);
                if let Some(s) = self.faulted_beat(master, &f) {
                    self.ctxs[master].status = s;
                    return (0, 0);
                }
                let b = self.backend.burst_read_beat(master as u8);
                self.ctxs[master].status = b.status;
                (b.data ^ f.flip_mask, b.cycles)
            }
            (regs::STATUS, false) => (self.ctxs[master].status as u32, 0),
            (regs::RESULT, false) => (self.ctxs[master].result, 0),
            (regs::INFO, false) => (self.backend.free_bytes(), 0),
            // Writes to read-only registers are ignored; reads of
            // write-only registers return zero.
            _ => (0, 0),
        }
    }

    /// Consults the fault hook at a DATA-register beat; the default
    /// (no-fault) action when no hook is installed.
    fn beat_fault(&mut self, master: usize, writing: bool) -> MemBeatFault {
        match &self.fault {
            Some((hook, mem)) => hook.borrow_mut().mem_beat(*mem, master as u8, writing),
            None => MemBeatFault::default(),
        }
    }

    /// Applies the burst-killing part of a beat fault. Returns the
    /// status to answer with when the beat must not reach the backend —
    /// either this beat was faulted directly, or an earlier
    /// `AbortBurst` left the burst dead.
    fn faulted_beat(&mut self, master: usize, f: &MemBeatFault) -> Option<Status> {
        if f.abort {
            self.burst_dead[master] = Some(Status::OutOfBounds);
        }
        if let Some(dead) = self.burst_dead[master] {
            return Some(dead);
        }
        f.force_status
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, data: u32) {
        ctx.write_bit(self.ports.ack, true);
        ctx.write(self.ports.rdata, data as u64);
        self.state = FsmState::AckWait;
        self.stats.transactions += 1;
    }
}

impl Component for MemoryModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn wake(&mut self, ctx: &mut Ctx<'_>) {
        match ctx.cause() {
            Wake::Start => {
                ctx.write_bit(self.ports.ack, false);
                ctx.write(self.ports.rdata, 0);
            }
            Wake::Signal(_) if ctx.is_signal(self.clk) => match self.state {
                FsmState::Idle => {
                    if ctx.read_bit(self.ports.req) {
                        let (data, busy) = self.accept(ctx);
                        if busy == 0 {
                            self.finish(ctx, data);
                        } else {
                            self.state = FsmState::Exec {
                                remaining: busy,
                                data,
                            };
                        }
                    } else {
                        self.stats.idle_cycles += 1;
                    }
                }
                FsmState::Exec { remaining, data } => {
                    self.stats.busy_cycles += 1;
                    if remaining <= 1 {
                        self.finish(ctx, data);
                    } else {
                        self.state = FsmState::Exec {
                            remaining: remaining - 1,
                            data,
                        };
                    }
                }
                FsmState::AckWait => {
                    ctx.write_bit(self.ports.ack, false);
                    if !ctx.read_bit(self.ports.req) {
                        self.state = FsmState::Idle;
                    }
                }
            },
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn save_state(&self, w: &mut dmi_kernel::StateWriter) {
        for ctx in &self.ctxs {
            w.put_u32(ctx.args[0]);
            w.put_u32(ctx.args[1]);
            w.put_u32(ctx.args[2]);
            w.put_u32(ctx.status as u32);
            w.put_u32(ctx.result);
        }
        match self.state {
            FsmState::Idle => w.put_u8(0),
            FsmState::Exec { remaining, data } => {
                w.put_u8(1);
                w.put_u64(remaining);
                w.put_u32(data);
            }
            FsmState::AckWait => w.put_u8(2),
        }
        w.put_u64(self.stats.transactions);
        w.put_u64(self.stats.busy_cycles);
        w.put_u64(self.stats.idle_cycles);
        for dead in &self.burst_dead {
            match dead {
                Some(status) => {
                    w.put_bool(true);
                    w.put_u32(*status as u32);
                }
                None => w.put_bool(false),
            }
        }
        self.backend.save_state(w);
    }

    fn load_state(
        &mut self,
        r: &mut dmi_kernel::StateReader<'_>,
    ) -> Result<(), dmi_kernel::SnapshotError> {
        use dmi_kernel::SnapshotError;
        let bad_status = |raw: u32| SnapshotError::Corrupt {
            context: format!("memory module: invalid status code {raw}"),
        };
        for ctx in &mut self.ctxs {
            ctx.args[0] = r.get_u32("module ctx arg0")?;
            ctx.args[1] = r.get_u32("module ctx arg1")?;
            ctx.args[2] = r.get_u32("module ctx arg2")?;
            let raw = r.get_u32("module ctx status")?;
            ctx.status = Status::from_u32(raw).ok_or_else(|| bad_status(raw))?;
            ctx.result = r.get_u32("module ctx result")?;
        }
        self.state = match r.get_u8("module fsm")? {
            0 => FsmState::Idle,
            1 => FsmState::Exec {
                remaining: r.get_u64("module fsm remaining")?,
                data: r.get_u32("module fsm data")?,
            },
            2 => FsmState::AckWait,
            t => {
                return Err(SnapshotError::Corrupt {
                    context: format!("memory module: unknown fsm tag {t}"),
                })
            }
        };
        self.stats.transactions = r.get_u64("module stats.transactions")?;
        self.stats.busy_cycles = r.get_u64("module stats.busy_cycles")?;
        self.stats.idle_cycles = r.get_u64("module stats.idle_cycles")?;
        for dead in &mut self.burst_dead {
            *dead = if r.get_bool("module burst_dead flag")? {
                let raw = r.get_u32("module burst_dead status")?;
                Some(Status::from_u32(raw).ok_or_else(|| bad_status(raw))?)
            } else {
                None
            };
        }
        self.backend.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ElemType;
    use crate::wrapper::{WrapperBackend, WrapperConfig};
    use dmi_kernel::Edge;

    /// A scripted bus master used to test the slave handshake without the
    /// interconnect: performs a list of (addr, we, wdata) transactions.
    #[derive(Debug)]
    struct ScriptMaster {
        clk: Wire,
        ports: SlavePorts,
        script: Vec<(u32, bool, u32)>,
        results: Vec<u32>,
        latencies: Vec<u64>,
        issued_at: u64,
        cycle: u64,
        index: usize,
        busy: bool,
    }

    impl Component for ScriptMaster {
        fn name(&self) -> &str {
            "script_master"
        }
        fn wake(&mut self, ctx: &mut Ctx<'_>) {
            if !ctx.is_signal(self.clk) {
                return;
            }
            self.cycle += 1;
            if self.busy {
                if ctx.read_bit(self.ports.ack) {
                    self.results.push(ctx.read(self.ports.rdata) as u32);
                    self.latencies.push(self.cycle - self.issued_at);
                    ctx.write_bit(self.ports.req, false);
                    self.busy = false;
                    self.index += 1;
                    if self.index == self.script.len() {
                        ctx.stop("script done");
                    }
                }
                return;
            }
            if self.index < self.script.len() {
                let (addr, we, wdata) = self.script[self.index];
                ctx.write_bit(self.ports.req, true);
                ctx.write_bit(self.ports.we, we);
                ctx.write(self.ports.addr, addr as u64);
                ctx.write(self.ports.wdata, wdata as u64);
                ctx.write(self.ports.master, 0);
                self.issued_at = self.cycle;
                self.busy = true;
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    const BASE: u32 = 0x8000_0000;

    fn run_script(script: Vec<(u32, bool, u32)>) -> (Vec<u32>, Vec<u64>) {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", 2);
        let ports = SlavePorts::declare(&mut sim, "mem.s");
        let backend = Box::new(WrapperBackend::new(WrapperConfig {
            capacity: 4096,
            ..WrapperConfig::default()
        }));
        let module = MemoryModule::new("mem", clk, ports, BASE, backend);
        let mid = sim.add_component(Box::new(module));
        sim.subscribe(mid, clk, Edge::Rising);
        let n = script.len();
        let master = ScriptMaster {
            clk,
            ports,
            script,
            results: Vec::new(),
            latencies: Vec::new(),
            issued_at: 0,
            cycle: 0,
            index: 0,
            busy: false,
        };
        let sid = sim.add_component(Box::new(master));
        sim.subscribe(sid, clk, Edge::Rising);
        let summary = sim.run_until_stopped(1_000_000);
        assert!(
            summary.stop.is_some(),
            "script did not finish ({n} transactions)"
        );
        let m: &ScriptMaster = sim.component(sid).unwrap();
        (m.results.clone(), m.latencies.clone())
    }

    #[test]
    fn alloc_write_read_over_the_wire() {
        let (results, _lat) = run_script(vec![
            (BASE + regs::ARG0, true, 8),                     // dim = 8
            (BASE + regs::ARG1, true, ElemType::U32 as u32),  // type
            (BASE + regs::CMD, true, Opcode::Alloc as u32),   // alloc
            (BASE + regs::RESULT, false, 0),                  // -> vptr (0)
            (BASE + regs::ARG0, true, 0),                     // vptr
            (BASE + regs::ARG1, true, 0xCAFE),                // value
            (BASE + regs::ARG2, true, 2),                     // width: word
            (BASE + regs::CMD, true, Opcode::Write as u32),   // write
            (BASE + regs::CMD, true, Opcode::Read as u32),    // read
            (BASE + regs::RESULT, false, 0),                  // -> data
            (BASE + regs::STATUS, false, 0),                  // -> status
        ]);
        assert_eq!(results[3], 0, "first vptr is 0");
        assert_eq!(results[9], 0xCAFE);
        assert_eq!(results[10], Status::Ok as u32);
    }

    #[test]
    fn command_latency_exceeds_register_latency() {
        let (_, lat) = run_script(vec![
            (BASE + regs::ARG0, true, 256),
            (BASE + regs::ARG1, true, ElemType::U32 as u32),
            (BASE + regs::CMD, true, Opcode::Alloc as u32),
        ]);
        // ARG writes complete fast; the alloc CMD carries the delay model.
        assert!(
            lat[2] > lat[0],
            "alloc ({}) should be slower than arg write ({})",
            lat[2],
            lat[0]
        );
    }

    #[test]
    fn bad_opcode_sets_status() {
        let (results, _) = run_script(vec![
            (BASE + regs::CMD, true, 0xDEAD),
            (BASE + regs::STATUS, false, 0),
        ]);
        assert_eq!(results[1], Status::BadOpcode as u32);
    }

    #[test]
    fn info_register_reports_capacity() {
        let (results, _) = run_script(vec![(BASE + regs::INFO, false, 0)]);
        assert_eq!(results[0], 4096);
    }

    #[test]
    fn register_block_aliases_across_window() {
        // Accessing INFO via an aliased offset works.
        let (results, _) = run_script(vec![(
            BASE + regs::BLOCK_SIZE * 3 + regs::INFO,
            false,
            0,
        )]);
        assert_eq!(results[0], 4096);
    }
}
