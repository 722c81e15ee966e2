//! Static table memory: the traditional baseline.
//!
//! "Unless complex and slow dynamic memory models are added, static
//! memories implemented as tables are used" (paper, Section 2). This
//! component is that static table: a flat array serving every bus access
//! as a direct data read/write with a fixed latency. It supports no
//! allocation, no protocol and no reservations — which is precisely why
//! frameworks built on it cannot run dynamic-data applications, and what
//! the wrapper's overhead is measured against (experiment E2).

use std::any::Any;

use dmi_kernel::{Component, Ctx, Wake, Wire};

use crate::backend::{check_restored_burst, BeatResult, DsmBackend, MemStats};
use crate::module::{ModuleStats, SlavePorts};
use crate::protocol::{ElemType, Opcode, OpResult, Request, Status};
use crate::translator::{Endian, Translator};
use crate::wrapper::WIDTH_FROM_TABLE;

/// Configuration of a [`StaticTableMemory`].
#[derive(Debug, Clone, Copy)]
pub struct StaticMemConfig {
    /// Size of the table in bytes.
    pub capacity: u32,
    /// Fixed read latency in cycles.
    pub read_latency: u64,
    /// Fixed write latency in cycles.
    pub write_latency: u64,
}

impl Default for StaticMemConfig {
    fn default() -> Self {
        StaticMemConfig {
            capacity: 1 << 20,
            read_latency: 2,
            write_latency: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FsmState {
    Idle,
    Exec { remaining: u64, data: u32 },
    AckWait,
}

/// A flat, fixed-latency RAM on the bus.
#[derive(Debug)]
pub struct StaticTableMemory {
    name: String,
    clk: Wire,
    ports: SlavePorts,
    base: u32,
    bytes: Vec<u8>,
    config: StaticMemConfig,
    stats: ModuleStats,
    reads: u64,
    writes: u64,
    state: FsmState,
}

impl StaticTableMemory {
    /// Creates a static memory decoded at `base`.
    pub fn new(
        name: impl Into<String>,
        clk: Wire,
        ports: SlavePorts,
        base: u32,
        config: StaticMemConfig,
    ) -> Self {
        StaticTableMemory {
            name: name.into(),
            clk,
            ports,
            base,
            bytes: vec![0; config.capacity as usize],
            config,
            stats: ModuleStats::default(),
            reads: 0,
            writes: 0,
            state: FsmState::Idle,
        }
    }

    /// Handshake statistics.
    pub fn stats(&self) -> ModuleStats {
        self.stats
    }

    /// Data accesses served, as `(reads, writes)`.
    pub fn access_counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Direct view of the table (test verification).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    fn accept(&mut self, ctx: &Ctx<'_>) -> (u32, u64) {
        let addr = ctx.read(self.ports.addr) as u32;
        let we = ctx.read_bit(self.ports.we);
        let size = ctx.read(self.ports.size);
        let width = match size {
            0 => 1u32,
            1 => 2,
            _ => 4,
        };
        let offset = addr.wrapping_sub(self.base) as usize;
        // Out-of-range accesses read as zero and drop writes (a real SRAM
        // macro would wrap; zero-fill keeps bugs visible).
        if offset + width as usize > self.bytes.len() {
            return (0, self.config.read_latency);
        }
        if we {
            let wdata = ctx.read(self.ports.wdata) as u32;
            let le = wdata.to_le_bytes();
            self.bytes[offset..offset + width as usize].copy_from_slice(&le[..width as usize]);
            self.writes += 1;
            (0, self.config.write_latency)
        } else {
            let mut le = [0u8; 4];
            le[..width as usize].copy_from_slice(&self.bytes[offset..offset + width as usize]);
            self.reads += 1;
            (u32::from_le_bytes(le), self.config.read_latency)
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, data: u32) {
        ctx.write_bit(self.ports.ack, true);
        ctx.write(self.ports.rdata, data as u64);
        self.state = FsmState::AckWait;
        self.stats.transactions += 1;
    }
}

impl Component for StaticTableMemory {
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
        w.put_bytes(&self.bytes);
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
        w.put_u64(self.reads);
        w.put_u64(self.writes);
    }

    fn load_state(
        &mut self,
        r: &mut dmi_kernel::StateReader<'_>,
    ) -> Result<(), dmi_kernel::SnapshotError> {
        use dmi_kernel::SnapshotError;
        let bytes = r.get_bytes("static memory array")?;
        if bytes.len() != self.bytes.len() {
            return Err(SnapshotError::Mismatch {
                context: format!(
                    "static memory snapshot covers {} bytes, target has {}",
                    bytes.len(),
                    self.bytes.len()
                ),
            });
        }
        self.bytes.copy_from_slice(bytes);
        self.state = match r.get_u8("static memory fsm")? {
            0 => FsmState::Idle,
            1 => FsmState::Exec {
                remaining: r.get_u64("static memory fsm remaining")?,
                data: r.get_u32("static memory fsm data")?,
            },
            2 => FsmState::AckWait,
            t => {
                return Err(SnapshotError::Corrupt {
                    context: format!("static memory: unknown fsm tag {t}"),
                })
            }
        };
        self.stats.transactions = r.get_u64("static memory stats.transactions")?;
        self.stats.busy_cycles = r.get_u64("static memory stats.busy_cycles")?;
        self.stats.idle_cycles = r.get_u64("static memory stats.idle_cycles")?;
        self.reads = r.get_u64("static memory reads")?;
        self.writes = r.get_u64("static memory writes")?;
        Ok(())
    }
}

#[derive(Debug)]
struct StaticBurst {
    offset: u32,
    elem: ElemType,
    len: u32,
    done: u32,
    writing: bool,
    iobuf: Vec<u32>,
}

/// The static table as a protocol backend: a flat array behind the same
/// command register block as the dynamic models, so the traditional
/// baseline can sit behind [`crate::MemoryModule`] and be compared
/// handshake-for-handshake, burst beats included.
///
/// Allocation, free and reservations answer [`Status::Unsupported`] —
/// that *is* the baseline's limitation the paper starts from; data
/// accesses address the array directly by offset. Reads charge
/// `read_latency` and writes `write_latency` per element; burst data
/// beats stream the banked I/O array at one cycle per beat with the
/// element transfers charged at setup (reads) or commit (writes).
#[derive(Debug)]
pub struct StaticTableBackend {
    mem: Vec<u8>,
    config: StaticMemConfig,
    translator: Translator,
    burst: [Option<StaticBurst>; 16],
    stats: MemStats,
}

impl StaticTableBackend {
    /// Creates a zeroed table of `config.capacity` bytes.
    pub fn new(config: StaticMemConfig) -> Self {
        StaticTableBackend {
            mem: vec![0; config.capacity as usize],
            config,
            translator: Translator::new(Endian::Little),
            burst: Default::default(),
            stats: MemStats::default(),
        }
    }

    /// Observational word read at a byte offset into the table: no
    /// cycles charged, no counters moved. `None` out of bounds — the
    /// debug peek behind watchpoints on static-protocol memories, like
    /// `SimHeapBackend::peek_word` for the simheap arena.
    pub fn peek_word(&self, offset: u32) -> Option<u32> {
        let off = offset as usize;
        let bytes = self.mem.get(off..off.checked_add(4)?)?;
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }

    fn elem_from(&self, code: u32) -> Option<ElemType> {
        if code == WIDTH_FROM_TABLE {
            // No allocation metadata to consult; default to words.
            Some(ElemType::U32)
        } else {
            ElemType::from_u32(code)
        }
    }

    fn bounds(&self, offset: u32, bytes: u32) -> Result<(), Status> {
        if offset
            .checked_add(bytes)
            .is_none_or(|end| end > self.mem.len() as u32)
        {
            Err(Status::OutOfBounds)
        } else {
            Ok(())
        }
    }

    fn charge(&mut self, r: OpResult) -> OpResult {
        self.stats.busy_cycles += r.cycles;
        if !r.status.is_ok() {
            self.stats.errors += 1;
        }
        r
    }
}

impl DsmBackend for StaticTableBackend {
    fn kind(&self) -> &'static str {
        "static"
    }

    fn execute(&mut self, req: &Request) -> OpResult {
        if !matches!(req.op, Opcode::Nop) {
            self.burst[req.master as usize & 0xF] = None;
        }
        let rd_lat = self.config.read_latency;
        let wr_lat = self.config.write_latency;
        let result = match req.op {
            Opcode::Nop => OpResult::ok(0, 0),
            Opcode::Alloc | Opcode::Free | Opcode::Reserve | Opcode::Release => {
                OpResult::err(Status::Unsupported, rd_lat.max(1))
            }
            Opcode::Write => {
                let Some(elem) = self.elem_from(req.arg2) else {
                    return self.charge(OpResult::err(Status::BadArgs, wr_lat.max(1)));
                };
                if let Err(s) = self.bounds(req.arg0, elem.bytes()) {
                    return self.charge(OpResult::err(s, wr_lat.max(1)));
                }
                let t = self.translator;
                let ok = t.store(&mut self.mem, req.arg0, req.arg1, elem);
                debug_assert!(ok);
                self.stats.writes += 1;
                OpResult::ok(0, wr_lat)
            }
            Opcode::Read => {
                let Some(elem) = self.elem_from(req.arg2) else {
                    return self.charge(OpResult::err(Status::BadArgs, rd_lat.max(1)));
                };
                if let Err(s) = self.bounds(req.arg0, elem.bytes()) {
                    return self.charge(OpResult::err(s, rd_lat.max(1)));
                }
                let v = self
                    .translator
                    .load(&self.mem, req.arg0, elem)
                    .expect("bounds checked");
                self.stats.reads += 1;
                OpResult::ok(v, rd_lat)
            }
            Opcode::WriteBurst | Opcode::ReadBurst => {
                let writing = req.op == Opcode::WriteBurst;
                // Setup and argument errors charge the latency of the
                // direction being set up, mirroring the scalar ops.
                let lat = if writing { wr_lat } else { rd_lat };
                let Some(elem) = self.elem_from(req.arg1) else {
                    return self.charge(OpResult::err(Status::BadArgs, lat.max(1)));
                };
                let Some(total) = req.arg2.checked_mul(elem.bytes()).filter(|&b| b > 0) else {
                    return self.charge(OpResult::err(Status::BadArgs, lat.max(1)));
                };
                if let Err(s) = self.bounds(req.arg0, total) {
                    return self.charge(OpResult::err(s, lat.max(1)));
                }
                let mut iobuf = Vec::with_capacity(req.arg2 as usize);
                let mut cycles = lat.max(1);
                if !writing {
                    // Stage the whole block at setup: a static RAM burst
                    // read is `read_latency` per element up front.
                    let ok = self.translator.load_slice(
                        &self.mem,
                        req.arg0,
                        req.arg2,
                        elem,
                        &mut iobuf,
                    );
                    debug_assert!(ok, "bounds checked");
                    cycles += rd_lat * req.arg2 as u64;
                }
                self.burst[req.master as usize & 0xF] = Some(StaticBurst {
                    offset: req.arg0,
                    elem,
                    len: req.arg2,
                    done: 0,
                    writing,
                    iobuf,
                });
                OpResult::ok(0, cycles)
            }
            Opcode::Info => OpResult::ok(self.mem.len() as u32, rd_lat),
        };
        self.charge(result)
    }

    fn burst_write_beat(&mut self, master: u8, value: u32) -> BeatResult {
        let slot = master as usize & 0xF;
        let Some(burst) = self.burst[slot].as_mut() else {
            return BeatResult::err(Status::BadArgs, 1);
        };
        if !burst.writing {
            return BeatResult::err(Status::BadArgs, 1);
        }
        burst.iobuf.push(value);
        burst.done += 1;
        let mut cycles = 1;
        if burst.done == burst.len {
            let burst = self.burst[slot].take().expect("checked above");
            let t = self.translator;
            let ok = t.store_slice(&mut self.mem, burst.offset, &burst.iobuf, burst.elem);
            debug_assert!(ok, "bounds checked at setup");
            cycles += self.config.write_latency * burst.len as u64;
        }
        self.stats.burst_beats += 1;
        self.stats.busy_cycles += cycles;
        BeatResult::ok(0, cycles)
    }

    fn burst_read_beat(&mut self, master: u8) -> BeatResult {
        let slot = master as usize & 0xF;
        let Some(burst) = self.burst[slot].as_mut() else {
            return BeatResult::err(Status::BadArgs, 1);
        };
        if burst.writing || burst.done >= burst.len {
            return BeatResult::err(Status::BadArgs, 1);
        }
        let value = burst.iobuf[burst.done as usize];
        burst.done += 1;
        if burst.done == burst.len {
            self.burst[slot] = None;
        }
        self.stats.burst_beats += 1;
        self.stats.busy_cycles += 1;
        BeatResult::ok(value, 1)
    }

    fn free_bytes(&self) -> u32 {
        // No allocation concept: the whole table is always "available".
        self.mem.len() as u32
    }

    fn stats(&self) -> MemStats {
        self.stats
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn save_state(&self, w: &mut dmi_kernel::StateWriter) {
        w.put_bytes(&self.mem);
        for slot in 0..16 {
            match &self.burst[slot] {
                Some(b) => {
                    w.put_bool(true);
                    w.put_u32(b.offset);
                    w.put_u8(b.elem as u8);
                    w.put_u32(b.len);
                    w.put_u32(b.done);
                    w.put_bool(b.writing);
                    w.put_u64(b.iobuf.len() as u64);
                    for v in &b.iobuf {
                        w.put_u32(*v);
                    }
                }
                None => w.put_bool(false),
            }
        }
        crate::backend::write_mem_stats(w, &self.stats);
    }

    fn load_state(
        &mut self,
        r: &mut dmi_kernel::StateReader<'_>,
    ) -> Result<(), dmi_kernel::SnapshotError> {
        use dmi_kernel::SnapshotError;
        let mem = r.get_bytes("static backend array")?;
        if mem.len() != self.mem.len() {
            return Err(SnapshotError::Mismatch {
                context: format!(
                    "static backend snapshot covers {} bytes, target has {}",
                    mem.len(),
                    self.mem.len()
                ),
            });
        }
        self.mem.copy_from_slice(mem);
        for slot in 0..16 {
            self.burst[slot] = if r.get_bool("static burst flag")? {
                let offset = r.get_u32("static burst offset")?;
                let elem = ElemType::from_u32(r.get_u8("static burst elem")? as u32)
                    .ok_or_else(|| SnapshotError::Corrupt {
                        context: "static burst: invalid element type".to_string(),
                    })?;
                let len = r.get_u32("static burst len")?;
                let done = r.get_u32("static burst done")?;
                let writing = r.get_bool("static burst writing")?;
                let n = r.get_u64("static iobuf len")? as usize;
                let mut iobuf = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    iobuf.push(r.get_u32("static iobuf word")?);
                }
                check_restored_burst(offset, elem, len, done, writing, n, self.mem.len() as u32)?;
                Some(StaticBurst {
                    offset,
                    elem,
                    len,
                    done,
                    writing,
                    iobuf,
                })
            } else {
                None
            };
        }
        self.stats = crate::backend::read_mem_stats(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmi_kernel::{Edge, Simulator};

    /// Minimal scripted master mirroring the one in `module::tests`.
    #[derive(Debug)]
    struct Script {
        clk: Wire,
        ports: SlavePorts,
        ops: Vec<(u32, bool, u32, u64)>, // addr, we, wdata, size
        results: Vec<u32>,
        index: usize,
        busy: bool,
    }

    impl Component for Script {
        fn name(&self) -> &str {
            "script"
        }
        fn wake(&mut self, ctx: &mut Ctx<'_>) {
            if !ctx.is_signal(self.clk) {
                return;
            }
            if self.busy {
                if ctx.read_bit(self.ports.ack) {
                    self.results.push(ctx.read(self.ports.rdata) as u32);
                    ctx.write_bit(self.ports.req, false);
                    self.busy = false;
                    self.index += 1;
                    if self.index == self.ops.len() {
                        ctx.stop("done");
                    }
                }
                return;
            }
            if self.index < self.ops.len() {
                let (addr, we, wdata, size) = self.ops[self.index];
                ctx.write_bit(self.ports.req, true);
                ctx.write_bit(self.ports.we, we);
                ctx.write(self.ports.addr, addr as u64);
                ctx.write(self.ports.wdata, wdata as u64);
                ctx.write(self.ports.size, size);
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

    fn run(ops: Vec<(u32, bool, u32, u64)>) -> Vec<u32> {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", 2);
        let ports = SlavePorts::declare(&mut sim, "ram.s");
        let ram = StaticTableMemory::new(
            "ram",
            clk,
            ports,
            BASE,
            StaticMemConfig {
                capacity: 0x100,
                read_latency: 2,
                write_latency: 1,
            },
        );
        let rid = sim.add_component(Box::new(ram));
        sim.subscribe(rid, clk, Edge::Rising);
        let script = Script {
            clk,
            ports,
            ops,
            results: Vec::new(),
            index: 0,
            busy: false,
        };
        let sid = sim.add_component(Box::new(script));
        sim.subscribe(sid, clk, Edge::Rising);
        let summary = sim.run_until_stopped(100_000);
        assert!(summary.stop.is_some(), "script did not finish");
        sim.component::<Script>(sid).unwrap().results.clone()
    }

    #[test]
    fn word_write_read() {
        let r = run(vec![
            (BASE + 0x10, true, 0xDEAD_BEEF, 2),
            (BASE + 0x10, false, 0, 2),
        ]);
        assert_eq!(r[1], 0xDEAD_BEEF);
    }

    #[test]
    fn sub_word_accesses() {
        let r = run(vec![
            (BASE + 0x20, true, 0x1122_3344, 2),
            (BASE + 0x20, false, 0, 0),  // byte -> 0x44
            (BASE + 0x20, false, 0, 1),  // half -> 0x3344
            (BASE + 0x22, true, 0xAB, 0), // byte write
            (BASE + 0x20, false, 0, 2),
        ]);
        assert_eq!(r[1], 0x44);
        assert_eq!(r[2], 0x3344);
        assert_eq!(r[4], 0x11AB_3344);
    }

    #[test]
    fn out_of_range_reads_zero() {
        let r = run(vec![
            (BASE + 0x200, true, 7, 2),  // dropped
            (BASE + 0x200, false, 0, 2), // zero
        ]);
        assert_eq!(r[1], 0);
    }

    fn breq(op: Opcode, arg0: u32, arg1: u32, arg2: u32) -> Request {
        Request {
            op,
            arg0,
            arg1,
            arg2,
            master: 0,
        }
    }

    fn backend(cap: u32) -> StaticTableBackend {
        StaticTableBackend::new(StaticMemConfig {
            capacity: cap,
            read_latency: 2,
            write_latency: 1,
        })
    }

    #[test]
    fn backend_scalar_round_trip_and_unsupported_protocol() {
        let mut m = backend(256);
        assert_eq!(m.kind(), "static");
        assert_eq!(
            m.execute(&breq(Opcode::Alloc, 4, 2, 0)).status,
            Status::Unsupported
        );
        assert_eq!(
            m.execute(&breq(Opcode::Reserve, 0, 0, 0)).status,
            Status::Unsupported
        );
        assert!(m.execute(&breq(Opcode::Write, 0x10, 0xBEEF, 2)).status.is_ok());
        assert_eq!(m.execute(&breq(Opcode::Read, 0x10, 0, 2)).result, 0xBEEF);
        assert_eq!(
            m.execute(&breq(Opcode::Read, 0x100, 0, 2)).status,
            Status::OutOfBounds
        );
        assert_eq!(m.execute(&breq(Opcode::Info, 0, 0, 0)).result, 256);
        assert_eq!(m.free_bytes(), 256);
    }

    #[test]
    fn backend_bursts_round_trip_per_beat_and_block() {
        let mut m = backend(256);
        assert!(m.execute(&breq(Opcode::WriteBurst, 0x20, 2, 4)).status.is_ok());
        for i in 0..4u32 {
            assert!(m.burst_write_beat(0, 0x50 + i).status.is_ok());
        }
        assert!(m.execute(&breq(Opcode::ReadBurst, 0x20, 2, 4)).status.is_ok());
        for i in 0..4u32 {
            assert_eq!(m.burst_read_beat(0), BeatResult::ok(0x50 + i, 1));
        }
        assert_eq!(m.burst_read_beat(0), BeatResult::err(Status::BadArgs, 1));
        // A second block, written by beats and read back by scalar reads.
        assert!(m.execute(&breq(Opcode::WriteBurst, 0x40, 2, 3)).status.is_ok());
        for v in [9, 8, 7] {
            assert!(m.burst_write_beat(0, v).status.is_ok());
        }
        assert_eq!(m.execute(&breq(Opcode::Read, 0x44, 0, 2)).result, 8);
        assert_eq!(m.stats().burst_beats, 11, "the failed beat moves nothing");
    }

    #[test]
    fn backend_block_cycles_match_beats() {
        // A 9-beat block each way: one cycle per beat, the write commit
        // adding `write_latency` per element on the last beat, the read
        // charging `read_latency` per element at setup.
        let data: Vec<u32> = (0..9).map(|i| i * 3 + 1).collect();
        let len = data.len() as u32;
        let mut m = backend(256);
        assert_eq!(m.execute(&breq(Opcode::WriteBurst, 0, 2, len)).cycles, 1);
        let write: Vec<u64> = data.iter().map(|v| m.burst_write_beat(0, *v).cycles).collect();
        assert_eq!(write, [1, 1, 1, 1, 1, 1, 1, 1, 10]);
        assert_eq!(m.execute(&breq(Opcode::ReadBurst, 0, 2, len)).cycles, 20);
        for (i, expect) in data.iter().enumerate() {
            assert_eq!(m.burst_read_beat(0), BeatResult::ok(*expect, 1), "beat {i}");
        }
        let s = m.stats();
        assert_eq!((s.burst_beats, s.busy_cycles), (18, 1 + 18 + 20 + 9));
    }
}
