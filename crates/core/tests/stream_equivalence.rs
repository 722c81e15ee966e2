//! Burst data at the bus: every DATA beat goes through the backend's
//! per-beat calls, which serve it from the I/O array the burst command
//! staged. Each script pins what the bus master and the backend observed
//! (read data and statuses, per-transaction latencies, transaction count
//! and `MemStats::burst_beats`) as one CRC-32, so a change to burst
//! timing, data or accounting shows on every backend.

use std::any::Any;

use dmi_core::{
    regs, DsmBackend, ElemType, MemoryModule, Opcode, SimHeapBackend, SimHeapConfig, SlavePorts,
    StaticMemConfig, StaticTableBackend, Status, WrapperBackend, WrapperConfig, WIDTH_FROM_TABLE,
};
use dmi_kernel::{
    crc32, Component, Ctx, Edge, Simulator, SnapshotError, StateReader, StateWriter, Wire,
};

/// A scripted bus master driving the slave handshake directly.
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

/// Backend under test, constructed fresh per run.
type BackendFactory = fn() -> Box<dyn DsmBackend>;

fn wrapper_backend() -> Box<dyn DsmBackend> {
    Box::new(WrapperBackend::new(WrapperConfig {
        capacity: 65536,
        ..WrapperConfig::default()
    }))
}

fn simheap_backend() -> Box<dyn DsmBackend> {
    Box::new(SimHeapBackend::new(SimHeapConfig {
        capacity: 65536,
        ..SimHeapConfig::default()
    }))
}

fn static_backend() -> Box<dyn DsmBackend> {
    Box::new(StaticTableBackend::new(StaticMemConfig {
        capacity: 65536,
        ..StaticMemConfig::default()
    }))
}

/// What the bus master and the backend observed over one script.
struct Run {
    results: Vec<u32>,
    latencies: Vec<u64>,
    transactions: u64,
    burst_beats: u64,
}

impl Run {
    /// CRC-32 over every observable, in order: results, latencies, the
    /// module's transaction count and the backend's burst beats.
    fn fingerprint(&self) -> u32 {
        let mut bytes = Vec::new();
        for r in &self.results {
            bytes.extend_from_slice(&r.to_le_bytes());
        }
        for l in &self.latencies {
            bytes.extend_from_slice(&l.to_le_bytes());
        }
        bytes.extend_from_slice(&self.transactions.to_le_bytes());
        bytes.extend_from_slice(&self.burst_beats.to_le_bytes());
        crc32(&bytes)
    }
}

/// Runs `script` against a module over the given backend.
fn run_script_on(mk: BackendFactory, script: Vec<(u32, bool, u32)>) -> Run {
    let mut sim = Simulator::new();
    let clk = sim.add_clock("clk", 2);
    let ports = SlavePorts::declare(&mut sim, "mem.s");
    let module = MemoryModule::new("mem", clk, ports, BASE, mk());
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
    let summary = sim.run_until_stopped(10_000_000);
    assert!(summary.stop.is_some(), "script did not finish ({n} ops)");
    let m: &ScriptMaster = sim.component(sid).unwrap();
    let module: &MemoryModule = sim.component(mid).unwrap();
    Run {
        results: m.results.clone(),
        latencies: m.latencies.clone(),
        transactions: module.stats().transactions,
        burst_beats: module.backend().stats().burst_beats,
    }
}

/// Asserts `script` on the backend reproduces the pinned fingerprint and
/// counts exactly `burst_beats` beats, the ones the master transferred.
fn assert_pinned(
    mk: BackendFactory,
    script: Vec<(u32, bool, u32)>,
    fingerprint: u32,
    burst_beats: u64,
) {
    let run = run_script_on(mk, script);
    assert_eq!(run.burst_beats, burst_beats, "burst beats");
    assert_eq!(
        run.fingerprint(),
        fingerprint,
        "results {:x?}, latencies {:?}, {} transactions",
        run.results,
        run.latencies,
        run.transactions
    );
}

fn burst_write_read_script(len: u32) -> Vec<(u32, bool, u32)> {
    let mut s = vec![
        (BASE + regs::ARG0, true, len),
        (BASE + regs::ARG1, true, ElemType::U32 as u32),
        (BASE + regs::CMD, true, Opcode::Alloc as u32),
        (BASE + regs::RESULT, false, 0),
        // Write burst of `len` beats at vptr 0.
        (BASE + regs::ARG0, true, 0),
        (BASE + regs::ARG1, true, WIDTH_FROM_TABLE),
        (BASE + regs::ARG2, true, len),
        (BASE + regs::CMD, true, Opcode::WriteBurst as u32),
    ];
    for i in 0..len {
        s.push((BASE + regs::DATA, true, 0x1000 + i));
    }
    // Read it back as a burst.
    s.push((BASE + regs::CMD, true, Opcode::ReadBurst as u32));
    for _ in 0..len {
        s.push((BASE + regs::DATA, false, 0));
    }
    s.push((BASE + regs::STATUS, false, 0));
    s
}

#[test]
fn burst_round_trip_is_equivalent() {
    for (len, fingerprint, beats) in [
        (1u32, 0x7f73_2697, 2),
        (2, 0x5dd6_6a19, 4),
        (7, 0x0511_4ee3, 14),
        (64, 0xb6f1_cc46, 128),
    ] {
        assert_pinned(wrapper_backend, burst_write_read_script(len), fingerprint, beats);
    }
}

#[test]
fn burst_round_trip_returns_written_data() {
    let results = run_script_on(wrapper_backend, burst_write_read_script(8)).results;
    // The last 9 results are the 8 read beats plus STATUS.
    let beats = &results[results.len() - 9..results.len() - 1];
    let expect: Vec<u32> = (0..8).map(|i| 0x1000 + i).collect();
    assert_eq!(beats, expect.as_slice());
    assert_eq!(results[results.len() - 1], Status::Ok as u32);
}

#[test]
fn aborted_burst_is_equivalent() {
    // Setup a read burst, consume two beats, then abort with a scalar read
    // command and keep using the module: the backend drops its I/O array
    // and counts only the 2 + 4 beats the master read.
    let mut s = vec![
        (BASE + regs::ARG0, true, 8),
        (BASE + regs::ARG1, true, ElemType::U32 as u32),
        (BASE + regs::CMD, true, Opcode::Alloc as u32),
        (BASE + regs::ARG0, true, 0),
        (BASE + regs::ARG1, true, 0xAB),
        (BASE + regs::ARG2, true, 2),
        (BASE + regs::CMD, true, Opcode::Write as u32),
        // Burst read, 2 of 8 beats consumed.
        (BASE + regs::ARG1, true, WIDTH_FROM_TABLE),
        (BASE + regs::ARG2, true, 8),
        (BASE + regs::CMD, true, Opcode::ReadBurst as u32),
        (BASE + regs::DATA, false, 0),
        (BASE + regs::DATA, false, 0),
        // Abort with a scalar read; then DATA reads must error identically.
        (BASE + regs::ARG2, true, 2),
        (BASE + regs::CMD, true, Opcode::Read as u32),
        (BASE + regs::RESULT, false, 0),
        (BASE + regs::DATA, false, 0),
        (BASE + regs::STATUS, false, 0),
    ];
    // A fresh burst afterwards still works.
    s.extend([
        (BASE + regs::ARG1, true, WIDTH_FROM_TABLE),
        (BASE + regs::ARG2, true, 4),
        (BASE + regs::CMD, true, Opcode::ReadBurst as u32),
        (BASE + regs::DATA, false, 0),
        (BASE + regs::DATA, false, 0),
        (BASE + regs::DATA, false, 0),
        (BASE + regs::DATA, false, 0),
        (BASE + regs::STATUS, false, 0),
    ]);
    assert_pinned(wrapper_backend, s, 0x45ab_5e52, 6);
}

#[test]
fn overrun_burst_is_equivalent() {
    // Reading one beat more than the burst length errors the same way.
    let mut s = burst_write_read_script(3);
    s.push((BASE + regs::DATA, false, 0));
    s.push((BASE + regs::STATUS, false, 0));
    assert_pinned(wrapper_backend, s, 0xb627_9c5f, 6);
}

#[test]
fn wrong_direction_data_access_is_equivalent() {
    // DATA write during a read burst errors without killing the burst.
    let s = vec![
        (BASE + regs::ARG0, true, 4),
        (BASE + regs::ARG1, true, ElemType::U32 as u32),
        (BASE + regs::CMD, true, Opcode::Alloc as u32),
        (BASE + regs::ARG0, true, 0),
        (BASE + regs::ARG1, true, WIDTH_FROM_TABLE),
        (BASE + regs::ARG2, true, 4),
        (BASE + regs::CMD, true, Opcode::ReadBurst as u32),
        (BASE + regs::DATA, false, 0),
        (BASE + regs::DATA, true, 0xBAD), // wrong direction
        (BASE + regs::STATUS, false, 0),
        (BASE + regs::DATA, false, 0), // burst continues
        (BASE + regs::DATA, false, 0),
        (BASE + regs::DATA, false, 0),
        (BASE + regs::STATUS, false, 0),
    ];
    assert_pinned(wrapper_backend, s, 0x507b_4c7b, 4);
}

/// Burst write + read back addressed by raw offset (no allocation): the
/// script the in-simulation heap and the static table share, since the
/// latter supports no ALLOC.
fn raw_burst_script(offset: u32, len: u32) -> Vec<(u32, bool, u32)> {
    let mut s = vec![
        (BASE + regs::ARG0, true, offset),
        (BASE + regs::ARG1, true, ElemType::U32 as u32),
        (BASE + regs::ARG2, true, len),
        (BASE + regs::CMD, true, Opcode::WriteBurst as u32),
    ];
    for i in 0..len {
        s.push((BASE + regs::DATA, true, 0x9000 + i * 5));
    }
    s.push((BASE + regs::CMD, true, Opcode::ReadBurst as u32));
    for _ in 0..len {
        s.push((BASE + regs::DATA, false, 0));
    }
    s.push((BASE + regs::STATUS, false, 0));
    s
}

/// Read burst set up, partially consumed, aborted by a scalar command,
/// then re-issued — all by raw offset.
fn raw_aborted_script(offset: u32) -> Vec<(u32, bool, u32)> {
    vec![
        (BASE + regs::ARG0, true, offset),
        (BASE + regs::ARG1, true, 0xAB),
        (BASE + regs::ARG2, true, 2),
        (BASE + regs::CMD, true, Opcode::Write as u32),
        (BASE + regs::ARG1, true, ElemType::U32 as u32),
        (BASE + regs::ARG2, true, 8),
        (BASE + regs::CMD, true, Opcode::ReadBurst as u32),
        (BASE + regs::DATA, false, 0),
        (BASE + regs::DATA, false, 0),
        // Abort with a scalar read; DATA then errors identically.
        (BASE + regs::ARG2, true, 2),
        (BASE + regs::CMD, true, Opcode::Read as u32),
        (BASE + regs::RESULT, false, 0),
        (BASE + regs::DATA, false, 0),
        (BASE + regs::STATUS, false, 0),
        // A fresh burst afterwards still works.
        (BASE + regs::ARG1, true, ElemType::U32 as u32),
        (BASE + regs::ARG2, true, 4),
        (BASE + regs::CMD, true, Opcode::ReadBurst as u32),
        (BASE + regs::DATA, false, 0),
        (BASE + regs::DATA, false, 0),
        (BASE + regs::DATA, false, 0),
        (BASE + regs::DATA, false, 0),
        (BASE + regs::STATUS, false, 0),
    ]
}

/// Fingerprints and beat counts of `raw_burst_script(0x40, len)`: the
/// in-simulation heap and the static table charge the same cycles per
/// beat and observe the same bus traffic on it.
const RAW_ROUND_TRIPS: [(u32, u32, u64); 4] = [
    (1, 0x3ae3_b50c, 2),
    (2, 0x5c0e_1a02, 4),
    (7, 0xaa89_544c, 14),
    (64, 0x7845_1a75, 128),
];

/// A raw burst of three beats read one beat past its end.
fn raw_overrun_script() -> Vec<(u32, bool, u32)> {
    let mut s = raw_burst_script(0x40, 3);
    s.push((BASE + regs::DATA, false, 0));
    s.push((BASE + regs::STATUS, false, 0));
    s
}

#[test]
fn simheap_bursts_are_equivalent() {
    for (len, fingerprint, beats) in RAW_ROUND_TRIPS {
        assert_pinned(simheap_backend, raw_burst_script(0x40, len), fingerprint, beats);
    }
    assert_pinned(simheap_backend, raw_aborted_script(0x40), 0xdb26_8326, 6);
    assert_pinned(simheap_backend, raw_overrun_script(), 0x1b71_092a, 6);
}

#[test]
fn simheap_burst_data_round_trips_when_streamed() {
    let results = run_script_on(simheap_backend, raw_burst_script(0x40, 8)).results;
    let beats = &results[results.len() - 9..results.len() - 1];
    let expect: Vec<u32> = (0..8).map(|i| 0x9000 + i * 5).collect();
    assert_eq!(beats, expect.as_slice());
    assert_eq!(results[results.len() - 1], Status::Ok as u32);
}

#[test]
fn static_table_bursts_are_equivalent() {
    for (len, fingerprint, beats) in RAW_ROUND_TRIPS {
        assert_pinned(static_backend, raw_burst_script(0x40, len), fingerprint, beats);
    }
    assert_pinned(static_backend, raw_aborted_script(0x40), 0xaba4_28ab, 6);
    assert_pinned(static_backend, raw_overrun_script(), 0xa3e4_1bbf, 6);
}

#[test]
fn static_table_burst_data_round_trips_when_streamed() {
    let results = run_script_on(static_backend, raw_burst_script(0x80, 8)).results;
    let beats = &results[results.len() - 9..results.len() - 1];
    let expect: Vec<u32> = (0..8).map(|i| 0x9000 + i * 5).collect();
    assert_eq!(beats, expect.as_slice());
    assert_eq!(results[results.len() - 1], Status::Ok as u32);
}

/// Bytes of the region a restored burst addresses: the wrapper's one
/// table entry, or the whole array of the simulated heap and static table.
const REGION: u32 = 64;

/// Master 0's in-flight burst as a backend snapshot records it, with
/// `staged` words in its I/O array.
#[derive(Debug, Clone, Copy)]
struct SavedBurst {
    offset: u32,
    len: u32,
    done: u32,
    writing: bool,
    staged: u32,
}

/// Word `i` of a saved burst's I/O array.
fn staged_word(i: u32) -> u32 {
    0x100 + i
}

fn put_cursor(w: &mut StateWriter, b: SavedBurst) {
    w.put_u32(b.offset);
    w.put_u8(ElemType::U32 as u8);
    w.put_u32(b.len);
    w.put_u32(b.done);
    w.put_bool(b.writing);
}

fn put_iobuf(w: &mut StateWriter, words: u32) {
    w.put_u64(words as u64);
    for i in 0..words {
        w.put_u32(staged_word(i));
    }
}

/// The backend's `MemStats`, all zero.
fn put_mem_stats(w: &mut StateWriter) {
    for _ in 0..11 {
        w.put_u64(0);
    }
}

/// A wrapper payload: one word entry of `REGION` bytes at vptr 0, and
/// `b` on master 0.
fn wrapper_payload(b: SavedBurst) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_u32(1); // entries
    w.put_u32(0); // vptr
    w.put_u32(REGION / 4); // dim
    w.put_u8(ElemType::U32 as u8);
    w.put_u32(REGION); // size
    w.put_bool(false); // not reserved
    w.put_bytes(&[0; REGION as usize]);
    w.put_u32(REGION); // used
    // Table counters (7) and host-allocation counters (3).
    for _ in 0..10 {
        w.put_u64(0);
    }
    w.put_bool(true);
    w.put_u64(0); // entry index
    put_cursor(&mut w, b);
    put_iobuf(&mut w, b.staged);
    for _ in 1..16 {
        w.put_bool(false);
        put_iobuf(&mut w, 0);
    }
    put_mem_stats(&mut w);
    w.into_bytes()
}

/// The burst slots shared by the simulated heap's and the static table's
/// payloads: `b` on master 0, no burst on the others.
fn put_array_bursts(w: &mut StateWriter, b: SavedBurst) {
    w.put_bool(true);
    put_cursor(w, b);
    put_iobuf(w, b.staged);
    for _ in 1..16 {
        w.put_bool(false);
    }
    put_mem_stats(w);
}

fn simheap_payload(b: SavedBurst) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_bytes(&[0; REGION as usize]);
    w.put_u32(0); // used bytes
    w.put_u64(0); // word touches
    put_array_bursts(&mut w, b);
    w.into_bytes()
}

fn static_payload(b: SavedBurst) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_bytes(&[0; REGION as usize]);
    put_array_bursts(&mut w, b);
    w.into_bytes()
}

fn load(m: &mut dyn DsmBackend, payload: &[u8]) -> Result<(), SnapshotError> {
    m.load_state(&mut StateReader::new(payload))
}

#[test]
fn restored_burst_state_is_validated() {
    type Payload = fn(SavedBurst) -> Vec<u8>;
    let backends: [(&str, BackendFactory, Payload); 3] = [
        ("wrapper", wrapper_backend, wrapper_payload),
        (
            "simheap",
            || {
                Box::new(SimHeapBackend::new(SimHeapConfig {
                    capacity: REGION,
                    ..SimHeapConfig::default()
                }))
            },
            simheap_payload,
        ),
        (
            "static",
            || {
                Box::new(StaticTableBackend::new(StaticMemConfig {
                    capacity: REGION,
                    ..StaticMemConfig::default()
                }))
            },
            static_payload,
        ),
    ];
    let read = SavedBurst {
        offset: 8,
        len: 4,
        done: 1,
        writing: false,
        staged: 4,
    };
    let write = SavedBurst {
        writing: true,
        staged: 1,
        ..read
    };
    for (name, mk, payload) in backends {
        // Consistent bursts load, and their next beat is served.
        let mut m = mk();
        load(m.as_mut(), &payload(read)).expect("consistent read burst");
        let beat = m.burst_read_beat(0);
        assert_eq!((beat.status, beat.data), (Status::Ok, staged_word(1)), "{name}");
        let mut m = mk();
        load(m.as_mut(), &payload(write)).expect("consistent write burst");
        assert!(m.burst_write_beat(0, 7).status.is_ok(), "{name}");

        for bad in [
            // The staged read is shorter than the burst.
            SavedBurst { staged: 2, ..read },
            // The I/O array does not hold the write beats taken.
            SavedBurst { staged: 2, ..write },
            // The range leaves the entry or the array.
            SavedBurst {
                offset: REGION - 8,
                ..read
            },
            SavedBurst {
                offset: REGION - 8,
                ..write
            },
            // Burst setup refuses an empty burst.
            SavedBurst {
                len: 0,
                done: 0,
                staged: 0,
                ..read
            },
        ] {
            let r = load(mk().as_mut(), &payload(bad));
            assert!(
                matches!(r, Err(SnapshotError::Corrupt { .. })),
                "{name}: {bad:?} gave {r:?}"
            );
        }
    }
}
