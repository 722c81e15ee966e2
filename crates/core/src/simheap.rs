//! The detailed in-simulation allocator: the baseline the paper replaces.
//!
//! Traditional frameworks that want dynamic data must model the allocator
//! *inside* the simulated memory: metadata lives in the memory array and
//! every probe of the free list costs simulated cycles **and** host work.
//! `SimHeapBackend` implements exactly that — a boundary-tag first-fit
//! allocator (K&R style, with footers for O(1) coalescing) whose every
//! word touch charges `word_latency` cycles. This is the "complex and slow
//! dynamic memory model" of the paper's Section 2, built so the claimed
//! speedup of the host-backed wrapper can be measured rather than assumed.
//!
//! ## Block layout
//!
//! ```text
//! [ header u32 ][ payload ... ][ footer u32 ]
//! header = footer = block_size_bytes | used_bit
//! block_size is a multiple of 8; minimum block is 16 bytes
//! ```
//!
//! Virtual pointers returned by ALLOC are byte offsets of the payload
//! inside the array, so pointer arithmetic works natively.

use crate::backend::{check_restored_burst, BeatResult, DsmBackend, MemStats};
use crate::protocol::{ElemType, Opcode, OpResult, Request, Status};
use crate::translator::{Endian, Translator};
use crate::wrapper::WIDTH_FROM_TABLE;

const MIN_BLOCK: u32 = 16;
const USED: u32 = 1;

#[derive(Debug)]
struct BurstState {
    offset: u32,
    elem: ElemType,
    len: u32,
    done: u32,
    writing: bool,
    iobuf: Vec<u32>,
}

/// Configuration of a [`SimHeapBackend`].
#[derive(Debug, Clone, Copy)]
pub struct SimHeapConfig {
    /// Size of the simulated memory array in bytes (multiple of 8, ≥ 16).
    pub capacity: u32,
    /// Simulated cycles charged per word touched inside the array.
    pub word_latency: u64,
    /// Simulated-architecture endianness.
    pub endian: Endian,
}

impl Default for SimHeapConfig {
    fn default() -> Self {
        SimHeapConfig {
            capacity: 1 << 20,
            word_latency: 2,
            endian: Endian::Little,
        }
    }
}

/// In-simulation boundary-tag allocator backend.
#[derive(Debug)]
pub struct SimHeapBackend {
    mem: Vec<u8>,
    word_latency: u64,
    translator: Translator,
    used_bytes: u32,
    /// Per-master I/O arrays (banked per port, like the wrapper's).
    burst: [Option<BurstState>; 16],
    stats: MemStats,
    /// Word accesses performed inside the simulated array (host work that
    /// the wrapper model avoids).
    pub word_touches: u64,
}

impl SimHeapBackend {
    /// Creates a heap covering `config.capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is smaller than one minimum block or not a
    /// multiple of 8.
    pub fn new(config: SimHeapConfig) -> Self {
        assert!(
            config.capacity >= MIN_BLOCK && config.capacity.is_multiple_of(8),
            "simheap capacity must be a multiple of 8 and at least {MIN_BLOCK}"
        );
        let mut heap = SimHeapBackend {
            mem: vec![0; config.capacity as usize],
            word_latency: config.word_latency,
            translator: Translator::new(config.endian),
            used_bytes: 0,
            burst: Default::default(),
            stats: MemStats::default(),
            word_touches: 0,
        };
        // One big free block.
        let cap = config.capacity;
        heap.put_word_silent(0, cap);
        heap.put_word_silent(cap - 4, cap);
        heap
    }

    #[inline]
    fn word(&mut self, offset: u32) -> u32 {
        self.word_touches += 1;
        let i = offset as usize;
        u32::from_le_bytes([
            self.mem[i],
            self.mem[i + 1],
            self.mem[i + 2],
            self.mem[i + 3],
        ])
    }

    #[inline]
    fn put_word(&mut self, offset: u32, value: u32) {
        self.word_touches += 1;
        self.put_word_silent(offset, value);
    }

    #[inline]
    fn put_word_silent(&mut self, offset: u32, value: u32) {
        let i = offset as usize;
        self.mem[i..i + 4].copy_from_slice(&value.to_le_bytes());
    }

    fn len(&self) -> u32 {
        self.mem.len() as u32
    }

    /// First-fit allocation walk. Returns (payload offset, cycles charged).
    fn heap_alloc(&mut self, nbytes: u32) -> (Option<u32>, u64) {
        let need = ((nbytes + 8 + 7) & !7).max(MIN_BLOCK);
        let mut cycles = 0u64;
        let mut h = 0u32;
        while h < self.len() {
            let hdr = self.word(h);
            cycles += self.word_latency;
            let size = hdr & !7;
            let used = hdr & USED != 0;
            debug_assert!(size >= MIN_BLOCK, "corrupt heap header at {h:#x}");
            if !used && size >= need {
                if size - need >= MIN_BLOCK {
                    // Split: used front part, free remainder.
                    self.put_word(h, need | USED);
                    self.put_word(h + need - 4, need | USED);
                    self.put_word(h + need, size - need);
                    self.put_word(h + size - 4, size - need);
                    cycles += 4 * self.word_latency;
                    self.used_bytes += need;
                } else {
                    self.put_word(h, size | USED);
                    self.put_word(h + size - 4, size | USED);
                    cycles += 2 * self.word_latency;
                    self.used_bytes += size;
                }
                return (Some(h + 4), cycles);
            }
            h += size;
        }
        (None, cycles)
    }

    /// Frees the block whose payload starts at `p`, coalescing neighbours.
    fn heap_free(&mut self, p: u32) -> (Status, u64) {
        if p < 4 || p >= self.len() {
            return (Status::BadPointer, self.word_latency);
        }
        let mut h = p - 4;
        let hdr = self.word(h);
        let mut cycles = self.word_latency;
        let mut size = hdr & !7;
        if hdr & USED == 0 || size < MIN_BLOCK || h + size > self.len() {
            return (Status::BadPointer, cycles);
        }
        self.used_bytes -= size;
        // Coalesce with the next block.
        let next = h + size;
        if next < self.len() {
            let nhdr = self.word(next);
            cycles += self.word_latency;
            if nhdr & USED == 0 {
                size += nhdr & !7;
            }
        }
        // Coalesce with the previous block via its footer.
        if h > 0 {
            let pfoot = self.word(h - 4);
            cycles += self.word_latency;
            if pfoot & USED == 0 {
                let psize = pfoot & !7;
                h -= psize;
                size += psize;
            }
        }
        self.put_word(h, size);
        self.put_word(h + size - 4, size);
        cycles += 2 * self.word_latency;
        (Status::Ok, cycles)
    }

    fn data_bounds(&self, vptr: u32, bytes: u32) -> Result<(), Status> {
        if vptr.checked_add(bytes).is_none_or(|end| end > self.len()) {
            Err(Status::OutOfBounds)
        } else {
            Ok(())
        }
    }

    fn elem_from(&self, code: u32) -> Option<ElemType> {
        if code == WIDTH_FROM_TABLE {
            // No per-allocation type metadata in this model; default word.
            Some(ElemType::U32)
        } else {
            ElemType::from_u32(code)
        }
    }

    fn charge(&mut self, r: OpResult) -> OpResult {
        self.stats.busy_cycles += r.cycles;
        if !r.status.is_ok() {
            self.stats.errors += 1;
        }
        r
    }

    /// Debug peek of one word of the simulated arena, by byte offset
    /// (the model's vptrs *are* arena offsets, so a vptr handed out by
    /// ALLOC reads back the live payload).
    ///
    /// Purely observational: no cycles are charged, no counters move, no
    /// burst state is touched — cheap enough for watchpoint polling
    /// (`StopCondition::watch_word` in `dmi-system` is built on it).
    /// Returns `None` when the word would escape the arena.
    pub fn peek_word(&self, offset: u32) -> Option<u32> {
        if offset.checked_add(4).is_none_or(|end| end > self.len()) {
            return None;
        }
        self.translator.load(&self.mem, offset, ElemType::U32)
    }
}

impl DsmBackend for SimHeapBackend {
    fn kind(&self) -> &'static str {
        "simheap"
    }

    fn execute(&mut self, req: &Request) -> OpResult {
        if !matches!(req.op, Opcode::Nop) {
            self.burst[req.master as usize & 0xF] = None;
        }
        let result = match req.op {
            Opcode::Nop => OpResult::ok(0, 0),
            Opcode::Alloc => {
                let Some(elem) = ElemType::from_u32(req.arg1) else {
                    return self.charge(OpResult::err(Status::BadArgs, self.word_latency));
                };
                let Some(bytes) = req.arg0.checked_mul(elem.bytes()).filter(|&b| b > 0) else {
                    return self.charge(OpResult::err(Status::BadArgs, self.word_latency));
                };
                let (place, cycles) = self.heap_alloc(bytes);
                match place {
                    Some(p) => {
                        self.stats.allocs += 1;
                        OpResult::ok(p, cycles)
                    }
                    None => {
                        self.stats.denials += 1;
                        OpResult::err(Status::OutOfMemory, cycles)
                    }
                }
            }
            Opcode::Free => {
                let (status, cycles) = self.heap_free(req.arg0);
                if status.is_ok() {
                    self.stats.frees += 1;
                    OpResult::ok(0, cycles)
                } else {
                    OpResult::err(status, cycles)
                }
            }
            Opcode::Write => {
                let Some(elem) = self.elem_from(req.arg2) else {
                    return self.charge(OpResult::err(Status::BadArgs, self.word_latency));
                };
                if let Err(s) = self.data_bounds(req.arg0, elem.bytes()) {
                    return self.charge(OpResult::err(s, self.word_latency));
                }
                let t = self.translator;
                let ok = t.store(&mut self.mem, req.arg0, req.arg1, elem);
                debug_assert!(ok);
                self.word_touches += 1;
                self.stats.writes += 1;
                OpResult::ok(0, self.word_latency)
            }
            Opcode::Read => {
                let Some(elem) = self.elem_from(req.arg2) else {
                    return self.charge(OpResult::err(Status::BadArgs, self.word_latency));
                };
                if let Err(s) = self.data_bounds(req.arg0, elem.bytes()) {
                    return self.charge(OpResult::err(s, self.word_latency));
                }
                let v = self.translator.load(&self.mem, req.arg0, elem).expect("bounds checked");
                self.word_touches += 1;
                self.stats.reads += 1;
                OpResult::ok(v, self.word_latency)
            }
            Opcode::WriteBurst | Opcode::ReadBurst => {
                let writing = req.op == Opcode::WriteBurst;
                let Some(elem) = self.elem_from(req.arg1) else {
                    return self.charge(OpResult::err(Status::BadArgs, self.word_latency));
                };
                let Some(total) = req.arg2.checked_mul(elem.bytes()).filter(|&b| b > 0) else {
                    return self.charge(OpResult::err(Status::BadArgs, self.word_latency));
                };
                if let Err(s) = self.data_bounds(req.arg0, total) {
                    return self.charge(OpResult::err(s, self.word_latency));
                }
                let mut iobuf = Vec::with_capacity(req.arg2 as usize);
                let mut cycles = self.word_latency;
                if !writing {
                    for i in 0..req.arg2 {
                        let v = self
                            .translator
                            .load(&self.mem, req.arg0 + i * elem.bytes(), elem)
                            .expect("bounds checked");
                        iobuf.push(v);
                        self.word_touches += 1;
                        cycles += self.word_latency;
                    }
                }
                self.burst[req.master as usize & 0xF] = Some(BurstState {
                    offset: req.arg0,
                    elem,
                    len: req.arg2,
                    done: 0,
                    writing,
                    iobuf,
                });
                OpResult::ok(0, cycles)
            }
            Opcode::Reserve | Opcode::Release => {
                OpResult::err(Status::Unsupported, self.word_latency)
            }
            Opcode::Info => {
                // A realistic INFO walks the free list, charging per block.
                let mut cycles = 0u64;
                let mut free = 0u32;
                let mut h = 0u32;
                while h < self.len() {
                    let hdr = self.word(h);
                    cycles += self.word_latency;
                    let size = hdr & !7;
                    if size < MIN_BLOCK {
                        break; // corrupt; stop the walk
                    }
                    if hdr & USED == 0 {
                        free += size;
                    }
                    h += size;
                }
                OpResult::ok(free, cycles)
            }
        };
        self.charge(result)
    }

    fn burst_write_beat(&mut self, master: u8, value: u32) -> BeatResult {
        let slot = master as usize & 0xF;
        let Some(burst) = self.burst[slot].as_mut() else {
            return BeatResult::err(Status::BadArgs, self.word_latency);
        };
        if !burst.writing {
            return BeatResult::err(Status::BadArgs, self.word_latency);
        }
        burst.iobuf.push(value);
        burst.done += 1;
        let mut cycles = 1;
        if burst.done == burst.len {
            let burst = self.burst[slot].take().expect("checked above");
            let t = self.translator;
            for (i, v) in burst.iobuf.iter().enumerate() {
                let ok = t.store(
                    &mut self.mem,
                    burst.offset + (i as u32) * burst.elem.bytes(),
                    *v,
                    burst.elem,
                );
                debug_assert!(ok);
                self.word_touches += 1;
                cycles += self.word_latency;
            }
        }
        self.stats.burst_beats += 1;
        self.stats.busy_cycles += cycles;
        BeatResult::ok(0, cycles)
    }

    fn burst_read_beat(&mut self, master: u8) -> BeatResult {
        let slot = master as usize & 0xF;
        let Some(burst) = self.burst[slot].as_mut() else {
            return BeatResult::err(Status::BadArgs, self.word_latency);
        };
        if burst.writing || burst.done >= burst.len {
            return BeatResult::err(Status::BadArgs, self.word_latency);
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
        self.len() - self.used_bytes
    }

    fn stats(&self) -> MemStats {
        self.stats
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn save_state(&self, w: &mut dmi_kernel::StateWriter) {
        // The whole simulated array: the allocator's block headers live
        // inside it, so the byte image *is* the allocation state.
        w.put_bytes(&self.mem);
        w.put_u32(self.used_bytes);
        w.put_u64(self.word_touches);
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
        let mem = r.get_bytes("simheap array")?;
        if mem.len() != self.mem.len() {
            return Err(SnapshotError::Mismatch {
                context: format!(
                    "simheap snapshot covers {} bytes, target has {}",
                    mem.len(),
                    self.mem.len()
                ),
            });
        }
        self.mem.copy_from_slice(mem);
        self.used_bytes = r.get_u32("simheap used_bytes")?;
        self.word_touches = r.get_u64("simheap word_touches")?;
        for slot in 0..16 {
            self.burst[slot] = if r.get_bool("simheap burst flag")? {
                let offset = r.get_u32("simheap burst offset")?;
                let elem = ElemType::from_u32(r.get_u8("simheap burst elem")? as u32)
                    .ok_or_else(|| SnapshotError::Corrupt {
                        context: "simheap burst: invalid element type".to_string(),
                    })?;
                let len = r.get_u32("simheap burst len")?;
                let done = r.get_u32("simheap burst done")?;
                let writing = r.get_bool("simheap burst writing")?;
                let n = r.get_u64("simheap iobuf len")? as usize;
                let mut iobuf = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    iobuf.push(r.get_u32("simheap iobuf word")?);
                }
                check_restored_burst(offset, elem, len, done, writing, n, self.len())?;
                Some(BurstState {
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

    fn req(op: Opcode, arg0: u32, arg1: u32, arg2: u32) -> Request {
        Request {
            op,
            arg0,
            arg1,
            arg2,
            master: 0,
        }
    }

    fn heap(cap: u32) -> SimHeapBackend {
        SimHeapBackend::new(SimHeapConfig {
            capacity: cap,
            word_latency: 2,
            endian: Endian::Little,
        })
    }

    #[test]
    fn alloc_free_reuse() {
        let mut h = heap(256);
        let a = h.execute(&req(Opcode::Alloc, 8, ElemType::U32 as u32, 0));
        assert!(a.status.is_ok());
        let p1 = a.result;
        let b = h.execute(&req(Opcode::Alloc, 8, ElemType::U32 as u32, 0));
        let p2 = b.result;
        assert_ne!(p1, p2);
        // Free then re-alloc reuses the space (first fit).
        let _ = h.execute(&req(Opcode::Free, p1, 0, 0));
        let c = h.execute(&req(Opcode::Alloc, 8, ElemType::U32 as u32, 0));
        assert_eq!(c.result, p1);
        assert_eq!(h.kind(), "simheap");
    }

    #[test]
    fn data_round_trip() {
        let mut h = heap(256);
        let p = h.execute(&req(Opcode::Alloc, 4, ElemType::U32 as u32, 0)).result;
        let _ = h.execute(&req(Opcode::Write, p + 4, 0xFEED_BEEF, 2));
        let r = h.execute(&req(Opcode::Read, p + 4, 0, 2));
        assert_eq!(r.result, 0xFEED_BEEF);
    }

    #[test]
    fn coalescing_recovers_full_block() {
        let mut h = heap(256);
        let p1 = h.execute(&req(Opcode::Alloc, 8, ElemType::U32 as u32, 0)).result;
        let p2 = h.execute(&req(Opcode::Alloc, 8, ElemType::U32 as u32, 0)).result;
        let p3 = h.execute(&req(Opcode::Alloc, 8, ElemType::U32 as u32, 0)).result;
        // Free in an order that exercises both next- and prev-coalescing.
        let _ = h.execute(&req(Opcode::Free, p1, 0, 0));
        let _ = h.execute(&req(Opcode::Free, p3, 0, 0));
        let _ = h.execute(&req(Opcode::Free, p2, 0, 0));
        // The whole arena is one free block again: a max alloc succeeds.
        let big = h.execute(&req(Opcode::Alloc, 256 - 8, ElemType::U8 as u32, 0));
        assert!(big.status.is_ok(), "status {:?}", big.status);
        assert_eq!(h.free_bytes(), 0);
    }

    #[test]
    fn denial_costs_a_full_walk() {
        let mut h = heap(1024);
        // Fill with small blocks.
        let mut ptrs = Vec::new();
        loop {
            let r = h.execute(&req(Opcode::Alloc, 8, ElemType::U32 as u32, 0));
            if !r.status.is_ok() {
                // Denial walked every block: expensive relative to the
                // early allocations.
                assert!(r.cycles > 2 * 10, "denial cycles = {}", r.cycles);
                break;
            }
            ptrs.push(r.result);
            assert!(ptrs.len() < 200, "allocation never failed");
        }
        assert_eq!(h.stats().denials, 1);
    }

    #[test]
    fn alloc_cost_grows_with_walk_length() {
        let mut h = heap(1 << 16);
        let first = h.execute(&req(Opcode::Alloc, 8, ElemType::U32 as u32, 0));
        let mut last = first;
        for _ in 0..100 {
            last = h.execute(&req(Opcode::Alloc, 8, ElemType::U32 as u32, 0));
        }
        assert!(
            last.cycles > first.cycles * 10,
            "first-fit walk should dominate: first {} vs later {}",
            first.cycles,
            last.cycles
        );
        assert!(h.word_touches > 100, "host work is real");
    }

    #[test]
    fn bad_frees_rejected() {
        let mut h = heap(256);
        let p = h.execute(&req(Opcode::Alloc, 8, ElemType::U32 as u32, 0)).result;
        assert_eq!(h.execute(&req(Opcode::Free, 0, 0, 0)).status, Status::BadPointer);
        assert_eq!(
            h.execute(&req(Opcode::Free, 10_000, 0, 0)).status,
            Status::BadPointer
        );
        assert!(h.execute(&req(Opcode::Free, p, 0, 0)).status.is_ok());
        // Double free: block is already marked free.
        assert_eq!(
            h.execute(&req(Opcode::Free, p, 0, 0)).status,
            Status::BadPointer
        );
    }

    #[test]
    fn reservation_unsupported() {
        let mut h = heap(256);
        assert_eq!(
            h.execute(&req(Opcode::Reserve, 0, 0, 0)).status,
            Status::Unsupported
        );
        assert_eq!(
            h.execute(&req(Opcode::Release, 0, 0, 0)).status,
            Status::Unsupported
        );
    }

    #[test]
    fn info_walks_and_reports() {
        let mut h = heap(512);
        let free0 = h.execute(&req(Opcode::Info, 0, 0, 0));
        assert_eq!(free0.result, 512);
        let _ = h.execute(&req(Opcode::Alloc, 16, ElemType::U32 as u32, 0));
        let free1 = h.execute(&req(Opcode::Info, 0, 0, 0));
        assert_eq!(free1.result, 512 - 72); // 64 payload + 8 tags
        assert!(free1.cycles >= free0.cycles, "walk grows with block count");
    }

    #[test]
    fn bursts_stream_through_iobuf() {
        let mut h = heap(512);
        let p = h.execute(&req(Opcode::Alloc, 8, ElemType::U32 as u32, 0)).result;
        let s = h.execute(&req(Opcode::WriteBurst, p, 2, 4));
        assert!(s.status.is_ok());
        for i in 0..4 {
            assert!(h.burst_write_beat(0, i * 11).status.is_ok());
        }
        let s = h.execute(&req(Opcode::ReadBurst, p, 2, 4));
        assert!(s.status.is_ok());
        for i in 0..4 {
            let b = h.burst_read_beat(0);
            assert_eq!(b.data, i * 11);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn bad_capacity_rejected() {
        heap(20);
    }

    #[test]
    fn peek_word_observes_without_charging() {
        let mut h = heap(256);
        let p = h.execute(&req(Opcode::Alloc, 4, ElemType::U32 as u32, 0)).result;
        let _ = h.execute(&req(Opcode::Write, p, 0x1234_5678, 2));
        let busy = h.stats().busy_cycles;
        let touches = h.word_touches;
        assert_eq!(h.peek_word(p), Some(0x1234_5678));
        assert_eq!(h.peek_word(253), None, "word straddles the arena end");
        assert_eq!(h.peek_word(4096), None, "outside the arena");
        assert_eq!(h.stats().busy_cycles, busy, "no cycles charged");
        assert_eq!(h.word_touches, touches, "no simulated word touches");
    }
}
