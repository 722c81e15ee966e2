//! The backend interface shared by all shared-memory models.
//!
//! A backend implements the *functional* semantics and the *timing cost* of
//! each protocol operation; the bus-facing FSM ([`crate::MemoryModule`])
//! is common to all models. This separation mirrors Figure 2 of the paper —
//! a cycle-true part in front of an exchangeable functional part — and is
//! what makes model comparisons (wrapper vs. simulated heap vs. static
//! tables) apples-to-apples: same protocol, same handshake, different
//! internals.

use dmi_kernel::{SnapshotError, StateReader, StateWriter};

use crate::host::HostStats;
use crate::protocol::{ElemType, OpResult, Request, Status};

/// Functional + timing counters of one memory module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Scalar reads served.
    pub reads: u64,
    /// Scalar writes served.
    pub writes: u64,
    /// Burst beats transferred (both directions).
    pub burst_beats: u64,
    /// Operations that completed with an error status.
    pub errors: u64,
    /// Allocation denials due to the finite-size limit.
    pub denials: u64,
    /// Total simulated busy cycles charged by the backend.
    pub busy_cycles: u64,
    /// Translations served by the wrapper's TLB (zero for other models).
    pub tlb_hits: u64,
    /// Translations that fell through to the pointer-table search.
    pub tlb_misses: u64,
    /// Host-side allocation activity (non-zero only for the wrapper).
    pub host: HostStats,
}

impl MemStats {
    /// TLB hit rate over all translations (0.0 when none were served).
    pub fn tlb_hit_rate(&self) -> f64 {
        let total = self.tlb_hits + self.tlb_misses;
        if total == 0 {
            0.0
        } else {
            self.tlb_hits as f64 / total as f64
        }
    }
}

/// One beat of an active burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeatResult {
    /// Status of the beat ([`Status::Ok`] or the error that aborted the
    /// burst).
    pub status: Status,
    /// Data (reads only; zero for writes).
    pub data: u32,
    /// Simulated cycles this beat occupies the module.
    pub cycles: u64,
}

impl BeatResult {
    /// A successful beat.
    pub fn ok(data: u32, cycles: u64) -> Self {
        BeatResult {
            status: Status::Ok,
            data,
            cycles,
        }
    }

    /// A failed beat.
    pub fn err(status: Status, cycles: u64) -> Self {
        BeatResult {
            status,
            data: 0,
            cycles,
        }
    }
}

/// A shared-memory model: functional semantics plus timing.
///
/// Implementations in this crate: [`WrapperBackend`] (the paper's
/// host-backed dynamic memory), [`SimHeapBackend`] (a detailed in-simulation
/// allocator — the "complex and slow" baseline the paper argues against)
/// and [`StaticTableBackend`] (the static-table baseline behind the same
/// register block).
///
/// Bursts follow the paper's I/O-array scheme. The burst command
/// ([`Opcode::ReadBurst`] / [`Opcode::WriteBurst`]) sets up a per-master
/// I/O array: a read stages every element there up front, a write
/// collects its beats there and commits them to storage on the last one.
/// The memory module turns each DATA-register access into one
/// [`burst_read_beat`](Self::burst_read_beat) or
/// [`burst_write_beat`](Self::burst_write_beat) call (unless a fault plan
/// kills the beat), which indexes that array and reports the beat's own
/// cycle cost.
///
/// [`WrapperBackend`]: crate::WrapperBackend
/// [`SimHeapBackend`]: crate::SimHeapBackend
/// [`StaticTableBackend`]: crate::StaticTableBackend
/// [`Opcode::ReadBurst`]: crate::Opcode::ReadBurst
/// [`Opcode::WriteBurst`]: crate::Opcode::WriteBurst
pub trait DsmBackend: std::fmt::Debug {
    /// Short model name for reports ("wrapper", "simheap", …).
    fn kind(&self) -> &'static str;

    /// Executes a command (everything except burst data beats). Any
    /// command other than NOP aborts the issuing master's unfinished
    /// burst.
    fn execute(&mut self, req: &Request) -> OpResult;

    /// Accepts one beat of `master`'s active burst write. The final beat
    /// commits the I/O array to storage. I/O arrays are banked per master
    /// (per-port hardware buffers), so concurrent masters do not corrupt
    /// each other's bursts.
    fn burst_write_beat(&mut self, master: u8, value: u32) -> BeatResult;

    /// Produces the next staged element of `master`'s active burst read.
    fn burst_read_beat(&mut self, master: u8) -> BeatResult;

    /// Remaining capacity in bytes (INFO register).
    fn free_bytes(&self) -> u32;

    /// Activity counters.
    fn stats(&self) -> MemStats;

    /// Upcast for concrete-model inspection after a run.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Serializes the backend's mutable state (storage contents,
    /// allocation tables, in-flight bursts, counters) for a snapshot.
    /// Mirrors [`Component::save_state`]; configuration is not
    /// serialized.
    ///
    /// [`Component::save_state`]: dmi_kernel::Component::save_state
    fn save_state(&self, w: &mut StateWriter);

    /// Restores state written by [`DsmBackend::save_state`]. Must return
    /// a typed error (never panic) on corrupt input, and must reject an
    /// in-flight burst that the next beat could not serve: a read burst
    /// whose staged array is not `len` elements long, a write burst whose
    /// array does not hold the beats already taken, or a range that burst
    /// setup would have refused.
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError>;
}

/// Checks an in-flight burst read back from a snapshot against what burst
/// setup and the beats taken so far guarantee, so that the next beat can
/// neither index past the I/O array nor commit outside the checked range:
/// `len` elements of `elem` from `offset` end within `limit` bytes, at
/// most `len` beats are done, and the array holds `staged` words, which
/// must be the whole read (`len`) or the write beats taken (`done`).
pub(crate) fn check_restored_burst(
    offset: u32,
    elem: ElemType,
    len: u32,
    done: u32,
    writing: bool,
    staged: usize,
    limit: u32,
) -> Result<(), SnapshotError> {
    let in_range = len
        .checked_mul(elem.bytes())
        .filter(|&bytes| bytes > 0)
        .and_then(|bytes| offset.checked_add(bytes))
        .is_some_and(|end| end <= limit);
    let expected = if writing { done } else { len };
    if in_range && done <= len && staged == expected as usize {
        Ok(())
    } else {
        Err(SnapshotError::Corrupt {
            context: format!(
                "restored burst: {done} of {len} beats of {} bytes at offset {offset} \
                 in {limit} bytes, {staged} words staged",
                elem.bytes()
            ),
        })
    }
}

/// Serializes a [`MemStats`] for a backend's snapshot payload. The TLB
/// counters describe a host-side cache, not the simulation, and are left
/// out.
pub(crate) fn write_mem_stats(w: &mut StateWriter, s: &MemStats) {
    w.put_u64(s.allocs);
    w.put_u64(s.frees);
    w.put_u64(s.reads);
    w.put_u64(s.writes);
    w.put_u64(s.burst_beats);
    w.put_u64(s.errors);
    w.put_u64(s.denials);
    w.put_u64(s.busy_cycles);
    w.put_u64(s.host.allocs);
    w.put_u64(s.host.frees);
    w.put_u64(s.host.bytes_allocated);
}

/// Reads back a [`MemStats`] written by [`write_mem_stats`], with the TLB
/// counters at zero.
pub(crate) fn read_mem_stats(r: &mut StateReader<'_>) -> Result<MemStats, SnapshotError> {
    Ok(MemStats {
        allocs: r.get_u64("mem stats.allocs")?,
        frees: r.get_u64("mem stats.frees")?,
        reads: r.get_u64("mem stats.reads")?,
        writes: r.get_u64("mem stats.writes")?,
        burst_beats: r.get_u64("mem stats.burst_beats")?,
        errors: r.get_u64("mem stats.errors")?,
        denials: r.get_u64("mem stats.denials")?,
        busy_cycles: r.get_u64("mem stats.busy_cycles")?,
        tlb_hits: 0,
        tlb_misses: 0,
        host: HostStats {
            allocs: r.get_u64("mem stats.host.allocs")?,
            frees: r.get_u64("mem stats.host.frees")?,
            bytes_allocated: r.get_u64("mem stats.host.bytes_allocated")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beat_result_constructors() {
        let b = BeatResult::ok(7, 2);
        assert_eq!(b.status, Status::Ok);
        assert_eq!(b.data, 7);
        let e = BeatResult::err(Status::BadArgs, 1);
        assert_eq!(e.status, Status::BadArgs);
        assert_eq!(e.data, 0);
        assert_eq!(e.cycles, 1);
    }
}
