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
use crate::protocol::{OpResult, Request, Status};

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

/// Outcome of a batched multi-beat transfer
/// ([`DsmBackend::burst_read_block`] / [`DsmBackend::burst_write_block`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockResult {
    /// [`Status::Ok`], or the error the first failing beat reported.
    pub status: Status,
    /// Beats actually transferred before completion or the error.
    pub beats: u32,
    /// Total simulated cycles the transferred beats occupy the module —
    /// identical to the sum the per-beat path would have charged.
    pub cycles: u64,
    /// Simulated cycles of each individual beat, so a caller draining a
    /// block buffer can keep charging cycle-true per-beat latencies.
    pub cycles_per_beat: u64,
}

impl BlockResult {
    /// A rejected block transfer: no beats moved, no cycles charged (the
    /// front-end re-issues a per-beat call to surface the error with its
    /// cycle cost). `cycles_per_beat` is advisory only when `beats == 0`.
    pub fn rejected(status: Status, cycles_per_beat: u64) -> Self {
        BlockResult {
            status,
            beats: 0,
            cycles: 0,
            cycles_per_beat,
        }
    }
}

/// Snapshot of a master's active burst, for callers that want to batch
/// ([`DsmBackend::burst_info`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstInfo {
    /// Direction: write (`true`) or read (`false`).
    pub writing: bool,
    /// Beats not yet transferred.
    pub remaining: u32,
}

/// A shared-memory model: functional semantics plus timing.
///
/// Implementations in this crate: [`WrapperBackend`] (the paper's
/// host-backed dynamic memory), [`SimHeapBackend`] (a detailed in-simulation
/// allocator — the "complex and slow" baseline the paper argues against).
///
/// [`WrapperBackend`]: crate::WrapperBackend
/// [`SimHeapBackend`]: crate::SimHeapBackend
pub trait DsmBackend: std::fmt::Debug {
    /// Short model name for reports ("wrapper", "simheap", …).
    fn kind(&self) -> &'static str;

    /// Executes a command (everything except burst data beats).
    fn execute(&mut self, req: &Request) -> OpResult;

    /// Accepts one beat of `master`'s active burst write. The final beat
    /// commits the I/O array to storage. I/O arrays are banked per master
    /// (per-port hardware buffers), so concurrent masters do not corrupt
    /// each other's bursts.
    fn burst_write_beat(&mut self, master: u8, value: u32) -> BeatResult;

    /// Produces one beat of `master`'s active burst read.
    fn burst_read_beat(&mut self, master: u8) -> BeatResult;

    /// Describes `master`'s active burst, if the model supports batching.
    ///
    /// Returning `None` (the default) tells callers to use the per-beat
    /// interface; models that implement the block transfers below should
    /// return the live state so front-ends (the memory module FSM) can
    /// stream a whole burst in one backend call.
    ///
    /// **Contract for implementors:** by returning `Some`, a backend
    /// opts into block streaming and promises that (a) its successful
    /// *read* beats all charge the same cycle cost (the front-end
    /// replays `BlockResult::cycles_per_beat` for every streamed beat),
    /// and (b) a failing `burst_read_beat` is idempotent — it charges no
    /// cycles and mutates no state, so the front-end may re-issue it to
    /// surface the error. Backends with non-uniform read beats must keep
    /// the default `None` and stay on the per-beat path.
    fn burst_info(&self, master: u8) -> Option<BurstInfo> {
        let _ = master;
        None
    }

    /// Batched form of [`burst_read_beat`](Self::burst_read_beat): fills
    /// `out` with up to `out.len()` beats in one call.
    ///
    /// Functionally and in charged cycles this must be *bit-identical* to
    /// calling `burst_read_beat` `out.len()` times — batching is a host-side
    /// fast path, never a timing-model change. The default implementation
    /// is exactly that loop.
    fn burst_read_block(&mut self, master: u8, out: &mut [u32]) -> BlockResult {
        let mut cycles = 0;
        let mut per_beat = 0;
        for (i, slot) in out.iter_mut().enumerate() {
            let beat = self.burst_read_beat(master);
            if !beat.status.is_ok() {
                return BlockResult {
                    status: beat.status,
                    beats: i as u32,
                    cycles,
                    cycles_per_beat: per_beat,
                };
            }
            *slot = beat.data;
            cycles += beat.cycles;
            // The first beat is the representative per-beat cost (a final
            // beat may carry extra completion work).
            if i == 0 {
                per_beat = beat.cycles;
            }
        }
        BlockResult {
            status: Status::Ok,
            beats: out.len() as u32,
            cycles,
            cycles_per_beat: per_beat,
        }
    }

    /// Batched form of [`burst_write_beat`](Self::burst_write_beat): feeds
    /// all of `values` in one call. Same bit-identical contract (and
    /// default implementation) as [`burst_read_block`](Self::burst_read_block).
    fn burst_write_block(&mut self, master: u8, values: &[u32]) -> BlockResult {
        let mut cycles = 0;
        let mut per_beat = 0;
        for (i, v) in values.iter().enumerate() {
            let beat = self.burst_write_beat(master, *v);
            if !beat.status.is_ok() {
                return BlockResult {
                    status: beat.status,
                    beats: i as u32,
                    cycles,
                    cycles_per_beat: per_beat,
                };
            }
            cycles += beat.cycles;
            // First beat as the representative cost: the final beat of a
            // write burst additionally carries the commit step, which must
            // not inflate per-beat charging.
            if i == 0 {
                per_beat = beat.cycles;
            }
        }
        BlockResult {
            status: Status::Ok,
            beats: values.len() as u32,
            cycles,
            cycles_per_beat: per_beat,
        }
    }

    /// Remaining capacity in bytes (INFO register).
    fn free_bytes(&self) -> u32;

    /// Activity counters.
    fn stats(&self) -> MemStats;

    /// Upcast for concrete-model inspection after a run.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Serializes the backend's mutable state (storage contents,
    /// allocation tables, in-flight bursts, counters) for a snapshot.
    /// Mirrors [`Component::save_state`]; configuration is not
    /// serialized. The default writes nothing.
    ///
    /// [`Component::save_state`]: dmi_kernel::Component::save_state
    fn save_state(&self, w: &mut StateWriter) {
        let _ = w;
    }

    /// Restores state written by [`DsmBackend::save_state`]. Must return
    /// a typed error (never panic) on corrupt input.
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let _ = r;
        Ok(())
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
