//! The pointer table: the functional heart of the dynamic memory wrapper.
//!
//! Each live allocation is one entry mapping a *virtual pointer* (the
//! address the simulated architecture sees) to a *host pointer* (the host
//! allocation that actually stores the data), together with its dimension,
//! element type and a reservation bit (Figure 2 of the paper).
//!
//! Virtual pointers follow the paper's generation rule: each new Vptr is
//! the previous entry's Vptr plus its size; the first Vptr is zero. The
//! table also supports the pointer-arithmetic lookup the paper describes —
//! an incoming Vptr that is not a table key is resolved by finding the
//! entry whose `[vptr, vptr + size)` range contains it.
//!
//! ## Vptr allocation policies
//!
//! The monotonic rule never reuses virtual addresses, so long-running
//! workloads with allocation churn eventually exhaust the 32-bit virtual
//! space — a limitation inherent in the published design. The table
//! therefore supports two policies, compared in the ablation experiments:
//!
//! * [`VptrPolicy::PaperMonotonic`] — the rule as published;
//! * [`VptrPolicy::FirstFitReuse`] — first-fit reuse of virtual-address
//!   gaps left by frees.
//!
//! ## Translation lookaside cache
//!
//! Every simulated memory access funnels through [`PointerTable::resolve`],
//! so its cost bounds the whole co-simulation's speed (the paper's
//! simulated cycles per host second, `RunReport::cycles_per_sec`). The
//! table therefore fronts the binary search
//! with a small TLB: a *last-hit slot* (covers repeated access to the same
//! allocation, e.g. burst beats and loop bodies) plus a *direct-mapped
//! cache* keyed by vptr page ([`TLB_PAGE_BITS`]-sized pages) that turns
//! repeat lookups anywhere in the working set into O(1) probes.
//!
//! **Determinism / correctness invariant:** a TLB line is only a *hint*.
//! Every hit is validated against the live entry (`Entry::contains`), and
//! because live ranges are disjoint, a validated hit is always the unique
//! correct translation — a stale line can produce a miss, never a wrong
//! answer. Lines are additionally invalidated wholesale on free (the
//! "table re-compacted" step shifts entry indices) via a generation
//! counter, so the cache state never outlives the entry layout it
//! describes. The TLB has no off switch: [`PointerTable::peek`] runs the
//! same binary search without it, and `tests/table_props.rs` checks every
//! cached resolution against `peek` on the same table.

use crate::gaps::GapIndex;
use crate::host::{HostAlloc, HostStats};
use crate::protocol::ElemType;

/// Log2 of the TLB page size in bytes (16-byte pages: fine enough that
/// small allocations get their own line, coarse enough to cover a burst).
pub const TLB_PAGE_BITS: u32 = 4;

/// Lines allocated for a fresh table (grown adaptively, power of two).
const TLB_MIN_LINES: usize = 64;

/// Upper bound on TLB lines (65536 lines = 12-byte lines, ~768 KiB host
/// memory when fully grown; only reached by tables with >16k live entries).
const TLB_MAX_LINES: usize = 1 << 16;

/// Sentinel: no page can hash to this tag (vptr >> 4 is at most 2^28 - 1).
const TLB_EMPTY: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct TlbLine {
    /// Page tag (`vptr >> TLB_PAGE_BITS`); [`TLB_EMPTY`] when unused.
    page: u32,
    /// Entry index the page translated to when the line was filled.
    idx: u32,
    /// Generation the line was filled in; stale generations are misses.
    gen: u32,
}

const EMPTY_LINE: TlbLine = TlbLine {
    page: TLB_EMPTY,
    idx: u32::MAX,
    gen: 0,
};

/// The translation lookaside cache fronting the pointer table's binary
/// search. See the module docs for the validation invariant.
#[derive(Debug)]
struct Tlb {
    lines: Box<[TlbLine]>,
    /// Index of the entry that served the last hit ([`u32::MAX`] = none).
    last: u32,
    /// Current generation; bumped on free to invalidate all lines at once.
    gen: u32,
}

impl Tlb {
    fn new() -> Self {
        Tlb {
            lines: vec![EMPTY_LINE; TLB_MIN_LINES].into_boxed_slice(),
            last: u32::MAX,
            gen: 0,
        }
    }

    #[inline]
    fn slot(&self, page: u32) -> usize {
        (page as usize) & (self.lines.len() - 1)
    }

    /// O(1) wholesale invalidation: bump the generation. The rare wrap
    /// falls back to clearing the lines so an ancient generation can never
    /// false-hit.
    fn invalidate(&mut self) {
        self.last = u32::MAX;
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.lines.fill(EMPTY_LINE);
        }
    }

    /// Grows the cache so `entries` live allocations keep conflict misses
    /// rare under a sweep of the whole table.
    fn grow_for(&mut self, entries: usize) {
        if entries * 2 <= self.lines.len() || self.lines.len() >= TLB_MAX_LINES {
            return;
        }
        let target = (entries * 4)
            .next_power_of_two()
            .clamp(TLB_MIN_LINES, TLB_MAX_LINES);
        self.lines = vec![EMPTY_LINE; target].into_boxed_slice();
    }
}

/// How virtual pointers for new allocations are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VptrPolicy {
    /// The paper's rule: `vptr(new) = vptr(last) + size(last)`, starting at
    /// zero. Never reuses addresses; may exhaust the virtual space.
    #[default]
    PaperMonotonic,
    /// First-fit into gaps left by frees; falls back to the end of the
    /// highest allocation. Never exhausts space while capacity remains.
    FirstFitReuse,
}

/// One live allocation (a row of Figure 2's pointer table).
#[derive(Debug)]
pub struct Entry {
    /// Virtual pointer: base address in the simulated virtual space.
    pub vptr: u32,
    /// Number of elements.
    pub dim: u32,
    /// Element type.
    pub elem: ElemType,
    /// Total size in bytes (`dim * elem.bytes()`).
    pub size: u32,
    /// Which master holds the reservation bit, if any.
    pub reserved_by: Option<u8>,
    /// The host allocation backing the data.
    pub host: HostAlloc,
}

impl Entry {
    /// Whether `vptr` falls inside this allocation.
    #[inline]
    pub fn contains(&self, vptr: u32) -> bool {
        vptr >= self.vptr && (vptr - self.vptr) < self.size
    }

    /// Whether `master` may access this entry under the reservation rules.
    #[inline]
    pub fn accessible_by(&self, master: u8) -> bool {
        match self.reserved_by {
            None => true,
            Some(owner) => owner == master,
        }
    }
}

/// Errors from allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Zero elements requested.
    ZeroSize,
    /// The configured capacity would be exceeded.
    OutOfMemory,
    /// The monotonic vptr rule ran out of 32-bit virtual space.
    VirtualExhausted,
}

/// Errors from operations on existing pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtrError {
    /// No live allocation matches / contains the pointer.
    BadPointer,
    /// The allocation is reserved by another master.
    Locked,
    /// The access escapes the allocation bounds.
    OutOfBounds,
}

/// Counters describing table activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Denied allocations (capacity).
    pub denials: u64,
    /// Exact-key lookups served.
    pub lookups: u64,
    /// Pointer-arithmetic (containment) resolutions served.
    pub arith_resolutions: u64,
    /// Resolutions served by the TLB (last-hit slot or direct-mapped line).
    pub tlb_hits: u64,
    /// Resolutions that fell through to the binary search.
    pub tlb_misses: u64,
    /// Wholesale TLB invalidations (one per free/compaction).
    pub tlb_invalidations: u64,
    /// Table re-compactions performed on free.
    pub compactions: u64,
    /// Peak number of simultaneous entries.
    pub peak_entries: usize,
}

impl TableStats {
    /// TLB hit rate over all resolutions (0.0 when none were served).
    pub fn tlb_hit_rate(&self) -> f64 {
        let total = self.tlb_hits + self.tlb_misses;
        if total == 0 {
            0.0
        } else {
            self.tlb_hits as f64 / total as f64
        }
    }
}

/// The pointer table of one dynamic shared memory.
///
/// Entries are kept sorted by `vptr`, so exact lookups and containment
/// resolutions are binary searches. On free, the backing vector is
/// re-compacted (the paper's "table re-compacted" step) — entries shift
/// down, keeping the storage dense.
#[derive(Debug)]
pub struct PointerTable {
    entries: Vec<Entry>,
    capacity: u32,
    used: u32,
    policy: VptrPolicy,
    stats: TableStats,
    host_stats: HostStats,
    tlb: Tlb,
    /// Free-gap index mirroring `entries` (first-fit placement in
    /// O(log n)); maintained only under [`VptrPolicy::FirstFitReuse`].
    gaps: Option<GapIndex>,
}

impl PointerTable {
    /// Creates a table managing `capacity` bytes of simulated memory.
    pub fn new(capacity: u32, policy: VptrPolicy) -> Self {
        PointerTable {
            entries: Vec::new(),
            capacity,
            used: 0,
            policy,
            stats: TableStats::default(),
            host_stats: HostStats::default(),
            tlb: Tlb::new(),
            gaps: (policy == VptrPolicy::FirstFitReuse).then(GapIndex::new_full),
        }
    }

    /// Total capacity in bytes (the paper's finite-size memory limit).
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Bytes still available.
    pub fn free_bytes(&self) -> u32 {
        self.capacity - self.used
    }

    /// Number of live allocations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no allocations are live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The vptr policy in force.
    pub fn policy(&self) -> VptrPolicy {
        self.policy
    }

    /// Activity counters.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Host-side allocation counters.
    pub fn host_stats(&self) -> HostStats {
        self.host_stats
    }

    /// Iterates over live entries in vptr order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.entries.iter()
    }

    /// Chooses the vptr for a new allocation of `size` bytes.
    fn place(&self, size: u32) -> Result<u32, AllocError> {
        match self.policy {
            VptrPolicy::PaperMonotonic => match self.entries.last() {
                None => Ok(0),
                Some(last) => last
                    .vptr
                    .checked_add(last.size)
                    .filter(|base| base.checked_add(size).is_some())
                    .ok_or(AllocError::VirtualExhausted),
            },
            VptrPolicy::FirstFitReuse => {
                // O(log n) address-ordered first fit over the gap index;
                // placement outcomes are property-tested identical to the
                // original linear entry scan (`place_scan`).
                let placed = self
                    .gaps
                    .as_ref()
                    .expect("gap index exists under FirstFitReuse")
                    .first_fit(size)
                    .ok_or(AllocError::VirtualExhausted);
                debug_assert_eq!(placed, self.place_scan(size), "gap index diverged");
                placed
            }
        }
    }

    /// The original O(live entries) first-fit scan, kept as the oracle the
    /// gap index is validated against (debug assertions and property
    /// tests).
    fn place_scan(&self, size: u32) -> Result<u32, AllocError> {
        let mut cursor: u32 = 0;
        for e in &self.entries {
            if e.vptr - cursor >= size {
                return Ok(cursor);
            }
            cursor = e.vptr + e.size; // dense, no overflow: ranges are disjoint in u32
        }
        cursor
            .checked_add(size)
            .map(|_| cursor)
            .ok_or(AllocError::VirtualExhausted)
    }

    /// Allocates `dim` elements of `elem`, returning the new vptr.
    ///
    /// The host storage is zero-initialised (`calloc` semantics).
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when the finite size would be exceeded;
    /// [`AllocError::VirtualExhausted`] under the monotonic policy when the
    /// virtual space runs out; [`AllocError::ZeroSize`] for empty requests.
    pub fn alloc(&mut self, dim: u32, elem: ElemType) -> Result<u32, AllocError> {
        let size = dim
            .checked_mul(elem.bytes())
            .ok_or(AllocError::OutOfMemory)?;
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        if self.used.checked_add(size).is_none_or(|u| u > self.capacity) {
            self.stats.denials += 1;
            return Err(AllocError::OutOfMemory);
        }
        let vptr = match self.place(size) {
            Ok(v) => v,
            Err(e) => {
                self.stats.denials += 1;
                return Err(e);
            }
        };
        let host = HostAlloc::calloc(size);
        self.host_stats.allocs += 1;
        self.host_stats.bytes_allocated += size as u64;
        let entry = Entry {
            vptr,
            dim,
            elem,
            size,
            reserved_by: None,
            host,
        };
        let pos = self
            .entries
            .binary_search_by_key(&vptr, |e| e.vptr)
            .unwrap_err();
        self.entries.insert(pos, entry);
        if let Some(g) = &mut self.gaps {
            g.consume(vptr, size);
        }
        self.used += size;
        self.stats.allocs += 1;
        self.stats.peak_entries = self.stats.peak_entries.max(self.entries.len());
        // Inserting shifts the indices of entries above `pos`; stale TLB
        // lines for those entries fail containment validation and refill
        // lazily, so no invalidation is required here. Growing keeps the
        // direct map conflict-free as the live population climbs.
        self.tlb.grow_for(self.entries.len());
        Ok(vptr)
    }

    /// Frees the allocation whose *base* vptr is `vptr`, removing the entry,
    /// re-compacting the table, restoring capacity and releasing the host
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`PtrError::BadPointer`] if `vptr` is not a live base pointer;
    /// [`PtrError::Locked`] if another master holds the reservation.
    pub fn free(&mut self, vptr: u32, master: u8) -> Result<u32, PtrError> {
        let idx = self
            .entries
            .binary_search_by_key(&vptr, |e| e.vptr)
            .map_err(|_| PtrError::BadPointer)?;
        if !self.entries[idx].accessible_by(master) {
            return Err(PtrError::Locked);
        }
        // Vec::remove shifts the tail down — the "re-compacted" table.
        let entry = self.entries.remove(idx);
        if let Some(g) = &mut self.gaps {
            g.release(entry.vptr, entry.size);
        }
        self.stats.compactions += 1;
        // The compaction moved entry indices: invalidate the whole TLB in
        // O(1) by bumping its generation.
        self.tlb.invalidate();
        self.stats.tlb_invalidations += 1;
        self.used -= entry.size;
        self.stats.frees += 1;
        self.host_stats.frees += 1;
        Ok(entry.size) // entry (and its HostAlloc) drops here: host free
    }

    /// Exact-key lookup of a base vptr.
    pub fn lookup(&mut self, vptr: u32) -> Option<&Entry> {
        self.stats.lookups += 1;
        self.entries
            .binary_search_by_key(&vptr, |e| e.vptr)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Pointer-arithmetic resolution: finds the allocation containing
    /// `vptr` and the byte offset within it.
    ///
    /// Exact base pointers resolve with offset zero; interior pointers
    /// (`vptr = base + k`) resolve to `(entry, k)` as the paper describes.
    ///
    /// Served by the TLB when possible (see the module docs); a hit and a
    /// miss return identical results — only the host-side cost differs.
    pub fn resolve(&mut self, vptr: u32) -> Option<(usize, u32)> {
        self.stats.arith_resolutions += 1;

        // Fast path 1: the last-hit slot.
        let last = self.tlb.last as usize;
        if let Some(e) = self.entries.get(last) {
            if e.contains(vptr) {
                self.stats.tlb_hits += 1;
                return Some((last, vptr - e.vptr));
            }
        }

        // Fast path 2: the direct-mapped line for this page.
        let page = vptr >> TLB_PAGE_BITS;
        let slot = self.tlb.slot(page);
        let line = self.tlb.lines[slot];
        if line.page == page && line.gen == self.tlb.gen {
            if let Some(e) = self.entries.get(line.idx as usize) {
                if e.contains(vptr) {
                    self.stats.tlb_hits += 1;
                    self.tlb.last = line.idx;
                    return Some((line.idx as usize, vptr - e.vptr));
                }
            }
        }
        self.stats.tlb_misses += 1;

        // Slow path: binary search, then fill the line and last-hit slot.
        let (idx, offset) = self.peek(vptr)?;
        self.tlb.lines[slot] = TlbLine {
            page,
            idx: idx as u32,
            gen: self.tlb.gen,
        };
        self.tlb.last = idx as u32;
        Some((idx, offset))
    }

    /// [`resolve`](Self::resolve) with a caller-provided entry-index hint
    /// (a per-master translation slot in the wrapper). A valid hint skips
    /// even the shared TLB probe; an invalid one falls back to `resolve`.
    pub fn resolve_hinted(&mut self, vptr: u32, hint: u32) -> Option<(usize, u32)> {
        if let Some(e) = self.entries.get(hint as usize) {
            if e.contains(vptr) {
                self.stats.arith_resolutions += 1;
                self.stats.tlb_hits += 1;
                return Some((hint as usize, vptr - e.vptr));
            }
        }
        self.resolve(vptr)
    }

    /// Immutable, statistics-free resolve for observers (watchpoints,
    /// debug dumps): the same binary search over the vptr-sorted entries
    /// as [`resolve`](Self::resolve)'s slow path, but without touching
    /// the TLB or any counter — safe to call every polling slice without
    /// perturbing the measured simulation.
    pub fn peek(&self, vptr: u32) -> Option<(usize, u32)> {
        let idx = match self.entries.binary_search_by_key(&vptr, |e| e.vptr) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let e = &self.entries[idx];
        e.contains(vptr).then(|| (idx, vptr - e.vptr))
    }

    /// Entry access by index (from [`resolve`](Self::resolve)).
    pub fn entry(&self, idx: usize) -> &Entry {
        &self.entries[idx]
    }

    /// Mutable entry access by index.
    pub fn entry_mut(&mut self, idx: usize) -> &mut Entry {
        &mut self.entries[idx]
    }

    /// Acquires the reservation bit of the allocation containing `vptr` for
    /// `master`. Returns `true` on success (including re-acquisition by the
    /// owner), `false` when held by another master.
    pub fn reserve(&mut self, vptr: u32, master: u8) -> Result<bool, PtrError> {
        let (idx, _) = self.resolve(vptr).ok_or(PtrError::BadPointer)?;
        let e = &mut self.entries[idx];
        match e.reserved_by {
            None => {
                e.reserved_by = Some(master);
                Ok(true)
            }
            Some(owner) => Ok(owner == master),
        }
    }

    /// Releases a reservation held by `master` on the allocation containing
    /// `vptr`. Releasing an unreserved entry succeeds (idempotent).
    ///
    /// # Errors
    ///
    /// [`PtrError::Locked`] when another master holds the bit.
    pub fn release(&mut self, vptr: u32, master: u8) -> Result<(), PtrError> {
        let (idx, _) = self.resolve(vptr).ok_or(PtrError::BadPointer)?;
        let e = &mut self.entries[idx];
        match e.reserved_by {
            None => Ok(()),
            Some(owner) if owner == master => {
                e.reserved_by = None;
                Ok(())
            }
            Some(_) => Err(PtrError::Locked),
        }
    }

    /// Verifies internal invariants; used by tests and debug assertions.
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev_end: Option<u32> = None;
        let mut total = 0u64;
        for (i, e) in self.entries.iter().enumerate() {
            if e.size != e.dim * e.elem.bytes() {
                return Err(format!("entry {i}: size != dim * elem"));
            }
            if e.host.len() != e.size {
                return Err(format!("entry {i}: host size mismatch"));
            }
            if let Some(end) = prev_end {
                if e.vptr < end {
                    return Err(format!("entry {i}: overlaps previous (vptr {:#x})", e.vptr));
                }
            }
            prev_end = Some(e.vptr + e.size);
            total += e.size as u64;
        }
        if total != self.used as u64 {
            return Err(format!("used {} != sum of sizes {total}", self.used));
        }
        if self.used > self.capacity {
            return Err("used exceeds capacity".into());
        }
        if let Some(g) = &self.gaps {
            g.check()?;
            // The gap index must be the exact complement of the entries.
            let mut expected: Vec<(u32, u32)> = Vec::new();
            let mut cursor: u32 = 0;
            for e in &self.entries {
                if e.vptr > cursor {
                    expected.push((cursor, e.vptr - cursor));
                }
                cursor = e.vptr + e.size;
            }
            if cursor < u32::MAX {
                expected.push((cursor, u32::MAX - cursor));
            }
            if g.collect() != expected {
                return Err(format!(
                    "gap index {:x?} != complement of entries {:x?}",
                    g.collect(),
                    expected
                ));
            }
        }
        Ok(())
    }

    /// Serializes the live allocations (including their host-side
    /// payload bytes), accounting state, and counters. The TLB and the
    /// gap index are validated caches and are *reconstructed* on load,
    /// not serialized; neither are the TLB's hit, miss and invalidation
    /// counters, which describe the host-side cache and not the
    /// simulation.
    pub fn save_state(&self, w: &mut dmi_kernel::StateWriter) {
        w.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            w.put_u32(e.vptr);
            w.put_u32(e.dim);
            w.put_u8(e.elem as u8);
            w.put_u32(e.size);
            match e.reserved_by {
                Some(m) => {
                    w.put_bool(true);
                    w.put_u8(m);
                }
                None => w.put_bool(false),
            }
            w.put_bytes(e.host.bytes());
        }
        w.put_u32(self.used);
        w.put_u64(self.stats.allocs);
        w.put_u64(self.stats.frees);
        w.put_u64(self.stats.denials);
        w.put_u64(self.stats.lookups);
        w.put_u64(self.stats.arith_resolutions);
        w.put_u64(self.stats.compactions);
        w.put_u64(self.stats.peak_entries as u64);
        w.put_u64(self.host_stats.allocs);
        w.put_u64(self.host_stats.frees);
        w.put_u64(self.host_stats.bytes_allocated);
    }

    /// Restores state written by [`PointerTable::save_state`] onto a
    /// table with the same configuration, rebuilding the TLB (cold, its
    /// counters at zero) and the gap index (exact complement of the
    /// restored entries).
    pub fn load_state(
        &mut self,
        r: &mut dmi_kernel::StateReader<'_>,
    ) -> Result<(), dmi_kernel::SnapshotError> {
        use dmi_kernel::SnapshotError;
        let n = r.get_u32("table entry count")? as usize;
        let mut entries = Vec::with_capacity(n);
        let mut prev_end = 0u32;
        for i in 0..n {
            let vptr = r.get_u32("entry vptr")?;
            let dim = r.get_u32("entry dim")?;
            let elem = ElemType::from_u32(r.get_u8("entry elem")? as u32).ok_or_else(|| {
                SnapshotError::Corrupt {
                    context: format!("entry {i}: invalid element type"),
                }
            })?;
            let size = r.get_u32("entry size")?;
            let reserved_by = if r.get_bool("entry reservation flag")? {
                Some(r.get_u8("entry reservation owner")?)
            } else {
                None
            };
            let bytes = r.get_bytes("entry payload")?;
            if size != dim.saturating_mul(elem.bytes())
                || bytes.len() != size as usize
            {
                return Err(SnapshotError::Corrupt {
                    context: format!("entry {i}: inconsistent size"),
                });
            }
            if i > 0 && vptr < prev_end || vptr.checked_add(size).is_none() {
                return Err(SnapshotError::Corrupt {
                    context: format!("entry {i}: overlapping or wrapping vptr range"),
                });
            }
            prev_end = vptr + size;
            let mut host = HostAlloc::calloc(size);
            host.bytes_mut().copy_from_slice(bytes);
            entries.push(Entry {
                vptr,
                dim,
                elem,
                size,
                reserved_by,
                host,
            });
        }
        self.entries = entries;
        self.used = r.get_u32("table used")?;
        self.stats.allocs = r.get_u64("table stats.allocs")?;
        self.stats.frees = r.get_u64("table stats.frees")?;
        self.stats.denials = r.get_u64("table stats.denials")?;
        self.stats.lookups = r.get_u64("table stats.lookups")?;
        self.stats.arith_resolutions = r.get_u64("table stats.arith_resolutions")?;
        self.stats.tlb_hits = 0;
        self.stats.tlb_misses = 0;
        self.stats.tlb_invalidations = 0;
        self.stats.compactions = r.get_u64("table stats.compactions")?;
        self.stats.peak_entries = r.get_u64("table stats.peak_entries")? as usize;
        self.host_stats.allocs = r.get_u64("table host.allocs")?;
        self.host_stats.frees = r.get_u64("table host.frees")?;
        self.host_stats.bytes_allocated = r.get_u64("table host.bytes_allocated")?;
        // Rebuild the validated caches instead of trusting serialized
        // copies: a cold TLB and the exact free-space complement.
        self.tlb = Tlb::new();
        self.tlb.grow_for(self.entries.len());
        self.gaps = (self.policy == VptrPolicy::FirstFitReuse).then(|| {
            GapIndex::from_allocated(self.entries.iter().map(|e| (e.vptr, e.size)))
        });
        self.check_invariants()
            .map_err(|detail| SnapshotError::Corrupt {
                context: format!("restored pointer table: {detail}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(cap: u32) -> PointerTable {
        PointerTable::new(cap, VptrPolicy::PaperMonotonic)
    }

    #[test]
    fn first_vptr_is_zero_and_generation_is_monotonic() {
        let mut t = table(1024);
        let a = t.alloc(4, ElemType::U32).unwrap();
        assert_eq!(a, 0, "first vptr is zero by definition");
        let b = t.alloc(8, ElemType::U8).unwrap();
        assert_eq!(b, 16, "vptr(new) = vptr(last) + size(last)");
        let c = t.alloc(2, ElemType::U16).unwrap();
        assert_eq!(c, 24);
        t.check_invariants().unwrap();
    }

    #[test]
    fn monotonic_rule_after_middle_free() {
        let mut t = table(1024);
        let _a = t.alloc(4, ElemType::U32).unwrap(); // [0,16)
        let b = t.alloc(4, ElemType::U32).unwrap(); // [16,32)
        let _c = t.alloc(4, ElemType::U32).unwrap(); // [32,48)
        t.free(b, 0).unwrap();
        // Last entry is still c at [32,48): next vptr continues past it.
        let d = t.alloc(1, ElemType::U8).unwrap();
        assert_eq!(d, 48);
        t.check_invariants().unwrap();
    }

    #[test]
    fn finite_size_denial_and_restore() {
        let mut t = table(64);
        let a = t.alloc(16, ElemType::U32).unwrap(); // fills capacity
        assert_eq!(t.free_bytes(), 0);
        assert_eq!(t.alloc(1, ElemType::U8), Err(AllocError::OutOfMemory));
        assert_eq!(t.stats().denials, 1);
        t.free(a, 0).unwrap();
        assert_eq!(t.free_bytes(), 64);
        assert!(t.alloc(1, ElemType::U8).is_ok());
    }

    #[test]
    fn zero_and_overflowing_sizes_rejected() {
        let mut t = table(u32::MAX);
        assert_eq!(t.alloc(0, ElemType::U32), Err(AllocError::ZeroSize));
        assert_eq!(
            t.alloc(u32::MAX, ElemType::U32),
            Err(AllocError::OutOfMemory),
            "dim * width overflow"
        );
    }

    #[test]
    fn free_requires_base_pointer() {
        let mut t = table(1024);
        let a = t.alloc(4, ElemType::U32).unwrap();
        assert_eq!(t.free(a + 4, 0), Err(PtrError::BadPointer));
        assert!(t.free(a, 0).is_ok());
        assert_eq!(t.free(a, 0), Err(PtrError::BadPointer), "double free");
    }

    #[test]
    fn pointer_arithmetic_resolution() {
        let mut t = table(1024);
        let a = t.alloc(4, ElemType::U32).unwrap(); // [0,16)
        let b = t.alloc(2, ElemType::U16).unwrap(); // [16,20)
        // Interior pointer into a.
        let (idx, off) = t.resolve(a + 7).unwrap();
        assert_eq!(t.entry(idx).vptr, a);
        assert_eq!(off, 7);
        // Base pointer of b.
        let (idx, off) = t.resolve(b).unwrap();
        assert_eq!(t.entry(idx).vptr, b);
        assert_eq!(off, 0);
        // One past the end of b: unmapped.
        assert_eq!(t.resolve(b + 4), None);
        assert!(t.stats().arith_resolutions >= 3);
    }

    #[test]
    fn resolution_in_gaps_fails() {
        let mut t = PointerTable::new(1024, VptrPolicy::PaperMonotonic);
        let a = t.alloc(4, ElemType::U32).unwrap(); // [0,16)
        let b = t.alloc(4, ElemType::U32).unwrap(); // [16,32)
        t.free(a, 0).unwrap();
        assert_eq!(t.resolve(3), None, "freed range is unmapped");
        assert!(t.resolve(b + 3).is_some());
    }

    #[test]
    fn reservation_semaphore() {
        let mut t = table(1024);
        let a = t.alloc(4, ElemType::U32).unwrap();
        assert_eq!(t.reserve(a, 1), Ok(true));
        assert_eq!(t.reserve(a, 1), Ok(true), "re-acquire by owner");
        assert_eq!(t.reserve(a, 2), Ok(false), "held by master 1");
        assert_eq!(t.release(a, 2), Err(PtrError::Locked));
        assert_eq!(t.free(a, 2), Err(PtrError::Locked));
        t.release(a, 1).unwrap();
        assert_eq!(t.reserve(a, 2), Ok(true));
        t.release(a, 2).unwrap();
        t.release(a, 2).unwrap(); // idempotent
        assert!(t.free(a, 0).is_ok());
    }

    #[test]
    fn reservation_via_interior_pointer() {
        let mut t = table(1024);
        let a = t.alloc(16, ElemType::U32).unwrap();
        assert_eq!(t.reserve(a + 8, 3), Ok(true));
        assert_eq!(t.entry(0).reserved_by, Some(3));
    }

    #[test]
    fn first_fit_reuses_gaps() {
        let mut t = PointerTable::new(1024, VptrPolicy::FirstFitReuse);
        let a = t.alloc(4, ElemType::U32).unwrap(); // [0,16)
        let b = t.alloc(4, ElemType::U32).unwrap(); // [16,32)
        let c = t.alloc(4, ElemType::U32).unwrap(); // [32,48)
        t.free(b, 0).unwrap();
        let d = t.alloc(2, ElemType::U32).unwrap(); // fits in [16,24)
        assert_eq!(d, 16);
        let e = t.alloc(4, ElemType::U32).unwrap(); // gap too small now -> end
        assert_eq!(e, 48);
        t.check_invariants().unwrap();
        let _ = (a, c);
    }

    #[test]
    fn monotonic_cursor_resets_when_table_empties() {
        // With no live entries, "previous Vptr + previous size" has no
        // previous entry: the paper's rule restarts at zero.
        let mut t = PointerTable::new(1024, VptrPolicy::PaperMonotonic);
        let a = t.alloc(4, ElemType::U32).unwrap();
        t.free(a, 0).unwrap();
        let b = t.alloc(4, ElemType::U32).unwrap();
        assert_eq!(b, 0);
        t.free(b, 0).unwrap();
    }

    #[test]
    fn monotonic_exhaustion_versus_first_fit() {
        // Churn with a live "anchor" allocation: the monotonic cursor only
        // ever advances, so the 32-bit virtual space runs out even though
        // physical capacity is never exceeded. First-fit reuses the gaps.
        const BIG: u32 = 0x2000_0000;
        let churn = |policy: VptrPolicy| -> Result<(), AllocError> {
            let mut t = PointerTable::new(BIG + 64, policy);
            let mut anchor = t.alloc(4, ElemType::U32)?;
            for _ in 0..16 {
                let big = t.alloc(BIG, ElemType::U8)?;
                let next_anchor = t.alloc(4, ElemType::U32)?;
                t.free(big, 0).expect("big is live");
                t.free(anchor, 0).expect("old anchor is live");
                anchor = next_anchor;
                t.check_invariants().expect("invariants");
            }
            Ok(())
        };
        assert_eq!(
            churn(VptrPolicy::PaperMonotonic),
            Err(AllocError::VirtualExhausted),
            "monotonic policy must exhaust virtual space"
        );
        assert_eq!(churn(VptrPolicy::FirstFitReuse), Ok(()));
    }

    #[test]
    fn data_round_trip_through_host() {
        let mut t = table(1024);
        let a = t.alloc(4, ElemType::U32).unwrap();
        let (idx, off) = t.resolve(a + 4).unwrap();
        t.entry_mut(idx).host.bytes_mut()[off as usize] = 0x5A;
        assert_eq!(t.entry(idx).host.bytes()[4], 0x5A);
        // calloc semantics: fresh allocations are zeroed.
        let b = t.alloc(4, ElemType::U32).unwrap();
        let (idx, _) = t.resolve(b).unwrap();
        assert!(t.entry(idx).host.bytes().iter().all(|&x| x == 0));
    }

    #[test]
    fn tlb_serves_repeat_lookups() {
        let mut t = table(4096);
        let a = t.alloc(16, ElemType::U32).unwrap();
        let b = t.alloc(16, ElemType::U32).unwrap();
        // First touch of each allocation misses, repeats hit.
        assert!(t.resolve(a).is_some());
        assert!(t.resolve(a + 4).is_some());
        assert!(t.resolve(a + 60).is_some());
        let s = t.stats();
        assert_eq!(s.tlb_misses, 1, "only the first access searches");
        assert_eq!(s.tlb_hits, 2);
        // Different allocation: one more miss, then hits.
        assert!(t.resolve(b + 8).is_some());
        assert!(t.resolve(b + 12).is_some());
        let s = t.stats();
        assert_eq!(s.tlb_misses, 2);
        assert_eq!(s.tlb_hits, 3);
        assert!(s.tlb_hit_rate() > 0.5);
    }

    #[test]
    fn tlb_invalidated_on_free() {
        let mut t = table(4096);
        let a = t.alloc(16, ElemType::U32).unwrap();
        let b = t.alloc(16, ElemType::U32).unwrap();
        assert!(t.resolve(a).is_some());
        assert!(t.resolve(b).is_some());
        t.free(a, 0).unwrap();
        assert_eq!(t.stats().tlb_invalidations, 1);
        // The freed range must not resolve, hot TLB or not.
        assert_eq!(t.resolve(a), None);
        assert_eq!(t.resolve(a + 8), None);
        // The survivor still resolves correctly (index shifted from 1 to 0).
        let (idx, off) = t.resolve(b + 4).unwrap();
        assert_eq!(t.entry(idx).vptr, b);
        assert_eq!(off, 4);
    }

    #[test]
    fn tlb_correct_across_first_fit_reuse() {
        // Reusing a freed vptr range for a new allocation must translate to
        // the new entry, never the stale one.
        let mut t = PointerTable::new(4096, VptrPolicy::FirstFitReuse);
        let a = t.alloc(16, ElemType::U32).unwrap(); // [0, 64)
        let _b = t.alloc(16, ElemType::U32).unwrap(); // [64, 128)
        assert!(t.resolve(a + 32).is_some()); // warm the TLB for a's pages
        t.free(a, 0).unwrap();
        let c = t.alloc(8, ElemType::U32).unwrap(); // reuses [0, 32)
        assert_eq!(c, a, "first-fit reuses the gap");
        let (idx, off) = t.resolve(c + 16).unwrap();
        assert_eq!(t.entry(idx).vptr, c);
        assert_eq!(t.entry(idx).size, 32, "resolved to the new allocation");
        assert_eq!(off, 16);
        assert_eq!(t.resolve(c + 40), None, "beyond the new allocation");
    }

    #[test]
    fn resolve_hinted_validates_hint() {
        let mut t = table(4096);
        let a = t.alloc(4, ElemType::U32).unwrap();
        let b = t.alloc(4, ElemType::U32).unwrap();
        let (bi, _) = t.resolve(b).unwrap();
        // Correct hint short-circuits.
        let hits_before = t.stats().tlb_hits;
        let (idx, off) = t.resolve_hinted(b + 4, bi as u32).unwrap();
        assert_eq!((idx, off), (bi, 4));
        assert_eq!(t.stats().tlb_hits, hits_before + 1);
        // Wrong and out-of-range hints fall back to the normal path.
        let (idx, off) = t.resolve_hinted(a, bi as u32).unwrap();
        assert_eq!(t.entry(idx).vptr, a);
        assert_eq!(off, 0);
        assert_eq!(t.resolve_hinted(a + 2, u32::MAX).unwrap().1, 2);
        assert_eq!(t.resolve_hinted(0xFFFF, 0), None);
    }

    #[test]
    fn tlb_scales_with_table_population() {
        // A sweep over many entries should be TLB-hot on the second pass.
        let mut t = PointerTable::new(u32::MAX, VptrPolicy::PaperMonotonic);
        let vptrs: Vec<u32> = (0..2048)
            .map(|_| t.alloc(4, ElemType::U32).unwrap())
            .collect();
        for &v in &vptrs {
            t.resolve(v + 3);
        }
        let cold = t.stats();
        for &v in &vptrs {
            t.resolve(v + 7);
        }
        let warm = t.stats();
        assert_eq!(
            warm.tlb_misses, cold.tlb_misses,
            "second sweep is entirely TLB hits"
        );
        assert_eq!(warm.tlb_hits - cold.tlb_hits, 2048);
    }

    #[test]
    fn stats_track_activity() {
        let mut t = table(1024);
        let a = t.alloc(4, ElemType::U32).unwrap();
        let _b = t.alloc(4, ElemType::U32).unwrap();
        t.lookup(a);
        t.resolve(a + 1);
        t.free(a, 0).unwrap();
        let s = t.stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.frees, 1);
        assert_eq!(s.lookups, 1);
        assert!(s.arith_resolutions >= 1);
        assert_eq!(s.peak_entries, 2);
        assert_eq!(s.compactions, 1);
        let h = t.host_stats();
        assert_eq!(h.allocs, 2);
        assert_eq!(h.frees, 1);
        assert_eq!(h.bytes_allocated, 32);
    }
}
