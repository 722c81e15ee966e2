//! Property tests on the wrapper's functional part: the pointer table and
//! the simulated-heap baseline stay consistent under arbitrary operation
//! sequences, and the two dynamic models agree functionally.

use dmi_core::{
    AllocError, BeatResult, DsmBackend, ElemType, Opcode, PointerTable, Request, SimHeapBackend,
    SimHeapConfig, Status, VptrPolicy, WrapperBackend, WrapperConfig,
};
use dmi_kernel::{StateReader, StateWriter};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Alloc { dim: u32, elem: u8 },
    Free { pick: usize },
    Write { pick: usize, off: u32, value: u32 },
    Read { pick: usize, off: u32 },
    Reserve { pick: usize, master: u8 },
    Release { pick: usize, master: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u32..64, 0u8..3).prop_map(|(dim, elem)| Op::Alloc { dim, elem }),
        2 => any::<prop::sample::Index>().prop_map(|i| Op::Free { pick: i.index(64) }),
        3 => (any::<prop::sample::Index>(), 0u32..256, any::<u32>())
            .prop_map(|(i, off, value)| Op::Write { pick: i.index(64), off, value }),
        3 => (any::<prop::sample::Index>(), 0u32..256)
            .prop_map(|(i, off)| Op::Read { pick: i.index(64), off }),
        1 => (any::<prop::sample::Index>(), 0u8..4)
            .prop_map(|(i, master)| Op::Reserve { pick: i.index(64), master }),
        1 => (any::<prop::sample::Index>(), 0u8..4)
            .prop_map(|(i, master)| Op::Release { pick: i.index(64), master }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Table invariants (disjoint sorted ranges, exact capacity accounting)
    /// hold after any operation sequence, under both vptr policies.
    #[test]
    fn pointer_table_invariants(
        ops in prop::collection::vec(op_strategy(), 1..120),
        first_fit in any::<bool>(),
    ) {
        let policy = if first_fit { VptrPolicy::FirstFitReuse } else { VptrPolicy::PaperMonotonic };
        let mut t = PointerTable::new(4096, policy);
        let mut live: Vec<u32> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc { dim, elem } => {
                    let elem = ElemType::from_u32(elem as u32).unwrap();
                    match t.alloc(dim, elem) {
                        Ok(v) => live.push(v),
                        Err(AllocError::OutOfMemory | AllocError::VirtualExhausted) => {}
                        Err(AllocError::ZeroSize) => unreachable!("dim >= 1"),
                    }
                }
                Op::Free { pick } if !live.is_empty() => {
                    let v = live.remove(pick % live.len());
                    // Frees may fail only due to reservations (master 0 here
                    // frees; reservation owners vary).
                    let _ = t.free(v, 0).or_else(|_| { live.push(v); Ok::<u32, ()>(0) });
                }
                Op::Reserve { pick, master } if !live.is_empty() => {
                    let v = live[pick % live.len()];
                    let _ = t.reserve(v, master);
                }
                Op::Release { pick, master } if !live.is_empty() => {
                    let v = live[pick % live.len()];
                    let _ = t.release(v, master);
                }
                Op::Write { pick, off, .. } | Op::Read { pick, off } if !live.is_empty() => {
                    let v = live[pick % live.len()];
                    // resolve() must map interior pointers of live entries
                    // to the right entry and offset.
                    if let Some((idx, o)) = t.resolve(v.wrapping_add(off)) {
                        let e = t.entry(idx);
                        prop_assert!(e.contains(v.wrapping_add(off)));
                        prop_assert_eq!(v.wrapping_add(off) - e.vptr, o);
                    }
                }
                _ => {}
            }
            if let Err(msg) = t.check_invariants() {
                return Err(TestCaseError::fail(format!("invariant violated: {msg}")));
            }
        }
        // Every live vptr resolves to itself at offset 0.
        for v in live {
            match t.resolve(v) {
                Some((idx, 0)) => prop_assert_eq!(t.entry(idx).vptr, v),
                other => return Err(TestCaseError::fail(format!("{v:#x} -> {other:?}"))),
            }
        }
    }

    /// The wrapper and the simulated heap agree functionally: identical
    /// write/read sequences return identical data (timing differs — that
    /// is the paper's point).
    #[test]
    fn wrapper_and_simheap_agree_on_data(
        writes in prop::collection::vec((0u32..16, any::<u32>()), 1..40),
        dim in 16u32..64,
    ) {
        let mut w = WrapperBackend::new(WrapperConfig::default());
        let mut h = SimHeapBackend::new(SimHeapConfig::default());
        let req = |op, a0, a1, a2| Request { op, arg0: a0, arg1: a1, arg2: a2, master: 0 };

        let wv = w.execute(&req(Opcode::Alloc, dim, ElemType::U32 as u32, 0));
        let hv = h.execute(&req(Opcode::Alloc, dim, ElemType::U32 as u32, 0));
        prop_assert!(wv.status.is_ok() && hv.status.is_ok());

        for (idx, value) in &writes {
            let off = idx * 4;
            let a = w.execute(&req(Opcode::Write, wv.result + off, *value, 2));
            let b = h.execute(&req(Opcode::Write, hv.result + off, *value, 2));
            prop_assert_eq!(a.status, b.status);
        }
        for (idx, _) in &writes {
            let off = idx * 4;
            let a = w.execute(&req(Opcode::Read, wv.result + off, 0, 2));
            let b = h.execute(&req(Opcode::Read, hv.result + off, 0, 2));
            prop_assert_eq!(a.result, b.result, "offset {}", off);
        }
    }

    /// Alloc/free churn on the simulated heap conserves memory: after
    /// freeing everything, the largest allocation fits again.
    #[test]
    fn simheap_conserves_capacity(
        sizes in prop::collection::vec(1u32..200, 1..24),
    ) {
        let mut h = SimHeapBackend::new(SimHeapConfig {
            capacity: 1 << 16,
            word_latency: 1,
            endian: dmi_core::Endian::Little,
        });
        let req = |op, a0, a1, a2| Request { op, arg0: a0, arg1: a1, arg2: a2, master: 0 };
        let mut ptrs = Vec::new();
        for s in &sizes {
            let r = h.execute(&req(Opcode::Alloc, *s, ElemType::U8 as u32, 0));
            prop_assert!(r.status.is_ok());
            ptrs.push(r.result);
        }
        // Free in reverse order (exercises prev-coalescing heavily).
        for p in ptrs.into_iter().rev() {
            let r = h.execute(&req(Opcode::Free, p, 0, 0));
            prop_assert_eq!(r.status, Status::Ok);
        }
        prop_assert_eq!(h.free_bytes(), 1 << 16);
        // Whole arena reusable as one block.
        let big = h.execute(&req(Opcode::Alloc, (1 << 16) - 8, ElemType::U8 as u32, 0));
        prop_assert!(big.status.is_ok());
    }

    /// The TLB never serves a stale translation: after every operation,
    /// `resolve` and `resolve_hinted` (with an arbitrary entry-index hint)
    /// agree with `peek`, the same binary search without the TLB, on the
    /// same table — including across frees (invalidation), first-fit vptr
    /// reuse and entry-index shifts.
    #[test]
    fn tlb_resolutions_match_uncached_table(
        ops in prop::collection::vec(op_strategy(), 1..120),
        probes in prop::collection::vec((0u32..4096, 0u32..64), 16),
        first_fit in any::<bool>(),
    ) {
        let policy = if first_fit { VptrPolicy::FirstFitReuse } else { VptrPolicy::PaperMonotonic };
        let mut t = PointerTable::new(4096, policy);
        let mut live: Vec<u32> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc { dim, elem } => {
                    if let Ok(v) = t.alloc(dim, ElemType::from_u32(elem as u32).unwrap()) {
                        live.push(v);
                    }
                }
                Op::Free { pick } if !live.is_empty() => {
                    let v = live.remove(pick % live.len());
                    prop_assert!(t.free(v, 0).is_ok());
                }
                Op::Read { pick, off } | Op::Write { pick, off, .. } if !live.is_empty() => {
                    let v = live[pick % live.len()].wrapping_add(off);
                    let expect = t.peek(v);
                    prop_assert_eq!(t.resolve(v), expect, "resolve({:#x})", v);
                }
                _ => {}
            }
            // Sweep fixed probe addresses after every op, through the
            // shared TLB and through a hint: any stale TLB line or wrongly
            // trusted hint would show up as a divergence here.
            for &(p, hint) in &probes {
                let expect = t.peek(p);
                prop_assert_eq!(t.resolve(p), expect, "probe {:#x}", p);
                prop_assert_eq!(t.resolve_hinted(p, hint), expect, "probe {:#x} hint {}", p, hint);
            }
        }
    }

    /// Warm and cold translation caches give the same answers: before
    /// every operation a second wrapper is restored from the first one's
    /// snapshot, which restarts its TLB and per-master hints cold. Both
    /// then run the operation, and status, result and charged cycles must
    /// be bit-identical — the caches may only change host speed, never
    /// simulated behaviour. Under first fit the restored wrapper also
    /// keeps allocating into the gaps of the restored table.
    #[test]
    fn wrapper_equivalent_with_and_without_tlb(
        ops in prop::collection::vec(op_strategy(), 1..100),
        first_fit in any::<bool>(),
    ) {
        let policy = if first_fit { VptrPolicy::FirstFitReuse } else { VptrPolicy::PaperMonotonic };
        let cfg = WrapperConfig { policy, ..WrapperConfig::default() };
        let mut warm = WrapperBackend::new(cfg);
        let req = |op, arg0, arg1, master| Request { op, arg0, arg1, arg2: 0, master };
        let mut live: Vec<u32> = Vec::new();
        for op in ops {
            let rq = match op {
                Op::Alloc { dim, elem } => req(Opcode::Alloc, dim, elem as u32, 0),
                Op::Free { pick } if !live.is_empty() => {
                    req(Opcode::Free, live.remove(pick % live.len()), 0, 0)
                }
                Op::Write { pick, off, value } if !live.is_empty() => {
                    req(Opcode::Write, live[pick % live.len()].wrapping_add(off), value, 0)
                }
                Op::Read { pick, off } if !live.is_empty() => {
                    req(Opcode::Read, live[pick % live.len()].wrapping_add(off), 0, 0)
                }
                Op::Reserve { pick, master } if !live.is_empty() => {
                    req(Opcode::Reserve, live[pick % live.len()], 0, master)
                }
                Op::Release { pick, master } if !live.is_empty() => {
                    req(Opcode::Release, live[pick % live.len()], 0, master)
                }
                _ => continue,
            };
            let mut w = StateWriter::new();
            warm.save_state(&mut w);
            let snapshot = w.into_bytes();
            let mut cold = WrapperBackend::new(cfg);
            prop_assert!(cold.load_state(&mut StateReader::new(&snapshot)).is_ok());
            let a = warm.execute(&rq);
            let b = cold.execute(&rq);
            if rq.op == Opcode::Alloc && a.status.is_ok() {
                live.push(a.result);
            }
            prop_assert_eq!(a.status, b.status);
            prop_assert_eq!(a.result, b.result);
            prop_assert_eq!(a.cycles, b.cycles, "charged cycles must match");
        }
    }

    /// A block of words moves through a burst beat by beat at the
    /// wrapper's per-beat charges (default delays): one cycle per beat,
    /// two more on the last write beat for the commit, one cycle for the
    /// failed beat past the end, and one burst beat counted per transfer.
    #[test]
    fn burst_blocks_equal_beats(
        data in prop::collection::vec(any::<u32>(), 1..48),
    ) {
        let req = |op, a0, a1, a2| Request { op, arg0: a0, arg1: a1, arg2: a2, master: 0 };
        let len = data.len() as u32;

        let mut m = WrapperBackend::new(WrapperConfig::default());
        let v = m.execute(&req(Opcode::Alloc, len, ElemType::U32 as u32, 0)).result;
        prop_assert!(m.execute(&req(Opcode::WriteBurst, v, 2, len)).status.is_ok());
        for (i, value) in data.iter().enumerate() {
            let commit = if i + 1 == data.len() { 2 } else { 0 };
            let beat = m.burst_write_beat(0, *value);
            prop_assert_eq!(beat, BeatResult::ok(0, 1 + commit), "write beat {}", i);
        }
        prop_assert!(m.execute(&req(Opcode::ReadBurst, v, 2, len)).status.is_ok());
        for (i, expect) in data.iter().enumerate() {
            prop_assert_eq!(m.burst_read_beat(0), BeatResult::ok(*expect, 1), "read beat {}", i);
        }
        prop_assert_eq!(m.burst_read_beat(0), BeatResult::err(Status::BadArgs, 1));
        prop_assert_eq!(m.stats().burst_beats, 2 * len as u64);
    }

    /// Burst transfers and scalar writes are equivalent on the wrapper.
    #[test]
    fn burst_equals_scalar_writes(data in prop::collection::vec(any::<u32>(), 1..32)) {
        let req = |op, a0, a1, a2| Request { op, arg0: a0, arg1: a1, arg2: a2, master: 0 };
        let len = data.len() as u32;

        let mut a = WrapperBackend::new(WrapperConfig::default());
        let va = a.execute(&req(Opcode::Alloc, len, ElemType::U32 as u32, 0)).result;
        let setup = a.execute(&req(Opcode::WriteBurst, va, 2, len));
        prop_assert!(setup.status.is_ok());
        for v in &data {
            prop_assert!(a.burst_write_beat(0, *v).status.is_ok());
        }

        let mut b = WrapperBackend::new(WrapperConfig::default());
        let vb = b.execute(&req(Opcode::Alloc, len, ElemType::U32 as u32, 0)).result;
        for (i, v) in data.iter().enumerate() {
            let r = b.execute(&req(Opcode::Write, vb + (i as u32) * 4, *v, 2));
            prop_assert!(r.status.is_ok());
        }

        for i in 0..len {
            let ra = a.execute(&req(Opcode::Read, va + i * 4, 0, 2));
            let rb = b.execute(&req(Opcode::Read, vb + i * 4, 0, 2));
            prop_assert_eq!(ra.result, rb.result);
        }
    }
}

/// Independent oracle for first-fit placement: a shadow list of live
/// `[start, end)` ranges walked linearly, reimplementing the rule from
/// scratch (deliberately *not* sharing code with the table's own scan).
#[derive(Debug, Default)]
struct LinearOracle {
    ranges: Vec<(u32, u32)>, // sorted by start
}

impl LinearOracle {
    fn place(&self, size: u32) -> Option<u32> {
        let mut cursor: u32 = 0;
        for &(s, e) in &self.ranges {
            if s - cursor >= size {
                return Some(cursor);
            }
            cursor = e;
        }
        cursor.checked_add(size).map(|_| cursor)
    }

    fn alloc(&mut self, size: u32) -> Option<u32> {
        let v = self.place(size)?;
        let pos = self.ranges.partition_point(|&(s, _)| s < v);
        self.ranges.insert(pos, (v, v + size));
        Some(v)
    }

    fn free(&mut self, vptr: u32) {
        let pos = self
            .ranges
            .iter()
            .position(|&(s, _)| s == vptr)
            .expect("oracle free of live range");
        self.ranges.remove(pos);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The table's first-fit scan chooses bit-identical placements to
    /// its independent model, [`LinearOracle`], over arbitrary
    /// alloc/free churn: always the lowest-addressed gap that fits.
    #[test]
    fn first_fit_gap_index_matches_linear_scan(
        ops in prop::collection::vec(
            prop_oneof![
                3 => (1u32..200).prop_map(|dim| (true, dim)),
                2 => any::<prop::sample::Index>().prop_map(|i| (false, i.index(64) as u32)),
            ],
            1..200,
        ),
    ) {
        let mut t = PointerTable::new(1 << 16, VptrPolicy::FirstFitReuse);
        let mut oracle = LinearOracle::default();
        let mut live: Vec<u32> = Vec::new();
        for (is_alloc, arg) in ops {
            if is_alloc {
                let dim = arg;
                match t.alloc(dim, ElemType::U8) {
                    Ok(v) => {
                        let ov = oracle.alloc(dim).expect("oracle capacity differs");
                        prop_assert_eq!(v, ov, "placement diverged from linear first fit");
                        live.push(v);
                    }
                    Err(AllocError::OutOfMemory) => {
                        // Capacity denial happens before placement; the
                        // oracle tracks only placement, so skip.
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("alloc failed: {e:?}"))),
                }
            } else if !live.is_empty() {
                let v = live.remove(arg as usize % live.len());
                t.free(v, 0).expect("free of live vptr");
                oracle.free(v);
            }
            if let Err(msg) = t.check_invariants() {
                return Err(TestCaseError::fail(format!("invariant violated: {msg}")));
            }
        }
    }
}
