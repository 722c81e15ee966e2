//! Snapshot robustness, kernel level: captures do not depend on which
//! kernel path ran, save/restore round-trips replay bit-identically
//! across the fast and reference paths, and every flavour of corrupt
//! input — truncation, bit flips, wrong magic, wrong version, a schedule
//! that holds a clock's toggle twice or lies in the past, pending-write
//! bookkeeping that disagrees with itself — comes back as a typed
//! [`SnapshotError`], never a panic.

use std::any::Any;

use dmi_kernel::{
    Component, Ctx, Edge, RunLimit, SimTime, Simulator, Snapshot, SnapshotError, StateReader,
    StateWriter, Wire, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use proptest::prelude::*;

/// A clocked PRNG component with full state-capture hooks: scrambles its
/// state from the input bus every rising edge and logs what it saw.
struct Lfsr {
    name: String,
    clk: Wire,
    input: Wire,
    output: Wire,
    state: u64,
    observed: Vec<u64>,
}

impl Component for Lfsr {
    fn name(&self) -> &str {
        &self.name
    }

    fn wake(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.is_signal(self.clk) {
            let v = ctx.read(self.input);
            self.observed.push(v);
            self.state ^= v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            ctx.write(self.output, self.state);
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.state);
        w.put_u64(self.observed.len() as u64);
        for v in &self.observed {
            w.put_u64(*v);
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.state = r.get_u64("lfsr state")?;
        let n = r.get_u64("lfsr log length")?;
        self.observed.clear();
        for _ in 0..n {
            self.observed.push(r.get_u64("lfsr log entry")?);
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

/// Builds a ring of `n` LFSRs on `n` buses on the kernel's fast path
/// (`true`) or its reference path (`false`).
fn build_ring(n: usize, specialize: bool) -> (Simulator, Vec<dmi_kernel::ComponentId>, Vec<Wire>) {
    let mut sim = Simulator::new();
    sim.set_clock_specialization(specialize);
    let clk = sim.add_clock("clk", 10);
    let buses: Vec<Wire> = (0..n).map(|i| sim.wire(format!("bus{i}"), 64)).collect();
    let mut ids = Vec::new();
    for i in 0..n {
        let id = sim.add_component(Box::new(Lfsr {
            name: format!("lfsr{i}"),
            clk,
            input: buses[i],
            output: buses[(i + 1) % n],
            state: 0x1234_5678_9ABC_DEF0 ^ (i as u64),
            observed: Vec::new(),
        }));
        sim.subscribe(id, clk, Edge::Rising);
        ids.push(id);
    }
    (sim, ids, buses)
}

/// Serializes a simulator into the kernel + per-component sections.
fn capture(sim: &mut Simulator) -> Snapshot {
    let mut snap = Snapshot::new();
    let mut w = StateWriter::new();
    sim.save_state(&mut w);
    snap.push_section("kernel", w.into_bytes());
    for i in 0..sim.component_count() {
        let mut w = StateWriter::new();
        sim.save_component_state(i, &mut w);
        snap.push_section(format!("comp{i}"), w.into_bytes());
    }
    snap
}

/// Restores a capture made by [`capture`].
fn apply(sim: &mut Simulator, snap: &Snapshot) -> Result<(), SnapshotError> {
    let mut r = StateReader::new(snap.require_section("kernel")?);
    sim.load_state(&mut r)?;
    r.finish("kernel")?;
    for i in 0..sim.component_count() {
        let mut r = StateReader::new(snap.require_section(&format!("comp{i}"))?);
        sim.load_component_state(i, &mut r)?;
    }
    Ok(())
}

/// Full observable state of a ring: per-component logs + PRNG states,
/// bus values, simulated time, kernel event/wake counters.
fn observe(sim: &Simulator, ids: &[dmi_kernel::ComponentId], buses: &[Wire]) -> Vec<u64> {
    let mut out = Vec::new();
    for &id in ids {
        let l: &Lfsr = sim.component(id).unwrap();
        out.push(l.state);
        out.extend_from_slice(&l.observed);
    }
    out.extend(buses.iter().map(|&b| sim.peek(b)));
    out.push(sim.time().ticks());
    let s = sim.stats();
    out.extend([s.events, s.wakes, s.deltas, s.time_steps]);
    out
}

#[test]
fn restored_ring_replays_bit_identically_across_kernel_twins() {
    // Both paths capture the same bytes at the same tick: before the
    // first run, on a rising edge, on a (quiet) falling edge and between
    // edges.
    for at in [None, Some(0), Some(10), Some(335), Some(333), Some(1_000)] {
        let [fast, reference] = [true, false].map(|specialize| {
            let (mut sim, _, _) = build_ring(5, specialize);
            if let Some(ticks) = at {
                sim.run_for(ticks);
            }
            capture(&mut sim).to_bytes()
        });
        assert!(
            fast == reference,
            "captures after {at:?} ticks differ by path"
        );
    }
    // Save on either path, restore onto both: the continuation must
    // match the uninterrupted run exactly — the snapshot carries the
    // schedule, not the path executing it.
    for src_fast in [true, false] {
        let (mut cont, cont_ids, cont_buses) = build_ring(5, src_fast);
        cont.run_for(333);
        let snap = capture(&mut cont);
        // Saving must not disturb the source: keep running it as the
        // continuous reference.
        cont.run_for(444);
        let reference = observe(&cont, &cont_ids, &cont_buses);

        for dst_fast in [true, false] {
            let (mut restored, ids, buses) = build_ring(5, dst_fast);
            apply(&mut restored, &snap).expect("restore onto twin");
            restored.run_for(444);
            assert_eq!(
                observe(&restored, &ids, &buses),
                reference,
                "restore fast={src_fast} -> fast={dst_fast} diverged"
            );
        }
    }
}

#[test]
fn snapshot_round_trips_through_bytes_and_disk() {
    let (mut sim, _, _) = build_ring(3, true);
    sim.run_for(100);
    let snap = capture(&mut sim);
    let bytes = snap.to_bytes();
    let back = Snapshot::from_bytes(&bytes).expect("clean bytes parse");
    assert_eq!(back.section_names().count(), snap.section_names().count());
    for name in snap.section_names() {
        assert_eq!(back.section(name), snap.section(name), "section {name}");
    }

    let dir = std::env::temp_dir().join("dmi_snapshot_format_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ring.dmisnap");
    snap.save(&path).expect("save to disk");
    let from_disk = Snapshot::load(&path).expect("load from disk");
    assert_eq!(from_disk.to_bytes(), bytes);
    std::fs::remove_file(&path).ok();
}

/// A real mid-run capture to corrupt (deterministic content).
fn victim_bytes() -> Vec<u8> {
    let (mut sim, _, _) = build_ring(4, true);
    sim.run_for(250);
    capture(&mut sim).to_bytes()
}

#[test]
fn wrong_magic_is_a_typed_error() {
    let mut bytes = victim_bytes();
    bytes[0] ^= 0xFF;
    match Snapshot::from_bytes(&bytes) {
        Err(SnapshotError::BadMagic { found }) => {
            assert_ne!(found, SNAPSHOT_MAGIC);
        }
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn wrong_version_is_a_typed_error() {
    let mut bytes = victim_bytes();
    // Version is the little-endian u32 right after the 4-byte magic.
    bytes[4..8].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    match Snapshot::from_bytes(&bytes) {
        Err(SnapshotError::UnsupportedVersion { found }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = victim_bytes();
    for len in 0..bytes.len() {
        assert!(
            Snapshot::from_bytes(&bytes[..len]).is_err(),
            "truncation to {len} bytes parsed"
        );
    }
}

#[test]
fn payload_corruption_is_caught_by_the_checksum() {
    // Flip one byte inside the first section's payload: the per-section
    // CRC must reject it. The payload of section "kernel" starts after
    // magic(4) + version(4) + section count(4) + name len(4) + "kernel"
    // + payload len(8) + crc(4).
    let bytes = victim_bytes();
    let payload_start = 4 + 4 + 4 + 4 + "kernel".len() + 8 + 4;
    for delta in [0usize, 7, 31] {
        let mut corrupt = bytes.clone();
        corrupt[payload_start + delta] ^= 0x40;
        match Snapshot::from_bytes(&corrupt) {
            Err(SnapshotError::ChecksumMismatch { section }) => {
                assert_eq!(section, "kernel");
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }
}

#[test]
fn corrupt_component_payload_is_a_typed_error_on_restore() {
    // A snapshot that *parses* (checksums recomputed over garbage) must
    // still fail restore with a typed error, not a panic: here the
    // kernel section claims an out-of-range component in an event.
    let (mut sim, _, _) = build_ring(2, true);
    sim.run_for(50);
    let snap = capture(&mut sim);
    let mut garbled = Snapshot::new();
    for name in snap.section_names() {
        let mut payload = snap.section(name).unwrap().to_vec();
        if name == "kernel" {
            // Saturate a tail chunk: event component indices, seq
            // counters and bounds checks all trip on 0xFF floods.
            let n = payload.len();
            payload[n.saturating_sub(24)..].fill(0xFF);
        }
        garbled.push_section(name.to_string(), payload);
    }
    let reparsed = Snapshot::from_bytes(&garbled.to_bytes()).expect("checksums are consistent");
    let (mut target, _, _) = build_ring(2, true);
    assert!(
        apply(&mut target, &reparsed).is_err(),
        "garbled kernel section restored successfully"
    );
}

#[test]
fn restore_onto_wrong_topology_is_a_mismatch() {
    let (mut sim, _, _) = build_ring(3, true);
    sim.run_for(50);
    let snap = capture(&mut sim);
    let (mut smaller, _, _) = build_ring(2, true);
    match apply(&mut smaller, &snap) {
        Err(SnapshotError::Mismatch { .. }) => {}
        other => panic!("expected Mismatch, got {other:?}"),
    }
}

/// A capture of a 2-LFSR ring taken at time 0, before any run, on the
/// fast or the reference path.
fn time_zero_capture(specialize: bool) -> Snapshot {
    let (mut sim, _, _) = build_ring(2, specialize);
    capture(&mut sim)
}

/// Bytes of one `Start` event in the kernel's event list: time `u64`,
/// delta `u32`, seq `u64`, kind tag `u8`, component `u32`.
const START_EVENT_BYTES: usize = 8 + 4 + 8 + 1 + 4;

/// A time-0 capture whose kernel section holds clock 0's next toggle
/// twice: with its clock, and again as a queued `ClockToggle` event (tag
/// 3, which the event list does not have). The kernel section ends with
/// the ring's one clock entry `(time, seq)`, the event list (a `u64`
/// count, then the two `Start` events) and the `u64` next seq; the
/// splice copies the clock entry into a third event. `push_section`
/// computes fresh checksums, so only the kernel's own checks can reject
/// it.
fn double_toggle_capture() -> Snapshot {
    let clean = time_zero_capture(true);
    let mut kernel = clean.section("kernel").unwrap().to_vec();
    let count_at = kernel.len() - 8 - 2 * START_EVENT_BYTES - 8;
    assert_eq!(kernel[count_at..count_at + 8], 2u64.to_le_bytes());
    kernel[count_at..count_at + 8].copy_from_slice(&3u64.to_le_bytes());
    let (time, seq) = kernel[count_at - 16..count_at].split_at(8);
    let toggle = [time, &0u32.to_le_bytes(), seq, &[3], &0u32.to_le_bytes()].concat();
    let seq_at = kernel.len() - 8;
    kernel.splice(seq_at..seq_at, toggle);
    with_kernel(&clean, kernel)
}

/// `clean` with its kernel section replaced by `kernel`, under fresh
/// checksums, so only the kernel's own checks can reject it.
fn with_kernel(clean: &Snapshot, kernel: Vec<u8>) -> Snapshot {
    let mut spliced = Snapshot::new();
    for name in clean.section_names() {
        let payload = match name {
            "kernel" => kernel.clone(),
            _ => clean.section(name).unwrap().to_vec(),
        };
        spliced.push_section(name.to_string(), payload);
    }
    spliced
}

#[test]
fn a_clock_toggle_held_twice_is_corrupt() {
    // Clean time-0 captures are the same bytes on both paths, restore
    // onto either path and replay the straight run (20 rising edges in
    // 200 ticks)...
    assert!(time_zero_capture(true).to_bytes() == time_zero_capture(false).to_bytes());
    let (mut straight, ids, buses) = build_ring(2, true);
    straight.run_for(200);
    let reference = observe(&straight, &ids, &buses);
    for src in [true, false] {
        for dst in [true, false] {
            let (mut target, ids, buses) = build_ring(2, dst);
            apply(&mut target, &time_zero_capture(src)).expect("clean capture restores");
            target.run_for(200);
            assert_eq!(
                observe(&target, &ids, &buses),
                reference,
                "fast={src} -> fast={dst}"
            );
        }
    }
    // ...while the spliced one is corrupt on either path.
    for dst in [true, false] {
        let (mut target, _, _) = build_ring(2, dst);
        match apply(&mut target, &double_toggle_capture()) {
            Err(SnapshotError::Corrupt { .. }) => {}
            other => panic!("target fast={dst}: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn a_schedule_in_the_past_is_corrupt() {
    // A 2-LFSR ring captured at tick 50: its kernel section ends with
    // the clock's next toggle `(time, seq)` (the falling edge at 55),
    // an empty event list (a `u64` count) and the `u64` next seq.
    let (mut sim, _, _) = build_ring(2, true);
    sim.run_for(50);
    let clean = capture(&mut sim);
    let kernel = clean.section("kernel").unwrap().to_vec();
    let count_at = kernel.len() - 8 - 8;
    let toggle_at = count_at - 16;
    assert_eq!(kernel[count_at..count_at + 8], 0u64.to_le_bytes());
    assert_eq!(kernel[toggle_at..toggle_at + 8], 55u64.to_le_bytes());
    let toggle_at_tick = |tick: u64| {
        let mut k = kernel.clone();
        k[toggle_at..toggle_at + 8].copy_from_slice(&tick.to_le_bytes());
        with_kernel(&clean, k)
    };
    // A `Start` event at tick 5, spliced into the event list.
    let past_event = {
        let mut k = kernel.clone();
        k[count_at..count_at + 8].copy_from_slice(&1u64.to_le_bytes());
        let seq = &kernel[kernel.len() - 8..];
        let start = [&5u64.to_le_bytes()[..], &0u32.to_le_bytes(), seq, &[0], &0u32.to_le_bytes()];
        let at = k.len() - 8;
        k.splice(at..at, start.concat());
        with_kernel(&clean, k)
    };
    for dst in [true, false] {
        let (mut target, _, _) = build_ring(2, dst);
        apply(&mut target, &toggle_at_tick(55)).expect("the clean schedule restores");
        // A toggle before the restored time, a toggle whose next
        // half-period overflows the tick counter, an event before the
        // restored time.
        for (what, snap) in [
            ("toggle at 5", toggle_at_tick(5)),
            ("toggle at u64::MAX - 1", toggle_at_tick(u64::MAX - 1)),
            ("event at 5", past_event.clone()),
        ] {
            let (mut target, _, _) = build_ring(2, dst);
            match apply(&mut target, &snap) {
                Err(SnapshotError::Corrupt { .. }) => {}
                other => panic!("{what}, target fast={dst}: expected Corrupt, got {other:?}"),
            }
        }
    }
}

/// A 4-LFSR ring stopped by its event budget inside the batch of the
/// first rising edge (tick 10): 4 `Start` events, the edge, then 2 of
/// its 4 wakes, so the writes of `lfsr0` and `lfsr1` (to signals 2 and
/// 3, `bus1` and `bus2`) are pending, uncommitted.
fn pending_writes_capture(specialize: bool) -> Snapshot {
    let (mut sim, _, _) = build_ring(4, specialize);
    let summary = sim.run(RunLimit::unbounded().with_max_events(7));
    assert!(summary.stop.unwrap().message().contains("event budget"));
    assert_eq!(sim.time().ticks(), 10);
    capture(&mut sim)
}

#[test]
fn restored_pending_writes_must_match_the_dirty_flags() {
    let clean = pending_writes_capture(true);
    assert!(clean.to_bytes() == pending_writes_capture(false).to_bytes());
    // The kernel section's signal board starts after the time, the four
    // stats and the component count: a `u32` signal count, then per
    // signal (clk, bus0..bus3) `cur: u64, next: u64, dirty: u8`, then
    // the pending list (a `u32` count and `u32` ids).
    let kernel = clean.section("kernel").unwrap().to_vec();
    const SLOT: usize = 8 + 8 + 1;
    let slots_at = 8 + 4 * 8 + 4 + 4;
    let dirty_at = |i: usize| slots_at + i * SLOT + 16;
    let count_at = slots_at + 5 * SLOT;
    assert_eq!(kernel[slots_at - 4..slots_at], 5u32.to_le_bytes());
    assert_eq!(
        (0..5).map(|i| kernel[dirty_at(i)]).collect::<Vec<_>>(),
        [0, 0, 1, 1, 0]
    );
    let list = |ids: &[u32]| -> Vec<u8> {
        let mut bytes = (ids.len() as u32).to_le_bytes().to_vec();
        ids.iter().for_each(|id| bytes.extend(id.to_le_bytes()));
        bytes
    };
    assert_eq!(kernel[count_at..count_at + 12], list(&[2, 3]));
    let with_list = |ids: &[u32]| {
        let mut k = kernel.clone();
        k.splice(count_at..count_at + 12, list(ids));
        with_kernel(&clean, k)
    };
    let signal_3_clean = {
        let mut k = kernel.clone();
        k[dirty_at(3)] = 0;
        with_kernel(&clean, k)
    };

    // The straight run, which no budget interrupted. A run resumed inside
    // a time step counts that step again, so `time_steps` (the last
    // observed value) is left out.
    let until = RunLimit::until(SimTime::from_ticks(200));
    let (mut straight, ids, buses) = build_ring(4, true);
    straight.run(until);
    let mut reference = observe(&straight, &ids, &buses);
    reference.pop();
    for dst in [true, false] {
        let (mut target, ids, buses) = build_ring(4, dst);
        apply(&mut target, &clean).expect("the clean capture restores");
        target.run(until);
        let mut restored = observe(&target, &ids, &buses);
        restored.pop();
        assert_eq!(restored, reference, "target fast={dst}");
        for (what, snap) in [
            ("dirty but not pending", with_list(&[2])),
            ("pending but not dirty", signal_3_clean.clone()),
            ("pending twice", with_list(&[2, 3, 2])),
        ] {
            let (mut target, _, _) = build_ring(4, dst);
            match apply(&mut target, &snap) {
                Err(SnapshotError::Corrupt { .. }) => {}
                other => panic!("{what}, target fast={dst}: expected Corrupt, got {other:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bit flips anywhere in a valid snapshot never panic:
    /// they parse to a typed error, or (flips confined to uncovered
    /// framing like section names) to a snapshot that still restores or
    /// fails restore with a typed error.
    #[test]
    fn random_bit_flips_never_panic(
        byte_seed in 0u64..u64::MAX,
        flips in 1usize..8,
    ) {
        let bytes = victim_bytes();
        let mut corrupt = bytes.clone();
        let mut rng = byte_seed;
        for _ in 0..flips {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pos = (rng >> 24) as usize % corrupt.len();
            let bit = (rng >> 8) as u32 % 8;
            corrupt[pos] ^= 1 << bit;
        }
        if let Ok(snap) = Snapshot::from_bytes(&corrupt) {
            let (mut target, _, _) = build_ring(4, true);
            // Either it restores (flip landed in dead framing) or it is
            // a typed error; both are fine — panicking is not.
            let _ = apply(&mut target, &snap);
        }
    }

    /// Truncation at a random point of a random capture is always typed.
    #[test]
    fn random_truncations_are_typed(cut_permille in 0u64..1000) {
        let bytes = victim_bytes();
        let len = (bytes.len() as u64 * cut_permille / 1000) as usize;
        prop_assert!(Snapshot::from_bytes(&bytes[..len]).is_err());
    }
}
