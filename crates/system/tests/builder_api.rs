//! The builder API contract:
//!
//! * every `BuildError` variant is reachable and typed;
//! * non-CPU masters are first-class: a DMA-only system (zero CPUs)
//!   builds, runs and stops on its own completion;
//! * typed run control: watchpoints, no-progress detection, snapshots.

use dmi_masters::{BurstSpec, DmaConfig, DmaEngine, DmaKind};
use dmi_sw::{workloads, WorkloadCfg};
use dmi_system::{
    mem_base, BuildError, CpuSpec, InterconnectKind, MemSpec, Preset, StopCause, StopCondition,
    SystemBuilder, MEM_WINDOW,
};

#[test]
fn build_errors_are_typed() {
    // Empty system.
    assert!(matches!(
        SystemBuilder::new().build().unwrap_err(),
        BuildError::EmptySystem
    ));

    let wl = WorkloadCfg::default();
    let prog = workloads::alloc_churn(&wl);

    // No memories.
    let mut b = SystemBuilder::new();
    b.add_cpu(CpuSpec::new(prog.clone()));
    assert!(matches!(b.build().unwrap_err(), BuildError::NoMemories));

    // More than 16 masters.
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    for _ in 0..17 {
        b.add_cpu(CpuSpec::new(prog.clone()));
    }
    assert!(matches!(
        b.build().unwrap_err(),
        BuildError::TooManyMasters { count: 17 }
    ));

    // Bad clock period (odd, and below 2).
    for period in [3u64, 0] {
        let mut b = SystemBuilder::new().clock_period(period);
        b.add_cpu(CpuSpec::new(prog.clone()));
        b.add_memory(MemSpec::wrapper(mem_base(0)));
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::BadClockPeriod { .. }
        ));
    }

    // Program too large for its (per-CPU) local memory.
    let mut b = SystemBuilder::new();
    b.add_cpu(CpuSpec::new(prog.clone()).local_mem_size(16));
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    let err = b.build().unwrap_err();
    assert!(
        matches!(err, BuildError::ProgramTooLarge { cpu: 0, have: 16, .. }),
        "{err}"
    );

    // Zero-sized window.
    let mut b = SystemBuilder::new();
    b.add_cpu(CpuSpec::new(prog.clone()));
    b.add_memory(MemSpec::wrapper(mem_base(0)).window(0));
    assert!(matches!(
        b.build().unwrap_err(),
        BuildError::ZeroWindow { .. }
    ));

    // Window wrapping the address space.
    let mut b = SystemBuilder::new();
    b.add_cpu(CpuSpec::new(prog.clone()));
    b.add_memory(MemSpec::wrapper(0xFFFF_0000).window(0x2_0000));
    assert!(matches!(
        b.build().unwrap_err(),
        BuildError::WindowWraps { .. }
    ));

    // Overlapping windows.
    let mut b = SystemBuilder::new();
    b.add_cpu(CpuSpec::new(prog));
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_memory(MemSpec::wrapper(mem_base(0) + MEM_WINDOW / 2));
    let err = b.build().unwrap_err();
    assert!(
        matches!(err, BuildError::OverlappingWindows { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("overlaps"));
}

#[test]
fn variable_window_sizes_validate_and_decode() {
    // A big window followed by a small one directly above it: legal under
    // explicit windows, impossible under the old fixed 64 KiB layout.
    let wl = WorkloadCfg {
        mem_base: 0x9000_0000,
        iterations: 4,
        ..WorkloadCfg::default()
    };
    let mut b = SystemBuilder::new();
    b.add_cpu(CpuSpec::new(workloads::alloc_churn(&wl)));
    let big = b.add_memory(MemSpec::wrapper(0x8000_0000).window(0x0100_0000));
    let small = b.add_memory(MemSpec::wrapper(0x9000_0000).window(0x1000));
    let mut sys = b.build().expect("non-overlapping windows are valid");
    assert_eq!(sys.mem_region(big).size, 0x0100_0000);
    assert_eq!(sys.mem_region(small).base, 0x9000_0000);
    let report = sys.run(50_000_000);
    assert!(report.all_ok(), "{}", report.summary());
    // The workload talked to the *small* window.
    assert!(report.mems[small.index()].backend.allocs > 0);
    assert_eq!(report.mems[big.index()].backend.allocs, 0);
}

#[test]
fn dma_only_system_builds_and_runs() {
    // Zero CPUs: two fill engines stressing one static memory.
    let mut b = SystemBuilder::new();
    let mem = b.add_memory(MemSpec::static_table(0x8000_0000));
    let d0 = b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 0x1000 },
        dst: 0x8000_0000,
        words: 32,
        ..DmaConfig::default()
    })));
    let d1 = b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 0x2000 },
        dst: 0x8000_0400,
        words: 32,
        ..DmaConfig::default()
    })));
    let mut sys = b.build().expect("CPU-less system is valid");
    assert_eq!(sys.cpu_count(), 0);
    assert_eq!(sys.master_count(), 2);

    let report = sys.run(1_000_000);
    assert!(report.finished, "{:?}", report.cause);
    assert_eq!(report.cause, StopCause::AllHalted);
    assert!(report.all_ok());
    assert_eq!(report.masters.len(), 2);
    for m in &report.masters {
        assert_eq!(m.kind, "dma");
        assert!(m.stats.done);
        assert_eq!(m.stats.transactions, 32);
    }
    assert_eq!(report.masters[0].name, "dma0");
    assert_eq!(report.masters[1].name, "dma1");
    assert_eq!(sys.master_stats(d0).transactions, 32);
    assert_eq!(sys.master_stats(d1).transactions, 32);
    // Both engines' patterns landed (mid-run observation hook, post-run).
    assert_eq!(sys.watch_value(mem, 0), Some(0x1000));
    assert_eq!(sys.watch_value(mem, 0x400), Some(0x2000));
    // The bus saw both masters.
    assert_eq!(report.bus.transactions, 64);
}

#[test]
fn cpus_and_dma_share_the_interconnect() {
    let wl = WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 8,
        ..WorkloadCfg::default()
    };
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    let stress = b.add_memory(MemSpec::static_table(mem_base(1)));
    b.add_cpu(CpuSpec::new(workloads::alloc_churn(&wl)));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 7 },
        dst: mem_base(1),
        words: 64,
        passes: 4,
        ..DmaConfig::default()
    })));
    let mut sys = b.build().unwrap();
    let report = sys.run(50_000_000);
    assert!(report.all_ok(), "{}", report.summary());
    assert_eq!(report.cpus.len(), 1);
    assert_eq!(report.masters.len(), 1);
    assert!(report.masters[0].stats.bus_wait_cycles > 0 || report.bus.transactions > 0);
    assert_eq!(
        sys.watch_value(stress, 63 * 4),
        Some(DmaConfig::fill_word(7, 64, 3, 63))
    );
}

#[test]
fn watchpoint_stops_mid_run() {
    // A DMA fill marches through a static memory; watch for the moment a
    // late word appears, well before the engine finishes all passes.
    let mut b = SystemBuilder::new();
    let mem = b.add_memory(MemSpec::static_table(0x8000_0000));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 0xAA00 },
        dst: 0x8000_0000,
        words: 256,
        passes: 64,
        ..DmaConfig::default()
    })));
    let mut sys = b.build().unwrap();
    let watched = DmaConfig::fill_word(0xAA00, 256, 0, 128);
    let cond = StopCondition::watch_word(mem, 128 * 4, watched)
        .or(StopCondition::cycles(10_000_000))
        .poll_every(64);
    let report = sys.run_until(&cond);
    assert_eq!(report.cause, StopCause::Watchpoint(0), "{}", report.summary());
    assert!(!report.finished);
    assert_eq!(sys.watch_value(mem, 128 * 4), Some(watched));
    // Resume to completion: the same system keeps running.
    let rest = sys.run_until(&StopCondition::cycles(50_000_000));
    assert_eq!(rest.cause, StopCause::AllHalted);
    assert!(rest.masters[0].stats.done);
}

#[test]
fn watchpoint_inspects_simheap_memories() {
    // Regression for the ROADMAP open item: `watch_word` on SimHeap
    // systems used to return `None` forever (no inspection path into the
    // simulated arena) so watchpoints could never fire. A scalar_rw
    // workload writes its iteration counter (counting down) into the
    // first allocation, whose vptr is the arena offset 4 (first-fit from
    // the arena base, payload after the boundary tag).
    let wl = WorkloadCfg::at(mem_base(0)).iterations(100).buf_words(1);
    let mut b = SystemBuilder::new();
    let mem = b.add_memory(MemSpec::simheap(mem_base(0)));
    b.add_cpu(CpuSpec::new(workloads::scalar_rw(&wl)));
    let mut sys = b.build().unwrap();

    let cond = StopCondition::watch_word(mem, 4, 50)
        .or(StopCondition::cycles(50_000_000))
        .poll_every(16);
    let report = sys.run_until(&cond);
    assert_eq!(report.cause, StopCause::Watchpoint(0), "{}", report.summary());
    assert!(!report.finished);
    assert_eq!(sys.watch_value(mem, 4), Some(50));

    // Resume to completion: the loop counts down to 1.
    let rest = sys.run_until(&StopCondition::cycles(100_000_000));
    assert_eq!(rest.cause, StopCause::AllHalted, "{}", rest.summary());
    assert!(rest.all_ok());
    assert_eq!(sys.watch_value(mem, 4), Some(1));
    // Out-of-arena locations still observe nothing.
    assert_eq!(sys.watch_value(mem, 0xFFFF_FFF0), None);
}

#[test]
fn no_progress_detects_an_idle_system() {
    // A throttled DMA: after its first transfer it sits idle for far
    // longer than the no-progress window.
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::static_table(0x8000_0000));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 1 },
        dst: 0x8000_0000,
        words: 2,
        gap_cycles: 1_000_000,
        ..DmaConfig::default()
    })));
    let mut sys = b.build().unwrap();
    let report = sys.run_until(
        &StopCondition::no_progress(2_000)
            .or(StopCondition::cycles(100_000))
            .poll_every(128),
    );
    assert_eq!(report.cause, StopCause::NoProgress, "{}", report.summary());
    assert!(!report.finished);
}

#[test]
fn report_now_observes_without_advancing() {
    let wl = WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 50,
        ..WorkloadCfg::default()
    };
    let mut b = SystemBuilder::new();
    b.add_cpu(CpuSpec::new(workloads::alloc_churn(&wl)));
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    let mut sys = b.build().unwrap();
    let mid = sys.run_until(&StopCondition::cycles(5_000));
    assert_eq!(mid.cause, StopCause::CycleBudget);
    let snap = sys.report_now();
    assert_eq!(snap.sim_cycles, mid.sim_cycles, "snapshot does not advance");
    assert_eq!(
        snap.cpus[0].isa.instructions,
        mid.cpus[0].isa.instructions
    );
    let snap2 = sys.report_now();
    assert_eq!(snap2.sim_cycles, snap.sim_cycles);
    // Finish the workload; per-epoch cycles restart with the new call.
    let done = sys.run_until(&StopCondition::all_halted().or(StopCondition::cycles(
        100_000_000,
    )));
    assert_eq!(done.cause, StopCause::AllHalted);
    assert!(done.all_ok());
    assert!(
        done.cpus[0].isa.instructions > mid.cpus[0].isa.instructions,
        "component counters are cumulative"
    );
    // A snapshot taken after completion reflects the live halted state.
    let final_snap = sys.report_now();
    assert_eq!(final_snap.cause, StopCause::AllHalted);
    assert!(final_snap.all_ok(), "post-completion snapshot is all_ok");
}

#[test]
fn presets_toggle_grant_retention() {
    let wl = WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 8,
        burst_len: 32,
        ..WorkloadCfg::default()
    };
    let run_with = |preset| {
        let mut b = SystemBuilder::new().preset(preset);
        b.add_memory(MemSpec::wrapper(mem_base(0)));
        b.add_cpu(CpuSpec::new(workloads::burst_copy(&wl)));
        let mut sys = b.build().unwrap();
        sys.run(u64::MAX / 4)
    };
    let seed = run_with(Preset::SeedTiming);
    let thr = run_with(Preset::Throughput);
    assert!(seed.all_ok() && thr.all_ok());
    assert_eq!(seed.bus.retained_grants, 0, "seed timing retains nothing");
    assert!(thr.bus.retained_grants > 0, "throughput preset retains grants");
    assert!(
        thr.sim_cycles < seed.sim_cycles,
        "retention saves simulated cycles: {} vs {}",
        thr.sim_cycles,
        seed.sim_cycles
    );
    // Seed timing is the default (no preset = same cycles).
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_cpu(CpuSpec::new(workloads::burst_copy(&wl)));
    let default_run = b.build().unwrap().run(u64::MAX / 4);
    assert_eq!(default_run.sim_cycles, seed.sim_cycles);
}

#[test]
fn burst_dma_exercises_the_io_array_path_under_both_presets() {
    // Two burst-mode fill engines allocate their own blocks in one
    // wrapper memory and stream them through WriteBurst/ReadBurst DATA
    // beats — the slave-side banked I/O arrays — with self-verification.
    let run_with = |preset, engines: u32| {
        let mut b = SystemBuilder::new().preset(preset);
        let mem = b.add_memory(MemSpec::wrapper(mem_base(0)));
        for i in 0..engines {
            b.add_master(Box::new(DmaEngine::new(DmaConfig {
                kind: DmaKind::Fill { seed: 0x1000 * (i + 1) },
                dst: mem_base(0),
                words: 64,
                passes: 2,
                burst: Some(BurstSpec {
                    beats: 16,
                    verify: true,
                    at: None,
                }),
                ..DmaConfig::default()
            })));
        }
        let mut sys = b.build().unwrap();
        let report = sys.run(10_000_000);
        (report, sys, mem)
    };
    let (seed, seed_sys, seed_mem) = run_with(Preset::SeedTiming, 2);
    let (thr, _, _) = run_with(Preset::Throughput, 2);
    for r in [&seed, &thr] {
        assert!(r.all_ok(), "{}", r.summary());
        for m in &r.masters {
            assert!(m.stats.done);
            assert!(m.stats.transactions > 64, "MMIO dialogue, not scalar stores");
        }
        // Both engines' payloads crossed the banked I/O arrays:
        // 2 x (128 write beats + 64 verify read beats).
        assert_eq!(r.mems[0].backend.burst_beats, 2 * 192);
        assert_eq!(r.mems[0].backend.allocs, 2);
    }
    assert_eq!(seed.bus.retained_grants, 0);
    // With two contending masters the arbiter alternates grants, so
    // retention shows on a solo engine's uncontended MMIO stream.
    let (thr_solo, _, _) = run_with(Preset::Throughput, 1);
    assert!(
        thr_solo.bus.retained_grants > 0,
        "retention engages on MMIO streams"
    );
    // The engines allocated consecutive wrapper vptrs (0, then 64 words):
    // the final pass's pattern is observable through the watch hook.
    assert_eq!(
        seed_sys.watch_value(seed_mem, 0),
        Some(DmaConfig::fill_word(0x1000, 64, 1, 0))
    );
    assert_eq!(
        seed_sys.watch_value(seed_mem, 64 * 4),
        Some(DmaConfig::fill_word(0x2000, 64, 1, 0))
    );
}

#[test]
fn crossbar_preset_applies_too() {
    let wl = WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 4,
        burst_len: 16,
        ..WorkloadCfg::default()
    };
    let mut b = SystemBuilder::new()
        .interconnect(InterconnectKind::Crossbar(dmi_interconnect_crossbar_cfg()))
        .preset(Preset::Throughput);
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_cpu(CpuSpec::new(workloads::burst_copy(&wl)));
    let mut sys = b.build().unwrap();
    let r = sys.run(u64::MAX / 4);
    assert!(r.all_ok());
    assert!(r.bus.retained_grants > 0);
}

/// Crossbar config with a nonzero arbitration latency, so grant
/// retention has a phase to skip.
fn dmi_interconnect_crossbar_cfg() -> dmi_interconnect::CrossbarConfig {
    dmi_interconnect::CrossbarConfig {
        arbitration_latency: 1,
        ..Default::default()
    }
}

#[test]
fn burst_dma_drives_static_protocol_through_the_builder() {
    // Closes the PR 4 open item: the protocol-speaking static table
    // (`StaticTableBackend` behind a `MemoryModule`) is a `MemSpec`
    // variant, so a burst DMA can stream the traditional baseline's
    // banked I/O arrays without the manual wiring the `dmi-masters`
    // tests used. The baseline has no ALLOC, so the engine streams at a
    // fixed table offset (`BurstSpec::at`; on this model a vptr *is* a
    // byte offset) — write passes plus a read-back verify pass.
    let mut b = SystemBuilder::new();
    let mem = b.add_memory(MemSpec::static_protocol(mem_base(0)));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 0x5A00 },
        dst: mem_base(0),
        words: 32,
        passes: 2,
        burst: Some(BurstSpec {
            beats: 8,
            verify: true,
            at: Some(0x40),
        }),
        ..DmaConfig::default()
    })));
    let mut sys = b.build().unwrap();
    let report = sys.run(1_000_000);
    assert!(report.all_ok(), "{}", report.summary());
    assert_eq!(report.mems[0].kind, "static-protocol");
    // The payload went through the slave-side banked I/O arrays:
    // 2 × 32 write beats plus 32 verify read beats, zero mismatches.
    assert_eq!(report.mems[0].backend.burst_beats, 96);
    assert_eq!(report.mems[0].backend.errors, 0);
    // …and the final pass's pattern is observable through the same
    // watch hook as the other protocol models (location = byte offset
    // into the table).
    assert_eq!(
        sys.watch_value(mem, 0x40 + 31 * 4),
        Some(DmaConfig::fill_word(0x5A00, 32, 1, 31))
    );
    assert_eq!(sys.watch_value(mem, 0xFFFF_FFF0), None, "out of bounds");
}

#[test]
fn burst_dma_against_static_protocol_reports_the_baseline_limit() {
    // Burst engines self-ALLOC their block; the static baseline answers
    // allocation commands `Unsupported` *by design* (that limitation is
    // the paper's starting point). Through the builder, the engine must
    // retire with a protocol error instead of hanging — the same
    // contract `crates/masters` pinned with manual wiring.
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::static_protocol(mem_base(0)));
    let dma = b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 1 },
        dst: mem_base(0),
        words: 8,
        burst: Some(BurstSpec::default()),
        ..DmaConfig::default()
    })));
    let mut sys = b.build().unwrap();
    let report = sys.run(1_000_000);
    let stats = sys.master_stats(dma);
    assert!(stats.done, "engine retires instead of hanging");
    assert_eq!(report.mems[0].backend.errors, 1, "the rejected ALLOC");
    assert_eq!(report.mems[0].backend.burst_beats, 0, "no payload moved");
}

#[test]
fn fast_path_counters_surface_in_reports() {
    // The PR 4/PR 5 fast-path counters (quiet flips, calendar
    // dispatches) come back per run through `RunReport::fast_path`, and
    // the calendar A/B knob changes *only* host-side behaviour: same
    // cycles, same `KernelStats`, different serving path.
    let run_with = |calendar: bool| {
        let wl = WorkloadCfg::at(mem_base(0)).iterations(8);
        let mut b = SystemBuilder::new().clock_calendar(calendar);
        b.add_memory(MemSpec::wrapper(mem_base(0)));
        b.add_cpu(CpuSpec::new(workloads::scalar_rw(&wl)));
        let mut sys = b.build().unwrap();
        let r = sys.run(10_000_000);
        assert!(r.all_ok(), "{}", r.summary());
        r
    };
    let on = run_with(true);
    let off = run_with(false);
    assert_eq!(on.sim_cycles, off.sim_cycles, "bit-identical simulation");
    assert_eq!(on.kernel, off.kernel);
    assert_eq!(on.fast_path.clock_toggles, off.fast_path.clock_toggles);
    assert!(on.fast_path.clock_toggles > 0);
    assert_eq!(
        on.fast_path.calendar_toggles, on.fast_path.clock_toggles,
        "calendar serves every toggle when on"
    );
    assert_eq!(off.fast_path.calendar_toggles, 0);
    assert_eq!(on.fast_path.quiet_toggles, off.fast_path.quiet_toggles);
    assert!(on.kernel_summary().contains("toggles"), "{}", on.kernel_summary());

    // Snapshots report the same epoch deltas.
    let wl = WorkloadCfg::at(mem_base(0)).iterations(4);
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_cpu(CpuSpec::new(workloads::scalar_rw(&wl)));
    let mut sys = b.build().unwrap();
    let r = sys.run(10_000_000);
    let snap = sys.report_now();
    assert_eq!(snap.fast_path, r.fast_path);
}

#[test]
fn hung_scenario_watchdog_fires_within_one_poll_slice() {
    // A scenario that never halts (a DMA fill with a u32::MAX pass
    // budget), guarded by an explicit-granularity wall-clock watchdog:
    // the run must come back with StopCause::WallClock, must land on a
    // poll-slice boundary (the documented quantisation), and must stop
    // far below the cycle budget.
    use std::time::Duration;

    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 9 },
        dst: mem_base(0),
        words: 8,
        passes: u32::MAX,
        ..DmaConfig::default()
    })));
    let mut sys = b.build().expect("hung system builds");

    let poll = 64;
    let budget = Duration::from_millis(50);
    // Timing the watchdog requires reading the wall.
    #[allow(clippy::disallowed_methods)]
    let t0 = std::time::Instant::now();
    let cond = StopCondition::cycles(u64::MAX / 4)
        .or(StopCondition::wall_clock_every(budget, poll));
    let r = sys.run_until(&cond);
    assert_eq!(r.cause, StopCause::WallClock, "{}", r.summary());
    assert!(!r.finished);
    assert!(t0.elapsed() >= budget, "stopped before the deadline");
    assert_eq!(
        r.sim_cycles % poll,
        0,
        "wall-clock stop must land on a poll boundary ({} cycles, poll {poll})",
        r.sim_cycles
    );
    assert!(
        r.sim_cycles < u64::MAX / 8,
        "watchdog, not the cycle budget, must have ended the run"
    );
}
