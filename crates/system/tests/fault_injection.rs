//! Deterministic fault injection, end to end: the empty-plan twin is
//! cycle-bit-identical to a fault-free build across kernel
//! configurations, seeded plans replay exactly, each protocol backend
//! survives directed faults under the DMA retry policy, and exhausted
//! recovery escalates into the typed `StopCause::Fault`.

use std::time::Duration;

use dmi_core::{Opcode, Status};
use dmi_gsm::pipeline::{self, PipelineCfg};
use dmi_masters::{BurstSpec, DmaConfig, DmaEngine, DmaKind, RetryPolicy};
use dmi_system::{
    mem_base, CpuSpec, FaultKind, FaultPlan, FaultSite, FaultSpec, FaultTrigger, McSystem, MemSpec,
    RunReport, StopCause, StopCondition, SystemBuilder,
};

/// The headline experiment's pinned cycle count (GSM pipeline, 2
/// frames, 1 wrapper memory, seed 0x5EED — the `exp_headline` bench
/// configuration) — the number every fast-path twin in the repo is
/// measured against.
const HEADLINE_CYCLES: u64 = 436_964;

/// Builds and runs the headline GSM configuration with the clock
/// calendar pinned on or off and an optional fault plan.
fn gsm_run(calendar: bool, plan: Option<FaultPlan>, enabled: bool) -> RunReport {
    let cfg = PipelineCfg {
        n_frames: 2,
        mem_bases: vec![mem_base(0)],
        seed: 0x5EED,
    };
    let mut b = SystemBuilder::new().clock_calendar(calendar);
    if let Some(p) = plan {
        b = b.faults(p).fault_injection(enabled);
    }
    for program in pipeline::stage_programs(&cfg) {
        b.add_cpu(CpuSpec::new(program));
    }
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    let mut sys = b.build().expect("gsm pipeline system");
    let r = sys.run(u64::MAX / 4);
    assert!(r.all_ok(), "{}", r.summary());
    r
}

#[test]
fn empty_plan_is_cycle_bit_identical_across_kernel_configs() {
    // The tentpole discipline: compiling the fault hooks in and wiring
    // an *empty* plan must not move a single cycle, with the clock
    // calendar on or off.
    for calendar in [true, false] {
        let base = gsm_run(calendar, None, true);
        let twin = gsm_run(calendar, Some(FaultPlan::new(0xF00D)), true);
        assert_eq!(
            base.sim_cycles, twin.sim_cycles,
            "empty plan moved cycles under calendar={calendar}"
        );
        assert_eq!(base.sim_cycles, HEADLINE_CYCLES);
        assert!(!twin.faults.any(), "empty plan injected something");
        assert_eq!(base.kernel.events, twin.kernel.events);
    }
}

#[test]
fn disabled_controller_with_nonempty_plan_is_inert() {
    // The runtime toggle, pinned at build time: a plan full of faults
    // with injection off is the same simulation as no plan at all.
    let plan = FaultPlan::new(1).with(FaultSpec::new(
        FaultSite::MemOp {
            mem: 0,
            op: None,
            master: None,
        },
        FaultTrigger::Every { first: 1, period: 1 },
        FaultKind::Status(Status::Busy),
    ));
    let twin = gsm_run(true, Some(plan), false);
    assert_eq!(twin.sim_cycles, HEADLINE_CYCLES);
    assert!(!twin.faults.any());
}

/// A lossy-slave DMA scenario: one burst fill engine with a retry
/// policy against one wrapper memory carrying the given plan.
fn lossy_dma_sys(plan: FaultPlan) -> McSystem {
    let mut b = SystemBuilder::new().faults(plan).fault_injection(true);
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 0xC0DE },
        dst: mem_base(0),
        words: 64,
        passes: 2,
        burst: Some(BurstSpec {
            beats: 16,
            verify: false,
            at: None,
        }),
        retry: Some(RetryPolicy {
            max_retries: 10,
            backoff_cycles: 4,
            escalate: false,
        }),
        ..DmaConfig::default()
    })));
    b.build().expect("lossy dma system")
}

fn lossy_plan() -> FaultPlan {
    FaultPlan::new(0xDEAD_BEEF)
        .with(FaultSpec::new(
            FaultSite::MemOp {
                mem: 0,
                op: None,
                master: None,
            },
            // ~1/8 of commands answer Busy.
            FaultTrigger::Random {
                threshold: 0x2000_0000,
            },
            FaultKind::Status(Status::Busy),
        ))
        .with(FaultSpec::new(
            FaultSite::MemBeat {
                mem: 0,
                master: None,
                writing: Some(true),
            },
            // ~1/64 of write beats kill the burst.
            FaultTrigger::Random {
                threshold: 0x0400_0000,
            },
            FaultKind::AbortBurst,
        ))
        .with(FaultSpec::new(
            FaultSite::BusAccess { master: None },
            // ~1/16 of grants stall four extra cycles.
            FaultTrigger::Random {
                threshold: 0x1000_0000,
            },
            FaultKind::GrantStall { cycles: 4 },
        ))
}

#[test]
fn seeded_fault_scenario_replays_bit_identically() {
    // Same plan + seed => same cycles and the same FaultStats, run after
    // run.
    let mut reports = Vec::new();
    for _ in 0..3 {
        let mut sys = lossy_dma_sys(lossy_plan());
        let r = sys.run(10_000_000);
        assert!(r.all_ok(), "{}", r.summary());
        reports.push(r);
    }
    let first = &reports[0];
    assert!(first.faults.injected > 0, "lossy plan never fired");
    assert!(first.faults.retried > 0, "faults never forced a retry");
    assert!(first.faults.recovered > 0, "retries never recovered");
    assert_eq!(first.faults.escalated, 0);
    for r in &reports[1..] {
        assert_eq!(first.sim_cycles, r.sim_cycles, "replay moved cycles");
        assert_eq!(first.faults, r.faults, "replay changed the fault schedule");
        assert_eq!(first.masters[0].stats, r.masters[0].stats);
    }
}

/// One burst engine with the default retry policy against `mem`,
/// faulted by `plan`; returns the finished report.
fn directed_run(mem: MemSpec, plan: FaultPlan, burst: BurstSpec) -> RunReport {
    let mut b = SystemBuilder::new().faults(plan).fault_injection(true);
    b.add_memory(mem);
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 0x5A00 },
        dst: mem_base(0),
        words: 32,
        passes: 1,
        burst: Some(burst),
        retry: Some(RetryPolicy::default()),
        ..DmaConfig::default()
    })));
    let mut sys = b.build().expect("directed fault system");
    sys.run(10_000_000)
}

#[test]
fn nth_alloc_status_fault_recovers_on_both_dynamic_backends() {
    // The first ALLOC answers Locked exactly once; the retry policy
    // re-issues the dialogue and the transfer completes on wrapper and
    // simheap alike.
    for mem in [MemSpec::wrapper(mem_base(0)), MemSpec::simheap(mem_base(0))] {
        let plan = FaultPlan::new(3).with(
            FaultSpec::new(
                FaultSite::MemOp {
                    mem: 0,
                    op: Some(Opcode::Alloc),
                    master: None,
                },
                FaultTrigger::Nth(1),
                FaultKind::Status(Status::Locked),
            )
            .limit(1),
        );
        let r = directed_run(
            mem,
            plan,
            BurstSpec {
                beats: 8,
                verify: false,
                at: None,
            },
        );
        assert!(r.all_ok(), "{}", r.summary());
        let s = &r.masters[0].stats;
        assert!(s.retries >= 1, "no retry recorded");
        assert!(s.recovered >= 1, "recovery not recorded");
        assert_eq!(s.fault, None);
        assert_eq!(s.error_statuses.get(Status::Locked), 1);
        assert_eq!(r.faults.injected, 1);
        assert_eq!(r.faults.mem_ops, 1);
        assert_eq!(r.faults.per_spec, vec![1]);
    }
}

#[test]
fn chunk_status_fault_recovers_on_static_protocol() {
    // The allocation-less baseline: the engine streams at a fixed table
    // offset, the first WriteBurst command is faulted, the chunk
    // dialogue is retried.
    let plan = FaultPlan::new(4).with(
        FaultSpec::new(
            FaultSite::MemOp {
                mem: 0,
                op: Some(Opcode::WriteBurst),
                master: None,
            },
            FaultTrigger::Nth(1),
            FaultKind::Status(Status::Busy),
        )
        .limit(1),
    );
    let r = directed_run(
        MemSpec::static_protocol(mem_base(0)),
        plan,
        BurstSpec {
            beats: 8,
            verify: true,
            at: Some(0x40),
        },
    );
    assert!(r.all_ok(), "{}", r.summary());
    let s = &r.masters[0].stats;
    assert!(s.retries >= 1);
    assert!(s.recovered >= 1);
    assert_eq!(s.error_statuses.get(Status::Busy), 1);
    assert_eq!(r.faults.mem_ops, 1);
    // The payload still landed intact: the verify pass read every word
    // back clean.
    assert_eq!(r.masters[0].stats.fault, None);
}

#[test]
fn write_beat_bit_flip_is_caught_by_the_verify_pass() {
    // Data corruption, not status: the 5th write beat is XOR-flipped on
    // its way into the backend, so exactly one verify read-back
    // mismatches — the legacy sequencing carries on (a flip is silent at
    // the protocol level).
    let plan = FaultPlan::new(5).with(
        FaultSpec::new(
            FaultSite::MemBeat {
                mem: 0,
                master: None,
                writing: Some(true),
            },
            FaultTrigger::Nth(5),
            FaultKind::FlipData { mask: 0x8000_0001 },
        )
        .limit(1),
    );
    let mut b = SystemBuilder::new().faults(plan).fault_injection(true);
    let mem = b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 0x5A00 },
        dst: mem_base(0),
        words: 32,
        passes: 1,
        burst: Some(BurstSpec {
            beats: 8,
            verify: true,
            at: None,
        }),
        retry: None, // a flip is silent at the protocol level
        ..DmaConfig::default()
    })));
    let mut sys = b.build().expect("bit-flip system");
    let r = sys.run(10_000_000);
    assert!(r.all_ok(), "{}", r.summary());
    assert_eq!(r.faults.mem_beats, 1);
    assert_eq!(r.faults.injected, 1);
    // The 5th write beat (word index 4) landed flipped; its neighbours
    // are clean. (Wrapper vptrs start at 0, so the watch location is the
    // word's byte offset.)
    let expect = |w| DmaConfig::fill_word(0x5A00, 32, 0, w);
    assert_eq!(sys.watch_value(mem, 4 * 4), Some(expect(4) ^ 0x8000_0001));
    assert_eq!(sys.watch_value(mem, 3 * 4), Some(expect(3)));
    assert_eq!(sys.watch_value(mem, 5 * 4), Some(expect(5)));
}

#[test]
fn aborted_burst_is_retried_and_recovers() {
    // A burst killed mid-chunk: the sticky dead status surfaces at the
    // chunk's post-transfer STATUS check, the chunk is replayed from its
    // own setup, and the transfer completes.
    let plan = FaultPlan::new(6).with(
        FaultSpec::new(
            FaultSite::MemBeat {
                mem: 0,
                master: None,
                writing: Some(true),
            },
            FaultTrigger::Nth(3),
            FaultKind::AbortBurst,
        )
        .limit(1),
    );
    let r = directed_run(
        MemSpec::wrapper(mem_base(0)),
        plan,
        BurstSpec {
            beats: 8,
            verify: true,
            at: None,
        },
    );
    assert!(r.all_ok(), "{}", r.summary());
    let s = &r.masters[0].stats;
    assert!(s.retries >= 1, "abort must force a chunk retry");
    assert!(s.recovered >= 1);
    assert!(s.error_statuses.get(Status::OutOfBounds) >= 1);
    assert_eq!(s.fault, None);
    assert_eq!(r.faults.mem_beats, 1);
}

#[test]
fn exhausted_retries_escalate_to_a_typed_fault_stop() {
    // Every ALLOC fails, forever: the engine retries per policy, gives
    // up, and (escalate = true) stops the whole run with the typed
    // cause instead of hanging or retiring quietly.
    let plan = FaultPlan::new(7).with(FaultSpec::new(
        FaultSite::MemOp {
            mem: 0,
            op: Some(Opcode::Alloc),
            master: None,
        },
        FaultTrigger::Every { first: 1, period: 1 },
        FaultKind::Status(Status::OutOfMemory),
    ));
    let mut b = SystemBuilder::new().faults(plan).fault_injection(true);
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 1 },
        dst: mem_base(0),
        words: 16,
        passes: 1,
        burst: Some(BurstSpec {
            beats: 8,
            verify: false,
            at: None,
        }),
        retry: Some(RetryPolicy {
            max_retries: 2,
            backoff_cycles: 1,
            escalate: true,
        }),
        ..DmaConfig::default()
    })));
    let mut sys = b.build().expect("escalating system");
    let r = sys.run(10_000_000);
    assert!(!r.all_ok());
    let fr = match r.cause {
        StopCause::Fault(fr) => fr,
        other => panic!("expected StopCause::Fault, got {other:?}: {:?}", r.error),
    };
    assert_eq!(fr.master, 0);
    assert_eq!(fr.error.retries, 2, "policy allowed 2 retries");
    assert_eq!(fr.error.status, Some(Status::OutOfMemory));
    assert!(r.error.as_deref().is_some_and(|e| e.starts_with("fault:")), "{:?}", r.error);
    assert_eq!(r.faults.escalated, 1);
    assert_eq!(r.faults.retried, 2);
    assert_eq!(r.masters[0].stats.fault, Some(fr.error));
    // 1 first attempt + 2 retries, every dialogue observed the status.
    assert_eq!(r.masters[0].stats.error_statuses.get(Status::OutOfMemory), 3);
}

#[test]
fn wall_clock_deadline_stops_a_runaway_run() {
    // A workload that never finishes, bounded by host time: the run
    // comes back with StopCause::WallClock instead of spinning until the
    // cycle budget.
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 2 },
        dst: mem_base(0),
        words: 4,
        passes: u32::MAX,
        ..DmaConfig::default()
    })));
    let mut sys = b.build().expect("runaway system");
    // Timing the wall-clock stop condition requires reading the wall.
    #[allow(clippy::disallowed_methods)]
    let t0 = std::time::Instant::now();
    let r = sys.run_until(&StopCondition::wall_clock(Duration::from_millis(30)));
    assert_eq!(r.cause, StopCause::WallClock);
    assert!(!r.finished);
    assert!(t0.elapsed() >= Duration::from_millis(30));
}
