//! System-state capture, end to end: a run resumed from a checkpoint is
//! cycle-bit-identical to the uninterrupted original — on the headline
//! GSM pipeline across calendar placements, under live fault injection, from periodic crash-safe checkpoints, and
//! through the warm-fork API. Cache counters (decoded-instruction cache,
//! pointer-table TLB) are the one documented exception: they are rebuilt
//! cold after restore, never serialized.

use std::time::Duration;

use dmi_core::Status;
use dmi_gsm::pipeline::{self, PipelineCfg};
use dmi_masters::{BurstSpec, DmaConfig, DmaEngine, DmaKind, RetryPolicy};
use dmi_sw::{workloads, WorkloadCfg};
use dmi_system::{
    mem_base, CpuSpec, FaultKind, FaultPlan, FaultSite, FaultSpec, FaultTrigger, McSystem, MemSpec,
    RunReport, SnapshotError, StopCause, StopCondition, SystemBuilder,
};
use proptest::prelude::*;

/// The headline experiment's pinned cycle count (GSM pipeline, 2 frames,
/// 1 wrapper memory, seed 0x5EED).
const HEADLINE_CYCLES: u64 = 436_964;

/// Normalizes a report for restored-vs-continuous comparison: wall time
/// is host-side, and the cache counters legitimately diverge because a
/// restored system rebuilds its validated caches cold.
fn fingerprint(r: &RunReport) -> String {
    let mut r = r.clone();
    r.wall = Duration::ZERO;
    for c in &mut r.cpus {
        c.isa.icache_hits = 0;
        c.isa.icache_misses = 0;
    }
    for m in &mut r.mems {
        m.backend.tlb_hits = 0;
        m.backend.tlb_misses = 0;
    }
    format!("{r:?}")
}

/// Further drops the kernel and fast-path counters, so cross-twin
/// restores compare on the architectural outcome only (the fast-path
/// counters differ *by construction* between calendar placements).
fn functional_fingerprint(r: &RunReport) -> String {
    let mut r = r.clone();
    r.kernel = Default::default();
    r.fast_path = Default::default();
    fingerprint(&r)
}

/// The headline GSM pipeline with the clock calendar pinned on or off,
/// with the fault layer compiled in (an empty seeded plan, so the
/// controller's RNG stream state rides through every snapshot).
fn gsm_system(calendar: bool) -> McSystem {
    let cfg = PipelineCfg {
        n_frames: 2,
        mem_bases: vec![mem_base(0)],
        seed: 0x5EED,
    };
    let mut b = SystemBuilder::new()
        .clock_calendar(calendar)
        .faults(FaultPlan::new(0xF00D))
        .fault_injection(true);
    for program in pipeline::stage_programs(&cfg) {
        b.add_cpu(CpuSpec::new(program));
    }
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.build().expect("gsm pipeline system")
}

fn run_to_completion(sys: &mut McSystem) -> RunReport {
    sys.run(u64::MAX / 4)
}

#[test]
fn headline_restore_is_cycle_bit_identical_across_kernel_twins() {
    // Split the continuous run at a fixed cycle, checkpoint there, and
    // finish both the original and a restored twin: every counter that
    // is state (not cache) must match, and the two halves must add up
    // to the pinned headline total — under both calendar placements.
    const SPLIT: u64 = 200_000;
    for calendar in [true, false] {
        let label = format!("calendar={calendar}");
        let mut cont = gsm_system(calendar);
        let first = cont.run_until(&StopCondition::cycles(SPLIT));
        assert_eq!(first.cause, StopCause::CycleBudget, "{label}");
        assert_eq!(first.sim_cycles, SPLIT, "{label}");
        let snap = cont.checkpoint();
        let cont_rest = run_to_completion(&mut cont);
        assert!(cont_rest.all_ok(), "{label}: {}", cont_rest.summary());
        assert_eq!(
            first.sim_cycles + cont_rest.sim_cycles,
            HEADLINE_CYCLES,
            "{label}: checkpointing moved the headline cycle count"
        );

        let mut twin = gsm_system(calendar);
        twin.restore(&snap).expect("restore onto identical twin");
        let twin_rest = run_to_completion(&mut twin);
        assert!(twin_rest.all_ok(), "{label}: {}", twin_rest.summary());
        assert_eq!(
            fingerprint(&twin_rest),
            fingerprint(&cont_rest),
            "{label}: restored run diverged from the continuous one"
        );
    }
}

#[test]
fn snapshots_transfer_across_queue_and_calendar_twins() {
    // A snapshot taken with the clock calendar on restores onto a
    // queued-toggle twin (and completes with the identical
    // architectural outcome): the snapshot carries the schedule, the
    // target chooses where the clock toggles wait.
    const SPLIT: u64 = 150_000;
    let mut src = gsm_system(true);
    src.run_until(&StopCondition::cycles(SPLIT));
    let snap = src.checkpoint();
    let src_rest = run_to_completion(&mut src);
    assert!(src_rest.all_ok(), "{}", src_rest.summary());

    let mut twin = gsm_system(false);
    twin.restore(&snap).expect("cross-twin restore");
    let twin_rest = run_to_completion(&mut twin);
    assert!(twin_rest.all_ok(), "{}", twin_rest.summary());
    assert_eq!(
        functional_fingerprint(&twin_rest),
        functional_fingerprint(&src_rest),
        "cross-twin restore changed the architectural outcome"
    );
    assert_eq!(src_rest.sim_cycles, twin_rest.sim_cycles);
    assert_eq!(SPLIT + twin_rest.sim_cycles, HEADLINE_CYCLES);
}

#[test]
fn periodic_checkpointing_supports_crash_safe_resume() {
    // Run with periodic checkpoints to completion; "crash" by discarding
    // the system, resume from the last retained checkpoint in a fresh
    // twin, and land on the same headline outcome.
    let mut sys = gsm_system(true);
    let report = sys.run_until(&StopCondition::checkpoint_every(100_000));
    assert!(report.all_ok(), "{}", report.summary());
    assert_eq!(report.sim_cycles, HEADLINE_CYCLES);
    let (at, snap) = sys.take_last_checkpoint().expect("periodic checkpoint");
    assert_eq!(at, 400_000, "last checkpoint before completion");
    drop(sys); // the crash

    let mut resumed = gsm_system(true);
    resumed.restore(&snap).expect("resume from periodic checkpoint");
    let rest = run_to_completion(&mut resumed);
    assert!(rest.all_ok(), "{}", rest.summary());
    assert_eq!(at + rest.sim_cycles, HEADLINE_CYCLES);
}

#[test]
fn checkpoint_roundtrips_through_disk_bytes() {
    // The same save -> load -> restore path the CI round-trip job
    // drives, including the typed-error surface on a topology mismatch.
    let mut sys = gsm_system(true);
    sys.run_until(&StopCondition::cycles(50_000));
    let snap = sys.checkpoint();

    let dir = std::env::temp_dir().join("dmi_checkpoint_restore_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("headline.dmisnap");
    snap.save(&path).expect("save checkpoint");
    let loaded = dmi_system::Snapshot::load(&path).expect("load checkpoint");
    std::fs::remove_file(&path).ok();

    let mut twin = gsm_system(true);
    twin.restore(&loaded).expect("restore from disk image");
    let cont_rest = run_to_completion(&mut sys);
    let twin_rest = run_to_completion(&mut twin);
    assert_eq!(fingerprint(&twin_rest), fingerprint(&cont_rest));

    // Wrong topology: a 1-CPU system rejects the 4-CPU snapshot with a
    // typed mismatch, not a panic.
    let wl = WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 2,
        ..WorkloadCfg::default()
    };
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_cpu(CpuSpec::new(workloads::scalar_rw(&wl)));
    let mut small = b.build().unwrap();
    match small.restore(&loaded) {
        Err(SnapshotError::Mismatch { .. }) => {}
        other => panic!("expected Mismatch, got {other:?}"),
    }
}

/// A lossy burst-DMA system: one fill engine with a retry policy, one
/// wrapper memory, and (optionally) a seeded random fault plan.
fn dma_system(plan: Option<FaultPlan>, enabled: bool) -> McSystem {
    let mut b = SystemBuilder::new();
    if let Some(p) = plan {
        b = b.faults(p).fault_injection(enabled);
    }
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 0xC0DE },
        dst: mem_base(0),
        words: 64,
        passes: 4,
        burst: Some(BurstSpec {
            beats: 16,
            verify: true,
            at: None,
        }),
        retry: Some(RetryPolicy {
            max_retries: 10,
            backoff_cycles: 4,
            escalate: false,
        }),
        ..DmaConfig::default()
    })));
    b.build().expect("dma system")
}

fn lossy_plan() -> FaultPlan {
    FaultPlan::new(0xDEAD_BEEF).with(FaultSpec::new(
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
}

#[test]
fn mid_fault_storm_checkpoint_restores_bit_identically() {
    // Checkpoint in the middle of live fault injection: the per-spec
    // splitmix64 stream positions are part of the state, so the
    // restored run replays the exact same fault schedule.
    let mut cont = dma_system(Some(lossy_plan()), true);
    let pre = cont.run_until(&StopCondition::cycles(2_000));
    assert_eq!(pre.cause, StopCause::CycleBudget, "split landed post-run");
    let snap = cont.checkpoint();
    let cont_rest = run_to_completion(&mut cont);
    assert!(cont_rest.all_ok(), "{}", cont_rest.summary());
    assert!(cont_rest.faults.injected > 0, "lossy plan never fired");
    assert!(cont_rest.faults.retried > 0);

    let mut twin = dma_system(Some(lossy_plan()), true);
    twin.restore(&snap).expect("restore mid-storm");
    let twin_rest = run_to_completion(&mut twin);
    assert_eq!(
        fingerprint(&twin_rest),
        fingerprint(&cont_rest),
        "restored fault schedule diverged"
    );
}

#[test]
fn escalated_fault_resumes_from_pre_fault_checkpoint_and_diverges() {
    // A run that escalates into StopCause::Fault can rewind: restore the
    // pre-fault checkpoint into a twin with an *empty* plan (the fault
    // section is skipped on shape mismatch) and the same workload
    // completes cleanly.
    let poison = FaultPlan::new(77).with(FaultSpec::new(
        FaultSite::MemOp {
            mem: 0,
            op: None,
            master: None,
        },
        // Fire on everything from op 10 onward (the transfer makes ~19
        // protocol ops): the engine's retry budget cannot outlast an
        // unconditional fault train.
        FaultTrigger::Every { first: 10, period: 1 },
        FaultKind::Status(Status::Busy),
    ));
    let escalate = |plan: FaultPlan, enabled: bool| {
        let mut b = SystemBuilder::new().faults(plan).fault_injection(enabled);
        b.add_memory(MemSpec::wrapper(mem_base(0)));
        b.add_master(Box::new(DmaEngine::new(DmaConfig {
            kind: DmaKind::Fill { seed: 0xC0DE },
            dst: mem_base(0),
            words: 64,
            passes: 4,
            burst: Some(BurstSpec {
                beats: 16,
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
        b.build().expect("escalating system")
    };

    let mut doomed = escalate(poison.clone(), true);
    let pre = doomed.run_until(&StopCondition::cycles(100));
    assert_eq!(pre.cause, StopCause::CycleBudget, "escalated before the split");
    assert_eq!(pre.faults.injected, 0, "split landed inside the fault train");
    let snap = doomed.checkpoint();
    let crash = run_to_completion(&mut doomed);
    assert!(
        matches!(crash.cause, StopCause::Fault(_)),
        "expected escalation, got {:?}",
        crash.cause
    );

    // Same topology, empty plan: the pre-fault state replays, the fault
    // train never comes, the transfer completes.
    let mut healed = escalate(FaultPlan::new(77), true);
    healed.restore(&snap).expect("restore pre-fault state");
    let ok = run_to_completion(&mut healed);
    assert!(ok.all_ok(), "healed run failed: {}", ok.summary());
    assert_eq!(ok.faults.injected, 0, "empty plan injected faults");
}

#[test]
fn fork_fans_one_warm_checkpoint_into_divergent_continuations() {
    // Warm one lossy run past its allocation dialogue, then fork it
    // three ways: same plan (must replay the continuous run), empty
    // plan, and injection disabled. Each continuation is deterministic;
    // the fault-free pair agrees functionally and diverges from the
    // faulty one.
    let mut warm = dma_system(Some(lossy_plan()), true);
    let pre = warm.run_until(&StopCondition::cycles(1_500));
    assert_eq!(pre.cause, StopCause::CycleBudget, "warmup landed post-run");
    let snap = warm.checkpoint();
    let continuous = run_to_completion(&mut warm);
    assert!(continuous.faults.injected > 0);

    let build = |i: usize| match i {
        0 => dma_system(Some(lossy_plan()), true),
        1 => dma_system(Some(FaultPlan::new(1)), true),
        _ => dma_system(Some(lossy_plan()), false),
    };
    let reports: Vec<RunReport> = McSystem::fork(&snap, 3, build)
        .expect("fork three continuations")
        .iter_mut()
        .map(run_to_completion)
        .collect();
    for (i, r) in reports.iter().enumerate() {
        assert!(r.all_ok(), "continuation {i} failed: {}", r.summary());
    }
    // Continuation 0 carries the snapshot's RNG stream positions onward:
    // it IS the continuous run.
    assert_eq!(fingerprint(&reports[0]), fingerprint(&continuous));
    // The fault-free continuations diverge from the faulty one (the
    // retry backoffs cost cycles) but agree with each other on the
    // transferred payload.
    assert!(
        reports[1].sim_cycles < reports[0].sim_cycles,
        "fault-free continuation should finish sooner: {} vs {}",
        reports[1].sim_cycles,
        reports[0].sim_cycles
    );
    assert_eq!(reports[1].sim_cycles, reports[2].sim_cycles);
    assert_eq!(
        reports[1].masters[0].stats.transactions,
        reports[2].masters[0].stats.transactions
    );

    // Fork determinism: forking the same snapshot again replays each
    // continuation bit-identically.
    let again: Vec<RunReport> = McSystem::fork(&snap, 3, build)
        .expect("fork again")
        .iter_mut()
        .map(run_to_completion)
        .collect();
    for (r1, r2) in reports.iter().zip(&again) {
        assert_eq!(fingerprint(r1), fingerprint(r2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Checkpoint at a random mid-run cycle of a CPU workload (ISS cores,
    /// wrapper memory, live pointer-table churn), restore in a fresh
    /// system, and finish both: identical outcome, cache counters aside.
    #[test]
    fn random_cycle_checkpoint_restores_identically(split in 500u64..20_000) {
        let build = || {
            let wl = WorkloadCfg {
                mem_base: mem_base(0),
                iterations: 30,
                ..WorkloadCfg::default()
            };
            let mut b = SystemBuilder::new();
            b.add_memory(MemSpec::wrapper(mem_base(0)));
            b.add_cpu(CpuSpec::new(workloads::alloc_churn(&wl)));
            b.build().unwrap()
        };
        let mut cont = build();
        cont.run_until(&StopCondition::cycles(split));
        let snap = cont.checkpoint();
        let cont_rest = run_to_completion(&mut cont);
        prop_assert!(cont_rest.all_ok(), "{}", cont_rest.summary());

        let mut twin = build();
        twin.restore(&snap).expect("restore at random split");
        let twin_rest = run_to_completion(&mut twin);
        prop_assert_eq!(fingerprint(&twin_rest), fingerprint(&cont_rest));
    }
}
