//! System-state capture, end to end: a run resumed from a checkpoint is
//! cycle-bit-identical to the uninterrupted original — on the headline
//! GSM pipeline on both kernel paths, under live fault injection, from
//! periodic crash-safe checkpoints, and through the warm-fork API — and
//! a checkpoint does not depend on which kernel path ran. The counters
//! of host-side caches (decoded-instruction cache, pointer-table TLB)
//! are the one documented difference between reports: they are never
//! serialized and restart from zero after a restore. Checkpoint bytes
//! of two systems are pinned by CRC, so a fault that both kernel paths
//! share still shows. A CPU whose saved bus handshake contradicts
//! itself is rejected at load.

use std::time::Duration;

use dmi_core::Status;
use dmi_gsm::pipeline::{self, PipelineCfg};
use dmi_masters::{BurstSpec, DmaConfig, DmaEngine, DmaKind, RetryPolicy};
use dmi_sw::{workloads, WorkloadCfg};
use dmi_system::{
    mem_base, CpuSpec, FaultKind, FaultPlan, FaultSite, FaultSpec, FaultTrigger, InterconnectKind,
    McSystem, MemSpec, RunReport, SnapshotError, StopCause, StopCondition, SystemBuilder,
};
use proptest::prelude::*;

/// The headline experiment's pinned cycle count (GSM pipeline, 2 frames,
/// 1 wrapper memory, seed 0x5EED).
const HEADLINE_CYCLES: u64 = 436_964;

/// Normalizes a report for restored-vs-continuous comparison: wall time
/// is host-side, and the cache counters legitimately diverge because a
/// restored system rebuilds its validated caches cold and counts from
/// zero.
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

/// The headline GSM pipeline on the kernel's fast or reference path,
/// with the fault layer compiled in (an empty seeded plan, so the
/// controller's RNG stream state rides through every snapshot).
fn gsm_system(specialize: bool) -> McSystem {
    let cfg = PipelineCfg {
        n_frames: 2,
        mem_bases: vec![mem_base(0)],
        seed: 0x5EED,
    };
    let mut b = SystemBuilder::new().faults(FaultPlan::new(0xF00D));
    for program in pipeline::stage_programs(&cfg) {
        b.add_cpu(CpuSpec::new(program));
    }
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    let mut sys = b.build().expect("gsm pipeline system");
    sys.simulator_mut().set_clock_specialization(specialize);
    sys
}

fn run_to_completion(sys: &mut McSystem) -> RunReport {
    sys.run(u64::MAX / 4)
}

#[test]
fn headline_restore_is_cycle_bit_identical_across_kernel_twins() {
    // Split the continuous run at a fixed cycle, checkpoint there, and
    // finish both the original and a restored twin: every counter that
    // is state (not cache) must match, and the two halves must add up
    // to the pinned headline total — on both kernel paths.
    const SPLIT: u64 = 200_000;
    for specialize in [true, false] {
        let label = format!("specialize={specialize}");
        let mut cont = gsm_system(specialize);
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

        let mut twin = gsm_system(specialize);
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
    // The fast path (clock toggles in the calendar) and the reference
    // path (queued toggles) checkpoint the same bytes at the same cycle.
    // A snapshot taken on the fast path restores onto the reference
    // path and ends in the same state as the source: the snapshot
    // carries the schedule, the target chooses where the clock toggles
    // wait.
    const SPLIT: u64 = 150_000;
    let mut src = gsm_system(true);
    let mut reference = gsm_system(false);
    for at in [1, 77_777, SPLIT] {
        for sys in [&mut src, &mut reference] {
            let done = sys.total_cycles();
            sys.run_until(&StopCondition::cycles(at - done));
        }
        assert!(
            src.checkpoint().to_bytes() == reference.checkpoint().to_bytes(),
            "the two paths checkpoint different bytes at cycle {at}"
        );
    }
    let snap = src.checkpoint();
    let src_rest = run_to_completion(&mut src);
    assert!(src_rest.all_ok(), "{}", src_rest.summary());

    let mut twin = gsm_system(false);
    twin.restore(&snap).expect("cross-path restore");
    let twin_rest = run_to_completion(&mut twin);
    assert!(twin_rest.all_ok(), "{}", twin_rest.summary());
    assert!(
        twin.checkpoint().to_bytes() == src.checkpoint().to_bytes(),
        "cross-path restore changed the end state"
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

#[test]
fn contradictory_cpu_handshake_is_corrupt() {
    // Stop the headline right after a cycle cpu0 spent waiting on the bus.
    let mut sys = gsm_system(true);
    sys.run_until(&StopCondition::cycles(50_000));
    loop {
        let waited = sys.cpu(0).stats().bus_wait_cycles;
        sys.run_until(&StopCondition::cycles(1));
        if sys.cpu(0).stats().bus_wait_cycles > waited {
            break;
        }
    }
    let at = sys.total_cycles();
    let snap = sys.checkpoint();

    // cpu0's section ends with its bus handshake (state tag, stall
    // budget, pending flag and 10-byte access, buffered-response flag
    // and 8-byte response), then three u64 counters and
    // `halted_driven`. Offsets into that tail while it waits:
    const PENDING: usize = 1 + 8;
    const READY: usize = PENDING + 1 + 10;
    const HALTED: usize = READY + 1 + 3 * 8;
    let section = snap.section("comp0").expect("cpu0 section");
    let mut r = dmi_kernel::StateReader::new(section);
    assert_eq!(r.get_str("component name").unwrap(), "cpu0");
    let (head, tail) = section.split_at(section.len() - (HALTED + 1));
    assert_eq!(
        (tail[0], tail[PENDING], tail[READY], tail[HALTED]),
        (1, 1, 0, 0),
        "cpu0 must wait on the bus with one access and no response"
    );
    let with_cpu0 = |payload: Vec<u8>| {
        let mut spliced = dmi_system::Snapshot::new();
        for name in snap.section_names() {
            let bytes = if name == "comp0" {
                payload.clone()
            } else {
                snap.section(name).unwrap().to_vec()
            };
            spliced.push_section(name, bytes);
        }
        spliced
    };

    // The clean capture, rebuilt through the same splice, resumes and
    // finishes the headline.
    let mut twin = gsm_system(true);
    twin.restore(&with_cpu0(section.to_vec()))
        .expect("clean waiting capture");
    let rest = run_to_completion(&mut twin);
    assert!(rest.all_ok(), "{}", rest.summary());
    assert_eq!(at + rest.sim_cycles, HEADLINE_CYCLES);

    // A response to the pending address, holding the value 7.
    let response = [&tail[PENDING + 1..PENDING + 5], &[7, 0, 0, 0]].concat();
    for (what, payload) in [
        (
            "waiting without an access",
            [head, &tail[..PENDING], &[0], &tail[READY..]].concat(),
        ),
        ("ready with an access", [head, &[0], &tail[1..]].concat()),
        (
            "a buffered response",
            [head, &tail[..READY], &[1], &response, &tail[READY + 1..]].concat(),
        ),
        (
            "halted output without a halt",
            [head, &tail[..HALTED], &[1]].concat(),
        ),
    ] {
        match gsm_system(true).restore(&with_cpu0(payload)) {
            Err(SnapshotError::Corrupt { .. }) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }
}

/// A lossy burst-DMA system: one fill engine with a retry policy, one
/// wrapper memory, and (optionally) a seeded random fault plan.
fn dma_system(plan: Option<FaultPlan>, enabled: bool) -> McSystem {
    let mut b = SystemBuilder::new();
    if let Some(p) = plan {
        b = b.faults(p);
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
    let mut sys = b.build().expect("dma system");
    sys.set_fault_injection(enabled);
    sys
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
        let mut b = SystemBuilder::new().faults(plan);
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
        let mut sys = b.build().expect("escalating system");
        sys.set_fault_injection(enabled);
        sys
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

/// CRC-32 of the checkpoint bytes at each cycle of `cuts` and at halt,
/// with the cycle the system halted at.
fn checkpoint_crcs(sys: &mut McSystem, cuts: &[u64]) -> (Vec<u32>, u64) {
    let mut crcs = Vec::new();
    for &at in cuts {
        let done = sys.total_cycles();
        let r = sys.run_until(&StopCondition::cycles(at - done));
        assert_eq!(r.cause, StopCause::CycleBudget, "halted before cycle {at}");
        crcs.push(dmi_kernel::crc32(&sys.checkpoint().to_bytes()));
    }
    let rest = run_to_completion(sys);
    assert!(rest.all_ok(), "{}", rest.summary());
    crcs.push(dmi_kernel::crc32(&sys.checkpoint().to_bytes()));
    (crcs, sys.total_cycles())
}

#[test]
fn checkpoint_bytes_are_pinned() {
    // The whole-system state at fixed cycles, on whichever kernel path
    // the environment selects: the fast-vs-reference oracles run both
    // paths through the same signal commit and component dispatch, so
    // only a pin can see a fault the two share. A change to the snapshot
    // format or to what the simulation does moves these values; a change
    // that only makes the simulator faster must not.
    //
    // The GSM headline as the benchmark builds it (no fault plan).
    let cfg = PipelineCfg {
        n_frames: 2,
        mem_bases: vec![mem_base(0)],
        seed: 0x5EED,
    };
    let mut b = SystemBuilder::new();
    for program in pipeline::stage_programs(&cfg) {
        b.add_cpu(CpuSpec::new(program));
    }
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    let mut gsm = b.build().expect("gsm headline system");
    let (crcs, halt) = checkpoint_crcs(&mut gsm, &[1, 77_777, 200_000]);
    assert_eq!(halt, HEADLINE_CYCLES);
    assert_eq!(
        crcs,
        [0x95dc_98ae, 0x1330_5539, 0xe242_8351, 0x89ae_3860],
        "gsm headline"
    );

    // 16 DMA masters on a crossbar: 12 scalar fill engines spread over
    // four static tables and 4 verifying burst engines on one wrapper
    // memory.
    let mut b = SystemBuilder::new().interconnect(InterconnectKind::Crossbar(Default::default()));
    for j in 0..4 {
        b.add_memory(MemSpec::static_table(mem_base(j)));
    }
    b.add_memory(MemSpec::wrapper(mem_base(4)));
    for i in 0..16u32 {
        let scalar = i < 12;
        b.add_master(Box::new(DmaEngine::new(DmaConfig {
            kind: DmaKind::Fill { seed: 0xC0DE + i },
            dst: if scalar {
                mem_base((i % 4) as usize) + (i / 4) * 0x1000
            } else {
                mem_base(4)
            },
            words: 256,
            passes: 16,
            burst: (!scalar).then_some(BurstSpec {
                beats: 16,
                verify: true,
                at: None,
            }),
            ..DmaConfig::default()
        })));
    }
    let mut dma = b.build().expect("16-master crossbar system");
    let (crcs, halt) = checkpoint_crcs(&mut dma, &[1, 40_000, 80_000]);
    assert_eq!(halt, 114_233);
    assert_eq!(
        crcs,
        [0xa498_7002, 0x706c_8d1f, 0xa40b_934f, 0xfeb5_68d4],
        "16-master crossbar DMA"
    );
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
