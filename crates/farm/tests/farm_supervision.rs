//! Supervision contract: panics are isolated, watchdogs fire, retries
//! resume from checkpoints and reproduce uninterrupted fingerprints,
//! hung workers are abandoned without taking the farm down.

use std::sync::Arc;
use std::time::Duration;

use dmi_farm::{
    panics_caught, run_farm, Catalog, FarmConfig, FarmError, Registry, ScenarioOutcome,
    ScenarioSpec,
};
use dmi_masters::{DmaConfig, DmaEngine, DmaKind};
use dmi_sw::{workloads, WorkloadCfg};
use dmi_system::{
    mem_base, CpuSpec, FaultKind, FaultPlan, FaultSite, FaultSpec, FaultTrigger, MemSpec,
    StopCondition, SystemBuilder,
};

/// One alloc-churn CPU on a wrapper memory: halts on its own quickly.
fn quick() -> SystemBuilder {
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_cpu(CpuSpec::new(workloads::alloc_churn(&WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 4,
        ..WorkloadCfg::default()
    })));
    b
}

/// `quick` with every other bus grant stalled five cycles: the fault
/// switch changes how long it runs.
fn stalled() -> SystemBuilder {
    quick().faults(FaultPlan::new(0).with(FaultSpec::new(
        FaultSite::BusAccess { master: None },
        FaultTrigger::Every {
            first: 1,
            period: 2,
        },
        FaultKind::GrantStall { cycles: 5 },
    )))
}

/// A scalar CPU plus a bounded DMA fill: deterministic, runs a while.
fn stream() -> SystemBuilder {
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_cpu(CpuSpec::new(workloads::scalar_rw(&WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 16,
        ..WorkloadCfg::default()
    })));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 7 },
        dst: mem_base(0),
        words: 32,
        passes: 64,
        ..DmaConfig::default()
    })));
    b
}

/// A DMA fill that never finishes: the watchdog fodder.
fn endless() -> SystemBuilder {
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 3 },
        dst: mem_base(0),
        words: 16,
        passes: u32::MAX,
        ..DmaConfig::default()
    })));
    b
}

fn registry() -> Arc<Registry> {
    let mut r = Registry::new();
    r.register("quick", quick);
    r.register("stalled", stalled);
    r.register("stream", stream);
    r.register("endless", endless);
    Arc::new(r)
}

fn fingerprint_of(outcome: &ScenarioOutcome) -> u32 {
    match outcome {
        ScenarioOutcome::Completed { fingerprint, .. } => *fingerprint,
        other => panic!("expected Completed, got {other:?}"),
    }
}

#[test]
fn farm_outcomes_are_deterministic_across_runs_and_worker_counts() {
    let mut catalog = Catalog::new();
    catalog.push(ScenarioSpec::new("quick-a", "quick", 200_000));
    catalog.push(ScenarioSpec::new("stream-a", "stream", 60_000).checkpoint(10_000));
    catalog.push(ScenarioSpec::new("stream-b", "stream", 2_000));
    catalog.push(ScenarioSpec::new("quick-b", "quick", 200_000).checkpoint(25_000));

    let reg = registry();
    let run = |workers: usize| {
        run_farm(
            &catalog,
            Arc::clone(&reg),
            &FarmConfig {
                workers,
                ..FarmConfig::default()
            },
        )
        .expect("farm runs")
    };
    let serial = run(1);
    let wide = run(4);
    assert_eq!(serial.legs.len(), 4);
    assert!(serial.all_expected(&catalog), "{}", serial.summary());
    for (a, b) in serial.legs.iter().zip(&wide.legs) {
        assert_eq!(a.outcome, b.outcome, "legs must not depend on scheduling");
    }
    // Identical scenario prefixes, different budgets: different states.
    assert_ne!(
        fingerprint_of(&serial.legs[1].outcome),
        fingerprint_of(&serial.legs[2].outcome),
        "different budgets must fingerprint differently"
    );
    // Same scenario, same budget, re-run: identical fingerprint.
    assert_eq!(
        fingerprint_of(&serial.legs[0].outcome),
        fingerprint_of(&wide.legs[0].outcome),
    );
}

#[test]
fn injected_panic_is_isolated_and_retry_reproduces_the_fingerprint() {
    let reg = registry();

    // Reference: the same leg without the probe.
    let mut reference = Catalog::new();
    reference.push(ScenarioSpec::new("stream", "stream", 60_000).checkpoint(2_000));
    let expected = run_farm(&reference, Arc::clone(&reg), &FarmConfig::default())
        .expect("reference run");
    let expected_fp = fingerprint_of(&expected.legs[0].outcome);

    // Probe: attempt 0 panics mid-leg; the retry resumes from the last
    // exported checkpoint and must land on the identical fingerprint.
    let mut catalog = Catalog::new();
    catalog.push(
        ScenarioSpec::new("stream", "stream", 60_000)
            .checkpoint(2_000)
            .retries(1)
            .inject_panic_at(6_000),
    );
    catalog.push(ScenarioSpec::new("sibling", "quick", 200_000));

    let before = panics_caught();
    let report = run_farm(&catalog, reg, &FarmConfig::default()).expect("farm survives the panic");
    assert!(panics_caught() > before, "the panic must actually fire");
    assert_eq!(report.retried, 1, "{}", report.summary());
    assert_eq!(report.legs[0].attempts, 2);
    assert_eq!(fingerprint_of(&report.legs[0].outcome), expected_fp);
    assert!(
        report.legs[1].outcome.is_success(),
        "sibling leg must be unaffected: {}",
        report.summary()
    );
}

#[test]
fn exhausted_retries_leave_a_typed_panic_outcome() {
    let mut catalog = Catalog::new();
    catalog.push(
        ScenarioSpec::new("boom", "stream", 60_000)
            .checkpoint(2_000)
            .inject_panic_at(4_000)
            .expect_failure(),
    );
    catalog.push(ScenarioSpec::new("sibling", "quick", 200_000));

    let report = run_farm(&catalog, registry(), &FarmConfig::default()).expect("farm survives");
    match &report.legs[0].outcome {
        ScenarioOutcome::Panicked { message } => {
            assert!(message.contains("injected panic"), "{message}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    assert_eq!(report.legs[0].attempts, 1, "retries=0 means one attempt");
    assert!(report.legs[1].outcome.is_success());
    assert!(report.all_expected(&catalog), "{}", report.summary());
}

#[test]
fn soft_watchdog_times_out_an_endless_leg() {
    let mut catalog = Catalog::new();
    catalog.push(
        ScenarioSpec::new("runaway", "endless", u64::MAX / 8)
            .deadline_ms(60)
            .expect_failure(),
    );
    catalog.push(ScenarioSpec::new("sibling", "quick", 200_000));

    let report = run_farm(
        &catalog,
        registry(),
        &FarmConfig {
            workers: 2,
            watchdog_poll: 64,
            ..FarmConfig::default()
        },
    )
    .expect("farm survives");
    assert_eq!(
        report.legs[0].outcome,
        ScenarioOutcome::TimedOut { hard: false },
        "{}",
        report.summary()
    );
    assert!(report.legs[1].outcome.is_success());
    assert!(report.all_expected(&catalog));
}

#[test]
fn hard_deadline_abandons_a_hung_worker_without_killing_the_farm() {
    let mut catalog = Catalog::new();
    // The hang probe sleeps far past the hard deadline without ever
    // reaching the in-run watchdog.
    catalog.push(
        ScenarioSpec::new("stuck", "quick", 1_000)
            .hang_ms(3_000)
            .expect_failure(),
    );
    catalog.push(ScenarioSpec::new("sibling-a", "quick", 200_000));
    catalog.push(ScenarioSpec::new("sibling-b", "stream", 30_000));

    let report = run_farm(
        &catalog,
        registry(),
        &FarmConfig {
            workers: 2,
            hard_deadline: Some(Duration::from_millis(200)),
            ..FarmConfig::default()
        },
    )
    .expect("farm survives the hang");
    assert_eq!(
        report.legs[0].outcome,
        ScenarioOutcome::TimedOut { hard: true },
        "{}",
        report.summary()
    );
    assert!(report.abandoned >= 1);
    assert!(report.legs[1].outcome.is_success());
    assert!(report.legs[2].outcome.is_success());
    assert!(report.all_expected(&catalog));
}

#[test]
fn unknown_system_and_empty_catalog_are_typed_not_fatal() {
    let mut catalog = Catalog::new();
    catalog.push(ScenarioSpec::new("ghost", "no-such-system", 1_000).expect_failure());
    let report = run_farm(&catalog, registry(), &FarmConfig::default()).expect("farm runs");
    match &report.legs[0].outcome {
        ScenarioOutcome::Failed { message } => {
            assert!(message.contains("unknown system"), "{message}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(report.legs[0].attempts, 1, "build failures are not retried");

    let empty = run_farm(&Catalog::new(), registry(), &FarmConfig::default()).expect("empty");
    assert!(empty.legs.is_empty());
}

#[test]
fn zero_workers_is_a_typed_error_not_a_hang() {
    let mut catalog = Catalog::new();
    catalog.push(ScenarioSpec::new("leg", "quick", 1_000));
    let err = run_farm(
        &catalog,
        registry(),
        &FarmConfig {
            workers: 0,
            ..FarmConfig::default()
        },
    )
    .expect_err("zero workers must be refused");
    assert!(matches!(err, FarmError::NoWorkers), "{err}");
}

#[test]
fn warm_snapshot_file_reproduces_the_cold_fingerprint() {
    let reg = registry();
    let mut cold = Catalog::new();
    cold.push(ScenarioSpec::new("s", "stream", 60_000));
    let cold_fp = fingerprint_of(
        &run_farm(&cold, Arc::clone(&reg), &FarmConfig::default())
            .expect("cold run")
            .legs[0]
            .outcome,
    );

    // Export the warm prefix the way a user would: run the system 20k
    // cycles and save its checkpoint to a file.
    let mut path = std::env::temp_dir();
    path.push(format!("dmi-farm-{}-warmsnap.snap", std::process::id()));
    let mut sys = stream().build().expect("build");
    sys.run_until(&StopCondition::cycles(20_000));
    sys.checkpoint().save(&path).expect("save warm snapshot");

    let mut warm = Catalog::new();
    warm.push(
        ScenarioSpec::new("w", "stream", 60_000).warm_snapshot(path.to_string_lossy().as_ref()),
    );
    let report = run_farm(&warm, Arc::clone(&reg), &FarmConfig::default()).expect("warm run");
    assert_eq!(
        fingerprint_of(&report.legs[0].outcome),
        cold_fp,
        "file-warmed leg diverged: {}",
        report.summary()
    );
    let _ = std::fs::remove_file(&path);

    // A missing snapshot file is a deterministic typed failure, never a
    // silent cold fallback (which would fingerprint differently from
    // the catalog's intent).
    let mut broken = Catalog::new();
    broken.push(
        ScenarioSpec::new("b", "stream", 60_000)
            .warm_snapshot("/nonexistent/warm.snap")
            .expect_failure(),
    );
    let report = run_farm(&broken, reg, &FarmConfig::default()).expect("farm survives");
    match &report.legs[0].outcome {
        ScenarioOutcome::Failed { message } => {
            assert!(message.contains("warm snapshot"), "{message}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(report.legs[0].attempts, 1, "spec errors are not retried");
}

#[test]
fn warm_start_reproduces_the_cold_fingerprint() {
    // `stream` halts at 13,144 cycles, before its warm point, so its legs
    // never restore mid-run; `quick` restores its prefix at cycle 500
    // with live pointer-table and decoded-instruction caches.
    for (system, cycles, warm_at) in [("stream", 60_000, 20_000), ("quick", 200_000, 500)] {
        let reg = registry();
        let mut cold = Catalog::new();
        cold.push(ScenarioSpec::new("cold", system, cycles));
        let cold_fp = fingerprint_of(
            &run_farm(&cold, Arc::clone(&reg), &FarmConfig::default())
                .expect("cold run")
                .legs[0]
                .outcome,
        );

        let mut warm = Catalog::new();
        // Three legs sharing one warm prefix; same budget, so all three
        // and the cold reference must agree bit-for-bit.
        for name in ["w1", "w2", "w3"] {
            warm.push(ScenarioSpec::new(name, system, cycles).warm(warm_at));
        }
        let report = run_farm(
            &warm,
            reg,
            &FarmConfig {
                workers: 3,
                ..FarmConfig::default()
            },
        )
        .expect("warm run");
        for leg in &report.legs {
            assert_eq!(
                fingerprint_of(&leg.outcome),
                cold_fp,
                "{system}: warm-started leg diverged: {}",
                report.summary()
            );
        }
    }
}

#[test]
fn warm_prefix_is_keyed_by_fault_switch() {
    // One worker runs the legs in catalog order: the faults-on leg warms
    // the shared cache first, and the faults-off leg after it must not
    // restore that stalled prefix.
    let reg = registry();
    let one_worker = FarmConfig {
        workers: 1,
        ..FarmConfig::default()
    };
    let mut cold = Catalog::new();
    cold.push(ScenarioSpec::new("on", "stalled", 200_000).faults(true));
    cold.push(ScenarioSpec::new("off", "stalled", 200_000).faults(false));
    let cold = run_farm(&cold, Arc::clone(&reg), &one_worker).expect("cold run");
    assert_ne!(
        cold.legs[0].outcome, cold.legs[1].outcome,
        "the fault switch must change the run"
    );

    let mut warm = Catalog::new();
    warm.push(ScenarioSpec::new("on", "stalled", 200_000).warm(500).faults(true));
    warm.push(ScenarioSpec::new("off", "stalled", 200_000).warm(500).faults(false));
    let warm = run_farm(&warm, reg, &one_worker).expect("warm run");
    for (c, w) in cold.legs.iter().zip(&warm.legs) {
        assert_eq!(
            w.outcome,
            c.outcome,
            "warm leg '{}' diverged from its cold run: {}",
            w.name,
            warm.summary()
        );
    }
}
