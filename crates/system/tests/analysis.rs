//! Static analysis at the builder level, end to end: the headline GSM
//! configuration analyzes clean, analyzing (before build, after build,
//! after run, any number of times) never moves a cycle — the reports
//! are bit-identical and pinned to the headline count — `build_checked`
//! gates on `Error`-severity findings only, and the address-level codes
//! (`A004`/`A005`/`A006`) fire on directed builder misconfigurations.

use std::time::Duration;

use dmi_gsm::pipeline::{self, PipelineCfg};
use dmi_masters::{DmaConfig, DmaEngine, DmaKind};
use dmi_sw::{workloads, WorkloadCfg};
use dmi_system::{
    mem_base, BuildError, Code, CpuSpec, FaultKind, FaultPlan, FaultSite, FaultSpec, FaultTrigger,
    MemSpec, RunReport, Severity, StopCondition, SystemBuilder,
};
use proptest::prelude::*;

/// The headline experiment's pinned cycle count (GSM pipeline, 2
/// frames, 1 wrapper memory, seed 0x5EED).
const HEADLINE_CYCLES: u64 = 436_964;

/// The headline GSM pipeline builder.
fn gsm_builder() -> SystemBuilder {
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
    b
}

/// Normalizes a report for bit-identity comparison: wall time is the
/// only host-side field.
fn fingerprint(r: &RunReport) -> String {
    let mut r = r.clone();
    r.wall = Duration::ZERO;
    format!("{r:?}")
}

#[test]
fn headline_analyzes_clean() {
    let report = gsm_builder().analyze();
    assert!(
        report.diagnostics.is_empty(),
        "headline must lint clean:\n{report}"
    );
    assert!(!report.has_errors());
    // 4 stage CPUs + 1 memory + bus + monitor, one clock, one shard.
    assert_eq!(report.graph.nodes.len(), 7);
    assert_eq!(report.graph.clocks.len(), 1);
    assert_eq!(report.plan.shards.len(), 1);
}

#[test]
fn analyze_before_and_after_run_is_bit_identical_to_a_plain_run() {
    let plain = {
        let mut sys = gsm_builder().build().expect("gsm system");
        sys.run(u64::MAX / 4)
    };
    assert_eq!(plain.sim_cycles, HEADLINE_CYCLES);

    // The probed twin: analyze on the builder, on the built system, run,
    // then analyze again. None of it may move a cycle.
    let b = gsm_builder();
    assert!(!b.analyze().has_errors());
    let mut sys = b.build().expect("gsm system");
    let before = sys.analyze();
    let probed = sys.run(u64::MAX / 4);
    let after = sys.analyze();

    assert_eq!(fingerprint(&plain), fingerprint(&probed));
    assert_eq!(format!("{before}"), format!("{after}"));
}

#[test]
fn build_checked_accepts_a_clean_system() {
    let mut sys = gsm_builder().build_checked().expect("clean system");
    let r = sys.run(1_000);
    assert!(r.error.is_none());
}

/// One wrapper memory plus a fill DMA aimed well outside every decode
/// window — the `A004` shape.
fn unmapped_dma_builder() -> SystemBuilder {
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    b.add_master(Box::new(DmaEngine::new(DmaConfig {
        kind: DmaKind::Fill { seed: 1 },
        dst: 0x4000_0000,
        words: 16,
        passes: 1,
        ..DmaConfig::default()
    })));
    b
}

#[test]
fn a004_unmapped_dma_footprint_fails_build_checked() {
    let report = unmapped_dma_builder().analyze();
    assert_eq!(report.errors().count(), 1);
    assert_eq!(report.diagnostics[0].code, Code::A004);
    assert_eq!(report.diagnostics[0].subject, "dma0");

    match unmapped_dma_builder().build_checked() {
        Err(BuildError::Analysis { diagnostics }) => {
            assert!(diagnostics.iter().any(|d| d.code == Code::A004));
            let text = format!(
                "{}",
                BuildError::Analysis { diagnostics }
            );
            assert!(text.contains("A004"), "error must name the code: {text}");
        }
        other => panic!("expected Analysis rejection, got {other:?}"),
    }

    // The unchecked build still works — the analyzer is opt-in.
    assert!(unmapped_dma_builder().build().is_ok());
}

#[test]
fn a005_watchpoints_are_linted_against_the_builder() {
    // A stale handle from a bigger donor builder: ordinal 2 does not
    // exist in the one-memory system under test.
    let mut donor = SystemBuilder::new();
    donor.add_memory(MemSpec::wrapper(mem_base(0)));
    donor.add_memory(MemSpec::wrapper(mem_base(1)));
    let stale = donor.add_memory(MemSpec::wrapper(mem_base(2)));

    let mut b = SystemBuilder::new();
    let table = b.add_memory(MemSpec::static_table(mem_base(0)));
    b.add_cpu(CpuSpec::new(workloads::scalar_rw(&WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 1,
        ..WorkloadCfg::default()
    })));

    let bad_handle = b.analyze_with(&StopCondition::watch_word(stale, 0, 1));
    assert_eq!(bad_handle.errors().count(), 1);
    assert_eq!(bad_handle.diagnostics[0].code, Code::A005);

    let bad_offset = b.analyze_with(&StopCondition::watch_word(table, 0x2_0000, 1));
    assert_eq!(bad_offset.errors().count(), 1);
    assert_eq!(bad_offset.diagnostics[0].code, Code::A005);

    let fine = b.analyze_with(&StopCondition::watch_word(table, 0x100, 1));
    assert!(fine.diagnostics.is_empty(), "{fine}");
}

#[test]
fn a006_dead_fault_sites_warn_without_blocking_the_build() {
    let plan = FaultPlan::new(7)
        .with(FaultSpec::new(
            // Protocol fault on a direct static table: nothing to hook.
            FaultSite::MemOp {
                mem: 0,
                op: None,
                master: None,
            },
            FaultTrigger::Nth(1),
            FaultKind::Status(dmi_core::Status::Busy),
        ))
        .with(FaultSpec::new(
            // Memory ordinal that does not exist.
            FaultSite::MemOp {
                mem: 4,
                op: None,
                master: None,
            },
            FaultTrigger::Nth(1),
            FaultKind::Status(dmi_core::Status::Busy),
        ));
    let mut b = SystemBuilder::new().faults(plan);
    b.add_memory(MemSpec::static_table(mem_base(0)));
    b.add_cpu(CpuSpec::new(workloads::scalar_rw(&WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 1,
        ..WorkloadCfg::default()
    })));

    let report = b.analyze();
    let a006: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::A006)
        .collect();
    assert_eq!(a006.len(), 2, "{report}");
    assert!(a006.iter().all(|d| d.severity == Severity::Warn));
    assert!(!report.has_errors());
    assert!(b.build_checked().is_ok(), "warnings must not gate the build");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `analyze()` is inert under arbitrary small topologies: any number
    /// of calls, on the builder and on the built system, leaves the run
    /// report bit-identical to a never-analyzed twin's.
    #[test]
    fn analyze_never_perturbs_a_run(
        n_cpus in 1usize..=3,
        n_mems in 1usize..=2,
        iterations in 1u32..=4,
        probes in 1usize..=3,
    ) {
        let build = || {
            let mut b = SystemBuilder::new();
            for j in 0..n_mems {
                b.add_memory(MemSpec::wrapper(mem_base(j)));
            }
            for i in 0..n_cpus {
                b.add_cpu(CpuSpec::new(workloads::scalar_rw(&WorkloadCfg {
                    mem_base: mem_base(i % n_mems),
                    iterations,
                    ..WorkloadCfg::default()
                })));
            }
            b
        };

        let plain = build().build().unwrap().run(u64::MAX / 4);

        let b = build();
        for _ in 0..probes {
            prop_assert!(!b.analyze().has_errors());
        }
        let mut sys = b.build().unwrap();
        for _ in 0..probes {
            let _ = sys.analyze();
        }
        let probed = sys.run(u64::MAX / 4);

        prop_assert_eq!(fingerprint(&plain), fingerprint(&probed));
    }
}
