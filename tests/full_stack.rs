//! Full-stack integration tests through the facade crate: text assembly →
//! ISS → bus → wrapper, model interchangeability, and tracing.

use dmi_sim::core::{SimHeapConfig, WrapperConfig};
use dmi_sim::isa::{assemble_text, Program};
use dmi_sim::sw::{workloads, WorkloadCfg};
use dmi_sim::system::{mem_base, CpuSpec, McSystem, MemModelKind, MemSpec, SystemBuilder};

/// One CPU per program, sharing one memory of the given model.
fn build(programs: Vec<Program>, model: MemModelKind) -> McSystem {
    let mut b = SystemBuilder::new();
    for program in programs {
        b.add_cpu(CpuSpec::new(program));
    }
    b.add_memory(MemSpec::new(model, mem_base(0)));
    b.build().expect("valid system")
}

fn wrapper() -> MemModelKind {
    MemModelKind::Wrapper(WrapperConfig::default())
}

/// A program written in assembly *text* drives the DSM protocol directly —
/// the whole toolchain in one test.
#[test]
fn text_assembled_program_uses_the_wrapper() {
    let src = format!(
        r#"
        .equ MEM,    {:#x}
        .equ CMD,    0x00
        .equ ARG0,   0x04
        .equ ARG1,   0x08
        .equ ARG2,   0x0C
        .equ RESULT, 0x14
        .equ ALLOC,  1
        .equ WRITE,  3
        .equ READ,   4

            li   r4, #MEM
            ; vptr = alloc(6 words of u32)
            li   r0, #6
            str  r0, [r4, #ARG0]
            li   r0, #2
            str  r0, [r4, #ARG1]
            li   r0, #ALLOC
            str  r0, [r4, #CMD]
            ldr  r5, [r4, #RESULT]     ; vptr
            ; write 0x77 at vptr+8
            add  r0, r5, #8
            str  r0, [r4, #ARG0]
            li   r0, #0x77
            str  r0, [r4, #ARG1]
            li   r0, #2
            str  r0, [r4, #ARG2]
            li   r0, #WRITE
            str  r0, [r4, #CMD]
            ; read it back
            add  r0, r5, #8
            str  r0, [r4, #ARG0]
            li   r0, #2
            str  r0, [r4, #ARG2]
            li   r0, #READ
            str  r0, [r4, #CMD]
            ldr  r0, [r4, #RESULT]
            ; exit code = value - 0x77 (0 on success)
            sub  r0, r0, #0x77
            swi  #0
    "#,
        mem_base(0)
    );
    let prog = assemble_text(&src, 0).expect("assembles");
    let mut sys = build(vec![prog], wrapper());
    let report = sys.run(1_000_000);
    assert!(report.all_ok(), "{}", report.summary());
    assert_eq!(report.mems[0].backend.allocs, 1);
    assert_eq!(report.mems[0].backend.reads, 1);
}

/// The same workload binary runs unmodified on both dynamic memory models.
#[test]
fn workloads_are_model_portable() {
    let wl = WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 12,
        ..WorkloadCfg::default()
    };
    let prog = workloads::alloc_churn(&wl);
    for kind in [
        MemModelKind::Wrapper(WrapperConfig::default()),
        MemModelKind::SimHeap(SimHeapConfig::default()),
    ] {
        let mut sys = build(vec![prog.clone()], kind);
        let report = sys.run(100_000_000);
        assert!(report.all_ok(), "{:?}: {}", kind.name(), report.summary());
    }
}

/// Identical configurations produce identical cycle counts AND identical
/// VCD traces — whole-stack determinism.
#[test]
fn full_stack_determinism_with_tracing() {
    let run = || {
        let wl = WorkloadCfg {
            mem_base: mem_base(0),
            iterations: 5,
            ..WorkloadCfg::default()
        };
        let mut sys = build(vec![workloads::alloc_churn(&wl); 2], wrapper());
        sys.simulator_mut()
            .trace_matching(|n| n.starts_with("mem0.s"));
        let report = sys.run(100_000_000);
        assert!(report.all_ok());
        let vcd = sys
            .simulator()
            .tracer()
            .to_vcd(sys.simulator().signals(), sys.simulator().time());
        (report.sim_cycles, vcd)
    };
    let (c1, v1) = run();
    let (c2, v2) = run();
    assert_eq!(c1, c2);
    assert_eq!(v1, v2);
}

/// The wrapper's denial path propagates to software: exhausting the finite
/// memory yields the null vptr, and the workload's check path catches it.
#[test]
fn finite_memory_denial_reaches_software() {
    let wl = WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 4,
        buf_words: 200, // 800 bytes per allocation
        ..WorkloadCfg::default()
    };
    // Capacity for only one live allocation; churn frees each time, so it
    // still succeeds.
    let finite = MemModelKind::Wrapper(WrapperConfig {
        capacity: 1024,
        ..WrapperConfig::default()
    });
    let mut sys = build(vec![workloads::alloc_churn(&wl)], finite);
    let report = sys.run(100_000_000);
    assert!(report.all_ok(), "{}", report.summary());

    // Two concurrent churners cannot both hold 800 bytes: one gets denied
    // at some point and exits through the fail path (exit code 1).
    let mut sys = build(vec![workloads::alloc_churn(&wl); 2], finite);
    let report = sys.run(200_000_000);
    assert!(report.finished, "{}", report.summary());
    let denied = report.mems[0].backend.denials;
    let failures = report.cpus.iter().filter(|c| c.exit_code == 1).count();
    assert!(
        denied > 0 && failures > 0,
        "expected denials under over-subscription (denials {denied}, failures {failures})"
    );
}
