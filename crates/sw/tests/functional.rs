//! Functional verification of the DSM driver and every workload program:
//! each runs to completion on a bare CPU core against the real protocol
//! semantics (wrapper and, where supported, simulated-heap backends).
//! Every run happens twice, on `CpuCore::step` and on the ISS's oracle
//! `CpuCore::step_reference`, each over a fresh bus, and the two must end
//! in the same state.

use dmi_core::{SimHeapBackend, SimHeapConfig, VptrPolicy, WrapperBackend, WrapperConfig};
use dmi_isa::Program;
use dmi_iss::{CpuCore, CpuStats, ExtBus, Flags, LocalMemory, StepEvent};
use dmi_sw::{workloads, FunctionalDsmBus, WorkloadCfg};

const MEM_BASE: u32 = 0x8000_0000;

/// Private memory of a workload core.
const LOCAL_SIZE: u32 = 0x20000;

/// One way to execute an instruction.
type Engine = fn(&mut CpuCore, &mut dyn ExtBus) -> StepEvent;

/// The engine under test, then its oracle.
const ENGINES: [Engine; 2] = [CpuCore::step, CpuCore::step_reference];

fn wrapper_bus() -> FunctionalDsmBus {
    let mut bus = FunctionalDsmBus::new();
    bus.add_module(
        MEM_BASE,
        0x1000,
        Box::new(WrapperBackend::new(WrapperConfig::default())),
    );
    bus
}

fn simheap_bus() -> FunctionalDsmBus {
    let mut bus = FunctionalDsmBus::new();
    bus.add_module(
        MEM_BASE,
        0x1000,
        Box::new(SimHeapBackend::new(SimHeapConfig::default())),
    );
    bus
}

fn new_core(id: u32, prog: &Program) -> CpuCore {
    let mut cpu = CpuCore::new(id, LocalMemory::new(0, LOCAL_SIZE));
    cpu.load_program(prog);
    cpu
}

/// Requires a `step` core and its `step_reference` twin to agree on
/// registers, flags, cycles, statistics (the host-side cache counters
/// aside), console, exit code and private memory.
fn assert_same(cpu: &CpuCore, oracle: &CpuCore) {
    let outcome = |c: &CpuCore| -> (Vec<u32>, Flags, u64, CpuStats, String, u32) {
        let stats = CpuStats {
            icache_hits: 0,
            icache_misses: 0,
            ..c.stats()
        };
        let regs = (0..16).map(|i| c.reg(dmi_isa::Reg::new(i))).collect();
        let console = c.console().text();
        (regs, c.flags(), c.cycles(), stats, console, c.exit_code())
    };
    assert_eq!(
        outcome(cpu),
        outcome(oracle),
        "cpu{}: engines diverged",
        cpu.id()
    );
    let image = |c: &CpuCore| c.local().read_slice(0, LOCAL_SIZE as usize).unwrap().to_vec();
    assert!(
        image(cpu) == image(oracle),
        "cpu{}: the engines left different local memory",
        cpu.id()
    );
}

/// Runs `prog` to halt on each engine over a fresh bus from `make_bus`,
/// requires the runs to agree, and returns the exit code and the bus of
/// the `step` run.
fn run_to_halt(prog: &Program, make_bus: impl Fn() -> FunctionalDsmBus) -> (u32, FunctionalDsmBus) {
    let [(cpu, bus), (oracle, _)] = ENGINES.map(|step| {
        let mut bus = make_bus();
        let mut cpu = new_core(0, prog);
        for _ in 0..50_000_000 {
            match step(&mut cpu, &mut bus) {
                StepEvent::Executed { .. } => {}
                StepEvent::Halted => return (cpu, bus),
                other => panic!(
                    "program did not halt: {other:?} at pc={:#x}, fault={:?}",
                    cpu.pc(),
                    cpu.fault()
                ),
            }
        }
        panic!("program did not halt within its step budget");
    });
    assert_same(&cpu, &oracle);
    (cpu.exit_code(), bus)
}

#[test]
fn alloc_churn_on_wrapper() {
    let cfg = WorkloadCfg {
        iterations: 50,
        ..WorkloadCfg::default()
    };
    let (code, bus) = run_to_halt(&workloads::alloc_churn(&cfg), wrapper_bus);
    assert_eq!(code, 0);
    let stats = bus.backend(0).stats();
    assert_eq!(stats.allocs, 50);
    assert_eq!(stats.frees, 50);
    assert_eq!(stats.writes, 100);
    assert_eq!(stats.reads, 100);
}

#[test]
fn alloc_churn_on_simheap() {
    let cfg = WorkloadCfg {
        iterations: 25,
        ..WorkloadCfg::default()
    };
    let (code, bus) = run_to_halt(&workloads::alloc_churn(&cfg), simheap_bus);
    assert_eq!(code, 0);
    assert_eq!(bus.backend(0).stats().allocs, 25);
}

#[test]
fn scalar_rw_on_both_models() {
    let cfg = WorkloadCfg {
        iterations: 64,
        buf_words: 8,
        ..WorkloadCfg::default()
    };
    let prog = workloads::scalar_rw(&cfg);
    assert_eq!(run_to_halt(&prog, wrapper_bus).0, 0);
    assert_eq!(run_to_halt(&prog, simheap_bus).0, 0);
}

#[test]
fn burst_and_scalar_copy() {
    let cfg = WorkloadCfg {
        iterations: 8,
        burst_len: 32,
        ..WorkloadCfg::default()
    };
    let (code, bus) = run_to_halt(&workloads::burst_copy(&cfg), wrapper_bus);
    assert_eq!(code, 0);
    let beats = bus.backend(0).stats().burst_beats;
    assert_eq!(beats, 8 * 32 * 2, "write + read beats per iteration");

    let (code, bus) = run_to_halt(&workloads::scalar_copy(&cfg), wrapper_bus);
    assert_eq!(code, 0);
    let s = bus.backend(0).stats();
    assert_eq!(s.writes, 8 * 32);
    assert_eq!(s.reads, 8 * 32);
}

#[test]
fn linked_list_pointer_arithmetic() {
    let cfg = WorkloadCfg {
        iterations: 40,
        ..WorkloadCfg::default()
    };
    let (code, bus) = run_to_halt(&workloads::linked_list(&cfg), wrapper_bus);
    assert_eq!(code, 0);
    // 40 nodes stay allocated (list is never freed).
    assert_eq!(bus.backend(0).stats().allocs, 40);
}

#[test]
fn linked_list_on_first_fit_policy() {
    let cfg = WorkloadCfg {
        iterations: 24,
        ..WorkloadCfg::default()
    };
    let first_fit_bus = || {
        let mut bus = FunctionalDsmBus::new();
        bus.add_module(
            MEM_BASE,
            0x1000,
            Box::new(WrapperBackend::new(WrapperConfig {
                policy: VptrPolicy::FirstFitReuse,
                ..WrapperConfig::default()
            })),
        );
        bus
    };
    assert_eq!(run_to_halt(&workloads::linked_list(&cfg), first_fit_bus).0, 0);
}

/// Interleaves two cores over one shared wrapper, scheduling one
/// instruction each alternately, to validate the pipe protocol and
/// reservations without the full co-simulation stack. Runs on each
/// engine over a fresh bus, requires the runs to agree, and returns the
/// exit codes and the bus of the `step` run.
fn run_pair(prog_a: &Program, prog_b: &Program) -> ((u32, u32), FunctionalDsmBus) {
    let [(cores, bus), (oracles, _)] = ENGINES.map(|step| {
        let mut bus = wrapper_bus();
        let mut cores = [new_core(0, prog_a), new_core(1, prog_b)];
        for n in 0..200_000_000u64 {
            if cores.iter().all(CpuCore::is_halted) {
                return (cores, bus);
            }
            let master = (n % 2) as usize;
            bus.master = master as u8;
            match step(&mut cores[master], &mut bus) {
                StepEvent::Executed { .. } | StepEvent::Halted => {}
                other => panic!("cpu{master}: {other:?}"),
            }
        }
        panic!("pair did not converge");
    });
    for (cpu, oracle) in cores.iter().zip(&oracles) {
        assert_same(cpu, oracle);
    }
    ((cores[0].exit_code(), cores[1].exit_code()), bus)
}

#[test]
fn producer_consumer_pipe() {
    let cfg = WorkloadCfg {
        iterations: 30,
        ..WorkloadCfg::default()
    };
    let ((pe, ce), _) = run_pair(
        &workloads::pipe_producer(&cfg),
        &workloads::pipe_consumer(&cfg),
    );
    assert_eq!(pe, 0, "producer exit");
    assert_eq!(ce, 0, "consumer checksum verified");
}

#[test]
fn reserved_counter_no_lost_updates() {
    let cfg = WorkloadCfg {
        iterations: 50,
        ..WorkloadCfg::default()
    };
    let ((a, b), mut bus) = run_pair(
        &workloads::reserved_counter(&cfg, true),
        &workloads::reserved_counter(&cfg, false),
    );
    assert_eq!(a, 0);
    assert_eq!(b, 0);
    // Both CPUs incremented 50 times each; no update lost under the
    // reservation discipline. Verify through a third reader program.
    let mut reader = CpuCore::new(2, LocalMemory::new(0, 0x10000));
    let mut asmr = dmi_isa::Asm::new();
    asmr.li(dmi_isa::Reg::R0, MEM_BASE);
    asmr.li(dmi_isa::Reg::R1, 0);
    asmr.li(dmi_isa::Reg::R2, 2);
    asmr.bl("dsm_read");
    asmr.swi(0); // halt with counter in r0
    dmi_sw::emit_dsm_driver(&mut asmr);
    reader.load_program(&asmr.assemble(0).unwrap());
    bus.master = 2;
    assert_eq!(reader.run(&mut bus, 10_000), StepEvent::Halted);
    assert_eq!(reader.exit_code(), 100);
}
