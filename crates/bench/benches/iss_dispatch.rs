//! ISS dispatch microbench: instruction throughput of the bare interpreter
//! hot loop, `CpuCore::step` (predecoded micro-ops through the
//! decoded-instruction cache) against its oracle `CpuCore::step_reference`
//! (the word-at-a-time interpreter). This isolates exactly the work the
//! predecode layer removes — `decode` plus the nested-match walk — with no
//! kernel, bus or memory model in the way.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmi_isa::{Asm, Cond, Program, Reg};
use dmi_iss::{CpuCore, LocalMemory, NoBus, StepEvent};

/// A compute kernel with a realistic instruction mix: ALU with immediate
/// and shifted-register operands, multiply-accumulate, loads/stores over a
/// buffer, conditional execution and tight branches.
fn mix_program(iterations: u32) -> Program {
    let mut a = Asm::new();
    a.li(Reg::R0, iterations); // outer counter
    a.li(Reg::R9, 0x800); // buffer base in local memory
    a.li(Reg::R1, 0x1234_5678); // working value
    a.li(Reg::R2, 0);
    a.label("outer");
    // ALU / shifter mix.
    a.add(Reg::R2, Reg::R2, Reg::R1.into());
    a.eor(
        Reg::R1,
        Reg::R1,
        dmi_isa::Operand2::Reg {
            rm: Reg::R2,
            shift: dmi_isa::ShiftKind::Lsr,
            amount: 7,
        },
    );
    a.mla(Reg::R2, Reg::R1, Reg::R2, Reg::R0);
    // Store/load through a small ring of the buffer.
    a.and(Reg::R3, Reg::R0, 0x3Cu32.into());
    a.add(Reg::R3, Reg::R3, Reg::R9.into());
    a.str(Reg::R1, Reg::R3, 0);
    a.ldr(Reg::R4, Reg::R3, 0);
    a.add(Reg::R2, Reg::R2, Reg::R4.into());
    // Conditional path taken roughly every other iteration.
    a.tst(Reg::R0, 1u32.into());
    a.emit(dmi_isa::Instr::Dp {
        cond: Cond::Ne,
        op: dmi_isa::DpOp::Add,
        s: false,
        rd: Reg::R2,
        rn: Reg::R2,
        op2: 3u32.into(),
    });
    a.sub(Reg::R0, Reg::R0, 1u32.into());
    a.cmp(Reg::R0, 0u32.into());
    a.b_cond(Cond::Ne, "outer");
    a.swi(0);
    a.assemble(0).unwrap()
}

/// Runs `prog` to halt on a fresh core, one `step` call per instruction,
/// and returns the instruction count.
fn run_to_halt(prog: &Program, step: impl Fn(&mut CpuCore, &mut NoBus) -> StepEvent) -> u64 {
    let mut cpu = CpuCore::new(0, LocalMemory::new(0, 0x4000));
    cpu.load_program(prog);
    loop {
        match step(&mut cpu, &mut NoBus) {
            StepEvent::Executed { .. } => {}
            ev => {
                assert_eq!(ev, StepEvent::Halted);
                return cpu.stats().instructions;
            }
        }
    }
}

fn dispatch(c: &mut Criterion) {
    let prog = mix_program(2_000);
    let mut g = c.benchmark_group("iss_dispatch_2k_iter_mix");
    g.bench_with_input(BenchmarkId::new("predecoded", 0), &prog, |b, prog| {
        b.iter(|| run_to_halt(prog, |cpu, bus| cpu.step(bus)));
    });
    g.bench_with_input(BenchmarkId::new("reference", 0), &prog, |b, prog| {
        b.iter(|| run_to_halt(prog, |cpu, bus| cpu.step_reference(bus)));
    });
    g.finish();
}

criterion_group!(benches, dispatch);
criterion_main!(benches);
