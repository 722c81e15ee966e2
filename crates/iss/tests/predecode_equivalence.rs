//! Differential tests of `CpuCore::step` against its oracle
//! `CpuCore::step_reference`: for every encodable instruction, executing
//! the predecoded micro-op through the decoded-instruction cache and
//! interpreting the word on the reference path must produce identical
//! architectural state, cycle charges, statistics and fault behaviour,
//! also when the bus stalls each external access before serving it.
//! Includes the self-modifying-code invalidation regression tests for the
//! cache.

use dmi_isa::{decode, Asm, Cond, Reg};
use dmi_iss::{CpuCore, ExtBus, ExtResult, ExtWidth, FlatBus, LocalMemory, NoBus, StepEvent};
use proptest::prelude::*;

const MEM_SIZE: u32 = 0x1000;
const CODE_BASE: u32 = 0x100;
const EXT_BASE: u32 = CpuCore::EXT_BASE;
const EXT_SIZE: u32 = 0x100;

/// One way to execute an instruction.
type Engine = fn(&mut CpuCore, &mut dyn ExtBus) -> StepEvent;

/// The engine under test and its oracle, named for assertion messages.
const ENGINES: [(&str, Engine); 2] = [
    ("step", CpuCore::step),
    ("step_reference", CpuCore::step_reference),
];

/// `CpuCore::run` on a chosen engine with no external bus: steps until
/// the core stops or `max_steps` instructions ran.
fn run(cpu: &mut CpuCore, engine: Engine, max_steps: u64) -> StepEvent {
    for _ in 0..max_steps {
        match engine(cpu, &mut NoBus) {
            StepEvent::Executed { .. } => {}
            other => return other,
        }
    }
    StepEvent::Executed { cycles: 0 }
}

/// A `FlatBus` that answers `Stall` `stalls` times before it serves each
/// access, as an interconnect does while it arbitrates.
struct StallingBus {
    flat: FlatBus,
    stalls: u32,
    left: u32,
}

impl StallingBus {
    fn serve(&mut self, access: impl FnOnce(&mut FlatBus) -> ExtResult) -> ExtResult {
        if self.left > 0 {
            self.left -= 1;
            return ExtResult::Stall;
        }
        self.left = self.stalls;
        access(&mut self.flat)
    }
}

impl ExtBus for StallingBus {
    fn ext_read(&mut self, addr: u32, width: ExtWidth) -> ExtResult {
        self.serve(|b| b.ext_read(addr, width))
    }

    fn ext_write(&mut self, addr: u32, value: u32, width: ExtWidth) -> ExtResult {
        self.serve(|b| b.ext_write(addr, value, width))
    }
}

/// Everything observable about a core after a step sequence.
#[derive(Debug, Clone, PartialEq)]
struct Observation {
    events: Vec<StepEvent>,
    regs: Vec<u32>,
    nzcv: (bool, bool, bool, bool),
    cycles: u64,
    halted: bool,
    exit_code: u32,
    console: String,
    // Dispatch counters deliberately excluded: they differ by design.
    instructions: u64,
    loads: u64,
    stores: u64,
    ext_reads: u64,
    ext_writes: u64,
    branches: u64,
    swis: u64,
    cond_skipped: u64,
    fault: Option<String>,
    local_mem: Vec<u8>,
    ext_mem: Vec<u32>,
    ext_accesses: u64,
}

fn observe(cpu: &CpuCore, bus: &mut FlatBus, events: Vec<StepEvent>) -> Observation {
    let s = cpu.stats();
    let f = cpu.flags();
    let ext_mem = (0..EXT_SIZE / 4)
        .map(|i| match bus.ext_read(EXT_BASE + i * 4, ExtWidth::Word) {
            ExtResult::Done(v) => v,
            other => panic!("flat bus readback failed: {other:?}"),
        })
        .collect();
    Observation {
        events,
        regs: (0..16).map(|i| cpu.reg(Reg::new(i))).collect(),
        nzcv: (f.n, f.z, f.c, f.v),
        cycles: cpu.cycles(),
        halted: cpu.is_halted(),
        exit_code: cpu.exit_code(),
        console: cpu.console().text(),
        instructions: s.instructions,
        loads: s.loads,
        stores: s.stores,
        ext_reads: s.ext_reads,
        ext_writes: s.ext_writes,
        branches: s.branches,
        swis: s.swis,
        cond_skipped: s.cond_skipped,
        fault: cpu.fault().map(|f| f.to_string()),
        local_mem: cpu.local().read_slice(0, MEM_SIZE as usize).unwrap().to_vec(),
        ext_mem,
        ext_accesses: bus.accesses,
    }
}

/// Builds a core + bus pair: program words at `CODE_BASE`, registers and
/// flags from the given seeds, data pattern in local and external memory.
fn setup(words: &[u32], regs: &[u32; 13], flags: u8) -> (CpuCore, FlatBus) {
    let mut cpu = CpuCore::new(0, LocalMemory::new(0, MEM_SIZE));
    // Deterministic data pattern so wild loads read defined values.
    for a in (0..MEM_SIZE).step_by(4) {
        cpu.local_mut()
            .write32(a, a.wrapping_mul(0x9E37_79B9))
            .unwrap();
    }
    let mut a = Asm::new();
    for &w in words {
        a.word(w);
    }
    cpu.load_program(&a.assemble(CODE_BASE).unwrap());
    for (i, &v) in regs.iter().enumerate() {
        cpu.set_reg(Reg::new(i as u8), v);
    }
    // r13 (sp) keeps its reset value; r14 gets a fixed link address.
    cpu.set_reg(Reg::LR, CODE_BASE + 0x40);
    let mut bus = FlatBus::new(EXT_BASE, EXT_SIZE);
    for i in 0..EXT_SIZE / 4 {
        bus.ext_write(
            EXT_BASE + i * 4,
            0xABu32.wrapping_mul(i + 1),
            ExtWidth::Word,
        );
    }
    bus.accesses = 0;
    cpu.set_flags(dmi_iss::Flags {
        n: flags & 1 != 0,
        z: flags & 2 != 0,
        c: flags & 4 != 0,
        v: flags & 8 != 0,
    });
    (cpu, bus)
}

/// Runs a program on `engine` for up to `steps` instructions, behind a
/// bus that stalls each external access `stalls` times. A stall commits
/// nothing, so the loop retries it; its events stay in the observation.
fn run_engine(
    engine: Engine,
    words: &[u32],
    regs: &[u32; 13],
    flags: u8,
    steps: u32,
    stalls: u32,
) -> Observation {
    let (mut cpu, flat) = setup(words, regs, flags);
    let mut bus = StallingBus {
        flat,
        stalls,
        left: stalls,
    };
    let mut events = Vec::new();
    let mut executed = 0;
    while executed < steps {
        let ev = engine(&mut cpu, &mut bus);
        let stop = match ev {
            StepEvent::Executed { .. } => {
                executed += 1;
                false
            }
            StepEvent::Stalled => false,
            _ => true,
        };
        events.push(ev);
        assert!(
            events.len() <= (steps * (stalls + 1)) as usize,
            "an access stalled after the bus served it"
        );
        if stop {
            break;
        }
    }
    observe(&cpu, &mut bus.flat, events)
}

/// Runs the same program on both engines and returns their observations.
/// With stalls, `step` must also end where it ends unstalled, its stall
/// events aside.
fn run_both(
    words: &[u32],
    regs: &[u32; 13],
    flags: u8,
    steps: u32,
    stalls: u32,
) -> (Observation, Observation) {
    let [step, reference] =
        ENGINES.map(|(_, engine)| run_engine(engine, words, regs, flags, steps, stalls));
    if stalls > 0 {
        let mut retried = step.clone();
        retried.events.retain(|ev| *ev != StepEvent::Stalled);
        let unstalled = run_engine(CpuCore::step, words, regs, flags, steps, 0);
        assert_eq!(retried, unstalled, "a stall committed state");
    }
    (step, reference)
}

/// Register-value strategy biased toward addresses that exercise local
/// loads/stores, the external window, and boundary conditions.
fn reg_value() -> impl Strategy<Value = u32> {
    prop_oneof![
        3 => (0u32..MEM_SIZE).prop_map(|v| v & !3),
        2 => 0u32..MEM_SIZE,
        2 => (0u32..EXT_SIZE).prop_map(|v| EXT_BASE + (v & !3)),
        1 => Just(MEM_SIZE - 4),
        1 => Just(EXT_BASE),
        1 => any::<u32>(),
        1 => 0u32..64,
    ]
}

fn reg_file() -> impl Strategy<Value = [u32; 13]> {
    proptest::collection::vec(reg_value(), 13).prop_map(|v| {
        let mut r = [0u32; 13];
        r.copy_from_slice(&v);
        r
    })
}

/// Instruction-word strategy: random words filtered to valid encodings,
/// with half the cases forced to condition AL so they actually execute.
fn instr_word() -> impl Strategy<Value = u32> {
    (any::<u32>(), any::<bool>()).prop_filter_map("undecodable word", |(w, force_al)| {
        let w = if force_al { (w & 0x0FFF_FFFF) | 0xE000_0000 } else { w };
        decode(w).ok().map(|_| w)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// Single arbitrary instruction: both engines observe identically.
    #[test]
    fn single_instruction_equivalence(
        word in instr_word(),
        regs in reg_file(),
        flags in 0u8..16,
        stalls in 0u32..=3,
    ) {
        let (pre, refr) = run_both(&[word], &regs, flags, 1, stalls);
        prop_assert_eq!(
            &pre, &refr,
            "engines diverged on word {:#010x} ({}), {} stalls",
            word,
            dmi_isa::disasm(word),
            stalls
        );
    }

    /// Short straight-line-with-jumps programs: trajectories match over
    /// many steps (exercises cache fills, hits, the fused sequential path
    /// and incidental self-modification by wild stores).
    #[test]
    fn program_trajectory_equivalence(
        words in proptest::collection::vec(instr_word(), 1..24),
        regs in reg_file(),
        flags in 0u8..16,
        stalls in 0u32..=3,
    ) {
        let (pre, refr) = run_both(&words, &regs, flags, 200, stalls);
        prop_assert_eq!(
            &pre, &refr,
            "engines diverged on program {:x?}, {} stalls",
            words,
            stalls
        );
    }
}

/// The cache must observe stores that rewrite upcoming instructions:
/// execute a loop body once, overwrite one of its instructions from the
/// loop itself, and require the rewritten semantics on the next pass.
#[test]
fn self_modifying_code_invalidates_cache() {
    let run_on = |engine: Engine| {
        let mut a = Asm::new();
        // r4 counts passes; r1 is the observed payload.
        a.li(Reg::R4, 0);
        a.label("loop");
        a.label("target");
        a.mov(Reg::R1, 7u32.into()); // the instruction that gets rewritten
        // After the first pass, overwrite `target` with `mov r1, #42`.
        a.li(Reg::R0, 0); // patched below with the new encoding
        a.li(Reg::R2, 0); // patched below with the target address
        a.str(Reg::R0, Reg::R2, 0);
        a.add(Reg::R4, Reg::R4, 1u32.into());
        a.cmp(Reg::R4, 2u32.into());
        a.b_cond(Cond::Lt, "loop");
        a.swi(0);
        let mut p = a.assemble(CODE_BASE).unwrap();
        let target = p.symbol("target").unwrap();
        // Patch the immates now that addresses are known.
        let new_instr = dmi_isa::encode(&dmi_isa::Instr::Dp {
            cond: Cond::Al,
            op: dmi_isa::DpOp::Mov,
            s: false,
            rd: Reg::R1,
            rn: Reg::R0,
            op2: dmi_isa::Operand2::Imm { imm8: 42, rot: 0 },
        });
        // Rebuild with the real constants.
        let mut a = Asm::new();
        a.li(Reg::R4, 0);
        a.label("loop");
        a.label("target");
        a.mov(Reg::R1, 7u32.into());
        a.li(Reg::R0, new_instr);
        a.li(Reg::R2, target);
        a.str(Reg::R0, Reg::R2, 0);
        a.add(Reg::R4, Reg::R4, 1u32.into());
        a.cmp(Reg::R4, 2u32.into());
        a.b_cond(Cond::Lt, "loop");
        a.swi(0);
        p = a.assemble(CODE_BASE).unwrap();

        let mut cpu = CpuCore::new(0, LocalMemory::new(0, MEM_SIZE));
        cpu.load_program(&p);
        let ev = run(&mut cpu, engine, 10_000);
        assert_eq!(ev, StepEvent::Halted, "program must halt ({ev:?})");
        (cpu.reg(Reg::R1), cpu.reg(Reg::R4), cpu.cycles(), cpu.stats())
    };
    let (r1_pre, passes_pre, cycles_pre, stats_pre) = run_on(CpuCore::step);
    let (r1_ref, passes_ref, cycles_ref, _) = run_on(CpuCore::step_reference);
    assert_eq!(passes_pre, 2);
    assert_eq!(
        r1_pre, 42,
        "second pass must execute the rewritten instruction"
    );
    assert_eq!((r1_pre, passes_pre, cycles_pre), (r1_ref, passes_ref, cycles_ref));
    assert!(
        stats_pre.icache_hits > 0,
        "the loop must actually hit the cache: {stats_pre:?}"
    );
}

/// A store into already-cached code immediately before re-execution: the
/// generation check alone (without the word compare) would serve the stale
/// micro-op.
#[test]
fn store_to_cached_line_takes_effect_next_fetch() {
    let mut a = Asm::new();
    // Pass 0: r5 = 1, executes `add r1, r1, #1` at `patch`.
    // Then overwrite `patch` with `add r1, r1, #9` and loop once more.
    let add9 = dmi_isa::encode(&dmi_isa::Instr::Dp {
        cond: Cond::Al,
        op: dmi_isa::DpOp::Add,
        s: false,
        rd: Reg::R1,
        rn: Reg::R1,
        op2: dmi_isa::Operand2::Imm { imm8: 9, rot: 0 },
    });
    a.li(Reg::R1, 0);
    a.li(Reg::R4, 0);
    a.label("loop");
    a.label("patch");
    a.add(Reg::R1, Reg::R1, 1u32.into());
    a.li(Reg::R0, add9);
    a.adr(Reg::R2, "patch");
    a.str(Reg::R0, Reg::R2, 0);
    a.add(Reg::R4, Reg::R4, 1u32.into());
    a.cmp(Reg::R4, 3u32.into());
    a.b_cond(Cond::Lt, "loop");
    a.swi(0);
    let p = a.assemble(CODE_BASE).unwrap();

    for (name, engine) in ENGINES {
        let mut cpu = CpuCore::new(0, LocalMemory::new(0, MEM_SIZE));
        cpu.load_program(&p);
        assert_eq!(run(&mut cpu, engine, 10_000), StepEvent::Halted);
        // Pass 1 adds 1, passes 2 and 3 add 9 each.
        assert_eq!(
            cpu.reg(Reg::R1),
            19,
            "{name}: rewritten add must execute on later passes"
        );
    }
}

/// Dispatch counters: `step` reports hits after the first pass over a
/// loop; `step_reference` reports none. The counters are not saved
/// state: both engines save the same bytes.
#[test]
fn icache_counters_surface() {
    let mut a = Asm::new();
    a.li(Reg::R0, 50);
    a.label("loop");
    a.sub(Reg::R0, Reg::R0, 1u32.into());
    a.cmp(Reg::R0, 0u32.into());
    a.b_cond(Cond::Ne, "loop");
    a.swi(0);
    let p = a.assemble(0).unwrap();

    let run_on = |engine: Engine| {
        let mut cpu = CpuCore::new(0, LocalMemory::new(0, MEM_SIZE));
        cpu.load_program(&p);
        assert_eq!(run(&mut cpu, engine, 100_000), StepEvent::Halted);
        cpu
    };
    let saved = |cpu: &CpuCore| {
        let mut w = dmi_kernel::StateWriter::new();
        cpu.save_state(&mut w);
        w.into_bytes()
    };

    let cached = run_on(CpuCore::step);
    let s = cached.stats();
    assert!(s.icache_hits > 100, "loop iterations must hit: {s:?}");
    assert!(
        s.icache_misses <= 8,
        "only the first pass should miss: {s:?}"
    );
    assert!(s.icache_hit_rate() > 0.9);

    let reference = run_on(CpuCore::step_reference);
    let s = reference.stats();
    assert_eq!((s.icache_hits, s.icache_misses), (0, 0));
    assert_eq!(s.icache_hit_rate(), 0.0);

    assert!(
        saved(&cached) == saved(&reference),
        "the two engines save different state"
    );
}
