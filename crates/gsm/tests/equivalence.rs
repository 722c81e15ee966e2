//! Kernel-by-kernel bit-exactness: each SimARM stage, executed on the ISS,
//! must produce the same words as the Rust reference. Every harness also
//! runs on the ISS's oracle, `CpuCore::step_reference`, which must end in
//! the same state as `CpuCore::step`.

use dmi_gsm::codegen;
use dmi_gsm::reference as r;
use dmi_isa::{Asm, Reg};
use dmi_iss::{CpuCore, CpuStats, ExtBus, Flags, LocalMemory, NoBus, StepEvent};

/// Private memory of a harness core.
const LOCAL_SIZE: u32 = 0x20000;

/// Fixed local-memory addresses for kernel harness buffers.
const IN0: u32 = 0x8000; // primary input
const IN1: u32 = 0x9000; // secondary input
const OUT: u32 = 0xA000; // output
const SCRATCH: u32 = 0xB000; // kernel scratch
const STATE: u32 = 0xC000; // filter/LCG state

/// Builds a harness program: load the argument registers, call `kernel`,
/// halt. Buffers are poked/peeked by the host around the run.
fn harness(kernel: &str, args: &[u32]) -> dmi_isa::Program {
    let mut a = Asm::new();
    for (i, &v) in args.iter().enumerate() {
        a.li(Reg::new(i as u8), v);
    }
    a.bl(kernel);
    a.li(Reg::R0, 0);
    a.swi(0);
    codegen::emit_all_kernels(&mut a);
    a.assemble(0).unwrap()
}

/// Registers, flags, cycles, statistics (the host-side cache counters
/// zeroed) and console output: what both engines must agree on.
fn outcome(cpu: &CpuCore) -> (Vec<u32>, Flags, u64, CpuStats, String) {
    let stats = CpuStats {
        icache_hits: 0,
        icache_misses: 0,
        ..cpu.stats()
    };
    let regs = (0..16).map(|i| cpu.reg(Reg::new(i))).collect();
    (regs, cpu.flags(), cpu.cycles(), stats, cpu.console().text())
}

/// Runs a harness to halt on `CpuCore::step` and on `step_reference`,
/// requires both to end in the same state, and returns the `step` core.
fn run_kernel(prog: &dmi_isa::Program, setup: impl Fn(&mut CpuCore)) -> CpuCore {
    let run = |step: fn(&mut CpuCore, &mut dyn ExtBus) -> StepEvent| {
        let mut cpu = CpuCore::new(0, LocalMemory::new(0, LOCAL_SIZE));
        cpu.load_program(prog);
        setup(&mut cpu);
        for _ in 0..100_000_000 {
            match step(&mut cpu, &mut NoBus) {
                StepEvent::Executed { .. } => {}
                StepEvent::Halted => return cpu,
                other => panic!("kernel did not halt: {other:?}"),
            }
        }
        panic!("kernel did not halt within its step budget");
    };
    let (cpu, oracle) = (run(CpuCore::step), run(CpuCore::step_reference));
    assert_eq!(
        outcome(&cpu),
        outcome(&oracle),
        "step and step_reference diverged"
    );
    let image = |c: &CpuCore| c.local().read_slice(0, LOCAL_SIZE as usize).unwrap().to_vec();
    assert!(
        image(&cpu) == image(&oracle),
        "the engines left different local memory"
    );
    cpu
}

fn write_words(cpu: &mut CpuCore, addr: u32, words: &[i32]) {
    for (i, &w) in words.iter().enumerate() {
        cpu.local_mut()
            .write32(addr + (i as u32) * 4, w as u32)
            .unwrap();
    }
}

fn read_words(cpu: &CpuCore, addr: u32, n: usize) -> Vec<i32> {
    (0..n)
        .map(|i| cpu.local().read32(addr + (i as u32) * 4).unwrap() as i32)
        .collect()
}

fn test_frames(n: usize) -> Vec<[i32; 160]> {
    let mut src = r::LcgSource::new(0xC0FFEE);
    (0..n).map(|_| src.next_frame()).collect()
}

#[test]
fn lcg_frame_matches_reference() {
    let prog = harness("gsm_lcg_frame", &[OUT, STATE]);
    let cpu = run_kernel(&prog, |cpu| {
        cpu.local_mut().write32(STATE, 0xC0FFEE).unwrap();
    });
    let got = read_words(&cpu, OUT, 160);
    let mut src = r::LcgSource::new(0xC0FFEE);
    let want = src.next_frame();
    assert_eq!(got, want.to_vec());
}

#[test]
fn preprocess_matches_reference() {
    let frames = test_frames(3);
    let mut st = r::PreState::default();
    let mut asm_state = [0i32; 2];
    for frame in &frames {
        let want = r::preprocess(frame, &mut st);
        let prog = harness("gsm_preprocess", &[IN0, OUT, STATE]);
        let cpu = run_kernel(&prog, |cpu| {
            write_words(cpu, IN0, frame);
            write_words(cpu, STATE, &asm_state);
        });
        let got = read_words(&cpu, OUT, 160);
        assert_eq!(got, want.to_vec());
        asm_state = [
            cpu.local().read32(STATE).unwrap() as i32,
            cpu.local().read32(STATE + 4).unwrap() as i32,
        ];
    }
}

#[test]
fn autocorr_matches_reference() {
    let mut st = r::PreState::default();
    for frame in &test_frames(2) {
        let d = r::preprocess(frame, &mut st);
        let (want, _) = r::autocorrelation(&d);
        let prog = harness("gsm_autocorr", &[IN0, OUT, SCRATCH]);
        let cpu = run_kernel(&prog, |cpu| write_words(cpu, IN0, &d));
        let got = read_words(&cpu, OUT, 9);
        assert_eq!(got, want.to_vec());
    }
}

#[test]
fn autocorr_loud_signal_normalizes() {
    let loud = [8191i32; 160];
    let (want, sh) = r::autocorrelation(&loud);
    assert!(sh > 0);
    let prog = harness("gsm_autocorr", &[IN0, OUT, SCRATCH]);
    let cpu = run_kernel(&prog, |cpu| write_words(cpu, IN0, &loud));
    assert_eq!(read_words(&cpu, OUT, 9), want.to_vec());
}

#[test]
fn schur_matches_reference() {
    let mut st = r::PreState::default();
    for frame in &test_frames(3) {
        let d = r::preprocess(frame, &mut st);
        let (l_acf, _) = r::autocorrelation(&d);
        let want = r::reflection_coefficients(&l_acf);
        let prog = harness("gsm_schur", &[IN0, OUT, SCRATCH]);
        let cpu = run_kernel(&prog, |cpu| write_words(cpu, IN0, &l_acf));
        let got = read_words(&cpu, OUT, 8);
        assert_eq!(got, want.to_vec(), "L_ACF {l_acf:?}");
    }
}

#[test]
fn schur_zero_input_gives_zero_rc() {
    let prog = harness("gsm_schur", &[IN0, OUT, SCRATCH]);
    let cpu = run_kernel(&prog, |cpu| {
        write_words(cpu, IN0, &[0; 9]);
        // Poison the output to prove the kernel zeroes it.
        write_words(cpu, OUT, &[-1; 8]);
    });
    assert_eq!(read_words(&cpu, OUT, 8), vec![0; 8]);
}

#[test]
fn lar_matches_reference() {
    let rcs = [
        [-32768, -30000, -22118, -22117, 0, 22117, 31129, 32767],
        [-100, 100, -11059, 11059, -31130, 31130, 5000, -5000],
    ];
    for rc in &rcs {
        let want = r::quantize_lar(&r::rc_to_lar(rc));
        let prog = harness("gsm_lar", &[IN0, OUT]);
        let cpu = run_kernel(&prog, |cpu| write_words(cpu, IN0, rc));
        assert_eq!(read_words(&cpu, OUT, 8), want.to_vec(), "rc {rc:?}");
    }
}

#[test]
fn ltp_matches_reference() {
    let mut st = r::PreState::default();
    let frames = test_frames(2);
    let d0 = r::preprocess(&frames[0], &mut st);
    let d1 = r::preprocess(&frames[1], &mut st);
    // Subframe 1 of frame 1, with real history.
    for sf in 0..4 {
        let t = sf * 40;
        let sub: [i32; 40] = std::array::from_fn(|k| d1[t + k]);
        let prev: [i32; 120] = std::array::from_fn(|j| {
            let g = t as i32 + j as i32 - 120;
            if g < 0 {
                d0[(g + 160) as usize]
            } else {
                d1[g as usize]
            }
        });
        let (want_nc, want_bc) = r::ltp(&sub, &prev);
        let prog = harness("gsm_ltp", &[IN0, IN1, OUT, SCRATCH]);
        let cpu = run_kernel(&prog, |cpu| {
            write_words(cpu, IN0, &sub);
            write_words(cpu, IN1, &prev);
        });
        let got = read_words(&cpu, OUT, 2);
        assert_eq!(got[0] as usize, want_nc, "subframe {sf} lag");
        assert_eq!(got[1], want_bc, "subframe {sf} gain");
    }
}

#[test]
fn weighting_matches_reference() {
    let mut st = r::PreState::default();
    let d = r::preprocess(&test_frames(1)[0], &mut st);
    for sf in 0..4 {
        let sub: [i32; 40] = std::array::from_fn(|k| d[sf * 40 + k]);
        let want = r::weighting_filter(&sub);
        let prog = harness("gsm_weight", &[IN0, OUT, SCRATCH]);
        let cpu = run_kernel(&prog, |cpu| write_words(cpu, IN0, &sub));
        assert_eq!(read_words(&cpu, OUT, 40), want.to_vec(), "subframe {sf}");
    }
}

#[test]
fn rpe_matches_reference() {
    let mut st = r::PreState::default();
    let d = r::preprocess(&test_frames(1)[0], &mut st);
    for sf in 0..4 {
        let sub: [i32; 40] = std::array::from_fn(|k| d[sf * 40 + k]);
        let x = r::weighting_filter(&sub);
        let (want_m, want_xm) = r::rpe_grid(&x);
        let (want_exp, want_xmc) = r::apcm(&want_xm);
        let prog = harness("gsm_rpe", &[IN0, OUT]);
        let cpu = run_kernel(&prog, |cpu| write_words(cpu, IN0, &x));
        let got = read_words(&cpu, OUT, 15);
        assert_eq!(got[0] as usize, want_m, "grid, subframe {sf}");
        assert_eq!(got[1], want_exp, "exp, subframe {sf}");
        assert_eq!(&got[2..15], &want_xmc, "xmc, subframe {sf}");
    }
}

#[test]
fn rpe_zero_signal() {
    let prog = harness("gsm_rpe", &[IN0, OUT]);
    let cpu = run_kernel(&prog, |cpu| write_words(cpu, IN0, &[0; 40]));
    let got = read_words(&cpu, OUT, 15);
    assert_eq!(got[1], 0, "exp");
    assert_eq!(&got[2..15], &[4; 13], "zero codes");
}
