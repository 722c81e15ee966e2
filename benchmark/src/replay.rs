//! Layer replays: each times one layer's public entry point in isolation,
//! so a per-layer number can move without the whole system around it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dmi_core::{DsmBackend, ElemType, Opcode, Request, SimHeapBackend, SimHeapConfig};
use dmi_core::{WrapperBackend, WrapperConfig};
use dmi_gsm::reference::LcgSource;
use dmi_isa::{Asm, Reg};
use dmi_iss::{CpuCore, LocalMemory, NoBus, StepEvent};
use dmi_kernel::Snapshot;
use dmi_system::{McSystem, StopCondition, SystemBuilder};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{accumulate, Observation};
use crate::CYCLE_CAP;

/// Medians of a mid-run checkpoint → bytes → restore round trip.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotCosts {
    pub checkpoint_s: f64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub restore_s: f64,
    pub bytes: f64,
}

/// Per-rep repetitions of each snapshot call (they do not advance the
/// simulation, so repeating them only adds samples).
const SNAPSHOT_INNER: usize = 5;

/// Checkpoints the system `describe` builds at half its run, encodes and
/// decodes the snapshot, restores it into a fresh build and runs that to
/// the end. The split run must reproduce the uninterrupted run's cycles
/// and kernel counters exactly; each rep counts as one checked op.
pub fn checkpoint_restore(
    describe: &dyn Fn() -> SystemBuilder,
    reps: usize,
    tracer: &mut Tracer,
    judge: &mut dyn FnMut(Result<Observation, String>),
) -> SnapshotCosts {
    let mut samples: [Vec<f64>; 4] = Default::default();
    let mut bytes = 0usize;
    let reference = run_whole(describe, tracer);
    for _ in 0..reps {
        let outcome = reference.clone().and_then(|reference| {
            let split = split_run(
                describe,
                reference.cycles / 2,
                tracer,
                &mut samples,
                &mut bytes,
            )?;
            if split == reference {
                Ok(split)
            } else {
                Err(format!(
                    "checkpoint-split run {split:?} != uninterrupted {reference:?}"
                ))
            }
        });
        judge(outcome);
    }
    let med = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
    SnapshotCosts {
        checkpoint_s: med(&samples[0]),
        encode_s: med(&samples[1]),
        decode_s: med(&samples[2]),
        restore_s: med(&samples[3]),
        bytes: bytes as f64,
    }
}

fn build(describe: &dyn Fn() -> SystemBuilder, t: &mut Tracer) -> Result<McSystem, String> {
    t.span("system", "build", |_| describe().build())
        .0
        .map_err(|e| e.to_string())
}

fn run_whole(describe: &dyn Fn() -> SystemBuilder, t: &mut Tracer) -> Result<Observation, String> {
    let mut sys = build(describe, t)?;
    let mut obs = Observation::default();
    let (r, _) = t.span("system", "run_until", |_| {
        sys.run_until(&StopCondition::cycles(CYCLE_CAP))
    });
    accumulate(&mut obs, &r);
    Ok(obs)
}

/// Runs `mid` cycles, moves the state through a snapshot's bytes into a
/// fresh build and finishes the run there. Pushes checkpoint, encode,
/// decode and restore times into `samples`.
fn split_run(
    describe: &dyn Fn() -> SystemBuilder,
    mid: u64,
    t: &mut Tracer,
    samples: &mut [Vec<f64>; 4],
    bytes: &mut usize,
) -> Result<Observation, String> {
    let mut first = build(describe, t)?;
    let mut obs = Observation::default();
    let (r, _) = t.span("system", "run_until", |_| {
        first.run_until(&StopCondition::cycles(mid))
    });
    accumulate(&mut obs, &r);
    let mut second = build(describe, t)?;
    for _ in 0..SNAPSHOT_INNER {
        let (snap, d) = t.span("system", "checkpoint", |_| first.checkpoint());
        samples[0].push(d.as_secs_f64());
        let (encoded, d) = t.span("kernel", "to_bytes", |_| snap.to_bytes());
        samples[1].push(d.as_secs_f64());
        *bytes = encoded.len();
        let (decoded, d) = t.span("kernel", "from_bytes", |_| Snapshot::from_bytes(&encoded));
        samples[2].push(d.as_secs_f64());
        let decoded = decoded.map_err(|e| format!("decoding own snapshot: {e}"))?;
        let (restored, d) = t.span("system", "restore", |_| second.restore(&decoded));
        samples[3].push(d.as_secs_f64());
        restored.map_err(|e| format!("restoring own snapshot: {e}"))?;
    }
    let (r, _) = t.span("system", "run_until", |_| {
        second.run_until(&StopCondition::cycles(CYCLE_CAP))
    });
    accumulate(&mut obs, &r);
    Ok(obs)
}

/// Host nanoseconds per instruction of the bare ISS: the GSM
/// autocorrelation kernel on a seeded frame, run on a `CpuCore` with no
/// bus (the `gsm_encode` bench shape). Median over `reps` runs.
pub fn iss_ns_per_instr(seed: u64, reps: usize, tracer: &mut Tracer) -> Result<f64, String> {
    const IN: u32 = 0x8000;
    let mut a = Asm::new();
    a.li(Reg::R0, IN);
    a.li(Reg::R1, 0x9000);
    a.li(Reg::R2, 0xA000);
    a.bl("gsm_autocorr");
    a.swi(0);
    dmi_gsm::codegen::emit_all_kernels(&mut a);
    let program = a
        .assemble(0)
        .map_err(|e| format!("autocorr kernel: {e:?}"))?;
    let frame = LcgSource::new(seed as u32).next_frame();

    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut cpu = CpuCore::new(0, LocalMemory::new(0, 0x20000));
        cpu.load_program(&program);
        for (i, &s) in frame.iter().enumerate() {
            cpu.local_mut()
                .write32(IN + 4 * i as u32, s as u32)
                .map_err(|e| format!("frame load: {e:?}"))?;
        }
        let (event, d) = tracer.span("iss", "CpuCore::run", |_| cpu.run(&mut NoBus, 10_000_000));
        if event != StepEvent::Halted {
            return Err(format!("autocorr kernel ended with {event:?}"));
        }
        samples.push(d.as_secs_f64() * 1e9 / cpu.stats().instructions as f64);
    }
    Ok(median(&samples))
}

/// Live-table sizes the memory-model replays run at: the headline's
/// handful of mailboxes, and `dyn_heap`'s thousands of list nodes.
pub const LIVE: [(usize, &str); 2] = [(8, "live8"), (8192, "live8k")];

/// Operations per timed batch: one clock read per eight operations keeps
/// the timer's own cost out of the per-operation figure.
const BATCH: usize = 8;

/// Per-operation host nanoseconds of one memory model.
pub struct DsmCosts {
    pub alloc_ns: f64,
    pub read_ns: f64,
    pub free_ns: f64,
}

pub fn new_backend(model: &str) -> Box<dyn DsmBackend> {
    match model {
        "wrapper" => Box::new(WrapperBackend::new(WrapperConfig::default())),
        _ => Box::new(SimHeapBackend::new(SimHeapConfig::default())),
    }
}

fn req(op: Opcode, arg0: u32, arg1: u32, arg2: u32) -> Request {
    Request {
        op,
        arg0,
        arg1,
        arg2,
        master: 0,
    }
}

/// Width code of a 32-bit scalar access.
const W32: u32 = 2;

/// Times a memory model with `live` two-word entries allocated: alloc of
/// 32 words plus two writes, two reads, one free, each through
/// `DsmBackend::execute`. Medians over `batches` batches.
pub fn dsm_costs(
    backend: &mut dyn DsmBackend,
    live: usize,
    batches: usize,
) -> Result<DsmCosts, String> {
    let alloc = |b: &mut dyn DsmBackend, words: u32| {
        b.execute(&req(Opcode::Alloc, words, ElemType::U32 as u32, 0))
    };
    for i in 0..live {
        let r = alloc(backend, 2);
        if !r.status.is_ok() {
            return Err(format!("populating entry {i}: {:?}", r.status));
        }
    }
    let (mut a_ns, mut r_ns, mut f_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut vptrs = [0u32; BATCH];
    let per_op = |d: Duration| d.as_secs_f64() * 1e9 / BATCH as f64;
    for batch in 0..batches as u32 {
        let mut ok = true;
        let t = Instant::now();
        for (k, v) in vptrs.iter_mut().enumerate() {
            let r = alloc(backend, 32);
            *v = r.result;
            let x = batch.wrapping_mul(31).wrapping_add(k as u32);
            ok &= r.status.is_ok()
                && backend
                    .execute(&req(Opcode::Write, *v, x, W32))
                    .status
                    .is_ok()
                && backend
                    .execute(&req(Opcode::Write, *v + 4, !x, W32))
                    .status
                    .is_ok();
        }
        a_ns.push(per_op(t.elapsed()));
        let mut sum = 0u32;
        let t = Instant::now();
        for &v in &vptrs {
            sum = sum
                .wrapping_add(backend.execute(&req(Opcode::Read, v, 0, W32)).result)
                .wrapping_add(backend.execute(&req(Opcode::Read, v + 4, 0, W32)).result);
        }
        r_ns.push(per_op(t.elapsed()));
        let t = Instant::now();
        for &v in &vptrs {
            ok &= backend.execute(&req(Opcode::Free, v, 0, 0)).status.is_ok();
        }
        f_ns.push(per_op(t.elapsed()));
        // x + !x == u32::MAX for each of the batch's allocations.
        let want = (BATCH as u32).wrapping_mul(u32::MAX);
        if !ok || black_box(sum) != want {
            return Err(format!("{} replay batch {batch} failed", backend.kind()));
        }
    }
    Ok(DsmCosts {
        alloc_ns: median(&a_ns),
        read_ns: median(&r_ns),
        free_ns: median(&f_ns),
    })
}
