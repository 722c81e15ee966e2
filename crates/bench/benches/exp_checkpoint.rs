//! State-capture cost: what a full-system checkpoint costs to take,
//! serialize and restore as the system grows, what the CRC-32 behind
//! every section checksum and leg fingerprint costs per byte, and what
//! warm-forking is worth — M continuations fanned out of one mid-run
//! checkpoint versus M cold runs that each repeat the warmup.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dmi_gsm::pipeline::{self, PipelineCfg};
use dmi_kernel::crc32;
use dmi_sw::{workloads, WorkloadCfg};
use dmi_system::{
    mem_base, CpuSpec, McSystem, MemSpec, Snapshot, StopCondition, SystemBuilder,
};

/// `n` CPUs churning allocations against one wrapper memory — the
/// system-size axis for the save/load cost curve.
fn churn_system(n: usize) -> McSystem {
    let wl = WorkloadCfg {
        mem_base: mem_base(0),
        iterations: 200,
        ..WorkloadCfg::default()
    };
    let mut b = SystemBuilder::new();
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    for _ in 0..n {
        b.add_cpu(CpuSpec::new(workloads::alloc_churn(&wl)));
    }
    b.build().expect("churn system")
}

/// The headline GSM pipeline (2 frames, 1 wrapper memory, seed 0x5EED).
fn gsm_system() -> McSystem {
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
    b.build().expect("gsm pipeline system")
}

/// Checkpoint/serialize/restore cost as the component roster grows.
fn save_load_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp_checkpoint/save_load");
    g.sample_size(20);
    for n in [1usize, 4, 8] {
        let mut sys = churn_system(n);
        sys.run_until(&StopCondition::cycles(5_000));
        let bytes = sys.checkpoint().to_bytes();
        eprintln!("exp_checkpoint: {n} cpus -> {} snapshot bytes", bytes.len());

        g.bench_with_input(BenchmarkId::new("checkpoint", n), &n, |b, _| {
            b.iter(|| sys.checkpoint().section_count());
        });
        g.bench_with_input(BenchmarkId::new("to_bytes", n), &n, |b, _| {
            let snap = sys.checkpoint();
            b.iter(|| snap.to_bytes().len());
        });
        g.bench_with_input(BenchmarkId::new("from_bytes", n), &n, |b, _| {
            b.iter(|| Snapshot::from_bytes(&bytes).expect("parse").section_count());
        });
        g.bench_with_input(BenchmarkId::new("restore", n), &n, |b, _| {
            let snap = sys.checkpoint();
            let mut twin = churn_system(n);
            b.iter(|| twin.restore(&snap).expect("restore"));
        });
    }
    g.finish();
}

/// CRC-32 throughput over a 1 MiB buffer, the size class of a farm leg's
/// whole-snapshot fingerprint.
fn crc32_throughput(c: &mut Criterion) {
    const LEN: usize = 1 << 20;
    const REPS: usize = 16;
    let buf: Vec<u8> = (0..LEN as u32)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
        .collect();
    // Host-time read for the MB/s line only; it feeds no simulation.
    #[allow(clippy::disallowed_methods)]
    let t0 = std::time::Instant::now();
    for _ in 0..REPS {
        black_box(crc32(black_box(&buf)));
    }
    let mb_per_s = (REPS * LEN) as f64 / t0.elapsed().as_secs_f64() / 1e6;
    eprintln!("exp_checkpoint: crc32 over 1 MiB -> {mb_per_s:.0} MB/s");

    let mut g = c.benchmark_group("exp_checkpoint/crc32");
    g.sample_size(20);
    g.bench_function("1MiB", |b| {
        b.iter(|| crc32(black_box(&buf)));
    });
    g.finish();
}

/// Warm-fork A/B on the headline run: 8 continuations from one
/// checkpoint at cycle 200k versus 8 cold runs repeating the warmup.
fn warm_fork(c: &mut Criterion) {
    const SPLIT: u64 = 200_000;
    const M: usize = 8;

    let mut warm = gsm_system();
    let first = warm.run_until(&StopCondition::cycles(SPLIT));
    assert_eq!(first.sim_cycles, SPLIT);
    let snap = warm.checkpoint();

    let mut g = c.benchmark_group("exp_checkpoint/fork_ab");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("warm_fork", M), |b| {
        b.iter(|| {
            let systems = McSystem::fork(&snap, M, |_| gsm_system()).expect("fork");
            let mut total = 0u64;
            for mut sys in systems {
                let r = sys.run(u64::MAX / 4);
                assert!(r.all_ok(), "{}", r.summary());
                total += r.sim_cycles;
            }
            total
        });
    });
    g.bench_function(BenchmarkId::new("cold_runs", M), |b| {
        b.iter(|| {
            let mut total = 0u64;
            for _ in 0..M {
                let mut sys = gsm_system();
                let r = sys.run(u64::MAX / 4);
                assert!(r.all_ok(), "{}", r.summary());
                total += r.sim_cycles;
            }
            total
        });
    });
    g.finish();
}

criterion_group!(benches, save_load_cost, crc32_throughput, warm_fork);
criterion_main!(benches);
