//! E6 — I/O-array burst vs scalar transfer bench across burst lengths,
//! with and without bus grant retention (`BusConfig::burst_grant` — the
//! numbers behind its default decision in `ROADMAP.md`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmi_interconnect::BusConfig;
use dmi_sw::{workloads, WorkloadCfg};
use dmi_system::{mem_base, CpuSpec, InterconnectKind, MemSpec, SystemBuilder};

fn run(prog: dmi_isa::Program, burst_grant: bool) -> u64 {
    let mut b = SystemBuilder::new().interconnect(InterconnectKind::SharedBus(BusConfig {
        burst_grant,
        ..Default::default()
    }));
    b.add_cpu(CpuSpec::new(prog));
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    let mut sys = b.build().expect("burst system");
    let r = sys.run(u64::MAX / 4);
    assert!(r.all_ok());
    r.sim_cycles
}

fn burst(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_burst_vs_scalar");
    g.sample_size(10);
    for len in [4u32, 16, 64, 128] {
        let wl = WorkloadCfg {
            mem_base: mem_base(0),
            iterations: 8,
            burst_len: len,
            ..WorkloadCfg::default()
        };
        g.bench_with_input(BenchmarkId::new("burst", len), &wl, |b, wl| {
            b.iter(|| run(workloads::burst_copy(wl), false));
        });
        g.bench_with_input(BenchmarkId::new("burst_throughput", len), &wl, |b, wl| {
            b.iter(|| run(workloads::burst_copy(wl), true));
        });
        g.bench_with_input(BenchmarkId::new("scalar", len), &wl, |b, wl| {
            b.iter(|| run(workloads::scalar_copy(wl), false));
        });
    }
    g.finish();
}

criterion_group!(benches, burst);
criterion_main!(benches);
