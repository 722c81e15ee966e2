//! DMA traffic-generator stress: pure interconnect + memory-model load
//! with zero ISSs, at increasing master counts, on both topologies.
//!
//! This is the workload the `BusMaster` trait unlocks: arbitration and
//! slave-port behaviour under saturated request lines, with no
//! instruction-stream cost mixed in.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmi_interconnect::BusConfig;
use dmi_masters::{BurstSpec, DmaConfig, DmaEngine, DmaKind};
use dmi_system::{mem_base, InterconnectKind, MemSpec, SystemBuilder};

/// Builds and runs `n` fill engines hammering `n_mems` static memories;
/// returns simulated cycles to completion.
fn run(n: usize, n_mems: usize, crossbar: bool) -> u64 {
    let mut b = SystemBuilder::new();
    if crossbar {
        b = b.interconnect(InterconnectKind::Crossbar(Default::default()));
    }
    for j in 0..n_mems {
        b.add_memory(MemSpec::static_table(mem_base(j)));
    }
    for i in 0..n {
        b.add_master(Box::new(DmaEngine::new(DmaConfig {
            kind: DmaKind::Fill { seed: i as u32 },
            // Engines spread over the memories; disjoint 1 KiB blocks.
            dst: mem_base(i % n_mems) + (i as u32 / n_mems as u32) * 0x400,
            words: 128,
            passes: 4,
            ..DmaConfig::default()
        })));
    }
    let mut sys = b.build().expect("stress system");
    let r = sys.run(u64::MAX / 4);
    assert!(r.all_ok(), "{}", r.summary());
    r.sim_cycles
}

/// `n` burst-mode fill engines driving one wrapper memory's register
/// block: every payload word crosses the slave-side banked I/O arrays
/// (`WriteBurst`/`ReadBurst` + streamed `DATA` beats) instead of scalar
/// stores, with or without bus grant retention.
fn run_burst(n: usize, burst_grant: bool) -> u64 {
    let mut b = SystemBuilder::new().interconnect(InterconnectKind::SharedBus(BusConfig {
        burst_grant,
        ..Default::default()
    }));
    b.add_memory(MemSpec::wrapper(mem_base(0)));
    for i in 0..n {
        b.add_master(Box::new(DmaEngine::new(DmaConfig {
            kind: DmaKind::Fill { seed: i as u32 },
            dst: mem_base(0),
            words: 128,
            passes: 2,
            burst: Some(BurstSpec {
                beats: 16,
                verify: true,
                at: None,
            }),
            ..DmaConfig::default()
        })));
    }
    let mut sys = b.build().expect("burst stress system");
    let r = sys.run(u64::MAX / 4);
    assert!(r.all_ok(), "{}", r.summary());
    r.sim_cycles
}

fn dma_stress(c: &mut Criterion) {
    let mut g = c.benchmark_group("dma_stress");
    g.sample_size(10);
    for n in [1usize, 4, 8, 16] {
        g.bench_with_input(BenchmarkId::new("bus_1mem", n), &n, |b, &n| {
            b.iter(|| run(n, 1, false));
        });
        g.bench_with_input(BenchmarkId::new("xbar_4mem", n), &n, |b, &n| {
            b.iter(|| run(n, 4.min(n), true));
        });
    }
    // The burst-capable engines with and without grant retention
    // (seed-comparable re-arbitration vs AMBA-style grant retention).
    for n in [1usize, 8] {
        g.bench_with_input(BenchmarkId::new("burst_seed", n), &n, |b, &n| {
            b.iter(|| run_burst(n, false));
        });
        g.bench_with_input(BenchmarkId::new("burst_throughput", n), &n, |b, &n| {
            b.iter(|| run_burst(n, true));
        });
    }
    g.finish();
}

criterion_group!(benches, dma_stress);
criterion_main!(benches);
