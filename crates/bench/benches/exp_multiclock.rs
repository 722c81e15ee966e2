//! Heterogeneous multi-clock scenarios: 2–8 clock domains at co-prime
//! half-periods, each driving a CPU + burst-DMA + wrapper-memory
//! subsystem on its own bus (the topology of
//! [`multiclock_sim`](dmi_bench::scenarios::multiclock_sim)). This is
//! where the clock calendar's win over queued toggles is largest: with
//! co-prime periods the per-clock toggle streams never merge, so the
//! queued implementation pays one heap push + pop per clock per
//! half-period, forever — while the calendar serves every toggle from a
//! slot min-scan.
//!
//! Each configuration is measured twice: `calendar` (the default) and
//! `queue` (`set_clock_calendar(false)`, the reference path), on the
//! same simulated tick budget. The two modes are asserted
//! simulation-bit-identical (`KernelStats`) before measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmi_bench::scenarios::multiclock_sim;
use dmi_kernel::KernelStats;

fn run(n_domains: usize, calendar: bool, ticks: u64) -> KernelStats {
    let mut sim = multiclock_sim(n_domains);
    // Moves the toggles armed at build time to the chosen path, with
    // their original keys.
    sim.set_clock_calendar(calendar);
    sim.run_for(ticks);
    if calendar {
        let fast = sim.fast_path_stats();
        assert_eq!(fast.calendar_toggles, fast.clock_toggles);
    }
    sim.stats()
}

fn multiclock(c: &mut Criterion) {
    const TICKS: u64 = 30_000;
    let mut g = c.benchmark_group("exp_multiclock");
    g.sample_size(10);
    for n in [2usize, 4, 8] {
        // Bit-identity guard: calendar on vs off must execute the same
        // simulation before we compare their wall clocks.
        assert_eq!(
            run(n, true, TICKS),
            run(n, false, TICKS),
            "calendar A/B diverged at {n} clocks"
        );
        for (label, calendar) in [("calendar", true), ("queue", false)] {
            g.bench_with_input(BenchmarkId::new(label, format!("{n}clk")), &n, |b, &n| {
                b.iter(|| run(n, calendar, TICKS).events);
            });
        }
    }
    g.finish();
}

criterion_group!(benches, multiclock);
criterion_main!(benches);
